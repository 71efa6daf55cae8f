// serve_open: open-loop Poisson traffic against serve::GemmServer at
// two fixed absolute rates. A window alternates phases of the low and
// the high rate, a few seconds each, so both rates see the same host
// over the whole run. The low-rate phases give the latency (service
// time plus little queueing), the high-rate phases the goodput under
// queueing and the queue-wait figures.
//
// Load side: the calling thread generates arrivals (sleeping until
// each one is due, then submitting) and one observer thread blocks on
// each request in submission order. A request's latency runs from when
// it was due to the server's own "request.done" trace event: a late
// generator cannot hide queueing and a busy observer cannot inflate
// latency. Both lags are reported as per-layer metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/microkernel.hpp"
#include "layers.hpp"
#include "operands.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using m3xu::Rng;
using m3xu::ThreadPool;
using m3xu::gemm::Matrix;
namespace serve = m3xu::serve;
namespace telemetry = m3xu::telemetry;

constexpr int kSgemmDim = 96;
// Not a multiple of the 8x8 register block: each cgemm's last two rows
// and columns take the per-element edge route.
constexpr int kCgemmDim = 50;
// Distinct B matrices a fresh-weights tenant rotates through.
constexpr int kFreshVariants = 4;
// Target length of one rate phase; a window holds whole low/high pairs.
constexpr double kRatePhaseSeconds = 5.0;

/// One tenant: its dtype, how it sends B, and its operands (one per B
/// variant) with full golden outputs.
struct Tenant {
  std::string name;
  bool cplx = false;
  // Shared weights: one B under a fixed b_key (pack-cache reads).
  // Fresh weights: a different B every request; with `unique_keys`
  // each request carries a new b_key (pack-cache writes, evictions),
  // without it no key at all (the tenant plan's B store refreshes).
  bool shared = false;
  bool unique_keys = false;
  std::uint64_t b_key = 0;
  std::vector<Operand<float>> s;
  std::vector<Operand<cf>> c;
  int next_variant = 0;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  std::vector<Tenant> t(4);
  t[0] = {"shared.sgemm", false, true, false, 101, {}, {}, 0};
  t[1] = {"shared.cgemm", true, true, false, 102, {}, {}, 0};
  t[2] = {"fresh.sgemm", false, false, true, 0, {}, {}, 0};
  t[3] = {"fresh.cgemm", true, false, false, 0, {}, {}, 0};
  Rng rng(seed);
  for (Tenant& x : t) {
    const int variants = x.shared ? 1 : kFreshVariants;
    for (int v = 0; v < variants; ++v) {
      // Full golden outputs: verify every row.
      if (x.cplx) {
        x.c.push_back(make_operand<cf>(kCgemmDim, kCgemmDim, kCgemmDim,
                                       kCgemmDim, rng));
      } else {
        x.s.push_back(make_operand<float>(kSgemmDim, kSgemmDim, kSgemmDim,
                                          kSgemmDim, rng));
      }
    }
  }
  return t;
}

void golden_all(std::vector<Tenant>& tenants, ThreadPool& pool) {
  const m3xu::core::M3xuEngine engine;
  struct Job {
    Operand<float>* s;
    Operand<cf>* c;
    std::size_t row;
  };
  std::vector<Job> jobs;
  for (Tenant& t : tenants) {
    for (Operand<float>& op : t.s) {
      for (std::size_t r = 0; r < op.rows.size(); ++r) {
        jobs.push_back({&op, nullptr, r});
      }
    }
    for (Operand<cf>& op : t.c) {
      for (std::size_t r = 0; r < op.rows.size(); ++r) {
        jobs.push_back({nullptr, &op, r});
      }
    }
  }
  pool.parallel_for(jobs.size(), 4, [&](std::size_t i) {
    const Job& j = jobs[i];
    if (j.s != nullptr) {
      golden_row(engine, *j.s, j.row);
    } else {
      golden_row(engine, *j.c, j.row);
    }
  });
}

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.executors = kServeExecutors;
  cfg.abft.enable = true;
  cfg.trace_requests = true;
  return cfg;
}

/// One request's owned operands and options, built before its due
/// time so the copy is not charged to the server.
struct Prepared {
  bool cplx = false;
  int variant = 0;
  serve::RequestOptions options;
  Matrix<float> a, b, c;
  Matrix<cf> ca, cb, cc;
};

Prepared prepare(Tenant& t, std::uint64_t request_key) {
  Prepared p;
  p.cplx = t.cplx;
  p.options.tenant = t.name;
  const int nv = static_cast<int>(t.cplx ? t.c.size() : t.s.size());
  p.variant = t.next_variant;
  t.next_variant = (t.next_variant + 1) % nv;
  if (t.shared) {
    p.options.b_key = t.b_key;
  } else if (t.unique_keys) {
    p.options.b_key = request_key;
  }
  const std::size_t v = static_cast<std::size_t>(p.variant);
  if (t.cplx) {
    p.ca = t.c[v].a;
    p.cb = t.c[v].b;
    p.cc = t.c[v].c0;
  } else {
    p.a = t.s[v].a;
    p.b = t.s[v].b;
    p.c = t.s[v].c0;
  }
  return p;
}

serve::RequestHandle submit(serve::GemmServer& srv, Prepared& p) {
  if (p.cplx) {
    return srv.submit_cgemm(std::move(p.ca), std::move(p.cb), std::move(p.cc),
                            p.options);
  }
  return srv.submit_sgemm(std::move(p.a), std::move(p.b), std::move(p.c),
                          p.options);
}

bool result_matches(const serve::Request& req, const Tenant& t, int variant) {
  if (t.cplx) {
    return rows_match(req.result_c64(), t.c[static_cast<std::size_t>(variant)]);
  }
  return rows_match(req.result_f32(), t.s[static_cast<std::size_t>(variant)]);
}

/// Everything the load side learned about one request.
struct RequestRecord {
  int tenant = 0;
  int variant = 0;
  int phase = 0;  // the rate phase it arrived in: odd phases are high rate
  std::uint64_t due_ns = 0, submit_ns = 0, submit_end_ns = 0;
  // From the request's TraceContext (0 when absent).
  std::uint64_t admit_ns = 0, dequeue_ns = 0, exec_start_ns = 0,
                exec_done_ns = 0, done_ns = 0;
  std::uint64_t observed_ns = 0;
  double backoff_ms = 0;
  int attempts = 0;
  serve::RequestStatus status = serve::RequestStatus::kFailed;
  bool bits_ok = true;
  m3xu::gemm::TiledGemmStats stats;
  bool high_rate() const { return phase % 2 == 1; }
  double latency_ms() const {
    const std::uint64_t end = done_ns != 0 ? done_ns : observed_ns;
    return static_cast<double>(end - due_ns) * 1e-6;
  }
};

void read_events(const serve::Request& req, RequestRecord& r) {
  if (req.trace() == nullptr) return;
  for (const telemetry::TraceEvent& e : req.trace()->events()) {
    const std::string name = e.name;
    if (name == "request.admit") {
      r.admit_ns = e.ts_ns;
    } else if (name == "request.dequeue") {
      r.dequeue_ns = e.ts_ns;
    } else if (name == "exec.start") {
      if (r.exec_start_ns == 0) r.exec_start_ns = e.ts_ns;
    } else if (name == "exec.done") {
      r.exec_done_ns = e.ts_ns;
    } else if (name == "request.done") {
      r.done_ns = e.ts_ns;
    } else if (name == "request.retry_backoff") {
      r.backoff_ms += static_cast<double>(e.a1);
    }
  }
}

bool is_ok(const RequestRecord& r) {
  return r.status == serve::RequestStatus::kOk && r.bits_ok;
}

/// Whether a request is a latency sample: kOk, bit-correct, a 96^3
/// sgemm, arrived in a phase of the given rate. A 50^3 cgemm request
/// takes about two thirds as long, so over both dtypes the latencies
/// are bimodal with equal weights and their median falls in the gap
/// between the modes, where it moves with the mix.
bool latency_sample(const RequestRecord& r, const std::vector<Tenant>& t,
                    bool high_rate) {
  return is_ok(r) && r.high_rate() == high_rate &&
         !t[static_cast<std::size_t>(r.tenant)].cplx;
}

/// A request's due/submit/admit/dequeue/exec.start/exec.done/done/
/// observed timestamps, each clamped to be no earlier than the one
/// before, so consecutive pairs partition its latency.
std::array<std::uint64_t, 8> boundaries(const RequestRecord& r) {
  std::array<std::uint64_t, 8> b = {r.due_ns,        r.submit_ns,
                                    r.admit_ns,      r.dequeue_ns,
                                    r.exec_start_ns, r.exec_done_ns,
                                    r.done_ns,       r.observed_ns};
  for (std::size_t j = 1; j < b.size(); ++j) b[j] = std::max(b[j], b[j - 1]);
  return b;
}

/// Whether a request's events are complete enough to partition it.
bool partitionable(const RequestRecord& r) {
  return is_ok(r) && r.exec_start_ns != 0 && r.done_ns != 0;
}

/// The traced window's spans of one request, recorded by the observer
/// as the request completes: the request as root, the segments between
/// its boundaries, and the submit call.
void record_spans(SpanLog& log, const RequestRecord& r, std::uint64_t id) {
  const std::array<std::uint64_t, 8> b = boundaries(r);
  const int root = log.add("request", b[0], b[7], id);
  const char* const names[] = {"load.generator", "serve.admission",
                               "serve.queue",    "serve.server",
                               "gemm.plan.execute", "serve.server",
                               "load.observer"};
  for (std::size_t j = 0; j < std::size(names); ++j) {
    log.add(names[j], b[j], b[j + 1], id, root);
  }
  log.add("serve.submit", r.submit_ns, r.submit_end_ns, id, root);
}

struct ServeWindow {
  std::vector<RequestRecord> requests;
  double wall_s = 0;  // first due to last completion
  std::uint64_t start_ns = 0;
  double phase_s = 0;  // scheduled length of one rate phase
  int phases = 0;
  double cpu_ns = 0;
  std::size_t queue_depth_max = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  CounterDelta counters;
};

/// One open-loop window of `seconds`: whole pairs of a low-rate and a
/// high-rate phase, each phase's arrivals a Poisson process conditioned
/// on its count (rate x phase length, sorted uniform times). With
/// `log`, the observer records each request's spans as it completes
/// (the traced window); without it, none (the untraced one).
ServeWindow run_window(serve::GemmServer& srv, std::vector<Tenant>& tenants,
                       const Options& opt, double seconds, Rng& rng,
                       std::uint64_t* next_key, SpanLog* log) {
  const int pairs = std::max(
      1, static_cast<int>(seconds / (2 * kRatePhaseSeconds) + 0.5));
  const double phase_s = seconds / (2 * pairs);
  std::vector<std::pair<double, int>> arrivals;  // (offset, phase)
  for (int p = 0; p < 2 * pairs; ++p) {
    const double rate = p % 2 == 1 ? opt.rate_high_rps : opt.rate_low_rps;
    const long n = std::lround(rate * phase_s);
    for (long i = 0; i < n; ++i) {
      arrivals.emplace_back((p + rng.next_double()) * phase_s, p);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  const std::size_t count = arrivals.size();
  std::vector<int> tenant_of(count);
  for (int& t : tenant_of) {
    t = static_cast<int>(rng.next_below(tenants.size()));
  }

  ServeWindow w;
  w.phase_s = phase_s;
  w.phases = 2 * pairs;
  w.requests.resize(count);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, serve::RequestHandle>> pending;
  bool closed = false;

  // The observer: blocks on each request in submission order. The
  // closer ends it and joins it on every way out of this function.
  const auto close = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_one();
  };
  std::thread observer([&] {
    for (;;) {
      std::pair<std::size_t, serve::RequestHandle> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      const serve::Request& req = *item.second;
      req.wait();
      RequestRecord& r = w.requests[item.first];
      r.observed_ns = now_ns();
      read_events(req, r);
      r.status = req.status();
      r.attempts = req.attempts();
      if (r.status == serve::RequestStatus::kOk) {
        r.stats = req.stats();
        r.bits_ok = result_matches(
            req, tenants[static_cast<std::size_t>(r.tenant)], r.variant);
      }
      if (log != nullptr && partitionable(r)) record_spans(*log, r, item.first);
    }
  });
  struct Joiner {
    std::thread& t;
    const std::function<void()> close;
    ~Joiner() {
      close();
      if (t.joinable()) t.join();
    }
  } joiner{observer, close};

  const telemetry::Snapshot before = telemetry::snapshot();
  const std::uint64_t hits0 = srv.pack_cache().hits();
  const std::uint64_t misses0 = srv.pack_cache().misses();
  const std::uint64_t cpu0 = process_cpu_ns();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t start_ns = now_ns();
  w.start_ns = start_ns;
  for (std::size_t i = 0; i < count; ++i) {
    RequestRecord& r = w.requests[i];
    const double offset = arrivals[i].first;
    r.tenant = tenant_of[i];
    r.phase = arrivals[i].second;
    Prepared p = prepare(tenants[static_cast<std::size_t>(r.tenant)],
                         (*next_key)++);
    r.variant = p.variant;
    const auto due = start + std::chrono::nanoseconds(
                                 static_cast<long long>(offset * 1e9));
    std::this_thread::sleep_until(due);
    r.due_ns = start_ns + static_cast<std::uint64_t>(offset * 1e9);
    r.submit_ns = now_ns();
    serve::RequestHandle h = submit(srv, p);
    r.submit_end_ns = now_ns();
    w.queue_depth_max = std::max(w.queue_depth_max, srv.queued());
    {
      const std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(i, std::move(h));
    }
    cv.notify_one();
  }
  close();
  observer.join();
  w.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0);
  w.counters = counter_delta(before, telemetry::snapshot());
  w.cache_hits = srv.pack_cache().hits() - hits0;
  w.cache_misses = srv.pack_cache().misses() - misses0;
  std::uint64_t end_ns = start_ns;
  for (const RequestRecord& r : w.requests) {
    end_ns = std::max(end_ns, r.done_ns != 0 ? r.done_ns : r.observed_ns);
  }
  w.wall_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  return w;
}

/// The high-rate phases' time: each from its scheduled start to its
/// scheduled end or its last request's end, whichever is later.
double high_rate_seconds(const ServeWindow& w) {
  std::vector<std::uint64_t> end(static_cast<std::size_t>(w.phases), 0);
  for (const RequestRecord& r : w.requests) {
    const std::uint64_t done = r.done_ns != 0 ? r.done_ns : r.observed_ns;
    std::uint64_t& e = end[static_cast<std::size_t>(r.phase)];
    e = std::max(e, done);
  }
  double s = 0;
  for (int p = 1; p < w.phases; p += 2) {
    const std::uint64_t begin =
        w.start_ns + static_cast<std::uint64_t>(p * w.phase_s * 1e9);
    const std::uint64_t sched_end =
        w.start_ns + static_cast<std::uint64_t>((p + 1) * w.phase_s * 1e9);
    s += static_cast<double>(std::max(end[static_cast<std::size_t>(p)],
                                      sched_end) -
                             begin) *
         1e-9;
  }
  return s;
}

void report_end_to_end(Metrics& m, Metrics& info, const ServeWindow& w,
                       const std::vector<Tenant>& tenants, const Options& opt,
                       const std::vector<double>& setup_s) {
  // Latency of kOk, bit-correct sgemm requests per rate: a shed request
  // ends early and would pull the percentiles down.
  std::vector<double> lat[2];  // [0] low rate, [1] high rate
  // Execute ns (exec.start -> exec.done) per dtype, [0] sgemm,
  // [1] cgemm, over both rates. The GFLOP/s are a request's useful flops
  // over the median execute: the server's compute rate, with the wait
  // before it in latency_p50_ms. The median leaves out the requests a
  // CPU-steal burst stretched.
  std::vector<double> exec_ns[2];
  double macs = 0;
  long ok = 0, high = 0, good_high = 0;
  for (const RequestRecord& r : w.requests) {
    const bool cplx = tenants[static_cast<std::size_t>(r.tenant)].cplx;
    const int d = cplx ? kCgemmDim : kSgemmDim;
    high += r.high_rate();
    if (!is_ok(r)) continue;
    ++ok;
    if (latency_sample(r, tenants, r.high_rate())) {
      lat[r.high_rate()].push_back(r.latency_ms());
    }
    macs += real_macs(d, d, d, cplx);
    if (r.exec_start_ns != 0 && r.exec_done_ns > r.exec_start_ns) {
      exec_ns[cplx].push_back(
          static_cast<double>(r.exec_done_ns - r.exec_start_ns));
    }
    if (r.high_rate() && r.latency_ms() <= opt.latency_limit_ms) {
      ++good_high;
    }
  }
  m.set("setup_s", median(setup_s), "s", static_cast<long>(setup_s.size()));
  const auto gflops = [&](bool cplx) {
    const int d = cplx ? kCgemmDim : kSgemmDim;
    const double ns = median(exec_ns[cplx]);
    return ns > 0 ? useful_flops(d, d, d, cplx) / ns : 0.0;
  };
  m.set("sgemm_gflops", gflops(false), "GFLOP/s",
        static_cast<long>(exec_ns[0].size()));
  m.set("cgemm_gflops", gflops(true), "GFLOP/s",
        static_cast<long>(exec_ns[1].size()));
  m.set("cpu_ns_per_mac", macs > 0 ? w.cpu_ns / macs : 0.0, "ns", ok);
  m.set("gemms_per_s", static_cast<double>(ok) / w.wall_s, "1/s", ok);
  m.set("latency_p50_ms", percentile(lat[0], 50), "ms",
        static_cast<long>(lat[0].size()));
  for (const double p : {90.0, 95.0, 99.0}) {
    info.set("latency_p" + std::to_string(static_cast<int>(p)) + "_ms",
             percentile(lat[0], p), "ms", static_cast<long>(lat[0].size()));
  }
  for (const double p : {50.0, 99.0}) {
    info.set("peak_latency_p" + std::to_string(static_cast<int>(p)) + "_ms",
             percentile(lat[1], p), "ms", static_cast<long>(lat[1].size()));
  }
  // Goodput at the high rate: its requests that ended kOk, bit-correct
  // and within the limit, per second of high-rate phases, each timed
  // from its start to the end of its last request.
  m.set("slo_goodput_rps",
        static_cast<double>(good_high) / high_rate_seconds(w), "1/s", high);
}

void report_layers(Metrics& m, const ServeWindow& traced,
                   const ServeWindow& untraced,
                   const std::vector<Tenant>& tenants, const Options& opt) {
  declare_layer_metrics(m);
  const m3xu::core::M3xuConfig ecfg;
  const m3xu::gemm::TileConfig tile;
  const ReplayRates rates = replay_core(
      ecfg, dominant_panel(tile, kSgemmDim, kSgemmDim, kSgemmDim),
      dominant_panel(tile, kCgemmDim, kCgemmDim, kCgemmDim), opt.seed, 5);

  ExecLedger ledger(rates, opt.threads);
  std::vector<double> submit_us, queue_ms, exec_ms, gen_lag, obs_lag,
      lat_shared, lat_fresh;
  double backoff = 0, attempts = 0, measured = 0;
  long shed = 0;
  // Self time per request over the partitionable requests, split at the
  // boundaries the observer recorded its spans at.
  double t_gen = 0, t_adm = 0, t_queue = 0, t_server = 0, t_exec = 0,
         t_obs = 0;
  long partitioned = 0;
  for (const RequestRecord& r : traced.requests) {
    const Tenant& t = tenants[static_cast<std::size_t>(r.tenant)];
    submit_us.push_back(static_cast<double>(r.submit_end_ns - r.submit_ns) *
                        1e-3);
    gen_lag.push_back(static_cast<double>(r.submit_ns - r.due_ns) * 1e-6);
    backoff += r.backoff_ms;
    attempts += r.attempts;
    if (r.status == serve::RequestStatus::kShed) ++shed;
    if (r.done_ns != 0) {
      const std::uint64_t done = std::min(r.observed_ns, r.done_ns);
      obs_lag.push_back(static_cast<double>(r.observed_ns - done) * 1e-6);
    }
    if (is_ok(r)) (t.shared ? lat_shared : lat_fresh).push_back(r.latency_ms());
    if (!partitionable(r)) continue;
    if (r.high_rate()) {
      queue_ms.push_back(static_cast<double>(r.dequeue_ns - r.admit_ns) *
                         1e-6);
    }
    exec_ms.push_back(static_cast<double>(r.exec_done_ns - r.exec_start_ns) *
                      1e-6);
    const int d = t.cplx ? kCgemmDim : kSgemmDim;
    ledger.add(r.stats, d, d, d, t.cplx);
    measured += r.stats.pack_seconds + r.stats.mainloop_seconds;

    const std::array<std::uint64_t, 8> b = boundaries(r);
    const auto ms_of = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x) * 1e-6;
    };
    t_gen += ms_of(b[0], b[1]);
    t_adm += ms_of(b[1], b[2]);
    t_queue += ms_of(b[2], b[3]);
    t_server += ms_of(b[3], b[4]) + ms_of(b[5], b[6]);
    t_exec += ms_of(b[4], b[5]);
    t_obs += ms_of(b[6], b[7]);
    ++partitioned;
  }

  // Replay prediction over the window: MACs per request, packed
  // elements from the registry counters of the whole window.
  const double predicted =
      predict_seconds(rates.sgemm, ledger.macs(false),
                      traced.counters.pack_a_elems_s,
                      traced.counters.pack_b_elems_s) +
      predict_seconds(rates.cgemm, ledger.macs(true),
                      traced.counters.pack_a_elems_c,
                      traced.counters.pack_b_elems_c);
  std::vector<double> ratios;
  if (measured > 0) ratios.push_back(predicted / measured);

  const double n_req =
      std::max<double>(1.0, static_cast<double>(traced.requests.size()));
  m.set("plan.execute_ms", median(exec_ms), "ms");
  report_driver(m, ledger.totals());
  report_counters(m, traced.counters, traced.wall_s, opt.threads);
  report_replay(m, rates, traced.counters, ledger.macs(false),
                ledger.macs(true), ratios);
  m.set("serve.submit_us", median(submit_us), "us");
  m.set("serve.queue_wait_ms.p50", percentile(queue_ms, 50), "ms");
  m.set("serve.queue_wait_ms.p99", percentile(queue_ms, 99), "ms");
  m.set("serve.execute_ms", median(exec_ms), "ms");
  m.set("serve.retry_backoff_ms", backoff / n_req, "ms");
  m.set("serve.attempts_per_request", attempts / n_req, "count");
  m.set("serve.shed_ratio", static_cast<double>(shed) / n_req, "ratio");
  m.set("serve.queue_depth_max", static_cast<double>(traced.queue_depth_max),
        "count");
  const double lookups =
      static_cast<double>(traced.cache_hits + traced.cache_misses);
  m.set("serve.pack_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(traced.cache_hits) / lookups : 0.0,
        "ratio");
  m.set("serve.pack_cache_hits", static_cast<double>(traced.cache_hits),
        "count");
  m.set("serve.pack_cache_misses", static_cast<double>(traced.cache_misses),
        "count");
  m.set("serve.latency_p50_ms.shared", median(lat_shared), "ms");
  m.set("serve.latency_p50_ms.fresh", median(lat_fresh), "ms");
  m.set("serve.generator_lag_ms.p99", percentile(gen_lag, 99), "ms");
  m.set("serve.generator_lag_ms.max", percentile(gen_lag, 100), "ms");
  m.set("serve.observer_lag_ms.p50", percentile(obs_lag, 50), "ms");
  m.set("serve.observer_lag_ms.p99", percentile(obs_lag, 99), "ms");
  // The traced window differs from the untraced one only by the spans
  // its observer records; a request's wall is its latency.
  std::vector<double> lat_t, lat_u;
  for (const RequestRecord& r : traced.requests) {
    if (latency_sample(r, tenants, false)) lat_t.push_back(r.latency_ms());
  }
  for (const RequestRecord& r : untraced.requests) {
    if (latency_sample(r, tenants, false)) lat_u.push_back(r.latency_ms());
  }
  if (!lat_t.empty() && !lat_u.empty()) {
    m.set("trace.overhead_ratio", median(lat_t) / median(lat_u), "ratio");
  }
  m.set("trace.samples", static_cast<double>(traced.requests.size()), "count");

  const double np = std::max<double>(1.0, static_cast<double>(partitioned));
  std::vector<SelfTimeRow> rows = {
      {"load.generator", t_gen / np, "due -> submit call"},
      {"serve.admission", t_adm / np, "submit call -> request.admit"},
      {"serve.queue", t_queue / np, "request.admit -> request.dequeue"},
      {"serve.server", t_server / np,
       "dequeue -> exec.start, exec.done -> request.done"},
  };
  for (const SelfTimeRow& r : ledger.attribute(t_exec / np)) rows.push_back(r);
  rows.push_back(
      {"load.observer", t_obs / np, "request.done -> observer wake"});
  report_self_times(m, rows);
  print_self_time_table(
      opt.workload + ": self time per kOk request (traced window, " +
          std::to_string(partitioned) + " requests)",
      rows, (t_gen + t_adm + t_queue + t_server + t_exec + t_obs) / np);
  print_attribution_check(ledger, t_exec / np);
}

}  // namespace

Outcome run_serve_open(const Options& opt) {
  // The server runs every request on the process-wide pool; main() sized
  // it explicitly before anything could build it. Golden outputs use a
  // pool of their own, gone before traffic starts.
  std::vector<Tenant> tenants;
  std::optional<serve::GemmServer> srv;
  std::vector<double> setup_s;
  bool setup_ok = true;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    srv.reset();
    std::vector<Tenant> fresh = make_tenants(opt.seed);
    {
      ThreadPool golden_pool(static_cast<std::size_t>(
          std::max(1u, std::min(4u, std::thread::hardware_concurrency()))));
      golden_all(fresh, golden_pool);
    }
    srv.emplace(server_config());
    // Warm-up: every (tenant, variant) once, checked bitwise; compiles
    // the tenant plans and fills the shared tenants' cache entries.
    std::uint64_t key = 1u << 20;
    for (Tenant& t : fresh) {
      const std::size_t nv = t.cplx ? t.c.size() : t.s.size();
      for (std::size_t v = 0; v < nv; ++v) {
        Prepared p = prepare(t, key++);
        const serve::RequestHandle h = submit(*srv, p);
        h->wait();
        setup_ok = setup_ok && h->status() == serve::RequestStatus::kOk &&
                   result_matches(*h, t, p.variant);
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    tenants = std::move(fresh);
  }

  SpanLog log(opt.trace);
  Rng rng = Rng(opt.seed).split(7);
  std::uint64_t next_key = 1u << 24;
  ServeWindow untraced, traced;
  const double first = opt.trace ? opt.seconds / 2 : opt.seconds;
  untraced = run_window(*srv, tenants, opt, first, rng, &next_key, nullptr);
  if (opt.trace) {
    traced = run_window(*srv, tenants, opt, opt.seconds / 2, rng, &next_key,
                        &log);
  }
  srv->shutdown();

  Outcome out;
  out.bits_ok = setup_ok;
  for (const ServeWindow* w : {&untraced, &traced}) {
    for (const RequestRecord& r : w->requests) {
      ++out.attempted;
      if (!r.bits_ok) out.bits_ok = false;
      if (!is_ok(r)) ++out.failed;
    }
  }
  if (opt.trace) {
    report_layers(out.metrics, traced, untraced, tenants, opt);
    write_span_file(log, opt);
  } else {
    report_end_to_end(out.metrics, out.info, untraced, tenants, opt, setup_s);
  }
  std::printf("%s: %ld requests in alternating phases of %.1f and %.1f "
              "req/s, results checked bitwise against per-dot golden "
              "outputs, %ld not kOk or mismatched\n",
              opt.workload.c_str(), out.attempted, opt.rate_low_rps,
              opt.rate_high_rps, out.failed);
  return out;
}

}  // namespace perfbench
