// plan_steady: a closed loop with one caller driving gemm::GemmPlan on
// an explicitly sized pool.
#include <algorithm>
#include <complex>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/microkernel.hpp"
#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "layers.hpp"
#include "operands.hpp"
#include "replay.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using m3xu::Rng;
using m3xu::ThreadPool;
using m3xu::gemm::GemmPlan;
using m3xu::gemm::Matrix;
using m3xu::gemm::PlanKey;
using m3xu::gemm::TiledGemmStats;
namespace core = m3xu::core;
namespace telemetry = m3xu::telemetry;

// plan_steady: 512^3 sgemm and 192^3 cgemm, four cgemm executes per
// sgemm execute (about equal time each), 8 checked rows per operand.
constexpr int kSteadySgemm = 512;
constexpr int kSteadyCgemm = 192;
constexpr int kSteadyCgemmPerSgemm = 4;
constexpr int kSteadyVerifyRows = 8;

// --- one timed call and a window of them --------------------------------

struct OpRecord {
  bool cplx = false;
  int m = 0, n = 0, k = 0;
  double wall_ns = 0;  // the execute call
  double cpu_ns = 0;
  bool ok = true;
  // Whether latency_p50_ms counts this call (plan_steady: sgemm only).
  bool latency_sample = true;
  TiledGemmStats stats;
  // Traced windows only: packed elements of this call, from the
  // registry counters around it.
  double a_elems = 0, b_elems = 0;
};

struct Window {
  std::vector<OpRecord> ops;
  double wall_s = 0;  // sum of timed call walls
  double elapsed_s = 0;  // the whole window, checks and tracing included
  CounterDelta counters;
};

/// Times one execute of `plan`. `c` must hold C0.
template <typename T>
OpRecord timed_call(SpanLog& log, bool traced, std::uint64_t id,
                    ThreadPool& pool, const GemmPlan& plan,
                    const Operand<T>& op, Matrix<T>& c) {
  OpRecord rec;
  rec.cplx = std::is_same_v<T, cf>;
  rec.m = op.a.rows();
  rec.n = op.b.cols();
  rec.k = op.a.cols();
  std::optional<telemetry::Snapshot> before;
  if (traced) before = telemetry::snapshot();
  m3xu::gemm::ExecRails rails;
  rails.pool = &pool;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  rec.stats = plan.execute(op.a, op.b, c, rails);
  const std::uint64_t t1 = now_ns();
  const std::uint64_t cpu1 = process_cpu_ns();
  rec.wall_ns = static_cast<double>(t1 - t0);
  rec.cpu_ns = static_cast<double>(cpu1 - cpu0);
  rec.ok = rows_match(c, op);
  if (traced) {
    const CounterDelta d = counter_delta(*before, telemetry::snapshot());
    rec.a_elems = rec.cplx ? d.pack_a_elems_c : d.pack_a_elems_s;
    rec.b_elems = rec.cplx ? d.pack_b_elems_c : d.pack_b_elems_s;
    log.add("gemm.plan.execute", t0, t1, id);
  }
  return rec;
}

// --- metrics -------------------------------------------------------------

void report_end_to_end(Metrics& m, Metrics& info, const Window& w,
                       const Options& opt,
                       const std::vector<double>& setup_s) {
  std::vector<double> lat_ms;
  // Useful flops and call wall ns per dtype, [0] sgemm, [1] cgemm.
  double flops[2] = {0, 0}, wall[2] = {0, 0};
  long calls[2] = {0, 0};
  double cpu = 0, macs = 0;
  long good = 0;
  for (const OpRecord& r : w.ops) {
    flops[r.cplx] += useful_flops(r.m, r.n, r.k, r.cplx);
    wall[r.cplx] += r.wall_ns;
    ++calls[r.cplx];
    if (r.latency_sample) lat_ms.push_back(r.wall_ns * 1e-6);
    cpu += r.cpu_ns;
    macs += real_macs(r.m, r.n, r.k, r.cplx);
    if (r.ok && r.wall_ns * 1e-6 <= opt.latency_limit_ms) ++good;
  }
  const long n = static_cast<long>(w.ops.size());
  m.set("setup_s", median(setup_s), "s", static_cast<long>(setup_s.size()));
  m.set("sgemm_gflops", wall[0] > 0 ? flops[0] / wall[0] : 0.0, "GFLOP/s",
        calls[0]);
  m.set("cgemm_gflops", wall[1] > 0 ? flops[1] / wall[1] : 0.0, "GFLOP/s",
        calls[1]);
  m.set("cpu_ns_per_mac", macs > 0 ? cpu / macs : 0.0, "ns", n);
  m.set("gemms_per_s", static_cast<double>(n) / w.wall_s, "1/s", n);
  const long nl = static_cast<long>(lat_ms.size());
  m.set("latency_p50_ms", percentile(lat_ms, 50), "ms", nl);
  for (const double p : {90.0, 95.0, 99.0}) {
    info.set("latency_p" + std::to_string(static_cast<int>(p)) + "_ms",
             percentile(lat_ms, p), "ms", nl);
  }
  m.set("slo_goodput_rps", static_cast<double>(good) / w.wall_s, "1/s", n);
}

/// Per-layer metrics and the self-time table of a traced window.
void report_layers(Metrics& m, const Window& traced, const Window& untraced,
                   const Options& opt, const std::vector<double>& compile_us,
                   PanelShape s_shape, PanelShape c_shape,
                   const SpanLog& log) {
  declare_layer_metrics(m);
  const core::M3xuConfig ecfg;
  const ReplayRates rates = replay_core(ecfg, s_shape, c_shape, opt.seed, 5);
  ExecLedger ledger(rates, opt.threads);
  std::vector<double> ratios, exec_ms;
  for (const OpRecord& r : traced.ops) {
    exec_ms.push_back(r.wall_ns * 1e-6);
    const MacSplit ms = ledger.add(r.stats, r.m, r.n, r.k, r.cplx);
    const double measured = r.stats.pack_seconds + r.stats.mainloop_seconds;
    if (measured > 0) {
      ratios.push_back(predict_seconds(r.cplx ? rates.cgemm : rates.sgemm, ms,
                                       r.a_elems, r.b_elems) /
                       measured);
    }
  }

  if (!compile_us.empty()) m.set("plan.compile_us", median(compile_us), "us");
  m.set("plan.execute_ms", median(exec_ms), "ms");
  report_driver(m, ledger.totals());
  report_counters(m, traced.counters, traced.wall_s, opt.threads);
  report_replay(m, rates, traced.counters, ledger.macs(false),
                ledger.macs(true), ratios);
  // Window time per call, so the spans and counter snapshots the traced
  // calls add outside their own timed interval are included.
  if (!untraced.ops.empty() && !traced.ops.empty()) {
    m.set("trace.overhead_ratio",
          (traced.elapsed_s / static_cast<double>(traced.ops.size())) /
              (untraced.elapsed_s / static_cast<double>(untraced.ops.size())),
          "ratio");
  }
  m.set("trace.samples", static_cast<double>(traced.ops.size()), "count");

  // Self times: the execute span attributed to driver phases and core
  // stages.
  const double n =
      std::max<double>(1.0, static_cast<double>(traced.ops.size()));
  std::vector<SelfTimeRow> rows;
  double execute_self_ms = 0;
  for (const auto& [name, ns] : self_time_ns(log.spans())) {
    if (name == "gemm.plan.execute") execute_self_ms = ns * 1e-6 / n;
  }
  for (const SelfTimeRow& r : ledger.attribute(execute_self_ms)) {
    rows.push_back(r);
  }
  report_self_times(m, rows);
  print_self_time_table(opt.workload + ": self time per call (traced window, " +
                            std::to_string(traced.ops.size()) + " calls)",
                        rows, traced.wall_s * 1e3 / n);
  print_attribution_check(ledger, execute_self_ms);
}

/// Runs the measured window over `step`, which performs one call and
/// returns whether the window may end after it. A traced run splits
/// the time: an untraced half (the overhead reference), then a traced
/// half.
template <typename Step>
void run_windows(const Options& opt, Step&& step, Window* untraced,
                 Window* traced) {
  const auto run = [&](Window& w, double seconds, bool tr) {
    const telemetry::Snapshot before = telemetry::snapshot();
    const std::uint64_t start = now_ns();
    std::size_t i = 0;
    for (;;) {
      const bool can_end = step(w, i++, tr);
      if (can_end && static_cast<double>(now_ns() - start) * 1e-9 >= seconds) {
        break;
      }
    }
    w.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
    w.counters = counter_delta(before, telemetry::snapshot());
    for (const OpRecord& r : w.ops) {
      w.wall_s += r.wall_ns * 1e-9;
    }
  };
  if (opt.trace) {
    run(*untraced, opt.seconds / 2, false);
    run(*traced, opt.seconds / 2, true);
  } else {
    run(*untraced, opt.seconds, false);
  }
}

Outcome finish(const Options& opt, const Window& untraced, const Window& traced,
               const std::vector<double>& setup_s,
               const std::vector<double>& compile_us, bool setup_bits_ok,
               PanelShape s_shape, PanelShape c_shape, const SpanLog& log) {
  Outcome out;
  out.bits_ok = setup_bits_ok;
  for (const Window* w : {&untraced, &traced}) {
    for (const OpRecord& r : w->ops) {
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
        out.bits_ok = false;
      }
    }
  }
  if (opt.trace) {
    report_layers(out.metrics, traced, untraced, opt, compile_us, s_shape,
                  c_shape, log);
    write_span_file(log, opt);
  } else {
    report_end_to_end(out.metrics, out.info, untraced, opt, setup_s);
  }
  std::printf("%s: %ld calls checked bitwise against the per-dot route, %ld "
              "failed\n",
              opt.workload.c_str(), out.attempted, out.failed);
  return out;
}

}  // namespace

Outcome run_plan_steady(const Options& opt) {
  ThreadPool pool(static_cast<std::size_t>(opt.threads));
  const core::M3xuConfig ecfg;
  const core::M3xuEngine golden_engine(ecfg);
  constexpr int kS = kSteadySgemm, kC = kSteadyCgemm;
  struct State {
    Operand<float> s;
    Operand<cf> c;
    std::optional<GemmPlan> ps, pc;
    Matrix<float> ref_s, out_s;
    Matrix<cf> ref_c, out_c;
  };
  State st;
  std::vector<double> setup_s, compile_us;
  bool setup_ok = true;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    State fresh;
    Rng rng(opt.seed);
    fresh.s = make_operand<float>(kS, kS, kS, kSteadyVerifyRows, rng);
    fresh.c = make_operand<cf>(kC, kC, kC, kSteadyVerifyRows, rng);
    // Golden rows, one per pool thread at a time.
    pool.parallel_for(fresh.s.rows.size(), 1, [&](std::size_t r) {
      golden_row(golden_engine, fresh.s, r);
    });
    pool.parallel_for(fresh.c.rows.size(), 1, [&](std::size_t r) {
      golden_row(golden_engine, fresh.c, r);
    });
    const std::uint64_t tc = now_ns();
    fresh.ps.emplace(GemmPlan::compile(ecfg, PlanKey{kS, kS, kS, false}));
    fresh.pc.emplace(GemmPlan::compile(ecfg, PlanKey{kC, kC, kC, true}));
    compile_us.push_back(static_cast<double>(now_ns() - tc) * 1e-3 / 2);
    fresh.ps->prepack_b(fresh.s.b);
    fresh.pc->prepack_b(fresh.c.b);
    // Warm-up: one execute each, checked against the golden rows; the
    // full outputs become the reference every timed execute must
    // reproduce bit for bit.
    m3xu::gemm::ExecRails rails;
    rails.pool = &pool;
    fresh.ref_s = fresh.s.c0;
    fresh.ref_c = fresh.c.c0;
    fresh.ps->execute(fresh.s.a, fresh.s.b, fresh.ref_s, rails);
    fresh.pc->execute(fresh.c.a, fresh.c.b, fresh.ref_c, rails);
    setup_ok = setup_ok && rows_match(fresh.ref_s, fresh.s) &&
               rows_match(fresh.ref_c, fresh.c);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    st = std::move(fresh);
  }

  SpanLog log(opt.trace);
  const int per_round = 1 + kSteadyCgemmPerSgemm;
  const auto step = [&](Window& w, std::size_t i, bool traced) {
    const bool sgemm = i % static_cast<std::size_t>(per_round) == 0;
    OpRecord rec;
    if (sgemm) {
      st.out_s = st.s.c0;
      rec = timed_call<float>(log, traced, i, pool, *st.ps, st.s, st.out_s);
      rec.ok = rec.ok && same_bits(st.out_s, st.ref_s);
    } else {
      st.out_c = st.c.c0;
      rec = timed_call<cf>(log, traced, i, pool, *st.pc, st.c, st.out_c);
      rec.ok = rec.ok && same_bits(st.out_c, st.ref_c);
      // A 192^3 cgemm is four unequal tiles on four threads, so its
      // time follows the slowest core; the 512^3 sgemm spreads sixteen
      // tiles and carries the workload's latency.
      rec.latency_sample = false;
    }
    w.ops.push_back(rec);
    // Whole rounds only, so every window has the same sgemm:cgemm mix.
    return (i + 1) % static_cast<std::size_t>(per_round) == 0;
  };
  Window untraced, traced;
  run_windows(opt, step, &untraced, &traced);
  const m3xu::gemm::TileConfig tile;
  return finish(opt, untraced, traced, setup_s, compile_us, setup_ok,
                dominant_panel(tile, kS, kS, kS),
                dominant_panel(tile, kC, kC, kC), log);
}

}  // namespace perfbench
