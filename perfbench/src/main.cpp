// m3xu_perfbench: runs one benchmark workload and prints its metrics.
//
//   m3xu_perfbench --workload=plan_steady --seed=1 --seconds=30
//                  --trace=0 --latency-limit-ms=2000 --git-rev=REV
//                  [--rate-low=R --rate-high=R for serve_open]
//
// Normally started by perfbench/run.py, which builds this binary and
// passes the per-workload rates and latency limit from
// perfbench/config.json. Every flag is required; none has a default.
// The last line of output is `RESULT {...}`: correct/attempted/failed
// plus every end-to-end metric (--trace=0) or every per-layer metric
// (--trace=1).
// Exit status is nonzero when any checked output differs bitwise from
// the per-dot route.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "core/microkernel.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

int pool_threads(bool serve, unsigned nproc) {
  const int n = static_cast<int>(std::max(1u, nproc));
  return serve ? std::max(1, n - kServeLoadThreads)
               : std::min(kPlanThreadsMax, n);
}

void write_span_file(const SpanLog& log, const Options& opt) {
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".trace.json";
  if (log.write_perfetto(path, opt.environment_json)) {
    std::printf("span file: %s (%zu spans, Perfetto / chrome://tracing)\n",
                path.c_str(), log.spans().size());
  } else {
    std::printf("span file: could not write %s\n", path.c_str());
  }
}

namespace {

std::string env_or_null(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return "null";
  std::string quoted = "\"";
  quoted += m3xu::telemetry::json_escape(v);
  quoted += '"';
  return quoted;
}

/// The pinned environment every result is recorded with, as one line
/// of JSON.
std::string environment_json(const Options& opt, bool serve,
                             const std::string& git_rev,
                             int pool_threads_built) {
  const m3xu::core::MkBlockShape blk = m3xu::core::mk_block_resolve(0, 0);
  const m3xu::core::MkVariant variant =
      m3xu::core::mk_variant_resolve(m3xu::core::MkVariant::kAuto);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%.17g,\"trace\":%s,\"pool_threads\":%d,"
      "\"pool_threads_built\":%d,\"pool_source\":\"%s\","
      "\"server_executors\":%d,\"mk_variant\":\"%s\",\"mk_block\":\"%dx%d\","
      "\"M3XU_MK_VARIANT\":%s,\"M3XU_THREADS\":%s,\"telemetry\":\"%s\","
      "\"ndebug\":%s,\"nproc\":%u,\"git_rev\":\"%s\",\"compiler\":\"%s\"}",
      opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? "true" : "false",
      opt.threads, pool_threads_built,
      serve ? "explicit: nproc - kServeLoadThreads"
            : "explicit: min(kPlanThreadsMax, nproc)",
      kServeExecutors,
      m3xu::core::mk_variant_name(variant), blk.mr, blk.nr,
      env_or_null("M3XU_MK_VARIANT").c_str(),
      env_or_null("M3XU_THREADS").c_str(),
      M3XU_TELEMETRY_ENABLED ? "ON" : "OFF",
#ifdef NDEBUG
      "true",
#else
      "false",
#endif
      std::thread::hardware_concurrency(),
      m3xu::telemetry::json_escape(git_rev).c_str(),
      m3xu::telemetry::json_escape(__VERSION__).c_str());
  return buf;
}

void print_metrics(const Metrics& m, const char* note) {
  for (const Metric& x : m.items()) {
    std::printf("%-38s %20.6g  %-8s %-7ld %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.samples, note);
  }
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const Metric& x : m.items()) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", x.value);
    s += first ? "" : ", ";
    s += "\"" + x.name + "\": {\"value\": " + num + ", \"unit\": \"" +
         x.unit + "\"}";
    first = false;
  }
  return s + "}";
}

std::string result_json(const Outcome& o) {
  return std::string("{\"correct\": ") + (o.bits_ok ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) +
         ", \"metrics\": " + metrics_json(o.metrics) + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const m3xu::Cli cli(argc, argv);
  Options opt;
  opt.workload = cli.get("workload", "");
  const std::int64_t seed = cli.get_int("seed", -1);
  const std::int64_t trace = cli.get_int("trace", -1);
  opt.seconds = cli.get_double("seconds", 0.0);
  opt.latency_limit_ms = cli.get_double("latency-limit-ms", 0.0);
  opt.rate_low_rps = cli.get_double("rate-low", 0.0);
  opt.rate_high_rps = cli.get_double("rate-high", 0.0);
  const std::string git_rev = cli.get("git-rev", "");

  const bool serve = opt.workload == "serve_open";
  const bool rates = opt.rate_low_rps > 0 && opt.rate_high_rps > 0;
  if ((opt.workload != "plan_steady" && !serve) ||
      seed < 0 || (trace != 0 && trace != 1) || opt.seconds <= 0 ||
      opt.latency_limit_ms <= 0 || serve != rates ||
      git_rev.empty()) {
    std::fprintf(stderr,
                 "usage: m3xu_perfbench --workload=plan_steady|serve_open "
                 "--seed=S --seconds=T "
                 "--trace=0|1 --latency-limit-ms=L --git-rev=REV "
                 "[--rate-low=R --rate-high=R, serve_open only]\n");
    return 2;
  }
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.trace = trace == 1;
  opt.threads = pool_threads(serve, std::thread::hardware_concurrency());
  // Size the process-wide pool explicitly so M3XU_THREADS never
  // decides it. Only the server uses it; plan_steady runs on a pool of
  // its own and never builds the global one.
  m3xu::ThreadPool::configure_global(static_cast<std::size_t>(opt.threads));
  const int built = serve ? static_cast<int>(
                                m3xu::ThreadPool::global().thread_count())
                          : opt.threads;
  opt.environment_json = environment_json(opt, serve, git_rev, built);
  std::printf("ENV %s\n", opt.environment_json.c_str());

  Outcome out;
  if (opt.workload == "plan_steady") {
    out = run_plan_steady(opt);
  } else {
    out = run_serve_open(opt);
  }
  // failed_ratio is carried by the result's failed/attempted: it is 0
  // on a correct program, and a metric must never read 0.
  out.info.set("failed_ratio",
               out.attempted > 0
                   ? static_cast<double>(out.failed) / out.attempted
                   : 0.0,
               "ratio", out.attempted);
  std::printf("\n%-38s %20s  %-8s %s\n", "metric", "value", "unit", "samples");
  print_metrics(out.metrics, "");
  print_metrics(out.info, "(not in the result)");
  std::printf("INFO %s\n", metrics_json(out.info).c_str());
  std::printf("RESULT %s\n", result_json(out).c_str());
  std::fflush(stdout);
  return out.bits_ok ? 0 : 1;
}
