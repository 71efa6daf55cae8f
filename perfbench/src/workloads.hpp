// The benchmark's workloads. Each builds its inputs from the seed,
// sets up (several times, reporting the median), measures for the
// requested seconds, checks every timed output bitwise against the
// per-dot route, and fills the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Pool threads: the explicit plan pool, or the server's global pool
  /// (pool_threads() below).
  int threads = 0;
  /// Latency limit of slo_goodput_rps, ms.
  double latency_limit_ms = 0.0;
  /// serve_open: Poisson arrival rates of the low-rate and the
  /// high-rate phases, requests per second.
  double rate_low_rps = 0.0;
  double rate_high_rps = 0.0;
  /// Pre-rendered environment record, copied into the span file.
  std::string environment_json = "{}";
};

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// GemmServer executor threads on serve_open.
inline constexpr int kServeExecutors = 2;
/// Load-side threads of serve_open: the arrival generator and
/// the completion observer. The server's pool gets the rest of nproc.
inline constexpr int kServeLoadThreads = 2;
/// Largest pool of plan_steady: min(4, nproc) threads.
inline constexpr int kPlanThreadsMax = 4;
/// Directory the traced run writes its span file into.
inline constexpr const char* kOutDir = ".bench_out";

/// The pool size a workload runs on, from nproc; never from M3XU_THREADS.
int pool_threads(bool serve, unsigned nproc);

struct Outcome {
  bool bits_ok = true;  // every checked output matched bitwise
  long attempted = 0;
  long failed = 0;  // not kOk, or bits differ
  Metrics metrics;
  /// Printed with the metrics but not part of the result: tail
  /// percentiles too unsteady on a shared host to carry a bound.
  Metrics info;
};

Outcome run_plan_steady(const Options& opt);
Outcome run_serve_open(const Options& opt);

/// Writes a traced run's spans to kOutDir as Perfetto JSON and
/// prints where they went.
void write_span_file(const SpanLog& log, const Options& opt);

}  // namespace perfbench
