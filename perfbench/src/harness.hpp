// Shared pieces of the repository benchmark: clocks, percentiles, the
// metric table a run reports, the span log of the traced run, and the
// per-layer self-time table built from it.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (GemmPlan::compile/execute, submit_*), or
// rebuilt from timestamps the library already exposes (the request
// TraceContext events). Nothing here reaches inside the library.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/stopwatch.hpp"

namespace perfbench {

using m3xu::telemetry::now_ns;

/// CPU time consumed by the whole process (all threads), ns.
std::uint64_t process_cpu_ns();

/// Percentile p in [0, 100] with linear interpolation between order
/// statistics (numpy's default). 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// One reported metric. `samples` is how many measurements it
/// summarizes (0 when it is a single reading).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;
};

/// One run's reported metrics, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           long samples = 0);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// One recorded interval. `id` joins the spans of one plan call or one
/// request; `parent` indexes the causing span (-1 for a root).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span store of the traced run, written out once at exit.
/// Thread-safe: the serving workload records from its observer thread.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Appends a finished span and returns its index (-1 when disabled).
  int add(const std::string& name, std::uint64_t start_ns,
          std::uint64_t end_ns, std::uint64_t id, int parent = -1);
  std::vector<Span> spans() const;
  /// Chrome trace_event JSON (Perfetto loads it): one complete event
  /// per span, timestamps relative to the earliest span, args carry
  /// the join id and the parent index.
  bool write_perfetto(const std::string& path,
                      const std::string& environment_json) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per span name: each span's duration minus the part of it
/// its children cover, summed over spans of that name.
std::vector<std::pair<std::string, double>> self_time_ns(
    const std::vector<Span>& spans);

/// One row of the per-layer self-time table a traced run prints.
struct SelfTimeRow {
  std::string layer;
  double ms_per_op = 0.0;
  std::string source;  // "span", or how the share was attributed
};

/// Prints the table with each row's share of `total_ms_per_op` and the
/// sum check, to stdout.
void print_self_time_table(const std::string& title,
                           const std::vector<SelfTimeRow>& rows,
                           double total_ms_per_op);

}  // namespace perfbench
