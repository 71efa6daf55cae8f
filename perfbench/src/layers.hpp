// Per-layer metrics shared by the workloads: the canonical metric list
// every traced run reports, totals of the driver's TiledGemmStats,
// registry-counter windows, and the self-time attribution of an
// execute interval to the driver phases and core stages.
#pragma once

#include <string>
#include <vector>

#include "gemm/tiled_driver.hpp"
#include "harness.hpp"
#include "replay.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// Sets every per-layer metric to 0 with its unit, in report order. A
/// workload overwrites the ones its layers produce; the rest stay 0
/// (the workload never calls that layer - e.g. serve.* on a plan run).
void declare_layer_metrics(Metrics& m);

/// Summed TiledGemmStats of the calls a window made.
struct DriverTotals {
  long calls = 0;
  double stage_s = 0, pack_s = 0, mainloop_s = 0, epilogue_s = 0, abft_s = 0;
  double block_tiles = 0, mma_instructions = 0, staged_bytes = 0;
  double abft_tile_checks = 0, abft_detected = 0, demotions = 0;
  void add(const m3xu::gemm::TiledGemmStats& s);
};

/// driver.* (per call), abft.* and recovery.demotions (window totals).
void report_driver(Metrics& m, const DriverTotals& t);

/// Registry counters the per-layer metrics read, as a delta between
/// two snapshots.
struct CounterDelta {
  double pool_busy_ns = 0;
  double mk_block_elements = 0;  // outputs computed by microkernel blocks
  double edge_elements = 0;      // outputs computed per-element at edges
  double pack_a_elems_s = 0, pack_b_elems_s = 0;
  double pack_a_elems_c = 0, pack_b_elems_c = 0;
};
CounterDelta counter_delta(const m3xu::telemetry::Snapshot& before,
                           const m3xu::telemetry::Snapshot& after);

/// pool.utilization and core.mk_block_element_rate.
void report_counters(Metrics& m, const CounterDelta& d, double wall_s,
                     int pool_threads);

/// core.* replay rates (pack rates weighted by the window's packed
/// element mix, the edge rate by its edge MACs per dtype) and the
/// reconcile ratio with its quartiles.
void report_replay(Metrics& m, const ReplayRates& r, const CounterDelta& d,
                   const MacSplit& sgemm_macs, const MacSplit& cgemm_macs,
                   const std::vector<double>& reconcile_ratios);

/// The per-call accounting every traced window shares: driver totals,
/// the MAC split between microkernel blocks and edge strips, and each
/// phase's CPU spread over the threads that call could use. A call
/// runs its block tiles on at most min(pool threads, block tiles)
/// threads; a single-tile call runs inline on its caller.
class ExecLedger {
 public:
  ExecLedger(const ReplayRates& rates, int pool_threads);

  /// Adds one executed GEMM and returns its MAC split.
  MacSplit add(const m3xu::gemm::TiledGemmStats& s, int m, int n, int k,
               bool cplx);

  const DriverTotals& totals() const { return totals_; }
  const MacSplit& macs(bool cplx) const { return cplx ? c_macs_ : s_macs_; }

  /// Self-time rows of an execute interval of `execute_ms` per call:
  /// driver phases, the pack stage, the mainloop split into microkernel
  /// and edge by each call's replay-predicted share, and the remainder
  /// (idle pool threads, dispatch) as common.thread_pool. The rows sum
  /// to execute_ms; attributed_ms() is the part the phases explain.
  std::vector<SelfTimeRow> attribute(double execute_ms) const;
  double attributed_ms() const;

 private:
  ReplayRates rates_;
  int pool_threads_;
  m3xu::gemm::TileConfig tile_;
  int mr_ = 1, nr_ = 1;
  DriverTotals totals_;
  MacSplit s_macs_, c_macs_;
  // Phase CPU ms over each call's threads, summed over calls.
  double stage_ms_ = 0, pack_ms_ = 0, mk_ms_ = 0, edge_ms_ = 0,
         epilogue_ms_ = 0, abft_ms_ = 0;
};

/// Prints how much of the execute interval the phases explain. Phase
/// CPU above the execute wall means the attribution over-counts.
void print_attribution_check(const ExecLedger& ledger, double execute_ms);

/// Writes each row as a self.<layer>_ms per-layer metric.
void report_self_times(Metrics& m, const std::vector<SelfTimeRow>& rows);

}  // namespace perfbench
