// Compile-then-execute GEMM plans - the one way into the tiled driver.
//
// Every GEMM needs the same per-shape artifacts: config validation,
// the mode's MMA instruction shape, the per-chunk rounding bound, a
// fault-free engine clone for the terminal recovery rung, and - in
// serving workloads - the packed B panels of weights that never
// change. A GemmPlan compiles all of that exactly once from (problem
// shape, dtype, PlanOptions) and then executes many times with zero
// per-call re-derivation:
//
//   GemmPlan plan = GemmPlan::compile(engine_cfg, {m, n, k, cplx});
//   plan.execute(a, b, c);   // validated, cloned, prepacked already
//
// Execution is bit-identical to the flat engine loop (same K-chunk
// rounding boundaries) - verified by tests across every route rung and
// both dtypes.
//
// Frozen at compile: tile/ABFT/recovery configs (validated), engines,
// telemetry labels, the B-panel store. Per-execute (ExecRails,
// gemm/recovery.hpp): cancellation token, deadline/stall watchdog
// windows, the tenant's TileQuarantine, and an external PanelCache -
// everything that varies request-to-request in the serving layer.
//
// B-panel reuse: with PlanOptions.reuse_b_panels (default on) the plan
// owns a private panel store keyed by a fingerprint of the B bytes.
// Repeat executes against the same B skip the pack step entirely;
// executing with a different B is detected by the fingerprint and
// repacks (counted in plan.b_refresh), never served stale. prepack_b()
// optionally fills the store at compile time so even the first execute
// skips packing. See docs/PLAN.md.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <string>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/recovery.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {

/// Immutable problem identity a plan is compiled for. execute() checks
/// its operands against this and rejects mismatches (a plan is not a
/// generic entry point).
struct PlanKey {
  int m = 0;
  int n = 0;
  int k = 0;
  bool cplx = false;  // false: sgemm (FP32), true: cgemm (FP32C)

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.m == b.m && a.n == b.n && a.k == b.k && a.cplx == b.cplx;
  }
};

/// "sgemm.512x512x512" / "cgemm.192x192x192" - the telemetry span /
/// log label for one plan identity.
std::string plan_key_label(const PlanKey& key);

/// Everything a plan freezes beyond the problem identity.
struct PlanOptions {
  TileConfig tile;
  AbftConfig abft;
  RecoveryPolicy policy;
  /// Keep packed B panels across execute() calls in a plan-private
  /// store, guarded by a fingerprint of the B bytes (see file
  /// comment). Disable when every execute brings different weights and
  /// an external cache (ExecRails.b_cache) does the sharing instead.
  bool reuse_b_panels = true;
};

/// Pack/reuse statistics of a plan's private B-panel store.
struct PlanPanelStats {
  std::uint64_t hits = 0;      // packs skipped (panel served from store)
  std::uint64_t misses = 0;    // packs performed and published
  std::uint64_t refreshes = 0; // store invalidations on a B-bytes change
};

class GemmPlan {
 public:
  /// Compiles a plan: validates every config (so invalid configs fail
  /// here, not mid-execute), freezes the MMA instruction shape and
  /// rounding bound, and constructs the engine set (primary from
  /// `engine_cfg` plus its fault-free clone). O(1) in the problem
  /// size.
  static GemmPlan compile(const core::M3xuConfig& engine_cfg,
                          const PlanKey& key, const PlanOptions& options = {});

  GemmPlan(GemmPlan&&) noexcept;
  GemmPlan& operator=(GemmPlan&&) noexcept;
  GemmPlan(const GemmPlan&) = delete;
  GemmPlan& operator=(const GemmPlan&) = delete;
  ~GemmPlan();

  /// C <- A*B + C with the plan's frozen configuration. Operands must
  /// match key() exactly (M3XU_CHECK).
  TiledGemmStats execute(const Matrix<float>& a, const Matrix<float>& b,
                         Matrix<float>& c) const;
  TiledGemmStats execute(const Matrix<float>& a, const Matrix<float>& b,
                         Matrix<float>& c, const ExecRails& rails) const;
  TiledGemmStats execute(const Matrix<std::complex<float>>& a,
                         const Matrix<std::complex<float>>& b,
                         Matrix<std::complex<float>>& c) const;
  TiledGemmStats execute(const Matrix<std::complex<float>>& a,
                         const Matrix<std::complex<float>>& b,
                         Matrix<std::complex<float>>& c,
                         const ExecRails& rails) const;

  /// Packs every B panel of `b` into the plan's private store now, so
  /// the first execute() against this B skips packing too. No-op when
  /// reuse_b_panels is off. Panels are bit-identical to the ones the
  /// driver would pack mid-execute (same staging layout).
  void prepack_b(const Matrix<float>& b);
  void prepack_b(const Matrix<std::complex<float>>& b);

  const PlanKey& key() const;
  const TileConfig& tile() const;
  const PlanOptions& options() const;
  /// The telemetry/log label, e.g. "sgemm.512x512x512".
  const std::string& label() const;
  /// execute() calls completed on this plan (telemetry mirror:
  /// plan.execute).
  std::uint64_t executions() const;
  PlanPanelStats panel_stats() const;

 private:
  struct Impl;
  explicit GemmPlan(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace m3xu::gemm
