// Test helper: one GEMM through a freshly compiled GemmPlan - the only
// way into the tiled driver - for an engine's configuration.
#pragma once

#include <complex>
#include <type_traits>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"

namespace m3xu::gemm {

/// Compiles a plan for `engine.config()` and the operands' shape, then
/// executes it once. The default policy is the clean-recompute preset
/// (a detected tile goes straight to the fault-free scalar rung). B-panel
/// reuse is off: a one-shot plan gains nothing from its private store,
/// and pack and cache events stay those of a single driver call.
template <typename T>
TiledGemmStats plan_gemm(
    const core::M3xuEngine& engine, const TileConfig& tile,
    const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c,
    const AbftConfig& abft = {},
    const RecoveryPolicy& policy = RecoveryPolicy{.retries_per_route = 0},
    const ExecRails& rails = {}) {
  PlanOptions options;
  options.tile = tile;
  options.abft = abft;
  options.policy = policy;
  options.reuse_b_panels = false;
  const PlanKey key{a.rows(), b.cols(), a.cols(),
                    std::is_same_v<T, std::complex<float>>};
  return GemmPlan::compile(engine.config(), key, options)
      .execute(a, b, c, rails);
}

}  // namespace m3xu::gemm
