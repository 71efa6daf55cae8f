// Tests for the compile-then-execute GemmPlan layer: bit-identity with
// the flat engine loop on every route rung and both dtypes,
// prepacked B-panel reuse (hits across executes, fingerprint-guarded
// refresh on a B change), per-execute rails, and operand validation.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <utility>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"

namespace m3xu::gemm {
namespace {

template <typename T>
struct Problem {
  Matrix<T> a, b, c;
};

template <typename T>
Problem<T> make(int m, int n, int k, std::uint64_t seed) {
  Problem<T> p{Matrix<T>(m, k), Matrix<T>(k, n), Matrix<T>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

template <typename T>
bool bits_equal(const Matrix<T>& x, const Matrix<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// The flat engine loop: the reference every tiled execute must match
/// bitwise (the driver keeps its K-chunk rounding boundaries).
void flat_gemm(const core::M3xuEngine& engine, const Matrix<float>& a,
               const Matrix<float>& b, Matrix<float>& c) {
  engine.gemm_fp32(a.rows(), b.cols(), a.cols(), a.data(), a.ld(), b.data(),
                   b.ld(), c.data(), c.ld());
}

void flat_gemm(const core::M3xuEngine& engine,
               const Matrix<std::complex<float>>& a,
               const Matrix<std::complex<float>>& b,
               Matrix<std::complex<float>>& c) {
  engine.gemm_fp32c(a.rows(), b.cols(), a.cols(), a.data(), a.ld(),
                    b.data(), b.ld(), c.data(), c.ld());
}

/// Executes one ABFT-guarded plan on both ladder rungs - the
/// microkernel rung (a plain execute) and the scalar rung (every tile
/// quarantined there) - for the default engine and a force_generic
/// one, and checks each result bitwise against the flat engine loop.
template <typename T>
void expect_every_rung_matches_flat(const Problem<T>& p, bool cplx) {
  const TileConfig tile{64, 64, 16, 32, 32};
  const long tiles =
      static_cast<long>((p.c.rows() + tile.block_m - 1) / tile.block_m) *
      ((p.c.cols() + tile.block_n - 1) / tile.block_n);
  core::M3xuConfig generic;
  generic.force_generic = true;
  for (const core::M3xuConfig& cfg : {core::M3xuConfig{}, generic}) {
    SCOPED_TRACE(cfg.force_generic ? "force_generic" : "default");
    Matrix<T> ref = p.c;
    flat_gemm(core::M3xuEngine(cfg), p.a, p.b, ref);

    PlanOptions options;
    options.tile = tile;
    options.abft.enable = true;
    const GemmPlan plan = GemmPlan::compile(
        cfg, {p.a.rows(), p.b.cols(), p.a.cols(), cplx}, options);
    Matrix<T> top = p.c;
    const TiledGemmStats top_stats = plan.execute(p.a, p.b, top);
    EXPECT_TRUE(bits_equal(top, ref)) << "microkernel rung";
    EXPECT_EQ(top_stats.recovery.quarantine_hits, 0);

    TileQuarantine quarantine;
    for (long t = 0; t < tiles; ++t) {
      quarantine.demote(t, Route::kScalarReference);
    }
    ExecRails rails;
    rails.quarantine = &quarantine;
    Matrix<T> bottom = p.c;
    const TiledGemmStats bottom_stats = plan.execute(p.a, p.b, bottom, rails);
    EXPECT_TRUE(bits_equal(bottom, ref)) << "scalar rung";
    EXPECT_EQ(bottom_stats.recovery.quarantine_hits, tiles);
    EXPECT_EQ(bottom_stats.abft_detected, 0);
    EXPECT_EQ(plan.executions(), 2u);
  }
}

TEST(GemmPlan, SgemmBitIdenticalToFlatLoopOnEveryRung) {
  expect_every_rung_matches_flat(make<float>(100, 90, 130, 601), false);
}

TEST(GemmPlan, CgemmBitIdenticalToFlatLoopOnEveryRung) {
  using C = std::complex<float>;
  expect_every_rung_matches_flat(make<C>(60, 52, 68, 602), true);
}

TEST(GemmPlan, RepeatExecutesServePanelsFromPlanStore) {
  const Problem<float> p = make<float>(96, 96, 96, 603);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {96, 96, 96});
  Matrix<float> c1 = p.c;
  plan.execute(p.a, p.b, c1);
  const PlanPanelStats first = plan.panel_stats();
  EXPECT_GT(first.misses, 0u);  // first execute packs and publishes
  EXPECT_EQ(first.refreshes, 0u);

  Matrix<float> c2 = p.c;
  plan.execute(p.a, p.b, c2);
  const PlanPanelStats second = plan.panel_stats();
  EXPECT_EQ(second.misses, first.misses);  // no new packs
  EXPECT_GT(second.hits, first.hits);      // panels served from the store
  EXPECT_TRUE(bits_equal(c1, c2));
}

TEST(GemmPlan, DifferentBRefreshesStoreAndStaysCorrect) {
  const Problem<float> p = make<float>(64, 64, 64, 604);
  Matrix<float> b2(64, 64);
  Rng rng(605);
  fill_random(b2, rng);

  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  Matrix<float> c1 = p.c;
  plan.execute(p.a, p.b, c1);
  Matrix<float> c2 = p.c;
  plan.execute(p.a, b2, c2);  // new B bytes: fingerprint must not match
  EXPECT_EQ(plan.panel_stats().refreshes, 1u);

  // The second result must equal the flat loop on (a, b2) - a stale
  // panel from the first B would corrupt it.
  Matrix<float> ref = p.c;
  flat_gemm(core::M3xuEngine{}, p.a, b2, ref);
  EXPECT_TRUE(bits_equal(c2, ref));
}

TEST(GemmPlan, PrepackMakesFirstExecuteAllHits) {
  const Problem<float> p = make<float>(96, 80, 64, 606);
  GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {96, 80, 64});
  plan.prepack_b(p.b);
  Matrix<float> c = p.c;
  plan.execute(p.a, p.b, c);
  const PlanPanelStats stats = plan.panel_stats();
  EXPECT_EQ(stats.misses, 0u) << "prepacked panels must cover every tile";
  EXPECT_GT(stats.hits, 0u);

  Matrix<float> ref = p.c;
  flat_gemm(core::M3xuEngine{}, p.a, p.b, ref);
  EXPECT_TRUE(bits_equal(c, ref));
}

TEST(GemmPlan, CgemmPrepackServesComplexPanels) {
  using C = std::complex<float>;
  const Problem<C> p = make<C>(48, 48, 48, 607);
  GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {48, 48, 48, true});
  plan.prepack_b(p.b);
  Matrix<C> c = p.c;
  plan.execute(p.a, p.b, c);
  EXPECT_EQ(plan.panel_stats().misses, 0u);

  Matrix<C> ref = p.c;
  flat_gemm(core::M3xuEngine{}, p.a, p.b, ref);
  EXPECT_TRUE(bits_equal(c, ref));
}

TEST(GemmPlan, PlanSurvivesMove) {
  // The dispatch points into pimpl-owned engines; moving the plan must
  // not invalidate it.
  const Problem<float> p = make<float>(64, 64, 64, 608);
  GemmPlan original = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  Matrix<float> before = p.c;
  original.execute(p.a, p.b, before);

  const GemmPlan moved = std::move(original);
  Matrix<float> after = p.c;
  moved.execute(p.a, p.b, after);
  EXPECT_TRUE(bits_equal(before, after));
  EXPECT_EQ(moved.executions(), 2u);
}

TEST(GemmPlan, ShapeMismatchFailsTheCheck) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  const Problem<float> wrong = make<float>(32, 32, 32, 609);
  Matrix<float> c = wrong.c;
  EXPECT_THROW(plan.execute(wrong.a, wrong.b, c), CheckError);
}

TEST(GemmPlan, DtypeMismatchFailsTheCheck) {
  using C = std::complex<float>;
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {48, 48, 48});
  const Problem<C> p = make<C>(48, 48, 48, 610);
  Matrix<C> c = p.c;
  EXPECT_THROW(plan.execute(p.a, p.b, c), CheckError);
}

TEST(GemmPlan, CompileRejectsInvalidTile) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  PlanOptions options;
  options.tile = TileConfig{128, 128, 32, 0, 32};  // zero warp tile
  EXPECT_THROW(
      GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64}, options),
      CheckError);
}

TEST(GemmPlan, CompileRejectsNonFiniteOrNegativeToleranceScale) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    PlanOptions options;
    options.abft.enable = true;
    options.abft.tolerance_scale = bad;
    EXPECT_THROW(
        GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64}, options),
        CheckError)
        << bad;
  }
  // 0 stays valid: it forces every tile through detection.
  PlanOptions zero;
  zero.abft.enable = true;
  zero.abft.tolerance_scale = 0.0;
  EXPECT_NO_THROW(GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64}, zero));
}

TEST(GemmPlan, LabelNamesShapeAndDtype) {
  EXPECT_EQ(plan_key_label({512, 256, 128, false}), "sgemm.512x256x128");
  EXPECT_EQ(plan_key_label({16, 16, 16, true}), "cgemm.16x16x16");
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 32, 16});
  EXPECT_EQ(plan.label(), "sgemm.64x32x16");
}

}  // namespace
}  // namespace m3xu::gemm
