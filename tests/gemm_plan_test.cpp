// Tests for the compile-then-execute GemmPlan layer: bit-identity with
// the ad-hoc resilient driver on every route rung and both dtypes,
// prepacked B-panel reuse (hits across executes, fingerprint-guarded
// refresh on a B change), per-execute rails, and operand validation.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <utility>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"

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

/// Engine configs pinning each initial route rung: the default
/// (microkernel) and the generic per-dot rung.
std::vector<std::pair<const char*, core::M3xuConfig>> route_configs() {
  std::vector<std::pair<const char*, core::M3xuConfig>> out;
  out.emplace_back("microkernel", core::M3xuConfig{});
  core::M3xuConfig generic;
  generic.force_generic = true;
  out.emplace_back("generic", generic);
  return out;
}

TEST(GemmPlan, SgemmBitIdenticalToAdHocOnEveryRoute) {
  const TileConfig tile{64, 64, 16, 32, 32};
  const AbftConfig abft{true};
  const RecoveryPolicy policy;
  const Problem<float> p = make<float>(100, 90, 130, 601);
  for (const auto& [name, cfg] : route_configs()) {
    const core::M3xuEngine engine(cfg);
    Matrix<float> ad_hoc = p.c;
    tiled_sgemm(engine, tile, abft, policy, ExecConfig{}, p.a, p.b, ad_hoc);

    PlanOptions options;
    options.tile = tile;
    options.abft = abft;
    options.policy = policy;
    const GemmPlan plan = GemmPlan::compile(cfg, {100, 90, 130, false},
                                            options);
    Matrix<float> planned = p.c;
    plan.execute(p.a, p.b, planned);
    EXPECT_TRUE(bits_equal(planned, ad_hoc)) << "route " << name;
    EXPECT_EQ(plan.executions(), 1u);
  }
}

TEST(GemmPlan, CgemmBitIdenticalToAdHocOnEveryRoute) {
  using C = std::complex<float>;
  const TileConfig tile{64, 64, 16, 32, 32};
  const AbftConfig abft{true};
  const RecoveryPolicy policy;
  const Problem<C> p = make<C>(60, 52, 68, 602);
  for (const auto& [name, cfg] : route_configs()) {
    const core::M3xuEngine engine(cfg);
    Matrix<C> ad_hoc = p.c;
    tiled_cgemm(engine, tile, abft, policy, ExecConfig{}, p.a, p.b, ad_hoc);

    PlanOptions options;
    options.tile = tile;
    options.abft = abft;
    options.policy = policy;
    const GemmPlan plan =
        GemmPlan::compile(cfg, {60, 52, 68, true}, options);
    Matrix<C> planned = p.c;
    plan.execute(p.a, p.b, planned);
    EXPECT_TRUE(bits_equal(planned, ad_hoc)) << "route " << name;
  }
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

  // The second result must equal the ad-hoc driver on (a, b2) - a
  // stale panel from the first B would corrupt it.
  const core::M3xuEngine engine;
  Matrix<float> ref = p.c;
  tiled_sgemm(engine, TileConfig{}, AbftConfig{}, RecoveryPolicy{},
              ExecConfig{}, p.a, b2, ref);
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

  const core::M3xuEngine engine;
  Matrix<float> ref = p.c;
  tiled_sgemm(engine, TileConfig{}, AbftConfig{}, RecoveryPolicy{},
              ExecConfig{}, p.a, p.b, ref);
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

  const core::M3xuEngine engine;
  Matrix<C> ref = p.c;
  tiled_cgemm(engine, TileConfig{}, AbftConfig{}, RecoveryPolicy{},
              ExecConfig{}, p.a, p.b, ref);
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

TEST(GemmPlan, LabelNamesShapeAndDtype) {
  EXPECT_EQ(plan_key_label({512, 256, 128, false}), "sgemm.512x256x128");
  EXPECT_EQ(plan_key_label({16, 16, 16, true}), "cgemm.16x16x16");
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 32, 16});
  EXPECT_EQ(plan.label(), "sgemm.64x32x16");
}

}  // namespace
}  // namespace m3xu::gemm
