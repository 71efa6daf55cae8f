// Threaded tiled-driver determinism: partitioning the tile grid over a
// ThreadPool is a throughput lever only. For every route rung and both
// dtypes, the result must be bit-identical whatever pool the caller
// supplies (1, 2, or 8 threads via ExecRails::pool, or the
// process-global pool), identical across repeated runs on the
// same pool (no schedule-dependent accumulation order), and identical
// with the ABFT guard on. Runs under `ctest -L tsan` in the
// M3XU_SANITIZE=thread CI job, where the per-thread staging scratch
// and the shared TiledGemmStats reduction are the interesting surface.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "plan_gemm.hpp"

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

std::vector<std::pair<const char*, core::M3xuConfig>> route_configs() {
  std::vector<std::pair<const char*, core::M3xuConfig>> out;
  out.emplace_back("microkernel", core::M3xuConfig{});
  core::M3xuConfig generic;
  generic.force_generic = true;
  out.emplace_back("generic", generic);
  return out;
}

// A tile shape that yields a multi-tile grid on the test problems, so
// the pool actually partitions work (2x2 tiles and a K mainloop).
const TileConfig kTile{64, 64, 16, 32, 32};

constexpr int kPoolSizes[] = {1, 2, 8};

template <typename T>
void run_on_pool(const core::M3xuEngine& engine, const AbftConfig& abft,
                 ThreadPool* pool, const Problem<T>& p, Matrix<T>& c) {
  ExecRails rails;
  rails.pool = pool;
  c = p.c;
  plan_gemm(engine, kTile, p.a, p.b, c, abft, RecoveryPolicy{}, rails);
}

template <typename T>
void expect_pool_invariance(const char* route, const core::M3xuConfig& cfg,
                            const AbftConfig& abft, const Problem<T>& p) {
  SCOPED_TRACE(route);
  const core::M3xuEngine engine(cfg);

  // Reference: the global pool (whatever size the host gave it).
  Matrix<T> ref(p.c.rows(), p.c.cols());
  run_on_pool(engine, abft, nullptr, p, ref);

  for (const int threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(static_cast<std::size_t>(threads));
    Matrix<T> c1(p.c.rows(), p.c.cols());
    Matrix<T> c2(p.c.rows(), p.c.cols());
    run_on_pool(engine, abft, &pool, p, c1);
    // Second run on the same (already warm) pool: chunk claiming order
    // differs run to run; the bits must not.
    run_on_pool(engine, abft, &pool, p, c2);
    EXPECT_TRUE(bits_equal(c1, ref)) << "pool size " << threads;
    EXPECT_TRUE(bits_equal(c1, c2)) << "repeat on pool size " << threads;
  }
}

TEST(ThreadedDriver, SgemmBitIdenticalAcrossPoolSizes) {
  const Problem<float> p = make<float>(100, 90, 130, 901);
  for (const auto& [route, cfg] : route_configs()) {
    expect_pool_invariance(route, cfg, AbftConfig{}, p);
  }
}

TEST(ThreadedDriver, CgemmBitIdenticalAcrossPoolSizes) {
  const Problem<std::complex<float>> p =
      make<std::complex<float>>(80, 70, 72, 902);
  for (const auto& [route, cfg] : route_configs()) {
    expect_pool_invariance(route, cfg, AbftConfig{}, p);
  }
}

TEST(ThreadedDriver, AbftGuardedRunsStayPoolInvariant) {
  // The guard adds per-tile checksum verification (and its own
  // temporary buffers) to each worker; fault-free it must stay a pure
  // observer at every pool size.
  const Problem<float> p = make<float>(96, 96, 96, 903);
  AbftConfig abft;
  abft.enable = true;
  expect_pool_invariance("microkernel", core::M3xuConfig{}, abft, p);
}

TEST(ThreadedDriver, PlanExecuteHonorsRailsPool) {
  // The plan layer forwards ExecRails::pool into the driver; results
  // must match the global-pool execute bitwise at every size, for both
  // dtypes, including back-to-back executes on one pool.
  const Problem<float> ps = make<float>(100, 90, 130, 904);
  const Problem<std::complex<float>> pc =
      make<std::complex<float>>(80, 70, 72, 905);
  PlanOptions opts;
  opts.tile = kTile;

  const GemmPlan splan = GemmPlan::compile(
      core::M3xuConfig{}, {ps.a.rows(), ps.b.cols(), ps.a.cols(), false},
      opts);
  const GemmPlan cplan = GemmPlan::compile(
      core::M3xuConfig{}, {pc.a.rows(), pc.b.cols(), pc.a.cols(), true},
      opts);

  Matrix<float> sref = ps.c;
  splan.execute(ps.a, ps.b, sref);
  Matrix<std::complex<float>> cref = pc.c;
  cplan.execute(pc.a, pc.b, cref);

  for (const int threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(static_cast<std::size_t>(threads));
    ExecRails rails;
    rails.pool = &pool;
    for (int rep = 0; rep < 2; ++rep) {
      Matrix<float> cs = ps.c;
      splan.execute(ps.a, ps.b, cs, rails);
      EXPECT_TRUE(bits_equal(cs, sref)) << "sgemm rep " << rep;
      Matrix<std::complex<float>> cc = pc.c;
      cplan.execute(pc.a, pc.b, cc, rails);
      EXPECT_TRUE(bits_equal(cc, cref)) << "cgemm rep " << rep;
    }
  }
}

TEST(ThreadedDriver, ForcedRegisterBlockShapesStayPoolInvariant) {
  // Register-block overrides (M3xuConfig::mk_mr/mk_nr) compose with
  // threading: every supported MRxNR shape is bit-identical across
  // pool sizes.
  const Problem<float> p = make<float>(96, 80, 64, 906);
  for (const auto [mr, nr] :
       {std::pair{4, 4}, std::pair{6, 8}, std::pair{8, 8}}) {
    core::M3xuConfig cfg;
    cfg.mk_mr = mr;
    cfg.mk_nr = nr;
    SCOPED_TRACE(mr * 100 + nr);
    expect_pool_invariance("microkernel", cfg, AbftConfig{}, p);
  }
}

}  // namespace
}  // namespace m3xu::gemm
