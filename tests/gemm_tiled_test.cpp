// Tests for the hierarchical tiled GEMM driver: bit-identity with the
// flat engine loop, tile-shape sweeps, edge-tile handling, and the
// traffic counters the simulator's model assumes.
#include <gtest/gtest.h>

#include <complex>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/reference.hpp"
#include "gemm/plan.hpp"
#include "plan_gemm.hpp"

namespace m3xu::gemm {
namespace {

struct Problem {
  Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{Matrix<float>(m, k), Matrix<float>(k, n), Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

class TileSweep : public ::testing::TestWithParam<TileConfig> {};

TEST_P(TileSweep, BitIdenticalToFlatEngineLoop) {
  // Same K-chunk rounding boundaries -> the hierarchy is invisible to
  // the arithmetic, for sgemm and cgemm alike.
  const core::M3xuEngine engine;
  const Problem p = make(100, 90, 130, 501);
  Matrix<float> flat = p.c;
  engine.gemm_fp32(100, 90, 130, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   flat.data(), flat.ld());
  Matrix<float> tiled = p.c;
  plan_gemm(engine, GetParam(), p.a, p.b, tiled);
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 90; ++j) {
      ASSERT_EQ(bits_of(tiled(i, j)), bits_of(flat(i, j))) << i << "," << j;
    }
  }

  const int m = 70, n = 60, k = 90;
  Rng rng(505);
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  Matrix<std::complex<float>> cflat = c;
  engine.gemm_fp32c(m, n, k, a.data(), a.ld(), b.data(), b.ld(), cflat.data(),
                    cflat.ld());
  Matrix<std::complex<float>> ctiled = c;
  plan_gemm(engine, GetParam(), a, b, ctiled);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(ctiled(i, j).real()), bits_of(cflat(i, j).real()))
          << "cgemm " << i << "," << j;
      ASSERT_EQ(bits_of(ctiled(i, j).imag()), bits_of(cflat(i, j).imag()))
          << "cgemm " << i << "," << j;
    }
  }
}

// {128,128,16,128,128} runs one warp tile over the whole block;
// {32,32,64,16,16} stages a K-depth twice the block's width.
INSTANTIATE_TEST_SUITE_P(
    Tiles, TileSweep,
    ::testing::Values(TileConfig{64, 64, 16, 32, 32},
                      TileConfig{128, 128, 32, 64, 32},
                      TileConfig{32, 32, 8, 16, 16},
                      TileConfig{128, 64, 64, 32, 64},
                      TileConfig{128, 128, 16, 128, 128},
                      TileConfig{32, 32, 64, 16, 16}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.block_m) + "x" +
             std::to_string(info.param.block_n) + "x" +
             std::to_string(info.param.block_k);
    });

TEST(TiledGemm, StatsMatchGeometry) {
  const core::M3xuEngine engine;
  const Problem p = make(256, 128, 64, 502);
  Matrix<float> c = p.c;
  const TileConfig cfg{128, 128, 32, 64, 32};
  const TiledGemmStats s = plan_gemm(engine, cfg, p.a, p.b, c);
  EXPECT_EQ(s.block_tiles, 2);             // 256/128 x 128/128
  EXPECT_EQ(s.mainloop_iterations, 2 * 2);  // K=64 / block_k=32 per tile
  // Staged bytes: per tile-iteration (block_m + block_n) * block_k * 4.
  EXPECT_DOUBLE_EQ(s.staged_bytes, 4.0 * (128 + 128) * 32 * 4);
  // MMA instructions: M*N*K / (16*8*8).
  EXPECT_EQ(s.mma_instructions, 256L * 128 * 64 / (16 * 8 * 8));
}

TEST(TiledGemm, RaggedEdgesBitIdenticalToFlatLoop) {
  const core::M3xuEngine engine;
  const Problem p = make(77, 45, 53, 503);  // nothing divides anything
  Matrix<float> flat = p.c;
  engine.gemm_fp32(77, 45, 53, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   flat.data(), flat.ld());
  Matrix<float> c = p.c;
  plan_gemm(engine, TileConfig{64, 64, 16, 32, 32}, p.a, p.b, c);
  for (int i = 0; i < 77; ++i) {
    for (int j = 0; j < 45; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(flat(i, j))) << i << "," << j;
    }
  }
  // And stays close to the double reference on this modest K.
  Matrix<double> ref = widen(p.c);
  ref_dgemm(widen(p.a), widen(p.b), ref);
  EXPECT_LT(compare(c, ref).mean_rel, 1e-4);
}

TEST(TiledGemm, ComplexBitIdenticalToFlatLoop) {
  const core::M3xuEngine engine;
  Rng rng(504);
  const int m = 48, n = 40, k = 36;
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  Matrix<std::complex<float>> flat = c;
  engine.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, flat.data(), n);
  Matrix<std::complex<float>> tiled = c;
  plan_gemm(engine, TileConfig{32, 32, 8, 16, 16}, a, b, tiled);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(tiled(i, j).real()), bits_of(flat(i, j).real()));
      ASSERT_EQ(bits_of(tiled(i, j).imag()), bits_of(flat(i, j).imag()));
    }
  }
}

TEST(TiledGemm, RepeatedRunsAreDeterministic) {
  // Tiles are independent, so concurrent scheduling order cannot leak
  // into the results: repeated runs are bit-identical.
  const core::M3xuEngine engine;
  const Problem p = make(130, 130, 64, 505);
  Matrix<float> c1 = p.c, c2 = p.c;
  const TileConfig cfg{64, 64, 32, 32, 32};
  plan_gemm(engine, cfg, p.a, p.b, c1);
  plan_gemm(engine, cfg, p.a, p.b, c2);
  for (int i = 0; i < 130; ++i) {
    for (int j = 0; j < 130; ++j) {
      ASSERT_EQ(bits_of(c1(i, j)), bits_of(c2(i, j)));
    }
  }
}

TEST(TiledGemm, AbftCleanPathBitIdenticalWithZeroCounters) {
  // Enabling the guard on a fault-free engine must not change a single
  // bit of the output, and no counter beyond tile_checks may move.
  const core::M3xuEngine engine;
  const Problem p = make(100, 90, 130, 507);
  const TileConfig cfg{64, 64, 16, 32, 32};
  Matrix<float> plain = p.c, guarded = p.c;
  const TiledGemmStats s0 = plan_gemm(engine, cfg, p.a, p.b, plain);
  const TiledGemmStats s1 =
      plan_gemm(engine, cfg, p.a, p.b, guarded, AbftConfig{true, 1.0});
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 90; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j)), bits_of(plain(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(s0.abft_tile_checks, 0);
  EXPECT_EQ(s1.abft_tile_checks, s1.block_tiles);
  EXPECT_EQ(s1.abft_detected, 0);
  EXPECT_EQ(s1.abft_recomputed, 0);
  EXPECT_EQ(s1.abft_recovered, 0);
  EXPECT_EQ(s1.abft_false_alarms, 0);
  // The traffic counters are unaffected by the guard.
  EXPECT_EQ(s1.mainloop_iterations, s0.mainloop_iterations);
  EXPECT_DOUBLE_EQ(s1.staged_bytes, s0.staged_bytes);
  EXPECT_EQ(s1.mma_instructions, s0.mma_instructions);
}

TEST(TiledGemm, AbftCleanPathComplexBitIdentical) {
  const core::M3xuEngine engine;
  Rng rng(508);
  const int m = 48, n = 40, k = 36;
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  Matrix<std::complex<float>> plain = c, guarded = c;
  const TileConfig cfg{32, 32, 8, 16, 16};
  plan_gemm(engine, cfg, a, b, plain);
  const TiledGemmStats s =
      plan_gemm(engine, cfg, a, b, guarded, AbftConfig{true, 1.0});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j).real()), bits_of(plain(i, j).real()));
      ASSERT_EQ(bits_of(guarded(i, j).imag()), bits_of(plain(i, j).imag()));
    }
  }
  EXPECT_EQ(s.abft_detected, 0);
  EXPECT_EQ(s.abft_false_alarms, 0);
}

TEST(TiledGemm, AbftMultiColumnGridSharesRowChecksums) {
  // A 2x3 block grid: each block row's A column-sum vector is computed
  // once and reused across the three block columns. Detection behavior
  // and output bits must be indistinguishable from recomputing it per
  // tile.
  const core::M3xuEngine engine;
  const Problem p = make(96, 130, 72, 511);
  const TileConfig cfg{48, 48, 24, 24, 24};
  Matrix<float> flat = p.c;
  engine.gemm_fp32(96, 130, 72, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   flat.data(), flat.ld());
  Matrix<float> guarded = p.c;
  const TiledGemmStats s =
      plan_gemm(engine, cfg, p.a, p.b, guarded, AbftConfig{true, 1.0});
  for (int i = 0; i < 96; ++i) {
    for (int j = 0; j < 130; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j)), bits_of(flat(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(s.block_tiles, 2 * 3);
  EXPECT_EQ(s.abft_tile_checks, s.block_tiles);
  EXPECT_EQ(s.abft_detected, 0);
  EXPECT_EQ(s.abft_recomputed, 0);
  EXPECT_EQ(s.abft_recovered, 0);
  EXPECT_EQ(s.abft_false_alarms, 0);
}

TEST(TiledGemm, AbftMultiTileRecoversUnderInjection) {
  // Detection must keep firing on a multi-tile grid where the cached
  // per-block-row checksums are shared across block columns.
  const Problem p = make(96, 96, 48, 512);
  const TileConfig cfg{48, 48, 24, 24, 24};
  const core::M3xuEngine clean;
  Matrix<float> ref = p.c;
  plan_gemm(clean, cfg, p.a, p.b, ref);

  const fault::FaultInjector inj(37, fault::SiteRates::uniform(1e-4));
  core::M3xuConfig mcfg;
  mcfg.injector = &inj;
  const core::M3xuEngine faulty(mcfg);
  Matrix<float> c = p.c;
  const TiledGemmStats s =
      plan_gemm(faulty, cfg, p.a, p.b, c, AbftConfig{true, 1.0});
  EXPECT_EQ(s.block_tiles, 4);
  ASSERT_GT(inj.total_injected(), 0u);
  ASSERT_GT(s.abft_detected, 0);
  EXPECT_EQ(s.abft_recovered, s.abft_detected);
  for (int i = 0; i < 96; ++i) {
    for (int j = 0; j < 96; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j))) << i << "," << j;
    }
  }
}

/// Compiles an sgemm plan (32^3 by default) with `tile`: compile is
/// where every tile config is validated.
GemmPlan compile_with(const TileConfig& tile,
                      const PlanKey& key = PlanKey{32, 32, 32}) {
  PlanOptions options;
  options.tile = tile;
  return GemmPlan::compile(core::M3xuConfig{}, key, options);
}

TEST(TiledGemm, InvalidTileConfigReportsClearMessage) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  try {
    // warp_m does not divide block_m.
    compile_with(TileConfig{48, 32, 16, 32, 16});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("TileConfig invalid"),
              std::string::npos);
  }
}

TEST(TiledGemm, ShapeMismatchReportsClearMessage) {
  Rng rng(510);
  Matrix<float> a(32, 16), b(24, 32), c(32, 32);  // A.cols != B.rows
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  const GemmPlan plan =
      compile_with(TileConfig{32, 32, 16, 16, 16}, PlanKey{32, 32, 16});
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  try {
    plan.execute(a, b, c);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("GemmPlan shape mismatch"),
              std::string::npos);
  }
}

TEST(TileConfigValid, RejectsNonPositiveFieldsWithoutUb) {
  // Regression: valid() used to run the % divisibility checks before
  // checking positivity, which is UB (division by zero) on a zero warp
  // tile a caller can pass to plan compile. Under the UBSan CI matrix
  // this test fails loudly if that ordering ever regresses.
  EXPECT_TRUE(TileConfig{}.valid());
  const auto mutate = [](int TileConfig::* field, int value) {
    TileConfig tile{};
    tile.*field = value;
    return tile;
  };
  for (const int bad : {0, -1, -128}) {
    EXPECT_FALSE(mutate(&TileConfig::block_m, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::block_n, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::block_k, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::warp_m, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::warp_n, bad).valid()) << bad;
  }
  // Divisibility still enforced once positivity holds.
  EXPECT_FALSE((TileConfig{48, 32, 16, 32, 16}).valid());
  EXPECT_FALSE((TileConfig{64, 48, 16, 32, 32}).valid());
}

TEST(TiledGemm, ZeroWarpTileFailsTheEntryCheckCleanly) {
  // Plan compile's M3XU_CHECK path must reach the handler (and not trip
  // UB inside valid()) for the same malformed configs.
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  EXPECT_THROW(compile_with(TileConfig{64, 64, 16, 0, 32}), CheckError);
  EXPECT_THROW(compile_with(TileConfig{64, 64, -8, 32, 32}), CheckError);
}

TEST(TiledGemm, RejectsMisalignedBlockK) {
  // block_k must be a multiple of the FP32 instruction K (8).
  EXPECT_DEATH(compile_with(TileConfig{32, 32, 12, 16, 16}), "");
}

}  // namespace
}  // namespace m3xu::gemm
