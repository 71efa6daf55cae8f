// Cross-checks the tiled driver's hand-maintained TiledGemmStats
// against the engine/pack telemetry counters: the two are independent
// bookkeeping paths over the same work, so aligned geometries must
// agree exactly. Also pins the per-dot element counter and the ABFT
// counter mirror. In M3XU_TELEMETRY=OFF builds the counter deltas are
// all zero while TiledGemmStats still counts; both branches are
// asserted.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/microkernel.hpp"
#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "telemetry/telemetry.hpp"
#include "plan_gemm.hpp"

namespace telemetry = m3xu::telemetry;
using m3xu::Rng;
using m3xu::core::M3xuEngine;
using m3xu::gemm::Matrix;
using m3xu::gemm::TiledGemmStats;

namespace {

/// Engine-side (output element, K-chunk) pairs attributed to `family`
/// ("fp32" or "fp32c") between two snapshots. Every route counts each
/// pair exactly once: the generic (special/injector) path, and the
/// microkernel's valid lanes in full and partial blocks.
std::uint64_t element_chunk_pairs(const telemetry::Snapshot& after,
                                  const telemetry::Snapshot& before,
                                  const std::string& family) {
  const std::string base = "mxu." + family;
  return after.counter_delta(before, base + ".chunks.generic") +
         after.counter_delta(before, base + ".microkernel.pair_chunks");
}

std::uint64_t packed_elements(const telemetry::Snapshot& after,
                              const telemetry::Snapshot& before,
                              const std::string& family) {
  return after.counter_delta(before, "pack." + family + ".a_elements") +
         after.counter_delta(before, "pack." + family + ".b_elements");
}

}  // namespace

TEST(TelemetryRoutes, TiledSgemmStatsMatchEngineCounters) {
  // Aligned everywhere: 128x128x64 against the default 128/128/32
  // tile with 64x32 warps, so instr_count has no ceil slack and
  // stats.mma_instructions * (inst_m * inst_n) is exactly the number
  // of (element, chunk) pairs the engine routes.
  const int m = 128, n = 128, k = 64;
  Rng rng(7);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const M3xuEngine engine;
  const m3xu::gemm::TileConfig cfg;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = m3xu::gemm::plan_gemm(engine, cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.mma_instructions, 0);
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"),
            static_cast<std::uint64_t>(stats.mma_instructions) * shape.m *
                shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32")) *
          sizeof(float),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"), 0u);
  EXPECT_EQ(packed_elements(after, before, "fp32"), 0u);
#endif
}

TEST(TelemetryRoutes, TiledSgemmUnalignedGeometry) {
  // Unaligned edges: instr_count rounds partial instructions up, so
  // the engine pair count (exact per element) can only be smaller.
  // The per-element chunk count is still exact and checkable.
  const int m = 100, n = 90, k = 50;
  Rng rng(11);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const M3xuEngine engine;
  m3xu::gemm::TileConfig cfg;
  const int inst_k = m3xu::core::shape_for(m3xu::core::MxuMode::kFp32).k;
  std::uint64_t chunks = 0;  // sum over mainloop panels of ceil(kc / inst_k)
  for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
    const int kc = std::min(cfg.block_k, k - k0);
    chunks += static_cast<std::uint64_t>((kc + inst_k - 1) / inst_k);
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = m3xu::gemm::plan_gemm(engine, cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32);
#if M3XU_TELEMETRY_ENABLED
  const std::uint64_t pairs = element_chunk_pairs(after, before, "fp32");
  EXPECT_EQ(pairs, static_cast<std::uint64_t>(m) * n * chunks);
  EXPECT_LE(pairs, static_cast<std::uint64_t>(stats.mma_instructions) *
                       shape.m * shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32")) *
          sizeof(float),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"), 0u);
#endif
}

TEST(TelemetryRoutes, UnalignedCgemmCountsEveryOutputOnce) {
  // The serving benchmark's 50^3 cgemm, on 18-column warp tiles: every
  // warp tile ends in a partial register block (18 and 14 columns, 50
  // rows), for 4x4 and 8x8 blocks alike. instr_count rounds the partial
  // 16x8 instructions up, so the engine pair count is exact per output
  // and bounded by mma_instructions * inst_m * inst_n. Every output
  // lands in exactly one of block_elements (full blocks) and
  // elements.edge (partial blocks), once per K-block.
  //
  // B columns 18 and 49 hold 2^72 in their first K-chunk, a 119-bit
  // span in each of the 50 rows, where they are valid lanes: 100
  // fallbacks. Column 18 also sits in the panel just past the first
  // warp tile, under a masked lane of its last block, which must not
  // pick it up.
  const int m = 50, n = 50, k = 50;
  Rng rng(53);
  const auto unit = [&rng] {
    return 1.0f + static_cast<float>(rng.next_below(1024)) / 1024.0f;
  };
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  for (int i = 0; i < m; ++i) {
    for (int t = 0; t < k; ++t) a(i, t) = {unit(), unit()};
  }
  for (int t = 0; t < k; ++t) {
    for (int j = 0; j < n; ++j) b(t, j) = {unit(), unit()};
  }
  b(0, 18) = {1.0f, std::ldexp(1.0f, 72)};
  b(0, n - 1) = {1.0f, std::ldexp(1.0f, 72)};
  c.fill({});
  const M3xuEngine engine;
  const m3xu::gemm::TileConfig cfg{64, 54, 32, 64, 18};
  const int inst_k =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32Complex).k;
  std::uint64_t chunks = 0;  // sum over K-blocks of ceil(kc / inst_k)
  std::uint64_t kblocks = 0;
  for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
    const int kc = std::min(cfg.block_k, k - k0);
    chunks += static_cast<std::uint64_t>((kc + inst_k - 1) / inst_k);
    ++kblocks;
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = m3xu::gemm::plan_gemm(engine, cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.mma_instructions, 0);
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32Complex);
  const auto outputs = static_cast<std::uint64_t>(m) * n;
#if M3XU_TELEMETRY_ENABLED
  const std::uint64_t pairs = element_chunk_pairs(after, before, "fp32c");
  EXPECT_EQ(pairs, outputs * chunks);
  EXPECT_LE(pairs, static_cast<std::uint64_t>(stats.mma_instructions) *
                       shape.m * shape.n);
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32c.chunks.generic"), 0u);
  const std::uint64_t edge =
      after.counter_delta(before, "mxu.fp32c.elements.edge");
  EXPECT_GT(edge, 0u);
  const std::uint64_t blocked =
      after.counter_delta(before, "mxu.fp32c.microkernel.block_elements");
  EXPECT_EQ(blocked + edge, outputs * kblocks);
  EXPECT_EQ(
      after.counter_delta(before, "mxu.fp32c.microkernel.pair_fallbacks"),
      2 * static_cast<std::uint64_t>(m));
#else
  (void)shape;
  (void)outputs;
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32c"), 0u);
#endif
}

TEST(TelemetryRoutes, TiledCgemmStatsMatchEngineCounters) {
  const int m = 64, n = 64, k = 32;
  Rng rng(23);
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill({});
  const M3xuEngine engine;
  m3xu::gemm::TileConfig cfg;
  cfg.block_m = 64;
  cfg.block_n = 64;
  cfg.block_k = 16;
  cfg.warp_m = 32;
  cfg.warp_n = 32;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = m3xu::gemm::plan_gemm(engine, cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.mma_instructions, 0);
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32Complex);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32c"),
            static_cast<std::uint64_t>(stats.mma_instructions) * shape.m *
                shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32c")) *
          sizeof(std::complex<float>),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32c"), 0u);
#endif
}

TEST(TelemetryRoutes, PerDotElementCounter) {
  const int m = 24, n = 16, k = 8;
  Rng rng(31);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const M3xuEngine engine;
  const telemetry::Snapshot before = telemetry::snapshot();
  engine.gemm_fp32(m, n, k, a.data(), a.ld(), b.data(), b.ld(), c.data(),
                   c.ld());
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.elements.perdot"),
            static_cast<std::uint64_t>(m) * n);
#else
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.elements.perdot"), 0u);
#endif
}

TEST(TelemetryRoutes, AbftCountersMirrorStats) {
  const int m = 64, n = 64, k = 32;
  Rng rng(5);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const M3xuEngine engine;
  const m3xu::gemm::TileConfig cfg;
  m3xu::gemm::AbftConfig abft;
  abft.enable = true;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats =
      m3xu::gemm::plan_gemm(engine, cfg, a, b, c, abft);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.abft_tile_checks, 0);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "abft.tile_checks"),
            static_cast<std::uint64_t>(stats.abft_tile_checks));
  EXPECT_EQ(after.counter_delta(before, "abft.detected"),
            static_cast<std::uint64_t>(stats.abft_detected));
  EXPECT_EQ(after.counter_delta(before, "abft.recomputed"),
            static_cast<std::uint64_t>(stats.abft_recomputed));
#else
  EXPECT_EQ(after.counter_delta(before, "abft.tile_checks"), 0u);
#endif
}

namespace {

/// A value in [1, 2): every operand chunk built from these spans 47 bits.
float unit_range(Rng& rng) {
  return 1.0f + static_cast<float>(rng.next_below(1024)) / 1024.0f;
}

}  // namespace

TEST(TelemetryRoutes, MicrokernelFallbacksCountOnlyWindowFailures) {
  // One MR x NR block, one K-chunk, every operand in [1, 2) except:
  //   - row 0's A chunk holds 2^100 and 2^-100: its NR lanes' windows
  //     span far over 118 bits (NR fallbacks);
  //   - column NR-1's B chunk holds 2^72: a 119-bit span in every row
  //     with terms (rows 1 and 3..MR-1 add MR-2 fallbacks);
  //   - row 1's C holds NaN and Inf in lanes 0 and 1: those lanes take
  //     the generic path but are not fallbacks;
  //   - row 2's A chunk is zero: lanes with no terms stream.
  // So pair_fallbacks grows by exactly NR + MR - 2 per block.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const m3xu::core::MkVariant v :
       {m3xu::core::MkVariant::kScalar, m3xu::core::MkVariant::kAvx2,
        m3xu::core::MkVariant::kAvx512}) {
    if (!m3xu::core::mk_variant_available(v)) continue;
    for (const int edge : {4, 8}) {
      SCOPED_TRACE(std::string(m3xu::core::mk_variant_name(v)) + " " +
                   std::to_string(edge) + "x" + std::to_string(edge));
      m3xu::core::M3xuConfig cfg;
      cfg.mk_variant = v;
      cfg.mk_mr = edge;
      cfg.mk_nr = edge;
      const M3xuEngine engine(cfg);
      const int m = edge, n = edge;
      const std::uint64_t expected = static_cast<std::uint64_t>(n + m - 2);
      Rng rng(41 + edge);

      const int k = 8;
      std::vector<float> a(m * k), b(k * n), c(m * n);
      for (auto& x : a) x = unit_range(rng);
      for (auto& x : b) x = unit_range(rng);
      for (auto& x : c) x = unit_range(rng);
      a[0] = std::ldexp(1.0f, 100);
      a[1] = std::ldexp(1.0f, -100);
      for (int t = 0; t < k; ++t) a[2 * k + t] = 0.0f;
      b[n - 1] = std::ldexp(1.0f, 72);
      c[n] = nan;
      c[n + 1] = inf;
      const telemetry::Snapshot before = telemetry::snapshot();
      engine.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c.data(), n);
      const telemetry::Snapshot mid = telemetry::snapshot();

      const int ck = 4;
      std::vector<std::complex<float>> ca(m * ck), cb(ck * n), cc(m * n);
      for (auto& x : ca) x = {unit_range(rng), unit_range(rng)};
      for (auto& x : cb) x = {unit_range(rng), unit_range(rng)};
      for (auto& x : cc) x = {unit_range(rng), unit_range(rng)};
      ca[0] = {std::ldexp(1.0f, 100), 1.0f};
      ca[1] = {std::ldexp(1.0f, -100), 1.0f};
      for (int t = 0; t < ck; ++t) ca[2 * ck + t] = {};
      cb[n - 1] = {std::ldexp(1.0f, 72), 1.0f};
      cc[n] = {nan, 1.0f};
      cc[n + 1] = {1.0f, inf};
      engine.gemm_fp32c_packed(m, n, ck, ca.data(), ck, cb.data(), n,
                               cc.data(), n);
      const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
      EXPECT_EQ(mid.counter_delta(before, "mxu.fp32.microkernel.blocks"), 1u);
      EXPECT_EQ(
          mid.counter_delta(before, "mxu.fp32.microkernel.pair_fallbacks"),
          expected);
      EXPECT_EQ(after.counter_delta(mid, "mxu.fp32c.microkernel.blocks"), 1u);
      EXPECT_EQ(
          after.counter_delta(mid, "mxu.fp32c.microkernel.pair_fallbacks"),
          expected);
#else
      (void)expected;
      (void)mid;
      EXPECT_EQ(
          after.counter_delta(before, "mxu.fp32.microkernel.pair_fallbacks"),
          0u);
#endif
    }
  }
}
