// Property tests for the register-blocked microkernel: the packed GEMM
// streaming through the microkernel must be bit-identical to the
// per-dot route (and to the packed generic path) across geometry sweeps
// straddling the MR/NR block and K-chunk boundaries, partial edge
// blocks of every rows x cols, subnormal inputs,
// Inf/NaN operands (which bypass the microkernel at the routing seam),
// wide exponent spans that force the per-pair generic fallback, nonzero
// and signed-zero C, non-default rounding configs, prepacked sub-block
// offsets, injector-attached engines (which must stay on the
// per-dot-identical generic path and replay identical fault logs), and
// block rows whose column lanes diverge between streaming and fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/microkernel.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::core {
namespace {

/// The packed entry points forced down the generic per-dot
/// reassembly path: the reference the microkernel is checked against
/// on the same panels.
M3xuEngine generic_engine(M3xuConfig cfg = {}) {
  cfg.force_generic = true;
  return M3xuEngine(cfg);
}

std::vector<float> random_buffer(int rows, int cols, Rng& rng, bool benign) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) x = benign ? rng.scaled_float() : rng.any_finite_float();
  return v;
}

std::vector<std::complex<float>> random_cbuffer(int rows, int cols, Rng& rng,
                                                bool benign) {
  std::vector<std::complex<float>> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) {
    x = benign ? std::complex<float>(rng.scaled_float(), rng.scaled_float())
               : std::complex<float>(rng.any_finite_float(),
                                     rng.any_finite_float());
  }
  return v;
}

void expect_bitwise_equal(const std::vector<float>& x,
                          const std::vector<float>& y, const char* what) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i]), bits_of(y[i])) << what << " element " << i;
  }
}

void expect_bitwise_equal(const std::vector<std::complex<float>>& x,
                          const std::vector<std::complex<float>>& y,
                          const char* what) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i].real()), bits_of(y[i].real()))
        << what << " re " << i;
    ASSERT_EQ(bits_of(x[i].imag()), bits_of(y[i].imag()))
        << what << " im " << i;
  }
}

/// Runs one FP32 shape through per-dot, the packed generic path and the
/// packed microkernel route; asserts all three agree bitwise.
void check_fp32(const M3xuEngine& micro, const M3xuEngine& generic, int m,
                int n, int k, const std::vector<float>& a,
                const std::vector<float>& b, const std::vector<float>& c) {
  auto c0 = c, c1 = c, c2 = c;
  micro.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  generic.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
  expect_bitwise_equal(c0, c1, "generic-vs-perdot");
  expect_bitwise_equal(c0, c2, "microkernel-vs-perdot");
}

void check_fp32c(const M3xuEngine& micro, const M3xuEngine& generic, int m,
                 int n, int k, const std::vector<std::complex<float>>& a,
                 const std::vector<std::complex<float>>& b,
                 const std::vector<std::complex<float>>& c) {
  auto c0 = c, c1 = c, c2 = c;
  micro.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  generic.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  micro.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
  expect_bitwise_equal(c0, c1, "generic-vs-perdot");
  expect_bitwise_equal(c0, c2, "microkernel-vs-perdot");
}

// --- Geometry sweep ----------------------------------------------------

TEST(MicrokernelFp32, GeometrySweepAroundBlockAndChunkBoundaries) {
  // m, n straddle the 4x4 register block (edge tiles 1..3 wide plus
  // full blocks); k straddles the FP32 chunk width 8 (partial chunk,
  // exact multiples, and the first lane of the next chunk).
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  int idx = 0;
  for (const int m : {1, 3, 4, 5, 8, 9}) {
    for (const int n : {1, 3, 4, 5, 9}) {
      for (const int k : {1, 7, 8, 9, 16, 17}) {
        Rng rng(3100 + idx++);
        const auto a = random_buffer(m, k, rng, false);
        const auto b = random_buffer(k, n, rng, false);
        const auto c = random_buffer(m, n, rng, true);
        check_fp32(micro, generic, m, n, k, a, b, c);
      }
    }
  }
}

TEST(MicrokernelFp32c, GeometrySweepAroundBlockAndChunkBoundaries) {
  // FP32C chunk width is 4; keep the sweep smaller since each complex
  // element costs four scalar dot streams.
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  int idx = 0;
  for (const int m : {1, 3, 4, 5, 9}) {
    for (const int n : {1, 4, 5, 9}) {
      for (const int k : {1, 3, 4, 5, 8, 9}) {
        Rng rng(4100 + idx++);
        const auto a = random_cbuffer(m, k, rng, false);
        const auto b = random_cbuffer(k, n, rng, false);
        const auto c = random_cbuffer(m, n, rng, true);
        check_fp32c(micro, generic, m, n, k, a, b, c);
      }
    }
  }
}

// --- Value-class corners ----------------------------------------------

TEST(MicrokernelFp32, SubnormalsFlushIdentically) {
  // Subnormal operands flush to zero in the hardware split; the
  // microkernel must treat the resulting all-zero lanes exactly like
  // the scalar paths (including zero-times-anything and empty sums
  // producing +0).
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  const float sub_min = std::numeric_limits<float>::denorm_min();
  const float sub_max = 1.17549421e-38f;  // largest subnormal
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(5200 + trial);
    const int m = 6, n = 7, k = 17;
    auto a = random_buffer(m, k, rng, true);
    auto b = random_buffer(k, n, rng, true);
    for (int i = 0; i < 24; ++i) {
      a[rng.next_below(a.size())] = rng.next_below(2) ? sub_min : -sub_max;
      b[rng.next_below(b.size())] = rng.next_below(2) ? -sub_min : sub_max;
    }
    // One all-subnormal row: every product flushes, C passes through.
    for (int j = 0; j < k; ++j) a[static_cast<std::size_t>(2) * k + j] = sub_max;
    auto c = random_buffer(m, n, rng, true);
    c[0] = -0.0f;
    c[1] = 0.0f;
    check_fp32(micro, generic, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32, InfNanOperandsBypassAtRoutingSeam) {
  // Specials mark the packed panels has_special, which must route the
  // whole GEMM around the microkernel; the result still has to match
  // per-dot bit-for-bit (Inf/NaN propagation included).
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(6200 + trial);
    const int m = 5, n = 6, k = 12;
    auto a = random_buffer(m, k, rng, true);
    auto b = random_buffer(k, n, rng, true);
    const float specials[] = {inf, -inf, nan};
    for (int i = 0; i < 6; ++i) {
      a[rng.next_below(a.size())] = specials[rng.next_below(3)];
      if (trial % 2 == 0) b[rng.next_below(b.size())] = specials[rng.next_below(3)];
    }
    const auto c = random_buffer(m, n, rng, true);
    check_fp32(micro, generic, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32, WideExponentSpansFallBackBitIdentically) {
  // Mix magnitudes near the FP32 extremes so chunk prescan windows
  // exceed the 128-bit fixed-point budget and individual 4x4 pairs
  // fall through to the generic per-dot-replica path mid-block. Also
  // seed C with huge/tiny values so the register fold exercises the
  // dropped-bits fallback.
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(7200 + trial);
    const int m = 7, n = 8, k = 24;
    auto a = random_buffer(m, k, rng, false);
    auto b = random_buffer(k, n, rng, false);
    const float extremes[] = {3e38f,      -2.5e38f,  1.2e-38f, -4e-38f,
                              1.5e30f,    -2e-30f,   6e19f,    -7e-19f};
    for (std::size_t i = 0; i < a.size(); i += 3) {
      a[i] = extremes[rng.next_below(8)];
    }
    for (std::size_t i = 0; i < b.size(); i += 2) {
      b[i] = extremes[rng.next_below(8)];
    }
    auto c = random_buffer(m, n, rng, false);
    c[0] = 3.4e38f;
    c[1] = -1e-38f;
    check_fp32(micro, generic, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32c, WideExponentSpansFallBackBitIdentically) {
  const M3xuEngine micro;
  const M3xuEngine generic = generic_engine();
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(8200 + trial);
    const int m = 5, n = 5, k = 9;
    auto a = random_cbuffer(m, k, rng, false);
    auto b = random_cbuffer(k, n, rng, false);
    const float extremes[] = {3e38f, -1.2e-38f, 2e30f, -5e-30f};
    for (std::size_t i = 0; i < a.size(); i += 2) {
      a[i] = {extremes[rng.next_below(4)], a[i].imag()};
    }
    for (std::size_t i = 0; i < b.size(); i += 3) {
      b[i] = {b[i].real(), extremes[rng.next_below(4)]};
    }
    const auto c = random_cbuffer(m, n, rng, false);
    check_fp32c(micro, generic, m, n, k, a, b, c);
  }
}

// --- Rounding-config sweep --------------------------------------------

TEST(MicrokernelFp32, NonDefaultRoundingConfigsStayBitIdentical) {
  // Both register semantics (per-step and the idealized single-rounding
  // ablation) at several accumulation precisions must agree with the
  // per-dot route through the microkernel's fused step paths.
  for (const bool per_step : {true, false}) {
    for (const int prec : {24, 48, 63}) {
      M3xuConfig cfg;
      cfg.per_step_rounding = per_step;
      cfg.accum_prec = prec;
      const M3xuEngine micro(cfg);
      const M3xuEngine generic = generic_engine(cfg);
      Rng rng(9300 + prec + (per_step ? 1000 : 0));
      const int m = 6, n = 9, k = 26;
      const auto a = random_buffer(m, k, rng, false);
      const auto b = random_buffer(k, n, rng, false);
      const auto c = random_buffer(m, n, rng, true);
      check_fp32(micro, generic, m, n, k, a, b, c);
      const int ck = 12;
      const auto ca = random_cbuffer(m, ck, rng, false);
      const auto cb = random_cbuffer(ck, n, rng, false);
      const auto cc = random_cbuffer(m, n, rng, true);
      check_fp32c(micro, generic, m, n, ck, ca, cb, cc);
    }
  }
}

// --- Prepacked sub-block offsets --------------------------------------

TEST(MicrokernelFp32, PrepackedOffsetsAlignWithChunkMetadata) {
  // Sub-block row0/col0 offsets that are not multiples of the 4x4
  // block must still index the right per-chunk prescan metadata rows.
  const int rows = 19, cols = 17, k = 21;
  Rng rng(10400);
  const auto a = random_buffer(rows, k, rng, false);
  const auto b = random_buffer(k, cols, rng, false);
  PackedPanelFp32A pa;
  PackedPanelFp32B pb;
  pack_fp32_a(a.data(), k, rows, k, pa);
  pack_fp32_b(b.data(), cols, k, cols, pb);
  const M3xuEngine micro;
  const struct {
    int row0, col0, m, n;
  } blocks[] = {{0, 0, rows, cols}, {1, 2, 9, 9}, {5, 3, 8, 12},
                {13, 9, 6, 8},      {18, 16, 1, 1}};
  for (const auto& blk : blocks) {
    auto c0 = random_buffer(blk.m, blk.n, rng, true);
    auto c1 = c0;
    micro.gemm_fp32(blk.m, blk.n, k,
                    a.data() + static_cast<std::size_t>(blk.row0) * k, k,
                    b.data() + blk.col0, cols, c0.data(), blk.n);
    micro.gemm_fp32_prepacked(pa, blk.row0, pb, blk.col0, blk.m, blk.n,
                              c1.data(), blk.n);
    expect_bitwise_equal(c0, c1, "prepacked-offset");
  }
}

// --- Dispatch matrix ---------------------------------------------------
//
// The SIMD variant and the register-block shape are pure performance
// knobs: every (variant, MRxNR) combination the host can run must be
// bit-identical to the per-dot route on the same condensed property
// sweep the default config is tested with above.

TEST(MicrokernelDispatch, ResolutionRespectsAvailability) {
  for (const MkVariant v : {MkVariant::kAuto, MkVariant::kScalar,
                            MkVariant::kAvx2, MkVariant::kAvx512}) {
    const MkVariant r = mk_variant_resolve(v);
    EXPECT_TRUE(mk_variant_available(r)) << mk_variant_name(v);
    EXPECT_NE(r, MkVariant::kAuto) << mk_variant_name(v);
    if (v != MkVariant::kAuto) {
      // A forced-but-unavailable variant clamps down, never up.
      EXPECT_LE(static_cast<int>(r), static_cast<int>(v))
          << mk_variant_name(v);
    }
  }
  // Scalar is unconditionally available and never redirected.
  EXPECT_TRUE(mk_variant_available(MkVariant::kScalar));
  EXPECT_EQ(mk_variant_resolve(MkVariant::kScalar), MkVariant::kScalar);
}

TEST(MicrokernelDispatch, BlockShapeResolution) {
  EXPECT_TRUE(mk_block_supported(4, 4));
  EXPECT_TRUE(mk_block_supported(6, 8));
  EXPECT_TRUE(mk_block_supported(8, 8));
  EXPECT_FALSE(mk_block_supported(5, 5));
  EXPECT_FALSE(mk_block_supported(0, 4));
  EXPECT_FALSE(mk_block_supported(8, 4));
  const MkBlockShape def = mk_block_resolve(0, 0);
  EXPECT_TRUE(mk_block_supported(def.mr, def.nr));
  const MkBlockShape forced = mk_block_resolve(6, 8);
  EXPECT_EQ(forced.mr, 6);
  EXPECT_EQ(forced.nr, 8);
}

TEST(MicrokernelDispatch, BlockShapeFollowsConfiguredVariant) {
  // The default shape follows the variant the engine requests, not the
  // kAuto resolution: an engine forced to kScalar on a SIMD host runs
  // the scalar default shape, as M3XU_MK_VARIANT=scalar would.
  const MkBlockShape scalar = mk_block_resolve(0, 0, MkVariant::kScalar);
  EXPECT_EQ(scalar.mr, 4);
  EXPECT_EQ(scalar.nr, 4);
  const MkBlockShape autos = mk_block_resolve(0, 0);
  const MkBlockShape resolved =
      mk_block_resolve(0, 0, mk_variant_resolve(MkVariant::kAuto));
  EXPECT_EQ(autos.mr, resolved.mr);
  EXPECT_EQ(autos.nr, resolved.nr);
  if (mk_variant_available(MkVariant::kAvx512)) {
    const MkBlockShape wide = mk_block_resolve(0, 0, MkVariant::kAvx512);
    EXPECT_EQ(wide.mr, 8);
    EXPECT_EQ(wide.nr, 8);
  }
  // A forced-scalar engine runs 4x4 blocks: a 16x16 GEMM is 16 of them.
  M3xuConfig cfg;
  cfg.mk_variant = MkVariant::kScalar;
  const M3xuEngine micro(cfg);
  Rng rng(36000);
  const int m = 16, n = 16, k = 8;
  const auto a = random_buffer(m, k, rng, true);
  const auto b = random_buffer(k, n, rng, true);
  auto c = random_buffer(m, n, rng, true);
  const telemetry::Snapshot before = telemetry::snapshot();
  micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.microkernel.blocks"), 16u);
#else
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.microkernel.blocks"), 0u);
#endif
}

TEST(MicrokernelDispatch, EveryVariantAndShapeMatchesPerDot) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  int combo = 0;
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;  // host without that ISA
    for (const MkBlockShape shape :
         {MkBlockShape{4, 4}, MkBlockShape{6, 8}, MkBlockShape{8, 8}}) {
      SCOPED_TRACE(std::string(mk_variant_name(v)) + " " +
                   std::to_string(shape.mr) + "x" + std::to_string(shape.nr));
      M3xuConfig cfg;
      cfg.mk_variant = v;
      cfg.mk_mr = shape.mr;
      cfg.mk_nr = shape.nr;
      cfg.mk_prefetch = (combo % 2 == 0);  // both prefetch settings
      const M3xuEngine micro(cfg);
      const M3xuEngine generic = generic_engine(cfg);

      // Geometry straddling this shape's block boundaries and the
      // K-chunk width.
      for (const int m : {1, shape.mr - 1, shape.mr, shape.mr + 1,
                          2 * shape.mr + 3}) {
        for (const int n : {1, shape.nr, shape.nr + 2}) {
          const int k = 17;
          Rng rng(31000 + 97 * combo + 7 * m + n);
          const auto a = random_buffer(m, k, rng, false);
          const auto b = random_buffer(k, n, rng, false);
          const auto c = random_buffer(m, n, rng, true);
          check_fp32(micro, generic, m, n, k, a, b, c);
        }
      }
      {
        // Subnormals, specials, and wide spans in one salted batch.
        Rng rng(32000 + combo);
        const int m = shape.mr + 2, n = shape.nr + 1, k = 19;
        auto a = random_buffer(m, k, rng, false);
        auto b = random_buffer(k, n, rng, false);
        a[0] = sub;
        a[1] = -sub;
        b[0] = inf;
        b[1] = nan;
        a[2] = 3e38f;
        b[2] = -1.2e-38f;
        const auto c = random_buffer(m, n, rng, true);
        check_fp32(micro, generic, m, n, k, a, b, c);
      }
      {
        // Complex route with the same forced dispatch.
        Rng rng(33000 + combo);
        const int m = shape.mr + 1, n = shape.nr, k = 9;
        const auto a = random_cbuffer(m, k, rng, false);
        const auto b = random_cbuffer(k, n, rng, false);
        const auto c = random_cbuffer(m, n, rng, true);
        check_fp32c(micro, generic, m, n, k, a, b, c);
      }
      {
        // Prepacked sub-block offsets must index the per-chunk prescan
        // metadata correctly for every MRxNR, not just the default.
        const int rows = 2 * shape.mr + 3, cols = 2 * shape.nr + 1, k = 13;
        Rng rng(34000 + combo);
        const auto a = random_buffer(rows, k, rng, false);
        const auto b = random_buffer(k, cols, rng, false);
        PackedPanelFp32A pa;
        PackedPanelFp32B pb;
        pack_fp32_a(a.data(), k, rows, k, pa);
        pack_fp32_b(b.data(), cols, k, cols, pb);
        const int row0 = 1, col0 = 2;
        const int bm = rows - row0, bn = cols - col0;
        auto c0 = random_buffer(bm, bn, rng, true);
        auto c1 = c0;
        micro.gemm_fp32(bm, bn, k,
                        a.data() + static_cast<std::size_t>(row0) * k, k,
                        b.data() + col0, cols, c0.data(), bn);
        micro.gemm_fp32_prepacked(pa, row0, pb, col0, bm, bn, c1.data(), bn);
        expect_bitwise_equal(c0, c1, "prepacked-offset-dispatch");
      }
      ++combo;
    }
  }
  EXPECT_GE(combo, 3);  // at least the scalar variant ran all shapes
}

// --- Lane divergence ---------------------------------------------------
//
// One lane holds one output column of a block row, so the lanes of one
// row can disagree on whether they stream. These inputs give every
// block row lanes that stream, lanes that fall back, lanes with no
// finite terms, lanes that cancel, and lanes whose register is Inf,
// NaN or a signed zero, and place terms at the limb boundaries.
//
// In the first K-chunk every A row holds 1.0 in slots 0-3 and values
// in [1, 2) after, so its exponent window is fixed: a B column chunk
// holding 2^lo and 2^hi then spans hi - lo + 47 bits, and the term
// with 2^e sits e bits above the window floor.

/// First-chunk B values of column pattern `p`.
std::vector<float> lane_pattern(int p, Rng& rng) {
  const auto pow2 = [](int e) { return std::ldexp(1.0f, e); };
  switch (p) {
    case 1:  // span 119: falls back
      return {1.0f, pow2(72)};
    case 2:  // no finite terms in this chunk
      return {};
    case 3:  // like-term shifts 0, 63, 64 and 65 above the floor
      return {1.0f, pow2(63), -pow2(64), pow2(65)};
    case 4:  // span exactly 118: streams
      return {-1.0f, pow2(71)};
    case 5: {  // exact cancellation against the A row's 1.0 slots
      const float x = rng.scaled_float();
      const float y = rng.scaled_float();
      return {x, -x, y, -y};
    }
    case 6:  // span 119 at small magnitudes
      return {pow2(-40), -pow2(32)};
    default: {  // ordinary streaming lane
      std::vector<float> v(8);
      for (auto& x : v) x = rng.scaled_float();
      return v;
    }
  }
}

/// C value at (i, j): Inf, -Inf, NaN and +-0 registers spread over the
/// lanes of each row, finite values elsewhere.
float lane_register(int i, int j, Rng& rng) {
  switch ((i + j) % 8) {
    case 1:
      return std::numeric_limits<float>::quiet_NaN();
    case 3:
      return std::numeric_limits<float>::infinity();
    case 4:
      return -std::numeric_limits<float>::infinity();
    case 5:
      return -0.0f;
    case 6:
      return 0.0f;
    default:
      return rng.scaled_float();
  }
}

/// A row chunk-0 value at slot t (row 1 is all zero: a whole row of
/// lanes with no finite terms).
float lane_a(int i, int t, Rng& rng) {
  if (i == 1) return 0.0f;
  if (t < 4) return 1.0f;
  const float v = 1.0f + std::ldexp(static_cast<float>(rng.next_below(8)), -3);
  return rng.next_below(2) ? v : -v;
}

/// Runs the divergent-lane inputs through `cfg`'s microkernel: two
/// block rows, at least eight columns so every pattern lands in a row
/// of each shape, and k = 8 or 16 (a second, ordinary chunk).
void check_divergent_lanes(const M3xuConfig& cfg, int k, Rng& rng) {
  const M3xuEngine micro(cfg);
  const M3xuEngine generic = generic_engine(cfg);
  const int m = 2 * cfg.mk_mr;
  const int n = std::max(8, 2 * cfg.mk_nr);
  std::vector<float> a = random_buffer(m, k, rng, true);
  std::vector<float> b = random_buffer(k, n, rng, true);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int t = 0; t < 8; ++t) a[i * k + t] = lane_a(i, t, rng);
  }
  for (int j = 0; j < n; ++j) {
    std::vector<float> col = lane_pattern(j % 8, rng);
    col.resize(8, 0.0f);
    for (int t = 0; t < 8; ++t) b[t * n + j] = col[t];
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) c[i * n + j] = lane_register(i, j, rng);
  }
  check_fp32(micro, generic, m, n, k, a, b, c);

  // The complex route: A chunk-0 elements 0-1 are (1, 0), so a B column
  // (x, y), (-x, -y) cancels; a pattern's values fill the B components
  // in slot order.
  const int ck = k / 2;
  auto ca = random_cbuffer(m, ck, rng, true);
  auto cb = random_cbuffer(ck, n, rng, true);
  std::vector<std::complex<float>> cc(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int e = 0; e < 4; ++e) {
      ca[i * ck + e] = e < 2 ? std::complex<float>(i == 1 ? 0.0f : 1.0f, 0.0f)
                             : std::complex<float>(lane_a(i, 4, rng),
                                                   lane_a(i, 5, rng));
    }
  }
  for (int j = 0; j < n; ++j) {
    std::vector<float> col = lane_pattern(j % 8, rng);
    if (j % 8 == 5) col = {col[0], col[2], col[1], col[3]};
    col.resize(8, 0.0f);
    for (int e = 0; e < 4; ++e) cb[e * n + j] = {col[2 * e], col[2 * e + 1]};
  }
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      cc[i * n + j] = {lane_register(i, j, rng), lane_register(i, j + 3, rng)};
    }
  }
  check_fp32c(micro, generic, m, n, ck, ca, cb, cc);
}

TEST(MicrokernelLanes, DivergentLanesInOneRowMatchPerDot) {
  int combo = 0;
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;
    for (const MkBlockShape shape :
         {MkBlockShape{4, 4}, MkBlockShape{6, 8}, MkBlockShape{8, 8}}) {
      for (const bool per_step : {true, false}) {
        for (const int prec : {24, 48, 63}) {
          for (const int k : {8, 16}) {
            SCOPED_TRACE(std::string(mk_variant_name(v)) + " " +
                         std::to_string(shape.mr) + "x" +
                         std::to_string(shape.nr) +
                         (per_step ? " per-step" : " idealized") + " prec " +
                         std::to_string(prec) + " k " + std::to_string(k));
            M3xuConfig cfg;
            cfg.mk_variant = v;
            cfg.mk_mr = shape.mr;
            cfg.mk_nr = shape.nr;
            cfg.per_step_rounding = per_step;
            cfg.accum_prec = prec;
            Rng rng(37000 + combo++);
            check_divergent_lanes(cfg, k, rng);
          }
        }
      }
    }
  }
  EXPECT_GE(combo, 36);  // at least the scalar variant ran every case
}

// --- Partial blocks ------------------------------------------------------
//
// Edge blocks run the microkernel with rows < MR or cols < NR: the
// missing columns are masked lanes that must not read or write C, and
// the valid lanes must still stream, fall back or bypass exactly as in
// a full block.

/// A value in [1, 2) with a random sign: chunk windows built from these
/// span 47 bits, so one 2^72 operand takes a lane to a 119-bit span.
float signed_unit(Rng& rng) {
  const float v =
      1.0f + std::ldexp(static_cast<float>(rng.next_below(1024)), -10);
  return rng.next_below(2) ? v : -v;
}

TEST(MicrokernelLanes, PartialBlocksMatchPerDot) {
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::ldexp(1.0f, 72);
  int combo = 0;
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;
    for (const MkBlockShape shape :
         {MkBlockShape{4, 4}, MkBlockShape{6, 8}, MkBlockShape{8, 8}}) {
      for (const bool per_step : {true, false}) {
        M3xuConfig cfg;
        cfg.mk_variant = v;
        cfg.mk_mr = shape.mr;
        cfg.mk_nr = shape.nr;
        cfg.per_step_rounding = per_step;
        const M3xuEngine micro(cfg);
        const M3xuEngine generic = generic_engine(cfg);
        Rng rng(38000 + combo++);
        // Panels one block plus a margin on every side; blocks sit at
        // (row0, col0). B's first block column holds 1 and 2^72 in its
        // first K-chunk (span 119: that lane falls back in every row),
        // and so does every second column after it: a block row mixes
        // streaming and fallback lanes, and half of the partial blocks
        // have such a column just past their last one, under a masked
        // lane.
        const int row0 = 2, col0 = 3;
        const int prows = shape.mr + 4, pcols = shape.nr + 5;
        const int k = 13, ck = 7;
        std::vector<float> a(static_cast<std::size_t>(prows) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * pcols);
        for (auto& x : a) x = signed_unit(rng);
        for (auto& x : b) x = signed_unit(rng);
        std::vector<std::complex<float>> ca(static_cast<std::size_t>(prows) *
                                            ck);
        std::vector<std::complex<float>> cb(static_cast<std::size_t>(ck) *
                                            pcols);
        for (auto& x : ca) x = {signed_unit(rng), signed_unit(rng)};
        for (auto& x : cb) x = {signed_unit(rng), signed_unit(rng)};
        for (int j = col0; j < pcols; j += 2) {
          b[j] = 1.0f;
          b[pcols + j] = big;
          cb[j] = {1.0f, big};
        }
        PackedPanelFp32A pa;
        PackedPanelFp32B pb;
        PackedPanelFp32cA pca;
        PackedPanelFp32cB pcb;
        pack_fp32_a(a.data(), k, prows, k, pa);
        pack_fp32_b(b.data(), pcols, k, pcols, pb);
        pack_fp32c_a(ca.data(), ck, prows, ck, pca);
        pack_fp32c_b(cb.data(), pcols, ck, pcols, pcb);
        // C rows are wider than the block, so a write to a masked lane
        // would change a sentinel the generic path leaves alone.
        const int ldc = shape.nr + 3;
        for (int rows = 1; rows <= shape.mr; ++rows) {
          for (int cols = 1; cols <= shape.nr; ++cols) {
            SCOPED_TRACE(std::string(mk_variant_name(v)) + " " +
                         std::to_string(shape.mr) + "x" +
                         std::to_string(shape.nr) +
                         (per_step ? " per-step" : " idealized") + " block " +
                         std::to_string(rows) + "x" + std::to_string(cols));
            const std::size_t inf_at =
                static_cast<std::size_t>(rows - 1) * ldc + cols - 1;
            auto c0 = random_buffer(rows, ldc, rng, true);
            c0[inf_at] = inf;
            auto c1 = c0;
            generic.gemm_fp32_prepacked(pa, row0, pb, col0, rows, cols,
                                        c0.data(), ldc);
            micro.gemm_fp32_prepacked(pa, row0, pb, col0, rows, cols,
                                      c1.data(), ldc);
            expect_bitwise_equal(c0, c1, "partial-block");

            auto cc0 = random_cbuffer(rows, ldc, rng, true);
            cc0[inf_at] = {1.0f, -inf};
            auto cc1 = cc0;
            generic.gemm_fp32c_prepacked(pca, row0, pcb, col0, rows, cols,
                                         cc0.data(), ldc);
            micro.gemm_fp32c_prepacked(pca, row0, pcb, col0, rows, cols,
                                       cc1.data(), ldc);
            expect_bitwise_equal(cc0, cc1, "partial-block-complex");
          }
        }
      }
    }
  }
  EXPECT_GE(combo, 6);  // at least the scalar variant ran every shape
}

TEST(MicrokernelDispatch, InjectorDeterminismUnderForcedDispatch) {
  // Injector-attached engines take the generic per-dot-replica path
  // regardless of the dispatch config; a forced variant/shape must not
  // perturb outputs or the fault log.
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;
    const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
    const fault::FaultInjector inj_ref(2600, rates);
    const fault::FaultInjector inj_forced(2600, rates);
    M3xuConfig cfg_ref, cfg_forced;
    cfg_ref.injector = &inj_ref;
    cfg_forced.injector = &inj_forced;
    cfg_forced.mk_variant = v;
    cfg_forced.mk_mr = 8;
    cfg_forced.mk_nr = 8;
    const M3xuEngine ref(cfg_ref);
    const M3xuEngine forced(cfg_forced);
    Rng rng(35000);
    const int m = 9, n = 8, k = 20;
    const auto a = random_buffer(m, k, rng, true);
    const auto b = random_buffer(k, n, rng, true);
    auto c0 = random_buffer(m, n, rng, true);
    auto c1 = c0;
    ref.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    forced.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1, "forced-dispatch-fault-replay");
    EXPECT_EQ(inj_ref.log(), inj_forced.log()) << mk_variant_name(v);
  }
}

// --- Fault-injection determinism recheck ------------------------------

TEST(MicrokernelFault, InjectorAttachedEnginesStayDeterministic) {
  // An injector-attached engine must stay off the microkernel on the
  // packed entry point, replay the per-dot fault-opportunity order
  // exactly, and produce the per-dot outputs and logs.
  for (int trial = 0; trial < 3; ++trial) {
    const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
    const fault::FaultInjector inj_perdot(1500 + trial, rates);
    const fault::FaultInjector inj_micro(1500 + trial, rates);
    M3xuConfig cfg_perdot, cfg_micro;
    cfg_perdot.injector = &inj_perdot;
    cfg_micro.injector = &inj_micro;
    const M3xuEngine perdot(cfg_perdot);
    const M3xuEngine micro(cfg_micro);
    Rng rng(11500 + trial);
    const int m = 9, n = 8, k = 20;
    const auto a = random_buffer(m, k, rng, true);
    const auto b = random_buffer(k, n, rng, true);
    auto c0 = random_buffer(m, n, rng, true);
    auto c1 = c0;
    perdot.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1, "fault-replay");
    EXPECT_GT(inj_perdot.total_injected(), 0u);
    EXPECT_EQ(inj_perdot.log(), inj_micro.log());
    for (int s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      EXPECT_EQ(inj_perdot.opportunities(site), inj_micro.opportunities(site))
          << "site " << s;
      EXPECT_EQ(inj_perdot.injected(site), inj_micro.injected(site))
          << "site " << s;
    }
  }
}

}  // namespace
}  // namespace m3xu::core
