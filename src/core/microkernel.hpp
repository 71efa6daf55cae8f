// Register-blocked microkernel for the packed M3XU datapath.
//
// The streaming route of the prepacked entry points (mxu.cpp): every
// output of a special-free, injector-free GEMM is computed here, in
// MR x NR output blocks, one pass over the packed K lanes per block.
// Blocks at the right and bottom edges of the output are partial (rows
// < MR, cols < NR) and run the same body with the missing columns
// masked out. Per block:
//
//   - per K-chunk, the NR B columns decode once into slot-major lanes
//     and each A row decodes once; the prescan windows
//     (PanelChunkMeta) decide streaming eligibility and the exponent
//     window per (row, chunk) / (col, chunk) instead of per dot;
//   - one lane holds one output column of a block row: each A slot is
//     broadcast against the NR columns, the four 12-bit part products
//     give both architectural steps' terms, and every lane sums them
//     exactly in a two-limb 128-bit window, normalizes, rounds to
//     accum_prec per step and packs to FP32 at the chunk end. The
//     AVX-512 variant runs 8 (NR = 8) or 4 (NR = 4) lanes per vector,
//     the AVX2 variant 4, and the scalar variant loops over the lanes.
//
// Bit-identity: each architectural step still computes
// reg' = RNE_prec(reg + exact step sum) with the inner sum exact, and
// chunk boundaries still pack the register to FP32, so any exact
// evaluation order gives the bits of the per-dot ExactAccumulator
// route. A lane the prescan cannot prove safe - a window span over 118
// bits, or an Inf/NaN register - is masked out of the lane result and
// its chunk re-runs through the generic ExactAccumulator path on the
// same panel slices. Callers must keep injector-attached runs on the
// per-element generic path: the microkernel has no fault hooks, by
// design (fault-site opportunity order is defined by the per-dot
// schedule).
#pragma once

#include <complex>

#include "core/dp_unit.hpp"
#include "core/packed_panel.hpp"

namespace m3xu::core {

/// Default output-block shape (the smallest supported block; also the
/// shape the scalar-lane body defaults to, whose per-lane sums leave
/// decode amortization little to gain).
inline constexpr int kMicroMr = 4;
inline constexpr int kMicroNr = 4;

/// Microkernel SIMD variant. kAuto resolves to the widest lane the CPU
/// supports at runtime (__builtin_cpu_supports); the scalar path is
/// always built and every variant is bit-identical - dispatch is a
/// pure throughput choice. The M3XU_MK_VARIANT environment variable
/// (scalar / avx2 / avx512) caps what kAuto resolves to, so CI can
/// force the non-SIMD path without touching configs.
enum class MkVariant : int { kAuto = 0, kScalar = 1, kAvx2 = 2, kAvx512 = 3 };

const char* mk_variant_name(MkVariant v);

/// True when the build compiled the variant in and the CPU supports it
/// at runtime. kScalar and kAuto are always available.
bool mk_variant_available(MkVariant v);

/// The variant a request actually dispatches to: kAuto picks the best
/// available (capped by M3XU_MK_VARIANT); a forced-but-unavailable
/// variant clamps down to the widest available one below it. The
/// result always satisfies mk_variant_available().
MkVariant mk_variant_resolve(MkVariant requested);

/// A rectangular register-block shape (MR x NR output accumulators per
/// pass over the packed K lanes). Bigger blocks amortize the per-chunk
/// operand decode over more reuses - the decode cost per output scales
/// as (MR+NR)/(MR*NR) - at the price of more live accumulator state.
struct MkBlockShape {
  int mr = kMicroMr;
  int nr = kMicroNr;
};

/// The template-instantiated shape set: 4x4, 6x8, 8x8.
bool mk_block_supported(int mr, int nr);

/// Resolves a configured shape for the variant an engine requests:
/// (0, 0) picks that variant's default shape; anything else must be a
/// supported pair (M3XU_CHECK).
MkBlockShape mk_block_resolve(int mr, int nr, MkVariant variant);

/// mk_block_resolve for the kAuto variant.
MkBlockShape mk_block_resolve(int mr, int nr);

/// Rounding + dispatch configuration threaded from M3xuConfig (the
/// microkernel is engine-independent so tests can drive it directly).
/// variant/mr/nr must already make sense together: mr/nr a supported
/// pair (callers go through mk_block_resolve), variant resolved per
/// block via mk_variant_resolve.
struct MicrokernelParams {
  bool per_step_rounding = true;
  int accum_prec = 48;
  MkVariant variant = MkVariant::kAuto;
  int mr = kMicroMr;
  int nr = kMicroNr;
  /// Software-prefetch the next packed K-chunk's hi/lo lanes while the
  /// current chunk computes (off for tiny panels in tests).
  bool prefetch = true;
};

/// Computes the rows x cols block C += A*B at panel offset
/// (row0, col0) over the panels' full K, in a p.mr x p.nr register
/// block: 1 <= rows <= p.mr and 1 <= cols <= p.nr, so one call also
/// covers a partial edge block. `c` points at the block's top-left
/// output element; only the rows x cols outputs are read or written.
/// Requires row0+rows <= a.rows, col0+cols <= b.cols, a.k == b.k,
/// special-free panels and p.accum_prec in [24, 63].
void microkernel_fp32_block(const PackedPanelFp32A& a, int row0,
                            const PackedPanelFp32B& b, int col0, int rows,
                            int cols, const DpUnit& unit,
                            const MicrokernelParams& p, float* c, int ldc);

void microkernel_fp32c_block(const PackedPanelFp32cA& a, int row0,
                             const PackedPanelFp32cB& b, int col0, int rows,
                             int cols, const DpUnit& unit,
                             const MicrokernelParams& p,
                             std::complex<float>* c, int ldc);

/// The full p.mr x p.nr block.
inline void microkernel_fp32_block(const PackedPanelFp32A& a, int row0,
                                   const PackedPanelFp32B& b, int col0,
                                   const DpUnit& unit,
                                   const MicrokernelParams& p, float* c,
                                   int ldc) {
  microkernel_fp32_block(a, row0, b, col0, p.mr, p.nr, unit, p, c, ldc);
}

inline void microkernel_fp32c_block(const PackedPanelFp32cA& a, int row0,
                                    const PackedPanelFp32cB& b, int col0,
                                    const DpUnit& unit,
                                    const MicrokernelParams& p,
                                    std::complex<float>* c, int ldc) {
  microkernel_fp32c_block(a, row0, b, col0, p.mr, p.nr, unit, p, c, ldc);
}

}  // namespace m3xu::core
