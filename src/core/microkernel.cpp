#include "core/microkernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string_view>
#include <type_traits>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "fp/exact_accumulator.hpp"
#include "fp/ext_float.hpp"
#include "fp/unpacked.hpp"
#include "telemetry/telemetry.hpp"

#ifdef M3XU_ENABLE_SIMD
#include <immintrin.h>

// The one feature list of the AVX-512 lane body: it expands both into
// the body's target region and into the runtime CPU check, so the two
// cannot drift. avx512cd brings vplzcntq; avx512vl the masked 256-bit
// forms the 4-lane (NR = 4) body uses.
#define M3XU_AVX512_ISA(FIRST, NEXT) \
  FIRST("avx2") NEXT("avx512f") NEXT("avx512cd") NEXT("avx512vl")
#define M3XU_ISA_NAME(s) s
#define M3XU_ISA_NAME_NEXT(s) , s
#define M3XU_ISA_HAS(s) __builtin_cpu_supports(s)
#define M3XU_ISA_HAS_NEXT(s) &&__builtin_cpu_supports(s)
#define M3XU_PRAGMA(x) _Pragma(#x)
#define M3XU_TARGET_REGION(...) M3XU_PRAGMA(GCC target(__VA_ARGS__))
#endif

namespace m3xu::core {

namespace {

// Route counters (no-ops when M3XU_TELEMETRY=OFF). Increments are
// accumulated in block-local variables and flushed once per block so
// the lane loops stay free of TLS lookups. blocks and block_elements
// count full MR x NR blocks only (the engine counts the outputs of
// partial blocks as elements.edge), so block_elements / blocks is the
// dispatched shape. pair_chunks counts the (i, j, chunk) triples of the
// block's valid lanes; pair_fallbacks those whose window failed the
// span check - lanes sent to the generic path only because their
// register is Inf/NaN are not fallbacks, and masked lanes of a partial
// block count nowhere.
telemetry::Counter uk_fp32_blocks("mxu.fp32.microkernel.blocks");
telemetry::Counter uk_fp32_elems("mxu.fp32.microkernel.block_elements");
telemetry::Counter uk_fp32_pairs("mxu.fp32.microkernel.pair_chunks");
telemetry::Counter uk_fp32_falls("mxu.fp32.microkernel.pair_fallbacks");
telemetry::Counter uk_fp32c_blocks("mxu.fp32c.microkernel.blocks");
telemetry::Counter uk_fp32c_elems("mxu.fp32c.microkernel.block_elements");
telemetry::Counter uk_fp32c_pairs("mxu.fp32c.microkernel.pair_chunks");
telemetry::Counter uk_fp32c_falls("mxu.fp32c.microkernel.pair_fallbacks");

// Dispatch counters: which variant actually ran, per block.
telemetry::Counter mk_var_scalar("mk.variant.scalar.blocks");
telemetry::Counter mk_var_avx2("mk.variant.avx2.blocks");
telemetry::Counter mk_var_avx512("mk.variant.avx512.blocks");

inline void count_variant_block(MkVariant v) {
  switch (v) {
    case MkVariant::kAvx512:
      mk_var_avx512.increment();
      break;
    case MkVariant::kAvx2:
      mk_var_avx2.increment();
      break;
    default:
      mk_var_scalar.increment();
      break;
  }
}

bool cpu_has_avx2() {
#ifdef M3XU_ENABLE_SIMD
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#ifdef M3XU_ENABLE_SIMD
  static const bool ok = M3XU_AVX512_ISA(M3XU_ISA_HAS, M3XU_ISA_HAS_NEXT);
  return ok;
#else
  return false;
#endif
}

MkVariant best_available() {
  if (cpu_has_avx512()) return MkVariant::kAvx512;
  if (cpu_has_avx2()) return MkVariant::kAvx2;
  return MkVariant::kScalar;
}

/// What kAuto resolves to: the widest available variant, capped (never
/// raised) by M3XU_MK_VARIANT. The cap only applies to kAuto so tests
/// can still force a specific variant through the config while CI pins
/// the default path to scalar.
MkVariant auto_variant() {
  static const MkVariant v = [] {
    MkVariant cap = best_available();
    if (const char* env = std::getenv("M3XU_MK_VARIANT")) {
      const std::string_view s(env);
      MkVariant req = cap;
      if (s == "scalar") {
        req = MkVariant::kScalar;
      } else if (s == "avx2") {
        req = MkVariant::kAvx2;
      } else if (s == "avx512") {
        req = MkVariant::kAvx512;
      }
      if (static_cast<int>(req) < static_cast<int>(cap)) cap = req;
    }
    return cap;
  }();
  return v;
}

}  // namespace

const char* mk_variant_name(MkVariant v) {
  switch (v) {
    case MkVariant::kAuto:
      return "auto";
    case MkVariant::kScalar:
      return "scalar";
    case MkVariant::kAvx2:
      return "avx2";
    case MkVariant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool mk_variant_available(MkVariant v) {
  switch (v) {
    case MkVariant::kAuto:
    case MkVariant::kScalar:
      return true;
    case MkVariant::kAvx2:
      return cpu_has_avx2();
    case MkVariant::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

MkVariant mk_variant_resolve(MkVariant requested) {
  if (requested == MkVariant::kAuto) return auto_variant();
  if (requested == MkVariant::kAvx512 && cpu_has_avx512()) {
    return MkVariant::kAvx512;
  }
  if (requested != MkVariant::kScalar && cpu_has_avx2()) {
    return MkVariant::kAvx2;
  }
  return MkVariant::kScalar;
}

bool mk_block_supported(int mr, int nr) {
  return (mr == 4 && nr == 4) || (mr == 6 && nr == 8) || (mr == 8 && nr == 8);
}

MkBlockShape mk_block_resolve(int mr, int nr, MkVariant variant) {
  if (mr == 0 && nr == 0) {
    // A SIMD lane body holds a block row's NR = 8 columns in one or two
    // vectors, and 8x8 halves the per-output decode cost against 4x4
    // ((8+8)/(8*8) vs (4+4)/(4*4) decodes per output). The scalar-lane
    // body spends its time in the per-lane sums, not the decode, and
    // measures no faster at 8x8, so it keeps the smaller block
    // (DESIGN.md section 15).
    return mk_variant_resolve(variant) == MkVariant::kScalar
               ? MkBlockShape{4, 4}
               : MkBlockShape{8, 8};
  }
  M3XU_CHECK(mk_block_supported(mr, nr));
  return {mr, nr};
}

MkBlockShape mk_block_resolve(int mr, int nr) {
  return mk_block_resolve(mr, nr, MkVariant::kAuto);
}

namespace {

// --- Operand slots -----------------------------------------------------
//
// The two 12-bit parts of one FP32 operand share a sign and differ by
// exactly 2^12 in lsb weight (fp/split.hpp). For one operand pair the
// four part products give both architectural steps' terms:
//
//   like-parts step (step 0):  s0 = ah*bh * 2^24 + al*bl   (< 2^48)
//   crossed step    (step 1):  s1 = ah*bl + al*bh          (< 2^25)
//
// s0 has lsb weight sh = e_a + e_b - 24 (e = the hi part's exp2) and s1
// weight sh + 12. Both are the exact integers the per-lane path feeds
// the ExactAccumulator, so the per-step sums - and hence the rounded
// registers - are bit-for-bit identical.
//
// Exponents are stored relative to the chunk's prescan window
// (PanelChunkMeta): an A slot holds e_a - min_a - 24, a B slot
// e_b - min_b, so their sum is a pair's shift above the window floor
// t_lo = min_a + min_b, in [0, 71] whenever the window span is <= 118.

/// Operand slots per k-chunk: kPackChunkFp32 scalar elements, or
/// 2 * kPackChunkFp32c component slots (re, im) per complex element.
constexpr int kMaxSlots = 8;
static_assert(kMaxSlots == kPackChunkFp32 &&
              kMaxSlots == 2 * kPackChunkFp32c);

/// Widest window (leading bit over lowest bit) a lane may stream:
/// with <= 17 addends below 2^(span+1) each, the two's-complement sum
/// stays under 2^(span+6) <= 2^124, inside the signed 128-bit window.
constexpr int kMaxSpan = 118;

/// One decoded A row chunk. Zero and tail slots hold zero
/// significands with the relative exponent of the chunk's min anchor +
/// 12, which keeps every shift in-window while adding nothing.
struct ASlots {
  std::uint64_t hi[kMaxSlots];   // hi part significand (< 2^12)
  std::uint64_t lo[kMaxSlots];   // lo part significand
  std::int64_t sh[kMaxSlots];    // e_a - min_a - 24
  std::uint64_t neg[kMaxSlots];  // 0 or ~0
  std::int64_t min_exp = 0;
  std::int64_t max_exp = 0;
  bool finite = false;
};

/// One chunk of NR decoded B columns, slot-major: [slot][lane] is
/// column `lane`'s operand at that K slot, so a slot loads as one
/// vector with one column per lane.
template <int NR>
struct BSlots {
  alignas(64) std::uint64_t hi[kMaxSlots][NR];
  alignas(64) std::uint64_t lo[kMaxSlots][NR];
  alignas(64) std::int64_t sh[kMaxSlots][NR];  // e_b - min_b
  alignas(64) std::uint64_t neg[kMaxSlots][NR];
  alignas(64) std::int64_t min_exp[NR];
  alignas(64) std::int64_t max_exp[NR];
  alignas(64) std::uint64_t finite[NR];  // 0 or ~0
};

inline bool finite_chunk(const PanelChunkMeta& m) {
  return (m.flags & PanelChunkMeta::kHasFinite) != 0;
}

/// Exponent for zero/tail slots: min_exp is an element anchor (hi exp2
/// minus 12) while slots store the hi exp2, so anchor + 12 is the
/// smallest exp any finite slot in the chunk carries.
inline int fill_exp(const PanelChunkMeta& m) {
  return finite_chunk(m) ? m.min_exp + 12 : 0;
}

struct Slot {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  int exp = 0;
  std::uint64_t neg = 0;
};

/// Decodes one element slot from a packed [hi, lo] lane pair (fp32
/// panels: one slot per element; fp32c panels: the 4-lane quad is two
/// consecutive [hi, lo] pairs, so slots alternate re / im components,
/// the im slot carrying the packed order's sign - pre-negated in the
/// real-part A order). Only kFinite/kZero lane classes appear here
/// (special-free panels), and a kZero hi lane means the element is
/// zero: the lo part can't be finite without the hi hidden bit.
inline Slot decode_slot(const LaneOperand* p, int fill) {
  const LaneOperand& hi = p[0];
  const LaneOperand& lo = p[1];
  if (hi.cls != LaneOperand::Cls::kFinite) return {0, 0, fill, 0};
  // The lo part shares hi's sign and sits exactly 12 below; its sig is
  // 0 whenever its lane is kZero, so reading it unconditionally is
  // exact.
  return {hi.sig, lo.sig, hi.exp2, hi.sign ? ~std::uint64_t{0} : 0};
}

/// Decodes `ns` slots of one A row chunk; the tail up to kMaxSlots is
/// zero-filled so the lane loops keep a fixed trip count.
void decode_a(const LaneOperand* src, int ns, const PanelChunkMeta& m,
              ASlots& out) {
  const int fill = fill_exp(m);
  const std::int64_t base = m.min_exp + 24;
  for (int t = 0; t < kMaxSlots; ++t) {
    const Slot s = t < ns ? decode_slot(src + 2 * t, fill)
                          : Slot{0, 0, fill, 0};
    out.hi[t] = s.hi;
    out.lo[t] = s.lo;
    out.sh[t] = s.exp - base;
    out.neg[t] = s.neg;
  }
  out.min_exp = m.min_exp;
  out.max_exp = m.max_exp;
  out.finite = finite_chunk(m);
}

/// Decodes `ns` slots of the first `cols` of NR consecutive B columns
/// into slot-major lanes. `src` is column 0's chunk start, `stride` the
/// lane distance between columns, `meta` column 0's chunk entry and
/// `mstride` the entry distance between columns. Lanes at and beyond
/// `cols` (a partial block's masked columns) become all-zero columns
/// with no finite terms, which resolve in-lane: nothing past the
/// block's last column is read.
template <int NR>
void decode_b(const LaneOperand* src, std::size_t stride,
              const PanelChunkMeta* meta, std::size_t mstride, int ns,
              int cols, BSlots<NR>& out) {
  for (int j = cols; j < NR; ++j) {
    for (int t = 0; t < kMaxSlots; ++t) {
      out.hi[t][j] = 0;
      out.lo[t][j] = 0;
      out.sh[t][j] = 0;
      out.neg[t][j] = 0;
    }
    out.min_exp[j] = 0;
    out.max_exp[j] = 0;
    out.finite[j] = 0;
  }
  for (int j = 0; j < cols; ++j) {
    const PanelChunkMeta& m = meta[j * mstride];
    const LaneOperand* col = src + j * stride;
    const int fill = fill_exp(m);
    for (int t = 0; t < kMaxSlots; ++t) {
      const Slot s = t < ns ? decode_slot(col + 2 * t, fill)
                            : Slot{0, 0, fill, 0};
      out.hi[t][j] = s.hi;
      out.lo[t][j] = s.lo;
      out.sh[t][j] = s.exp - m.min_exp;
      out.neg[t][j] = s.neg;
    }
    out.min_exp[j] = m.min_exp;
    out.max_exp[j] = m.max_exp;
    out.finite[j] = finite_chunk(m) ? ~std::uint64_t{0} : 0;
  }
}

/// Software-prefetch a packed lane run into L1. A lane is 16 bytes, so
/// one fp32 row-chunk (8 elements x 2 lanes) or fp32c row-chunk (4
/// elements x 4 lanes) is 256 bytes = 4 cache lines; the panel layout
/// makes the next chunk's offset a pure stride from PanelChunkMeta's
/// indexing (row * k + k0), no pointer chasing.
inline void prefetch_lanes(const LaneOperand* lanes, int count) {
  const char* base = reinterpret_cast<const char*>(lanes);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * sizeof(LaneOperand);
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(base + off, /*rw=*/0, /*locality=*/3);
  }
}

// --- Column-lane row bodies --------------------------------------------
//
// A row body runs one block row's chunk for one register stream: lane j
// holds output column j. Each lane sums its like-parts and crossed
// terms exactly relative to its own window floor t_lo (= min_a +
// min_b[j]), then per step folds in its register, normalizes and
// rounds to accum_prec, and at the chunk end packs to FP32 - the same
// arithmetic as ExactAccumulator's reg' = RNE_prec(reg + exact sum),
// and every stage but that one rounding is exact, so any exact
// evaluation order gives the same bits. `kImag` selects the FP32C
// imaginary-part pairing: A slot t meets B slot t^1, and odd A slots
// flip sign to undo the real-part order's -AI pre-negation.
//
// A lane the window cannot prove safe is reported, not computed:
//   - counted: the span from the lowest to the highest bit of the
//     step's window exceeds kMaxSpan (checked per step, since the
//     per-step register moves);
//   - generic: counted lanes plus lanes whose register is Inf/NaN.
// The caller re-runs generic lanes through generic_fp32{,c}_chunk. A
// lane with no finite terms (its A row or B column chunk is all zero)
// rounds its register alone, which leaves a finite register unchanged
// and turns +-0 into +0, as ExactAccumulator rounds an empty sum.

struct RowOutcome {
  unsigned generic = 0;  // bit j: lane j needs the generic path
  unsigned counted = 0;  // bit j: ... because of its window (a fallback)
};

using u128 = unsigned __int128;

/// Final RNE of an extracted magnitude window to `prec` bits (value =
/// top64 * 2^(lead_exp - 63), plus sticky dust below). Mirrors
/// ExactAccumulator's round_window + round_to_precision tail; prec is
/// in [24, 63] here, so round_window's keep < 64 branch always applies.
inline void finish_round(std::uint64_t top64, bool st, bool negative,
                         int lead_exp, int prec, fp::Unpacked* out) {
  const int r = 64 - prec;
  std::uint64_t sig = top64 >> r;
  const std::uint64_t guard = (top64 >> (r - 1)) & 1;
  const bool sticky = st || (r > 1 && (top64 & low_mask(r - 1)) != 0);
  if (guard && (sticky || (sig & 1))) ++sig;
  if (sig >> prec) {
    sig >>= 1;
    ++lead_exp;
  }
  out->cls = fp::FpClass::kNormal;
  out->sign = negative;
  out->exp = lead_exp;
  out->sig = sig << (fp::Unpacked::kSigTop - (prec - 1));
}

/// RNE_prec of a 128-bit two's-complement sum whose bit 0 has weight
/// 2^lo. The caller guarantees the magnitude's leading bit is at
/// position <= 126 (window span checked before accumulating). A zero
/// sum yields exact +0 - the same bits ExactAccumulator produces for an
/// exactly cancelled (or empty) sum.
inline void round_sum128(u128 sum, int lo, int prec, fp::Unpacked* out) {
  const bool negative = (static_cast<std::uint64_t>(sum >> 64) >> 63) != 0;
  if (negative) sum = -sum;
  if (sum == 0) {
    *out = {};  // exact cancellation to zero
    return;
  }
  const std::uint64_t hi64 = static_cast<std::uint64_t>(sum >> 64);
  const std::uint64_t lo64 = static_cast<std::uint64_t>(sum);
  const int h = hi64 ? 64 + highest_bit(hi64) : highest_bit(lo64);
  std::uint64_t top64 = 0;
  bool st = false;
  const int lo_index = h - 63;  // in (-64, 63]: h <= 126 by the span check
  if (lo_index > 0) {
    top64 = static_cast<std::uint64_t>(sum >> lo_index);
    st = (lo64 & low_mask(lo_index)) != 0;
  } else {
    top64 = lo64 << -lo_index;
  }
  finish_round(top64, st, negative, lo + h, prec, out);
}

/// Adds `reg` to the exact term sum `sum` (lsb weight 2^t_lo) and
/// rounds to `prec` into `reg`. Returns false when the combined window
/// is wider than kMaxSpan.
bool fold_round(u128 sum, int t_lo, int t_hi, int prec, fp::Unpacked& reg) {
  int lo = t_lo;
  int hi = t_hi;
  std::uint64_t rsig = 0;
  int rexp = 0;
  if (reg.cls == fp::FpClass::kNormal) {
    // The register holds <= prec significant bits: a float at the
    // chunk start (prec >= 24), the previous step's rounding after.
    rexp = reg.exp - (prec - 1);
    rsig = reg.sig >> (fp::Unpacked::kSigTop - (prec - 1));
    lo = std::min(lo, rexp);
    hi = std::max(hi, reg.exp);
  }
  if (hi - lo > kMaxSpan) return false;
  sum <<= t_lo - lo;
  if (rsig != 0) {
    const u128 v = static_cast<u128>(rsig) << (rexp - lo);
    sum = reg.sign ? sum - v : sum + v;
  }
  round_sum128(sum, lo, prec, &reg);
  return true;
}

/// The scalar-lane body: the lane algorithm with one output column per
/// loop trip, in unsigned __int128.
struct ScalarLanes {
  template <int NR, bool kPerStep, bool kImag>
  static RowOutcome row(const ASlots& a, const BSlots<NR>& b, const float* c,
                        float* out, int prec) {
    RowOutcome o;
    for (int j = 0; j < NR; ++j) {
      fp::Unpacked reg = fp::unpack(c[j]);
      if (reg.cls == fp::FpClass::kNaN || reg.cls == fp::FpClass::kInf) {
        o.generic |= 1u << j;
        continue;
      }
      if (!a.finite || b.finite[j] == 0) {
        out[j] = reg.is_zero() ? 0.0f : c[j];
        continue;
      }
      const int t_lo = static_cast<int>(a.min_exp + b.min_exp[j]);
      const int t_hi = static_cast<int>(a.max_exp + b.max_exp[j] + 23);
      bool ok = t_hi - t_lo <= kMaxSpan;
      if (ok) {
        u128 like = 0;
        u128 cross = 0;
        for (int t = 0; t < kMaxSlots; ++t) {
          const int tb = kImag ? (t ^ 1) : t;
          const std::uint64_t flip =
              (kImag && (t & 1)) ? ~std::uint64_t{0} : 0;
          const std::uint64_t s0 = ((a.hi[t] * b.hi[tb][j]) << 24) |
                                   (a.lo[t] * b.lo[tb][j]);
          const std::uint64_t s1 =
              a.hi[t] * b.lo[tb][j] + a.lo[t] * b.hi[tb][j];
          const int sh = static_cast<int>(a.sh[t] + b.sh[tb][j]);
          // Branchless sign: (v ^ m) - m with m = 0 or ~0.
          const u128 m = static_cast<u128>(static_cast<__int128>(
              static_cast<std::int64_t>(a.neg[t] ^ flip ^ b.neg[tb][j])));
          like += ((static_cast<u128>(s0) << sh) ^ m) - m;
          cross += ((static_cast<u128>(s1) << (sh + 12)) ^ m) - m;
        }
        if (kPerStep) {
          ok = fold_round(like, t_lo, t_hi, prec, reg) &&
               fold_round(cross, t_lo, t_hi, prec, reg);
        } else {
          ok = fold_round(like + cross, t_lo, t_hi, prec, reg);
        }
      }
      if (!ok) {
        o.generic |= 1u << j;
        o.counted |= 1u << j;
        continue;
      }
      out[j] = fp::pack_to_float(reg);
    }
    return o;
  }
};

#ifdef M3XU_ENABLE_SIMD
// --- SIMD lane bodies ----------------------------------------------------
//
// The vector form of the lane algorithm lives in microkernel_lanes.inc,
// compiled once per instruction set inside a target region: AVX-512
// (with CD and VL) on 8 lanes for NR = 8 and 4 lanes for NR = 4, and
// AVX2 on 4 lanes, run twice per NR = 8 row.

#define M3XU_LANE_INLINE __attribute__((always_inline)) inline

// GCC 12's AVX-512 intrinsics initialize their unused pass-through
// operand from _mm512_undefined_epi32(), which -Wuninitialized reports
// wherever they inline (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#pragma GCC push_options
M3XU_TARGET_REGION(M3XU_AVX512_ISA(M3XU_ISA_NAME, M3XU_ISA_NAME_NEXT))
namespace avx512 {

/// 8 x u64 lanes (NR = 8 blocks).
struct Zmm8 {
  using V = __m512i;
  using M = unsigned;
  static constexpr int kLanes = 8;
  static V load(const void* p) { return _mm512_loadu_si512(p); }
  static V set1(std::int64_t x) { return _mm512_set1_epi64(x); }
  static V add(V a, V b) { return _mm512_add_epi64(a, b); }
  static V sub(V a, V b) { return _mm512_sub_epi64(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  static V sllv(V a, V n) { return _mm512_sllv_epi64(a, n); }
  static V srlv(V a, V n) { return _mm512_srlv_epi64(a, n); }
  template <int N>
  static V slli(V a) { return _mm512_slli_epi64(a, N); }
  template <int N>
  static V srli(V a) { return _mm512_srli_epi64(a, N); }
  static V sign(V a) { return _mm512_srai_epi64(a, 63); }
  static V mul32(V a, V b) { return _mm512_mul_epu32(a, b); }
  static M ltu(V a, V b) { return _mm512_cmplt_epu64_mask(a, b); }
  static M gt(V a, V b) { return _mm512_cmpgt_epi64_mask(a, b); }
  static M eq(V a, V b) { return _mm512_cmpeq_epi64_mask(a, b); }
  static M nz(V a) { return _mm512_test_epi64_mask(a, a); }
  static M mand(M a, M b) { return a & b; }
  static M mor(M a, M b) { return a | b; }
  static bool any(M m) { return m != 0; }
  static unsigned bits(M m) { return m; }
  static V inc(V a, M k) {
    return _mm512_mask_sub_epi64(a, static_cast<__mmask8>(k), a,
                                 _mm512_set1_epi64(-1));
  }
  static V blend(M k, V a, V b) {
    return _mm512_mask_blend_epi64(static_cast<__mmask8>(k), a, b);
  }
  static V min(V a, V b) { return _mm512_min_epi64(a, b); }
  static V max(V a, V b) { return _mm512_max_epi64(a, b); }
  static V minu(V a, V b) { return _mm512_min_epu64(a, b); }
  static V msb(V a) {
    return _mm512_sub_epi64(_mm512_set1_epi64(63), _mm512_lzcnt_epi64(a));
  }
  static V load_f32(const float* p) {
    return _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static void store_f32(float* p, V bits) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_cvtepi64_epi32(bits));
  }
};

/// 4 x u64 lanes through the AVX-512VL forms (NR = 4 blocks).
struct Ymm4 {
  using V = __m256i;
  using M = unsigned;
  static constexpr int kLanes = 4;
  static V load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static V set1(std::int64_t x) { return _mm256_set1_epi64x(x); }
  static V add(V a, V b) { return _mm256_add_epi64(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi64(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  static V sllv(V a, V n) { return _mm256_sllv_epi64(a, n); }
  static V srlv(V a, V n) { return _mm256_srlv_epi64(a, n); }
  template <int N>
  static V slli(V a) { return _mm256_slli_epi64(a, N); }
  template <int N>
  static V srli(V a) { return _mm256_srli_epi64(a, N); }
  static V sign(V a) { return _mm256_srai_epi64(a, 63); }
  static V mul32(V a, V b) { return _mm256_mul_epu32(a, b); }
  static M ltu(V a, V b) { return _mm256_cmplt_epu64_mask(a, b); }
  static M gt(V a, V b) { return _mm256_cmpgt_epi64_mask(a, b); }
  static M eq(V a, V b) { return _mm256_cmpeq_epi64_mask(a, b); }
  static M nz(V a) { return _mm256_test_epi64_mask(a, a); }
  static M mand(M a, M b) { return a & b; }
  static M mor(M a, M b) { return a | b; }
  static bool any(M m) { return m != 0; }
  static unsigned bits(M m) { return m; }
  static V inc(V a, M k) {
    return _mm256_mask_sub_epi64(a, static_cast<__mmask8>(k), a,
                                 _mm256_set1_epi64x(-1));
  }
  static V blend(M k, V a, V b) {
    return _mm256_mask_blend_epi64(static_cast<__mmask8>(k), a, b);
  }
  static V min(V a, V b) { return _mm256_min_epi64(a, b); }
  static V max(V a, V b) { return _mm256_max_epi64(a, b); }
  static V minu(V a, V b) { return _mm256_min_epu64(a, b); }
  static V msb(V a) {
    return _mm256_sub_epi64(_mm256_set1_epi64x(63), _mm256_lzcnt_epi64(a));
  }
  static V load_f32(const float* p) {
    return _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_f32(float* p, V bits) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_cvtepi64_epi32(bits));
  }
};

#include "core/microkernel_lanes.inc"

}  // namespace avx512
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

/// 4 x u64 lanes in AVX2, which has no mask registers, no unsigned or
/// 64-bit min/max compares and no vplzcntq: masks are all-ones lanes and
/// those operations are composed.
struct Ymm4 {
  using V = __m256i;
  using M = __m256i;
  static constexpr int kLanes = 4;
  static V load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static V set1(std::int64_t x) { return _mm256_set1_epi64x(x); }
  static V add(V a, V b) { return _mm256_add_epi64(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi64(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  static V sllv(V a, V n) { return _mm256_sllv_epi64(a, n); }
  static V srlv(V a, V n) { return _mm256_srlv_epi64(a, n); }
  template <int N>
  static V slli(V a) { return _mm256_slli_epi64(a, N); }
  template <int N>
  static V srli(V a) { return _mm256_srli_epi64(a, N); }
  static V mul32(V a, V b) { return _mm256_mul_epu32(a, b); }
  static M gt(V a, V b) { return _mm256_cmpgt_epi64(a, b); }
  static M eq(V a, V b) { return _mm256_cmpeq_epi64(a, b); }
  static V sign(V a) { return gt(_mm256_setzero_si256(), a); }
  /// Unsigned a < b: a signed compare with both sign bits flipped.
  static M ltu(V a, V b) {
    const V flip = set1(static_cast<std::int64_t>(std::uint64_t{1} << 63));
    return gt(xor_(b, flip), xor_(a, flip));
  }
  static M nz(V a) { return xor_(eq(a, _mm256_setzero_si256()), set1(-1)); }
  static M mand(M a, M b) { return and_(a, b); }
  static M mor(M a, M b) { return or_(a, b); }
  static bool any(M m) { return !_mm256_testz_si256(m, m); }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static V inc(V a, M k) { return sub(a, k); }  // k lanes are -1
  static V blend(M k, V a, V b) { return _mm256_blendv_epi8(a, b, k); }
  static V min(V a, V b) { return blend(gt(a, b), a, b); }
  static V max(V a, V b) { return blend(gt(a, b), b, a); }
  static V minu(V a, V b) { return blend(ltu(b, a), a, b); }
  /// The leading bit from the exponent of an exact double: a 32-bit
  /// half OR'd into the mantissa of 2^52, minus 2^52, is exact.
  static V msb(V a) {
    const V upper32 = srli<32>(a);
    const M upper = nz(upper32);
    const V half = blend(upper, and_(a, set1(0xffffffff)), upper32);
    const __m256d two52 = _mm256_castsi256_pd(set1(0x4330000000000000));
    const __m256d d =
        _mm256_sub_pd(_mm256_castsi256_pd(or_(half, set1(0x4330000000000000))),
                      two52);
    const V e = sub(srli<52>(_mm256_castpd_si256(d)), set1(1023));
    return add(e, and_(upper, set1(32)));
  }
  static V load_f32(const float* p) {
    return _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store_f32(float* p, V bits) {
    const V low32 = _mm256_permutevar8x32_epi32(
        bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(low32));
  }
};

#include "core/microkernel_lanes.inc"

}  // namespace avx2
#pragma GCC pop_options
#pragma GCC diagnostic pop

struct Avx512Lanes {
  template <int NR, bool kPerStep, bool kImag>
  static RowOutcome row(const ASlots& a, const BSlots<NR>& b, const float* c,
                        float* out, int prec) {
    static_assert(NR == 4 || NR == 8);
    using O = std::conditional_t<NR == 8, avx512::Zmm8, avx512::Ymm4>;
    return avx512::simd_row<O, NR, kPerStep, kImag>(a, b, 0, c, out, prec);
  }
};

struct Avx2Lanes {
  template <int NR, bool kPerStep, bool kImag>
  static RowOutcome row(const ASlots& a, const BSlots<NR>& b, const float* c,
                        float* out, int prec) {
    RowOutcome o;
    for (int j0 = 0; j0 < NR; j0 += avx2::Ymm4::kLanes) {
      const RowOutcome h = avx2::simd_row<avx2::Ymm4, NR, kPerStep, kImag>(
          a, b, j0, c, out, prec);
      o.generic |= h.generic;
      o.counted |= h.counted;
    }
    return o;
  }
};
#endif  // M3XU_ENABLE_SIMD

// --- Generic fallback -------------------------------------------------
//
// Chunks the prescan can't prove safe re-run on the same panel slices
// through the exact replica of run_steps with a null injector (the
// engine keeps injector-attached runs off the microkernel entirely).

void run_generic2(std::span<const LaneOperand> a,
                  std::span<const LaneOperand> b_like,
                  std::span<const LaneOperand> b_swap, const DpUnit& unit,
                  const MicrokernelParams& p, float* acc) {
  const fp::Unpacked c = fp::unpack(*acc);
  if (p.per_step_rounding) {
    fp::ExtFloat reg = fp::ExtFloat::from_unpacked(c, p.accum_prec);
    for (int st = 0; st < 2; ++st) {
      fp::ExactAccumulator sum;
      unit.accumulate_dot(a, st == 0 ? b_like : b_swap, sum);
      reg = reg.plus_exact(sum);
    }
    *acc = reg.to_float();
    return;
  }
  fp::ExactAccumulator sum;
  unit.accumulate_dot(a, b_like, sum);
  unit.accumulate_dot(a, b_swap, sum);
  sum.add_unpacked(c);
  *acc = fp::pack_to_float(sum.round_to_precision(p.accum_prec));
}

void generic_fp32_chunk(const PackedPanelFp32A& a, int row,
                        const PackedPanelFp32B& b, int col, int k0, int kc,
                        const DpUnit& unit, const MicrokernelParams& p,
                        float* acc) {
  const std::size_t aoff = (static_cast<std::size_t>(row) * a.k + k0) * 2;
  const std::size_t boff = (static_cast<std::size_t>(col) * b.k + k0) * 2;
  const std::size_t len = static_cast<std::size_t>(2) * kc;
  run_generic2({a.lanes.data() + aoff, len}, {b.like.data() + boff, len},
               {b.swapped.data() + boff, len}, unit, p, acc);
}

void generic_fp32c_chunk(const PackedPanelFp32cA& a, int row,
                         const PackedPanelFp32cB& b, int col, int k0, int kc,
                         const DpUnit& unit, const MicrokernelParams& p,
                         float* re, float* im) {
  const std::size_t aoff = (static_cast<std::size_t>(row) * a.k + k0) * 4;
  const std::size_t boff = (static_cast<std::size_t>(col) * b.k + k0) * 4;
  const std::size_t len = static_cast<std::size_t>(4) * kc;
  run_generic2({a.real_lanes.data() + aoff, len},
               {b.real_like.data() + boff, len},
               {b.real_swap.data() + boff, len}, unit, p, re);
  run_generic2({a.imag_lanes.data() + aoff, len},
               {b.imag_like.data() + boff, len},
               {b.imag_swap.data() + boff, len}, unit, p, im);
}

// --- Register-blocked bodies ------------------------------------------
//
// Templated on the MR x NR output-block shape, the row body `K` (the
// resolved variant's lane body, chosen once per block) and the register
// semantics. Per chunk, the NR B columns decode once, slot-major; each
// A row decodes once and its NR lanes run in one row-body call.
//
// A partial block (rows < MR or cols < NR, at the edges of the output)
// runs the same body: rows past `rows` are skipped, and the columns
// past `cols` are masked lanes - zero B columns over a +0 register,
// which stream in-lane and are never loaded from or stored to C, nor
// re-run generically.

template <int MR, int NR, class K, bool kPerStep>
void fp32_block(const PackedPanelFp32A& a, int row0, const PackedPanelFp32B& b,
                int col0, int rows, int cols, const DpUnit& unit,
                const MicrokernelParams& p, float* c, int ldc) {
  const int k = a.k;
  const int nchunks = panel_chunk_count(k, kPackChunkFp32);
  const std::size_t bstride = static_cast<std::size_t>(k) * 2;
  float acc[MR][NR] = {};
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) acc[i][j] = c[i * ldc + j];
  }
  ASlots arow{};
  BSlots<NR> bcols{};
  std::uint64_t fallbacks = 0;
  for (int ch = 0; ch < nchunks; ++ch) {
    const int k0 = ch * kPackChunkFp32;
    const int kc = std::min(kPackChunkFp32, k - k0);
    if (p.prefetch && ch + 1 < nchunks) {
      // Pull the next chunk's hi/lo lane runs toward L1 while this
      // chunk's decode and lane sums compute hide the latency.
      const int nk0 = k0 + kPackChunkFp32;
      const int nkc = std::min(kPackChunkFp32, k - nk0);
      for (int i = 0; i < rows; ++i) {
        prefetch_lanes(
            a.lanes.data() + (static_cast<std::size_t>(row0 + i) * k + nk0) * 2,
            2 * nkc);
      }
      for (int j = 0; j < cols; ++j) {
        prefetch_lanes(
            b.like.data() + (static_cast<std::size_t>(col0 + j) * k + nk0) * 2,
            2 * nkc);
      }
    }
    decode_b<NR>(b.like.data() + static_cast<std::size_t>(col0) * bstride +
                     static_cast<std::size_t>(k0) * 2,
                 bstride,
                 &b.meta[static_cast<std::size_t>(col0) * nchunks + ch],
                 nchunks, kc, cols, bcols);
    for (int i = 0; i < rows; ++i) {
      decode_a(
          a.lanes.data() + (static_cast<std::size_t>(row0 + i) * k + k0) * 2,
          kc, a.meta[static_cast<std::size_t>(row0 + i) * nchunks + ch], arow);
      float out[NR] = {};
      const RowOutcome o = K::template row<NR, kPerStep, false>(
          arow, bcols, acc[i], out, p.accum_prec);
      for (int j = 0; j < cols; ++j) {
        if (o.generic & (1u << j)) {
          generic_fp32_chunk(a, row0 + i, b, col0 + j, k0, kc, unit, p,
                             &acc[i][j]);
        } else {
          acc[i][j] = out[j];
        }
      }
      fallbacks += static_cast<unsigned>(std::popcount(o.counted));
    }
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) c[i * ldc + j] = acc[i][j];
  }
  if (rows == MR && cols == NR) {
    uk_fp32_blocks.increment();
    uk_fp32_elems.add(static_cast<std::uint64_t>(MR) * NR);
  }
  uk_fp32_pairs.add(static_cast<std::uint64_t>(nchunks) * rows * cols);
  uk_fp32_falls.add(fallbacks);
}

template <int MR, int NR, class K, bool kPerStep>
void fp32c_block(const PackedPanelFp32cA& a, int row0,
                 const PackedPanelFp32cB& b, int col0, int rows, int cols,
                 const DpUnit& unit, const MicrokernelParams& p,
                 std::complex<float>* c, int ldc) {
  const int k = a.k;
  const int nchunks = panel_chunk_count(k, kPackChunkFp32c);
  const std::size_t bstride = static_cast<std::size_t>(k) * 4;
  float acc_re[MR][NR] = {};
  float acc_im[MR][NR] = {};
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      acc_re[i][j] = c[i * ldc + j].real();
      acc_im[i][j] = c[i * ldc + j].imag();
    }
  }
  // A rows decode from the real-part order, where the im slots carry
  // the stage's -AI pre-negation: exactly the sign the real part's
  // -AI*BI term needs; the imag-part body flips it back for AI*BR and
  // pairs each A slot with the other component's B slot.
  ASlots arow{};
  BSlots<NR> bcols{};
  std::uint64_t fallbacks = 0;
  for (int ch = 0; ch < nchunks; ++ch) {
    const int k0 = ch * kPackChunkFp32c;
    const int kc = std::min(kPackChunkFp32c, k - k0);
    if (p.prefetch && ch + 1 < nchunks) {
      const int nk0 = k0 + kPackChunkFp32c;
      const int nkc = std::min(kPackChunkFp32c, k - nk0);
      for (int i = 0; i < rows; ++i) {
        prefetch_lanes(a.real_lanes.data() +
                           (static_cast<std::size_t>(row0 + i) * k + nk0) * 4,
                       4 * nkc);
      }
      for (int j = 0; j < cols; ++j) {
        prefetch_lanes(b.real_like.data() +
                           (static_cast<std::size_t>(col0 + j) * k + nk0) * 4,
                       4 * nkc);
      }
    }
    decode_b<NR>(b.real_like.data() + static_cast<std::size_t>(col0) * bstride +
                     static_cast<std::size_t>(k0) * 4,
                 bstride,
                 &b.meta[static_cast<std::size_t>(col0) * nchunks + ch],
                 nchunks, 2 * kc, cols, bcols);
    for (int i = 0; i < rows; ++i) {
      decode_a(a.real_lanes.data() +
                   (static_cast<std::size_t>(row0 + i) * k + k0) * 4,
               2 * kc,
               a.meta[static_cast<std::size_t>(row0 + i) * nchunks + ch], arow);
      float re[NR] = {};
      float im[NR] = {};
      const RowOutcome ore = K::template row<NR, kPerStep, false>(
          arow, bcols, acc_re[i], re, p.accum_prec);
      const RowOutcome oim = K::template row<NR, kPerStep, true>(
          arow, bcols, acc_im[i], im, p.accum_prec);
      // Both parts must stream for the chunk to stay fused; otherwise
      // the whole chunk (both registers) re-runs generically from the
      // original accumulators.
      const unsigned generic = ore.generic | oim.generic;
      for (int j = 0; j < cols; ++j) {
        if (generic & (1u << j)) {
          generic_fp32c_chunk(a, row0 + i, b, col0 + j, k0, kc, unit, p,
                              &acc_re[i][j], &acc_im[i][j]);
        } else {
          acc_re[i][j] = re[j];
          acc_im[i][j] = im[j];
        }
      }
      fallbacks +=
          static_cast<unsigned>(std::popcount(ore.counted | oim.counted));
    }
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      c[i * ldc + j] = {acc_re[i][j], acc_im[i][j]};
    }
  }
  if (rows == MR && cols == NR) {
    uk_fp32c_blocks.increment();
    uk_fp32c_elems.add(static_cast<std::uint64_t>(MR) * NR);
  }
  uk_fp32c_pairs.add(static_cast<std::uint64_t>(nchunks) * rows * cols);
  uk_fp32c_falls.add(fallbacks);
}

/// Calls body.template operator()<MR, NR, K, kPerStep>() for the
/// block's shape, register semantics and resolved variant `v`.
template <class K, bool kPerStep, class Body>
void dispatch_shape(const MicrokernelParams& p, Body& body) {
  if (p.mr == 4 && p.nr == 4) {
    body.template operator()<4, 4, K, kPerStep>();
  } else if (p.mr == 6 && p.nr == 8) {
    body.template operator()<6, 8, K, kPerStep>();
  } else if (p.mr == 8 && p.nr == 8) {
    body.template operator()<8, 8, K, kPerStep>();
  } else {
    M3XU_CHECK(mk_block_supported(p.mr, p.nr));
  }
}

template <class K, class Body>
void dispatch_rounding(const MicrokernelParams& p, Body& body) {
  if (p.per_step_rounding) {
    dispatch_shape<K, true>(p, body);
  } else {
    dispatch_shape<K, false>(p, body);
  }
}

template <class Body>
void dispatch(const MicrokernelParams& p, Body&& body) {
  // prec in [24, 63]: a chunk-boundary register (a float) is then exact
  // at prec, and the rounding tail's guard bit exists.
  M3XU_CHECK(p.accum_prec >= 24 && p.accum_prec <= 63);
  const MkVariant v = mk_variant_resolve(p.variant);
  count_variant_block(v);
#ifdef M3XU_ENABLE_SIMD
  if (v == MkVariant::kAvx512) {
    dispatch_rounding<Avx512Lanes>(p, body);
    return;
  }
  if (v == MkVariant::kAvx2) {
    dispatch_rounding<Avx2Lanes>(p, body);
    return;
  }
#endif
  dispatch_rounding<ScalarLanes>(p, body);
}

}  // namespace

void microkernel_fp32_block(const PackedPanelFp32A& a, int row0,
                            const PackedPanelFp32B& b, int col0, int rows,
                            int cols, const DpUnit& unit,
                            const MicrokernelParams& p, float* c, int ldc) {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(!a.has_special && !b.has_special);
  M3XU_CHECK(rows >= 1 && rows <= p.mr && cols >= 1 && cols <= p.nr);
  M3XU_CHECK(row0 >= 0 && row0 + rows <= a.rows);
  M3XU_CHECK(col0 >= 0 && col0 + cols <= b.cols);
  dispatch(p, [&]<int MR, int NR, class K, bool kPerStep>() {
    fp32_block<MR, NR, K, kPerStep>(a, row0, b, col0, rows, cols, unit, p, c,
                                    ldc);
  });
}

void microkernel_fp32c_block(const PackedPanelFp32cA& a, int row0,
                             const PackedPanelFp32cB& b, int col0, int rows,
                             int cols, const DpUnit& unit,
                             const MicrokernelParams& p,
                             std::complex<float>* c, int ldc) {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(!a.has_special && !b.has_special);
  M3XU_CHECK(rows >= 1 && rows <= p.mr && cols >= 1 && cols <= p.nr);
  M3XU_CHECK(row0 >= 0 && row0 + rows <= a.rows);
  M3XU_CHECK(col0 >= 0 && col0 + cols <= b.cols);
  dispatch(p, [&]<int MR, int NR, class K, bool kPerStep>() {
    fp32c_block<MR, NR, K, kPerStep>(a, row0, b, col0, rows, cols, unit, p, c,
                                     ldc);
  });
}

}  // namespace m3xu::core
