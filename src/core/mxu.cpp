#include "core/mxu.hpp"

#include <array>
#include <vector>

#include "common/check.hpp"
#include "core/microkernel.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::core {

namespace {

// Route counters for the FP32/FP32c datapaths (no-ops when
// M3XU_TELEMETRY=OFF). "chunks.generic" counts kc_max-element dot
// fragments reassembled per dot because the panel holds specials, an
// injector is attached or the engine forces the generic route.
// "elements" attribute whole C outputs to the route that produced
// them: edge = outputs of the microkernel's partial edge blocks (its
// own block_elements counter covers the full blocks). Counts are
// accumulated in function-local variables and flushed once per call.
telemetry::Counter rt_fp32_generic("mxu.fp32.chunks.generic");
telemetry::Counter rt_fp32_edge("mxu.fp32.elements.edge");
telemetry::Counter rt_fp32_special("mxu.fp32.elements.bypass_special");
telemetry::Counter rt_fp32_inject("mxu.fp32.elements.bypass_injector");
telemetry::Counter rt_fp32_perdot("mxu.fp32.elements.perdot");
telemetry::Counter rt_fp32c_generic("mxu.fp32c.chunks.generic");
telemetry::Counter rt_fp32c_edge("mxu.fp32c.elements.edge");
telemetry::Counter rt_fp32c_special("mxu.fp32c.elements.bypass_special");
telemetry::Counter rt_fp32c_inject("mxu.fp32c.elements.bypass_injector");
telemetry::Counter rt_fp32c_perdot("mxu.fp32c.elements.perdot");

inline std::uint64_t area(int rows, int cols) {
  return static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}

// Attributes generic-route chunks to the active request trace, if one
// is installed on this thread (the tiled driver installs it around
// each tile). event_once keeps the per-request log bounded no matter
// how many panel calls the request issues.
inline void trace_generic_route(const char* name, std::uint64_t n_generic) {
  if (n_generic == 0) return;
  telemetry::TraceContext* const t = telemetry::current_trace_context();
  if (t != nullptr) t->event_once(name);
}

}  // namespace

MmaShape shape_for(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
    case MxuMode::kBf16:
      return {16, 8, 16};
    case MxuMode::kTf32:
      return {16, 8, 8};
    case MxuMode::kFp32:
      return {16, 8, 8};  // half the FP16 K (Observation 1)
    case MxuMode::kFp32Complex:
      return {16, 8, 4};  // complex elements; quarter throughput
    case MxuMode::kFp64:
      return {16, 8, 4};
    case MxuMode::kFp64Complex:
      return {16, 8, 2};  // complex elements; 1/32 of the FP16 rate
  }
  return {0, 0, 0};
}

int steps_for(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
    case MxuMode::kBf16:
    case MxuMode::kTf32:
      return 1;
    case MxuMode::kFp32:
      return 2;
    case MxuMode::kFp32Complex:
    case MxuMode::kFp64:
      return 4;
    case MxuMode::kFp64Complex:
      return 8;
  }
  return 0;
}

const char* mode_name(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
      return "fp16";
    case MxuMode::kBf16:
      return "bf16";
    case MxuMode::kTf32:
      return "tf32";
    case MxuMode::kFp32:
      return "fp32";
    case MxuMode::kFp32Complex:
      return "fp32c";
    case MxuMode::kFp64:
      return "fp64";
    case MxuMode::kFp64Complex:
      return "fp64c";
  }
  return "?";
}

M3xuEngine::M3xuEngine(const M3xuConfig& config)
    : config_(config),
      dp12_(DpUnitConfig{/*mult_bits=*/12, /*enable_fast_path=*/true,
                         config.injector}),
      dp27_(DpUnitConfig{DataAssignmentStage::kFp64PartBits,
                         /*enable_fast_path=*/true, config.injector}) {
  M3XU_CHECK(config_.accum_prec >= 24 && config_.accum_prec <= 63);
  M3XU_CHECK(config_.fp64_accum_prec >= 53 && config_.fp64_accum_prec <= 63);
  M3XU_CHECK((config_.mk_mr == 0 && config_.mk_nr == 0) ||
             mk_block_supported(config_.mk_mr, config_.mk_nr));
}

namespace {

/// Views one scheduled step's owning buffers (per-dot path).
inline StepView view_of(const StepOperands& step) { return {step.a, step.b}; }

template <std::size_t kSteps>
std::array<StepView, kSteps> views_of(
    const std::array<StepOperands, kSteps>& steps) {
  std::array<StepView, kSteps> v;
  for (std::size_t i = 0; i < kSteps; ++i) v[i] = view_of(steps[i]);
  return v;
}

}  // namespace

template <int kSteps>
fp::Unpacked M3xuEngine::run_steps(const std::array<StepView, kSteps>& steps,
                                   const fp::Unpacked& c, const DpUnit& unit,
                                   int prec) const {
  if (config_.per_step_rounding) {
    // The accumulation register is initialized with C (exact: C is
    // FP32/FP64, narrower than the register) and rounded once per step.
    fp::ExtFloat reg = fp::ExtFloat::from_unpacked(c, prec);
    for (const StepView& step : steps) {
      fp::ExactAccumulator sum;
      unit.accumulate_dot(step.a, step.b, sum);
      reg = reg.plus_exact(sum);
      if (config_.injector != nullptr) {
        // Each step's register write-back is one flip opportunity on
        // the architectural `prec`-bit significand.
        reg = fp::ExtFloat::from_unpacked(
            config_.injector->corrupt_unpacked(fault::Site::kAccumulator,
                                               reg.value(), prec),
            prec);
      }
    }
    return reg.value();
  }
  // Idealized: one rounding per instruction.
  fp::ExactAccumulator sum;
  for (const StepView& step : steps) {
    unit.accumulate_dot(step.a, step.b, sum);
  }
  sum.add_unpacked(c);
  fp::Unpacked r = sum.round_to_precision(prec);
  if (config_.injector != nullptr) {
    r = config_.injector->corrupt_unpacked(fault::Site::kAccumulator, r,
                                           prec);
  }
  return r;
}

float M3xuEngine::mma_dot_fp32(std::span<const float> a,
                               std::span<const float> b, float c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32).k);
  const auto steps = DataAssignmentStage::schedule_fp32(a, b, config_.injector);
  const fp::Unpacked r =
      run_steps<2>(views_of(steps), fp::unpack(c), dp12_, config_.accum_prec);
  return fp::pack_to_float(r);
}

float M3xuEngine::mma_dot_passthrough(std::span<const float> a,
                                      std::span<const float> b, float c,
                                      const fp::FloatFormat& fmt) const {
  const StepOperands step =
      DataAssignmentStage::schedule_passthrough(a, b, fmt, config_.injector);
  const std::array<StepView, 1> steps = {view_of(step)};
  // Stock Tensor-Core accumulation: FP32 registers.
  const fp::Unpacked r =
      run_steps<1>(steps, fp::unpack(c), dp12_, fp::ExtFloat::kFp32AccumPrec);
  return fp::pack_to_float(r);
}

std::complex<float> M3xuEngine::mma_dot_fp32c(
    std::span<const std::complex<float>> a,
    std::span<const std::complex<float>> b, std::complex<float> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp32c(a, b, config_.injector);
  const fp::Unpacked re = run_steps<2>(views_of(sched.real),
                                       fp::unpack(c.real()), dp12_,
                                       config_.accum_prec);
  const fp::Unpacked im = run_steps<2>(views_of(sched.imag),
                                       fp::unpack(c.imag()), dp12_,
                                       config_.accum_prec);
  return {fp::pack_to_float(re), fp::pack_to_float(im)};
}

double M3xuEngine::mma_dot_fp64(std::span<const double> a,
                                std::span<const double> b, double c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64).k);
  const auto steps = DataAssignmentStage::schedule_fp64(a, b, config_.injector);
  const fp::Unpacked r = run_steps<4>(views_of(steps), fp::unpack(c), dp27_,
                                      config_.fp64_accum_prec);
  return fp::pack_to_double(r);
}

std::complex<double> M3xuEngine::mma_dot_fp64c(
    std::span<const std::complex<double>> a,
    std::span<const std::complex<double>> b, std::complex<double> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp64c(a, b, config_.injector);
  const fp::Unpacked re = run_steps<4>(views_of(sched.real),
                                       fp::unpack(c.real()), dp27_,
                                       config_.fp64_accum_prec);
  const fp::Unpacked im = run_steps<4>(views_of(sched.imag),
                                       fp::unpack(c.imag()), dp27_,
                                       config_.fp64_accum_prec);
  return {fp::pack_to_double(re), fp::pack_to_double(im)};
}

namespace {

/// Row-major index in 64-bit arithmetic: the `int` products row*ld
/// overflow once the virtual index crosses 2^31 (large leading
/// dimensions; regression-tested in core_packed_panel_test).
inline std::size_t idx(int row, int ld, int col) {
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(ld) +
         static_cast<std::size_t>(col);
}

/// Gathers a strided B column chunk into a contiguous fragment (models
/// the shared-memory -> register fragment load).
template <typename T>
void gather_column(const T* b, int ldb, int j, int k0, int kc, T* out) {
  for (int kk = 0; kk < kc; ++kk) out[kk] = b[idx(k0 + kk, ldb, j)];
}

}  // namespace

void M3xuEngine::gemm_fp32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp32).k;
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp32({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                           {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  rt_fp32_perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp16(int m, int n, int k, const fp::Half* a, int lda,
                           const fp::Half* b, int ldb, float* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp16).k;
  std::vector<float> arow(static_cast<std::size_t>(kc_max));
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        for (int kk = 0; kk < kc; ++kk) {
          arow[kk] = a[idx(i, lda, k0 + kk)].to_float();
          bcol[kk] = b[idx(k0 + kk, ldb, j)].to_float();
        }
        acc = mma_dot_passthrough(
            {arow.data(), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kFp16);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_bf16(int m, int n, int k, const fp::Bf16* a, int lda,
                           const fp::Bf16* b, int ldb, float* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kBf16).k;
  std::vector<float> arow(static_cast<std::size_t>(kc_max));
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        for (int kk = 0; kk < kc; ++kk) {
          arow[kk] = a[idx(i, lda, k0 + kk)].to_float();
          bcol[kk] = b[idx(k0 + kk, ldb, j)].to_float();
        }
        acc = mma_dot_passthrough(
            {arow.data(), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kBf16);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_tf32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kTf32).k;
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        // The stage rounds FP32 register contents to TF32 on ingest.
        acc = mma_dot_passthrough(
            {a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kTf32);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_fp32c(int m, int n, int k, const std::complex<float>* a,
                            int lda, const std::complex<float>* b, int ldb,
                            std::complex<float>* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp32Complex).k;
  std::vector<std::complex<float>> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::complex<float> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp32c({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                            {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  rt_fp32c_perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp64c(int m, int n, int k,
                            const std::complex<double>* a, int lda,
                            const std::complex<double>* b, int ldb,
                            std::complex<double>* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp64Complex).k;
  std::vector<std::complex<double>> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::complex<double> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp64c({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                            {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

// --- Packed-operand fast path -----------------------------------------
//
// Streaming case (no specials in either panel, no injector, no
// force_generic): the register-blocked microkernel computes every
// output, in MR x NR blocks - partial blocks at the right and bottom
// edges included - straight from the packed panels, with no
// allocation, split or gather. Otherwise the steps are reassembled per
// dot from the packed lanes in the exact order of
// DataAssignmentStage::schedule_fp32/fp32c (element-level special
// bypass depends on the operand *pair*, and operand-buffer fault
// opportunities must fire in the per-dot order), into thread-local
// scratch reused across dots, and run through the generic run_steps.

namespace {

/// The microkernel parameters of the engine's streaming route.
MicrokernelParams mk_params(const M3xuConfig& cfg) {
  const MkBlockShape blk =
      mk_block_resolve(cfg.mk_mr, cfg.mk_nr, cfg.mk_variant);
  return {cfg.per_step_rounding, cfg.accum_prec, cfg.mk_variant,
          blk.mr,                blk.nr,         cfg.mk_prefetch};
}

/// Outputs of an m x n range that fall in partial register blocks.
std::uint64_t edge_outputs(int m, int n, const MicrokernelParams& p) {
  return area(m, n) - area(m - m % p.mr, n - n % p.nr);
}

}  // namespace

void M3xuEngine::gemm_fp32_prepacked(const PackedPanelFp32A& a, int row0,
                                     const PackedPanelFp32B& b, int col0,
                                     int m, int n, float* c, int ldc) const {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(row0 >= 0 && m >= 0 && row0 + m <= a.rows);
  M3XU_CHECK(col0 >= 0 && n >= 0 && col0 + n <= b.cols);
  const int k = a.k;
  const int kc_max = shape_for(MxuMode::kFp32).k;
  if (!config_.force_generic && config_.injector == nullptr &&
      !a.has_special && !b.has_special) {
    M3XU_CHECK(kc_max == kPackChunkFp32);
    const MicrokernelParams mp = mk_params(config_);
    for (int i = 0; i < m; i += mp.mr) {
      for (int j = 0; j < n; j += mp.nr) {
        microkernel_fp32_block(a, row0 + i, b, col0 + j,
                               std::min(mp.mr, m - i), std::min(mp.nr, n - j),
                               dp12_, mp, c + idx(i, ldc, j), ldc);
      }
    }
    rt_fp32_edge.add(edge_outputs(m, n, mp));
    return;
  }
  thread_local std::array<StepOperands, 2> scratch;
  std::uint64_t n_generic = 0;
  for (int i = 0; i < m; ++i) {
    const LaneOperand* arow =
        a.lanes.data() + static_cast<std::size_t>(row0 + i) * 2 * k;
    const std::size_t abase = static_cast<std::size_t>(row0 + i) * k;
    for (int j = 0; j < n; ++j) {
      const LaneOperand* blike =
          b.like.data() + static_cast<std::size_t>(col0 + j) * 2 * k;
      const std::size_t bbase = static_cast<std::size_t>(col0 + j) * k;
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        ++n_generic;
        for (StepOperands& s : scratch) {
          s.a.clear();
          s.b.clear();
        }
        for (int kk = 0; kk < kc; ++kk) {
          const std::size_t e = static_cast<std::size_t>(k0) + kk;
          if (a.special[abase + e] || b.special[bbase + e]) {
            scratch[0].a.push_back(a.cls[abase + e]);
            scratch[0].b.push_back(b.cls[bbase + e]);
            continue;
          }
          const LaneOperand& ah = arow[2 * e];
          const LaneOperand& al = arow[2 * e + 1];
          const LaneOperand& bh = blike[2 * e];
          const LaneOperand& bl = blike[2 * e + 1];
          scratch[0].a.push_back(ah);
          scratch[0].b.push_back(bh);
          scratch[0].a.push_back(al);
          scratch[0].b.push_back(bl);
          scratch[1].a.push_back(ah);
          scratch[1].b.push_back(bl);
          scratch[1].a.push_back(al);
          scratch[1].b.push_back(bh);
        }
        for (StepOperands& s : scratch) {
          DataAssignmentStage::corrupt_step(
              config_.injector, s, DataAssignmentStage::kFp32PartBits);
        }
        acc = fp::pack_to_float(run_steps<2>(views_of(scratch), fp::unpack(acc),
                                             dp12_, config_.accum_prec));
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  if (config_.injector != nullptr) {
    rt_fp32_inject.add(area(m, n));
  } else if (a.has_special || b.has_special) {
    rt_fp32_special.add(area(m, n));
  }
  rt_fp32_generic.add(n_generic);
  trace_generic_route("core.fp32.route.generic", n_generic);
}

void M3xuEngine::gemm_fp32c_prepacked(const PackedPanelFp32cA& a, int row0,
                                      const PackedPanelFp32cB& b, int col0,
                                      int m, int n, std::complex<float>* c,
                                      int ldc) const {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(row0 >= 0 && m >= 0 && row0 + m <= a.rows);
  M3XU_CHECK(col0 >= 0 && n >= 0 && col0 + n <= b.cols);
  const int k = a.k;
  const int kc_max = shape_for(MxuMode::kFp32Complex).k;
  if (!config_.force_generic && config_.injector == nullptr &&
      !a.has_special && !b.has_special) {
    M3XU_CHECK(kc_max == kPackChunkFp32c);
    const MicrokernelParams mp = mk_params(config_);
    for (int i = 0; i < m; i += mp.mr) {
      for (int j = 0; j < n; j += mp.nr) {
        microkernel_fp32c_block(a, row0 + i, b, col0 + j,
                                std::min(mp.mr, m - i), std::min(mp.nr, n - j),
                                dp12_, mp, c + idx(i, ldc, j), ldc);
      }
    }
    rt_fp32c_edge.add(edge_outputs(m, n, mp));
    return;
  }
  std::uint64_t n_generic = 0;
  // Scratch step order matches schedule_fp32c: real[0..1], imag[0..1].
  thread_local std::array<StepOperands, 4> scratch;
  // Appends one scalar product term x*y to a step pair, with x's lanes
  // (and bypass class) already carrying any sign flip.
  const auto emit_term = [](StepOperands& s0, StepOperands& s1,
                            const LaneOperand* x, const LaneOperand* y,
                            bool special, const LaneOperand& xcls,
                            const LaneOperand& ycls) {
    if (special) {
      s0.a.push_back(xcls);
      s0.b.push_back(ycls);
      return;
    }
    s0.a.push_back(x[0]);
    s0.b.push_back(y[0]);
    s0.a.push_back(x[1]);
    s0.b.push_back(y[1]);
    s1.a.push_back(x[0]);
    s1.b.push_back(y[1]);
    s1.a.push_back(x[1]);
    s1.b.push_back(y[0]);
  };
  for (int i = 0; i < m; ++i) {
    const std::size_t arow = static_cast<std::size_t>(row0 + i) * k;
    const LaneOperand* are = a.real_lanes.data() + 4 * arow;
    const LaneOperand* aim = a.imag_lanes.data() + 4 * arow;
    for (int j = 0; j < n; ++j) {
      const std::size_t bcol = static_cast<std::size_t>(col0 + j) * k;
      std::complex<float> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        ++n_generic;
        for (StepOperands& s : scratch) {
          s.a.clear();
          s.b.clear();
        }
        for (int kk = 0; kk < kc; ++kk) {
          const std::size_t ae = arow + k0 + kk;  // global element index
          const std::size_t al = static_cast<std::size_t>(4) * (k0 + kk);
          const std::size_t be = bcol + k0 + kk;
          const bool as_re = a.special[2 * ae] != 0;
          const bool as_im = a.special[2 * ae + 1] != 0;
          const bool bs_re = b.special[2 * be] != 0;
          const bool bs_im = b.special[2 * be + 1] != 0;
          // B component lanes in canonical [brh, brl, bih, bil] order.
          const LaneOperand* bre = b.real_like.data() + 4 * be;
          const LaneOperand* bim = bre + 2;
          // Term order matches schedule_fp32c: AR*BR, -AI*BI into the
          // real steps; AR*BI, AI*BR into the imaginary steps.
          emit_term(scratch[0], scratch[1], are + al, bre, as_re || bs_re,
                    a.cls[2 * ae], b.cls[2 * be]);
          emit_term(scratch[0], scratch[1], are + al + 2, bim,
                    as_im || bs_im, a.cls[2 * ae + 1].negated(),
                    b.cls[2 * be + 1]);
          emit_term(scratch[2], scratch[3], aim + al, bim, as_re || bs_im,
                    a.cls[2 * ae], b.cls[2 * be + 1]);
          emit_term(scratch[2], scratch[3], aim + al + 2, bre,
                    as_im || bs_re, a.cls[2 * ae + 1], b.cls[2 * be]);
        }
        for (StepOperands& s : scratch) {
          DataAssignmentStage::corrupt_step(
              config_.injector, s, DataAssignmentStage::kFp32PartBits);
        }
        const std::array<StepView, 2> real_steps = {view_of(scratch[0]),
                                                    view_of(scratch[1])};
        const std::array<StepView, 2> imag_steps = {view_of(scratch[2]),
                                                    view_of(scratch[3])};
        const fp::Unpacked re = run_steps<2>(real_steps, fp::unpack(acc.real()),
                                             dp12_, config_.accum_prec);
        const fp::Unpacked im = run_steps<2>(imag_steps, fp::unpack(acc.imag()),
                                             dp12_, config_.accum_prec);
        acc = {fp::pack_to_float(re), fp::pack_to_float(im)};
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  if (config_.injector != nullptr) {
    rt_fp32c_inject.add(area(m, n));
  } else if (a.has_special || b.has_special) {
    rt_fp32c_special.add(area(m, n));
  }
  rt_fp32c_generic.add(n_generic);
  trace_generic_route("core.fp32c.route.generic", n_generic);
}

void M3xuEngine::gemm_fp32_packed(int m, int n, int k, const float* a,
                                  int lda, const float* b, int ldb, float* c,
                                  int ldc) const {
  thread_local PackedPanelFp32A pa;
  thread_local PackedPanelFp32B pb;
  pack_fp32_a(a, lda, m, k, pa);
  pack_fp32_b(b, ldb, k, n, pb);
  gemm_fp32_prepacked(pa, 0, pb, 0, m, n, c, ldc);
}

void M3xuEngine::gemm_fp32c_packed(int m, int n, int k,
                                   const std::complex<float>* a, int lda,
                                   const std::complex<float>* b, int ldb,
                                   std::complex<float>* c, int ldc) const {
  thread_local PackedPanelFp32cA pa;
  thread_local PackedPanelFp32cB pb;
  pack_fp32c_a(a, lda, m, k, pa);
  pack_fp32c_b(b, ldb, k, n, pb);
  gemm_fp32c_prepacked(pa, 0, pb, 0, m, n, c, ldc);
}

void M3xuEngine::gemm_fp64(int m, int n, int k, const double* a, int lda,
                           const double* b, int ldb, double* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp64).k;
  std::vector<double> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp64({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                           {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

}  // namespace m3xu::core
