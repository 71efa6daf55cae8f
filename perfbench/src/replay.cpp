#include "replay.hpp"

#include <algorithm>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "core/microkernel.hpp"
#include "core/packed_panel.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using m3xu::Rng;
namespace core = m3xu::core;

// Each timed rep repeats its call until at least this much wall time
// has passed, so a rep is long against the clock's resolution.
constexpr std::uint64_t kRepNs = 8'000'000;

/// Median over `reps` rounds of ns per `units`, timing `fn`.
template <typename Fn>
double time_per_unit(int reps, double units, Fn&& fn) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    long calls = 0;
    std::uint64_t t1 = t0;
    do {
      fn();
      ++calls;
      t1 = now_ns();
    } while (t1 - t0 < kRepNs);
    rates.push_back(static_cast<double>(t1 - t0) /
                    (static_cast<double>(calls) * units));
  }
  return median(std::move(rates));
}

float rand_float(Rng& rng) { return rng.scaled_float(); }
std::complex<float> rand_complex(Rng& rng) {
  const float re = rng.scaled_float();
  return {re, rng.scaled_float()};
}

template <typename T, typename PanelA, typename PanelB, typename PackA,
          typename PackB, typename Block, typename Edge>
StageRates replay_dtype(PanelShape shape, int mr, int nr, int reps, Rng& rng,
                        T (*gen)(Rng&), PackA pack_a, PackB pack_b,
                        Block block, Edge edge, double macs_per_mult) {
  // Panels must hold at least one register block and one edge strip.
  const int m = std::max(shape.m_eff, mr);
  const int n = std::max(shape.n_eff, nr);
  const int kc = std::max(shape.kc, 1);
  std::vector<T> a(static_cast<std::size_t>(m) * kc);
  std::vector<T> b(static_cast<std::size_t>(kc) * n);
  for (T& v : a) v = gen(rng);
  for (T& v : b) v = gen(rng);
  PanelA pa;
  PanelB pb;
  StageRates r;
  r.pack_a_ns_per_elem =
      time_per_unit(reps, static_cast<double>(m) * kc,
                    [&] { pack_a(a.data(), kc, m, kc, pa); });
  r.pack_b_ns_per_elem =
      time_per_unit(reps, static_cast<double>(kc) * n,
                    [&] { pack_b(b.data(), n, kc, n, pb); });
  std::vector<T> c(static_cast<std::size_t>(m) * n);
  const int mb = m - m % mr;
  const int nb = n - n % nr;
  r.mk_ns_per_mac = time_per_unit(
      reps, static_cast<double>(mb) * nb * kc * macs_per_mult, [&] {
        std::fill(c.begin(), c.end(), T{});
        for (int i = 0; i < mb; i += mr) {
          for (int j = 0; j < nb; j += nr) {
            block(pa, i, pb, j, c.data() + static_cast<std::size_t>(i) * n + j,
                  n);
          }
        }
      });
  // A strip one row short of a register block: the prepacked entry
  // point sends every one of its outputs down the per-element route.
  const int rows = mr - 1;
  r.edge_ns_per_mac = time_per_unit(
      reps, static_cast<double>(rows) * n * kc * macs_per_mult, [&] {
        std::fill(c.begin(), c.end(), T{});
        edge(pa, pb, rows, n, c.data(), n);
      });
  return r;
}

}  // namespace

ReplayRates replay_core(const core::M3xuConfig& engine_cfg,
                        PanelShape sgemm_shape, PanelShape cgemm_shape,
                        std::uint64_t seed, int reps) {
  const core::M3xuEngine engine(engine_cfg);
  // The engine's own 12-bit unit is private; the microkernel takes any
  // DpUnit, so build one with the engine's configuration.
  const core::DpUnit unit(core::DpUnitConfig{12, true, nullptr});
  const core::MkBlockShape blk =
      core::mk_block_resolve(engine_cfg.mk_mr, engine_cfg.mk_nr);
  const core::MicrokernelParams params{
      engine_cfg.per_step_rounding, engine_cfg.accum_prec,
      engine_cfg.mk_variant,        blk.mr,
      blk.nr,                       engine_cfg.mk_prefetch};
  Rng rng(seed);
  ReplayRates out;
  out.sgemm = replay_dtype<float, core::PackedPanelFp32A,
                           core::PackedPanelFp32B>(
      sgemm_shape, blk.mr, blk.nr, reps, rng, &rand_float, core::pack_fp32_a,
      core::pack_fp32_b,
      [&](const core::PackedPanelFp32A& a, int i,
          const core::PackedPanelFp32B& b, int j, float* c, int ldc) {
        core::microkernel_fp32_block(a, i, b, j, unit, params, c, ldc);
      },
      [&](const core::PackedPanelFp32A& a, const core::PackedPanelFp32B& b,
          int m, int n, float* c, int ldc) {
        engine.gemm_fp32_prepacked(a, 0, b, 0, m, n, c, ldc);
      },
      1.0);
  out.cgemm = replay_dtype<std::complex<float>, core::PackedPanelFp32cA,
                           core::PackedPanelFp32cB>(
      cgemm_shape, blk.mr, blk.nr, reps, rng, &rand_complex,
      core::pack_fp32c_a, core::pack_fp32c_b,
      [&](const core::PackedPanelFp32cA& a, int i,
          const core::PackedPanelFp32cB& b, int j, std::complex<float>* c,
          int ldc) {
        core::microkernel_fp32c_block(a, i, b, j, unit, params, c, ldc);
      },
      [&](const core::PackedPanelFp32cA& a, const core::PackedPanelFp32cB& b,
          int m, int n, std::complex<float>* c, int ldc) {
        engine.gemm_fp32c_prepacked(a, 0, b, 0, m, n, c, ldc);
      },
      4.0);
  return out;
}

MacSplit mac_split(const m3xu::gemm::TileConfig& tile, int m, int n, int k,
                   bool cplx, int mr, int nr) {
  MacSplit s;
  const double scale = cplx ? 4.0 : 1.0;
  for (int bm = 0; bm < m; bm += tile.block_m) {
    const int m_eff = std::min(tile.block_m, m - bm);
    for (int bn = 0; bn < n; bn += tile.block_n) {
      const int n_eff = std::min(tile.block_n, n - bn);
      for (int wm = 0; wm < m_eff; wm += tile.warp_m) {
        const int wm_eff = std::min(tile.warp_m, m_eff - wm);
        for (int wn = 0; wn < n_eff; wn += tile.warp_n) {
          const int wn_eff = std::min(tile.warp_n, n_eff - wn);
          const double blocked = static_cast<double>(wm_eff - wm_eff % mr) *
                                 (wn_eff - wn_eff % nr);
          // Summed over K-blocks, each warp tile covers all of K.
          s.block_macs += blocked * k * scale;
          s.edge_macs +=
              (static_cast<double>(wm_eff) * wn_eff - blocked) * k * scale;
        }
      }
    }
  }
  return s;
}

PanelShape dominant_panel(const m3xu::gemm::TileConfig& tile, int m, int n,
                          int k) {
  return {std::min(tile.block_m, m), std::min(tile.block_n, n),
          std::min(tile.block_k, k)};
}

double predict_seconds(const StageRates& r, const MacSplit& macs,
                       double a_elems_packed, double b_elems_packed) {
  return 1e-9 * (r.mk_ns_per_mac * macs.block_macs +
                 r.edge_ns_per_mac * macs.edge_macs +
                 r.pack_a_ns_per_elem * a_elems_packed +
                 r.pack_b_ns_per_elem * b_elems_packed);
}

}  // namespace perfbench
