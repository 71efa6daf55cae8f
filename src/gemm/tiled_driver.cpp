#include "gemm/tiled_driver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/packed_panel.hpp"
#include "fault/injector.hpp"
#include "gemm/panel_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::gemm {

double eps_per_chunk(int accum_prec) {
  return std::ldexp(1.0, -24) + std::ldexp(1.0, 2 - accum_prec);
}

namespace {

// ABFT outcome counters, mirroring the TiledGemmStats fields so fault
// recovery shows up in the process-wide metrics export (no-ops when
// M3XU_TELEMETRY=OFF).
telemetry::Counter abft_checks_ctr("abft.tile_checks");
telemetry::Counter abft_detected_ctr("abft.detected");
telemetry::Counter abft_recomputed_ctr("abft.recomputed");
telemetry::Counter abft_recovered_ctr("abft.recovered");
telemetry::Counter abft_false_alarms_ctr("abft.false_alarms");
// Recovery-ladder counters, mirroring RecoveryReport (the per-route
// breakdown lives in the stats; telemetry carries the aggregates).
telemetry::Counter rec_retries_ctr("recovery.retries");
telemetry::Counter rec_demotions_ctr("recovery.demotions");
telemetry::Counter rec_recovered_ctr("recovery.recovered");
telemetry::Counter rec_quarantined_ctr("recovery.quarantined");
telemetry::Counter rec_quarantine_hits_ctr("recovery.quarantine_hits");
telemetry::Counter rec_alloc_fallbacks_ctr("recovery.alloc_fallbacks");
telemetry::Counter rec_degraded_ctr("recovery.degraded_tiles");
telemetry::Counter rec_poisoned_ctr("recovery.poisoned_tiles");

struct TileGrid {
  long grid_m;
  long grid_n;
  long tiles() const { return grid_m * grid_n; }
};

TileGrid make_grid(const TileConfig& cfg, int m, int n) {
  return {(m + cfg.block_m - 1) / cfg.block_m,
          (n + cfg.block_n - 1) / cfg.block_n};
}

long instr_count(int m_eff, int n_eff, int kc, int inst_m, int inst_n,
                 int inst_k) {
  return static_cast<long>((m_eff + inst_m - 1) / inst_m) *
         ((n_eff + inst_n - 1) / inst_n) * ((kc + inst_k - 1) / inst_k);
}

// --- ABFT support -----------------------------------------------------
//
// Checksums accumulate in double (complex<double> for the FP32C mode):
// the 2^-53 checksum rounding is ~2^29 below the 2^-24 output-rounding
// scale the tolerance must cover, so the check arithmetic itself never
// trips the guard. See docs/FAULT_INJECTION.md for the derivation.

/// FP32 pack roundings each output element undergoes across the
/// mainloop (one per instruction K-chunk; the driver's block_k staging
/// preserves the engine's chunk boundaries).
long chunk_roundings(int k, int block_k, int inst_k) {
  long chunks = 0;
  for (int k0 = 0; k0 < k; k0 += block_k) {
    const int kc = std::min(block_k, k - k0);
    chunks += (kc + inst_k - 1) / inst_k;
  }
  return chunks;
}

template <typename T>
struct ChecksumTraits;

template <>
struct ChecksumTraits<float> {
  using Acc = double;
  static Acc widen(float v) { return v; }
  static double mag(float v) { return std::fabs(static_cast<double>(v)); }
  static double residual(Acc v) { return std::fabs(v); }
  static float poison() { return std::numeric_limits<float>::quiet_NaN(); }
};

template <>
struct ChecksumTraits<std::complex<float>> {
  using Acc = std::complex<double>;
  static Acc widen(std::complex<float> v) {
    return {static_cast<double>(v.real()), static_cast<double>(v.imag())};
  }
  static double mag(std::complex<float> v) { return std::abs(widen(v)); }
  static double residual(Acc v) { return std::abs(v); }
  static std::complex<float> poison() {
    return {std::numeric_limits<float>::quiet_NaN(),
            std::numeric_limits<float>::quiet_NaN()};
  }
};

/// Packed-path glue per element type: staged panels are split once per
/// mainloop iteration (at the stage step, where the shared-memory model
/// already touches every element) and every warp tile streams the
/// packed fragments through the engine's prepacked GEMM. perdot() is
/// the unpacked route over the same staged buffers - bit-identical (the
/// per-dot flat loop uses the same K-chunk rounding boundaries), used
/// by the kScalarReference rung and the allocation-failure fallback.
template <typename T>
struct PackedOps;

template <>
struct PackedOps<float> {
  using PanelA = core::PackedPanelFp32A;
  using PanelB = core::PackedPanelFp32B;
  static constexpr bool kCplx = false;
  static void pack_a(const float* p, int ld, int rows, int k, PanelA& out) {
    core::pack_fp32_a(p, ld, rows, k, out);
  }
  static void pack_b(const float* p, int ld, int k, int cols, PanelB& out) {
    core::pack_fp32_b(p, ld, k, cols, out);
  }
  static bool cache_get(PanelCache& cache, const PanelKey& key, PanelB* out) {
    return cache.get_fp32(key, out);
  }
  static void cache_put(PanelCache& cache, const PanelKey& key,
                        const PanelB& panel) {
    cache.put_fp32(key, panel);
  }
  static void mma(const core::M3xuEngine& engine, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n, float* c,
                  int ldc) {
    engine.gemm_fp32_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
  static void perdot(const core::M3xuEngine& engine, const float* a, int lda,
                     const float* b, int ldb, int m, int n, int k, float* c,
                     int ldc) {
    engine.gemm_fp32(m, n, k, a, lda, b, ldb, c, ldc);
  }
};

template <>
struct PackedOps<std::complex<float>> {
  using PanelA = core::PackedPanelFp32cA;
  using PanelB = core::PackedPanelFp32cB;
  static constexpr bool kCplx = true;
  static void pack_a(const std::complex<float>* p, int ld, int rows, int k,
                     PanelA& out) {
    core::pack_fp32c_a(p, ld, rows, k, out);
  }
  static void pack_b(const std::complex<float>* p, int ld, int k, int cols,
                     PanelB& out) {
    core::pack_fp32c_b(p, ld, k, cols, out);
  }
  static bool cache_get(PanelCache& cache, const PanelKey& key, PanelB* out) {
    return cache.get_fp32c(key, out);
  }
  static void cache_put(PanelCache& cache, const PanelKey& key,
                        const PanelB& panel) {
    cache.put_fp32c(key, panel);
  }
  static void mma(const core::M3xuEngine& engine, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n,
                  std::complex<float>* c, int ldc) {
    engine.gemm_fp32c_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
  static void perdot(const core::M3xuEngine& engine,
                     const std::complex<float>* a, int lda,
                     const std::complex<float>* b, int ldb, int m, int n,
                     int k, std::complex<float>* c, int ldc) {
    engine.gemm_fp32c(m, n, k, a, lda, b, ldb, c, ldc);
  }
};

/// kStagedPanel fault hook: one bit-flip opportunity per staged scalar
/// (real and imaginary parts count separately), applied after the
/// stage copy so the corruption models a bad shared-memory cell rather
/// than bad global memory.
void corrupt_staged_value(const fault::FaultInjector& inj, float& v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  v = std::bit_cast<float>(static_cast<std::uint32_t>(
      inj.corrupt(fault::Site::kStagedPanel, bits, 32)));
}

void corrupt_staged_value(const fault::FaultInjector& inj,
                          std::complex<float>& v) {
  float re = v.real();
  float im = v.imag();
  corrupt_staged_value(inj, re);
  corrupt_staged_value(inj, im);
  v = {re, im};
}

/// Shared implementation over the element type, driven entirely by a
/// CompiledDispatch: the owning GemmPlan holds the validated configs
/// and both engines the tile loop needs - primary (possibly
/// fault-injected) and the fault-free clone for the terminal scalar
/// rung. Nothing config-derived is computed here, so a plan amortizes
/// it all across executes.
template <typename T>
TiledGemmStats run_tiled(const CompiledDispatch& d, const ExecRails& rails,
                         const Matrix<T>& a, const Matrix<T>& b,
                         Matrix<T>& c) {
  using Traits = ChecksumTraits<T>;
  using Acc = typename Traits::Acc;
  const TileConfig& cfg = d.tile;
  const AbftConfig& abft = d.abft;
  const RecoveryPolicy& policy = d.policy;
  const int inst_m = d.inst_m, inst_n = d.inst_n, inst_k = d.inst_k;
  const double eps_chunk = d.eps_chunk;
  const core::M3xuEngine& engine = *d.engine;
  const core::M3xuEngine& clean = *d.clean;
  // K-chunk boundaries must coincide with the engine's instruction
  // chunking for bit-identical results vs the flat loop.
  const int m = a.rows(), n = b.cols(), k = a.cols();
  const TileGrid grid = make_grid(cfg, m, n);
  const long chunks = chunk_roundings(k, cfg.block_k, inst_k);
  const ParallelOptions popts{rails.token, rails.deadline_ms, rails.stall_ms};
  // Tile partitioning runs on the caller-selected pool (null = the
  // process-wide default). Tiles are independent and each tile's
  // K-chunk schedule is fixed, so the result is bit-identical for
  // every pool size and schedule.
  ThreadPool& pool = rails.pool != nullptr ? *rails.pool : ThreadPool::global();

  std::mutex stats_mu;
  TiledGemmStats stats;
  stats.block_tiles = grid.tiles();
  if (rails.trace != nullptr) {
    rails.trace->event("exec.start", grid.tiles(), static_cast<long>(k));
  }

  // ABFT column-checksum ingredients: asum/amag depend only on a tile's
  // block-row (sum over its A rows), so compute them once per block row
  // instead of once per tile - an O(grid_n) saving on the O(m_eff * k)
  // scan. Cached values are bit-identical to a per-tile recompute (same
  // summation order), so detection behavior is unchanged.
  std::vector<std::vector<Acc>> row_asum;
  std::vector<std::vector<double>> row_amag;
  if (abft.enable) {
    row_asum.resize(static_cast<std::size_t>(grid.grid_m));
    row_amag.resize(static_cast<std::size_t>(grid.grid_m));
    pool.parallel_for(
        static_cast<std::size_t>(grid.grid_m), 0,
        [&](std::size_t r) {
          const int bm = static_cast<int>(r) * cfg.block_m;
          const int m_eff = std::min(cfg.block_m, m - bm);
          std::vector<Acc>& asum = row_asum[r];
          std::vector<double>& amag = row_amag[r];
          asum.assign(static_cast<std::size_t>(k), Acc{});
          amag.assign(static_cast<std::size_t>(k), 0.0);
          for (int i = 0; i < m_eff; ++i) {
            for (int kk = 0; kk < k; ++kk) {
              asum[kk] += Traits::widen(a(bm + i, kk));
              amag[kk] += Traits::mag(a(bm + i, kk));
            }
          }
        },
        popts);
  }

  pool.parallel_for(
      static_cast<std::size_t>(grid.tiles()), 0,
      [&](std::size_t t) {
    const long tile_row = static_cast<long>(t) / grid.grid_n;
    const long tile_col = static_cast<long>(t) % grid.grid_n;
    // Request-scoped tracing: `trace` gets tile-level milestones, and
    // installing it as the thread-local context lets the core route
    // dispatch attribute route decisions to this request.
    telemetry::TraceContext* const trace = rails.trace;
    const telemetry::TraceContextScope trace_scope(trace);
    const int bm = static_cast<int>(tile_row) * cfg.block_m;
    const int bn = static_cast<int>(tile_col) * cfg.block_n;
    const int m_eff = std::min(cfg.block_m, m - bm);
    const int n_eff = std::min(cfg.block_n, n - bn);
    // The C fragment's initial contents (kept for ladder retries).
    std::vector<T> c_in(static_cast<std::size_t>(m_eff) * n_eff);
    for (int i = 0; i < m_eff; ++i) {
      for (int j = 0; j < n_eff; ++j) {
        c_in[static_cast<std::size_t>(i) * n_eff + j] = c(bm + i, bn + j);
      }
    }
    TiledGemmStats local;

    // One pass of the tile mainloop into `frag` (which must hold the
    // initial C fragment). Traffic counters accumulate into `counters`
    // on the first pass only; ladder retries are tracked separately.
    // `route` picks the datapath rung; kScalarReference skips packing
    // and runs the staged buffers through the flat per-dot GEMM
    // (bit-identical K-chunk boundaries). `allow_cache` gates the
    // shared prepacked-B cache: only the initial pass may use it -
    // ladder retries always repack locally so recovery
    // never depends on a cached panel's integrity.
    const auto compute_tile = [&](const core::M3xuEngine& eng, Route route,
                                  std::vector<T>& frag,
                                  TiledGemmStats* counters,
                                  bool allow_cache) {
      const fault::FaultInjector* inj = eng.config().injector;
      // kWorkerStall: one opportunity per tile pass. The injected
      // delay is finite, so the pool watchdog can convert it into a
      // clean abort instead of an indefinite hang.
      if (inj != nullptr && inj->trigger(fault::Site::kWorkerStall)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(inj->stall_duration_ms));
      }
      // Staging buffers (the shared-memory model) and their packed
      // lane-operand panels, split once per mainloop iteration. They
      // are thread_local so a worker reuses its allocations across
      // tiles (grow-only): every slot a pass reads is written by that
      // pass's stage/pack step first, so stale contents from a prior
      // tile are unreachable, and each worker owns its buffers - no
      // shared mutable state across the tile grid.
      thread_local std::vector<T> a_stage;
      thread_local std::vector<T> b_stage;
      thread_local typename PackedOps<T>::PanelA a_panel;
      thread_local typename PackedOps<T>::PanelB b_panel;
      const std::size_t a_need = static_cast<std::size_t>(m_eff) * cfg.block_k;
      const std::size_t b_need = static_cast<std::size_t>(cfg.block_k) * n_eff;
      if (a_stage.size() < a_need) a_stage.resize(a_need);
      if (b_stage.size() < b_need) b_stage.resize(b_need);
      for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
        if (rails.token != nullptr) rails.token->check();
        const int kc = std::min(cfg.block_k, k - k0);
        {
          // Stage the A and B panels (cp.async in the real kernel).
          const telemetry::ScopedTimer span(
              "tile.stage", counters != nullptr ? &counters->stage_seconds
                                                : nullptr);
          for (int i = 0; i < m_eff; ++i) {
            for (int kk = 0; kk < kc; ++kk) {
              a_stage[static_cast<std::size_t>(i) * cfg.block_k + kk] =
                  a(bm + i, k0 + kk);
            }
          }
          for (int kk = 0; kk < kc; ++kk) {
            for (int j = 0; j < n_eff; ++j) {
              b_stage[static_cast<std::size_t>(kk) * n_eff + j] =
                  b(k0 + kk, bn + j);
            }
          }
        }
        if (inj != nullptr) {
          for (int i = 0; i < m_eff; ++i) {
            for (int kk = 0; kk < kc; ++kk) {
              corrupt_staged_value(
                  *inj, a_stage[static_cast<std::size_t>(i) * cfg.block_k +
                                kk]);
            }
          }
          for (int kk = 0; kk < kc; ++kk) {
            for (int j = 0; j < n_eff; ++j) {
              corrupt_staged_value(
                  *inj, b_stage[static_cast<std::size_t>(kk) * n_eff + j]);
            }
          }
        }
        // Packed-panel staging can fail to allocate (for real, or via
        // the kAllocFailure domain). The K-block then degrades to the
        // unpacked per-dot route over the staged buffers instead of
        // crashing the GEMM - same bits, slower path.
        bool packed = false;
        if (route != Route::kScalarReference) {
          const bool alloc_failed =
              inj != nullptr && inj->trigger(fault::Site::kAllocFailure);
          if (!alloc_failed) {
            try {
              const telemetry::ScopedTimer span(
                  "tile.pack", counters != nullptr ? &counters->pack_seconds
                                                   : nullptr);
              PackedOps<T>::pack_a(a_stage.data(), cfg.block_k, m_eff, kc,
                                   a_panel);
              // The B panel for this (K-block, column block) is shared
              // by every tile row and every request with the same
              // b_key, so consult the cache first. Never with an
              // injector attached: corrupted staging must not be
              // published into shared state.
              const bool cacheable = allow_cache && rails.b_cache != nullptr &&
                                     rails.b_key != 0 && inj == nullptr;
              bool b_cached = false;
              if (cacheable) {
                const PanelKey key{rails.b_key, k0,   bn,
                                   kc,         n_eff, PackedOps<T>::kCplx};
                b_cached =
                    PackedOps<T>::cache_get(*rails.b_cache, key, &b_panel);
                if (trace != nullptr) {
                  trace->event(b_cached ? "pack.cache.hit" : "pack.cache.miss",
                               static_cast<long>(t), k0);
                }
                if (!b_cached) {
                  PackedOps<T>::pack_b(b_stage.data(), n_eff, kc, n_eff,
                                       b_panel);
                  PackedOps<T>::cache_put(*rails.b_cache, key, b_panel);
                }
              } else {
                PackedOps<T>::pack_b(b_stage.data(), n_eff, kc, n_eff,
                                     b_panel);
              }
              packed = true;
            } catch (const std::bad_alloc&) {
              packed = false;
            }
          }
          if (!packed) {
            ++local.recovery.alloc_fallbacks;
            if (trace != nullptr) {
              trace->event("recovery.alloc_fallback", static_cast<long>(t),
                           k0);
            }
          }
        }
        if (counters != nullptr) {
          counters->staged_bytes +=
              static_cast<double>(m_eff + n_eff) * kc * sizeof(T);
          ++counters->mainloop_iterations;
        }
        // Warp tiles over the block tile.
        const telemetry::ScopedTimer span(
            "tile.mainloop", counters != nullptr
                                 ? &counters->mainloop_seconds
                                 : nullptr);
        for (int wm = 0; wm < m_eff; wm += cfg.warp_m) {
          const int wm_eff = std::min(cfg.warp_m, m_eff - wm);
          for (int wn = 0; wn < n_eff; wn += cfg.warp_n) {
            const int wn_eff = std::min(cfg.warp_n, n_eff - wn);
            T* frag_ptr =
                frag.data() + static_cast<std::size_t>(wm) * n_eff + wn;
            if (packed) {
              PackedOps<T>::mma(eng, a_panel, wm, b_panel, wn, wm_eff,
                                wn_eff, frag_ptr, n_eff);
            } else {
              PackedOps<T>::perdot(
                  eng,
                  a_stage.data() + static_cast<std::size_t>(wm) * cfg.block_k,
                  cfg.block_k, b_stage.data() + wn, n_eff, wm_eff, wn_eff,
                  kc, frag_ptr, n_eff);
            }
            if (counters != nullptr) {
              counters->mma_instructions +=
                  instr_count(wm_eff, wn_eff, kc, inst_m, inst_n, inst_k);
            }
          }
        }
      }
    };

    // Quarantined tiles start directly on their recorded rung.
    Route start_route = Route::kMicrokernel;
    if (rails.quarantine != nullptr) {
      Route q = start_route;
      if (rails.quarantine->lookup(static_cast<long>(t), &q)) {
        start_route = std::min(q, policy.floor, [](Route x, Route y) {
          return static_cast<int>(x) < static_cast<int>(y);
        });
        ++local.recovery.quarantine_hits;
        if (trace != nullptr) {
          trace->event("recovery.quarantine_hit", static_cast<long>(t),
                       static_cast<long>(start_route));
        }
      }
    }

    std::vector<T> c_frag = c_in;
    compute_tile(engine, start_route, c_frag, &local, /*allow_cache=*/true);

    if (abft.enable) {
      const telemetry::ScopedTimer span("tile.abft", &local.abft_seconds);
      ++local.abft_tile_checks;
      // Column checksums over the tile: expected_j = sum_i C_in[i][j]
      // + sum_k (sum_i A[i][k]) * B[k][j], and the magnitude sum that
      // scales the rounding tolerance. asum/amag come from the
      // per-block-row cache computed above.
      const std::vector<Acc>& asum =
          row_asum[static_cast<std::size_t>(tile_row)];
      const std::vector<double>& amag =
          row_amag[static_cast<std::size_t>(tile_row)];
      std::vector<Acc> expected(static_cast<std::size_t>(n_eff), Acc{});
      std::vector<double> tol(static_cast<std::size_t>(n_eff), 0.0);
      for (int j = 0; j < n_eff; ++j) {
        Acc e{};
        double mag = 0.0;
        for (int i = 0; i < m_eff; ++i) {
          e += Traits::widen(c_in[static_cast<std::size_t>(i) * n_eff + j]);
          mag += Traits::mag(c_in[static_cast<std::size_t>(i) * n_eff + j]);
        }
        for (int kk = 0; kk < k; ++kk) {
          e += asum[kk] * Traits::widen(b(kk, bn + j));
          mag += amag[kk] * Traits::mag(b(kk, bn + j));
        }
        expected[j] = e;
        tol[j] = abft.tolerance_scale * static_cast<double>(chunks) *
                 eps_chunk * mag;
      }
      // Negated <= so a NaN residual (e.g. a staged-panel flip that
      // manufactured an Inf/NaN) counts as a detection, not a silent
      // escape.
      const auto verify = [&](const std::vector<T>& frag) {
        for (int j = 0; j < n_eff; ++j) {
          Acc actual{};
          for (int i = 0; i < m_eff; ++i) {
            actual += Traits::widen(frag[static_cast<std::size_t>(i) * n_eff + j]);
          }
          if (!(Traits::residual(actual - expected[j]) <= tol[j])) {
            return false;
          }
        }
        return true;
      };
      if (!verify(c_frag)) {
        ++local.abft_detected;
        if (trace != nullptr) {
          trace->event("abft.detect", static_cast<long>(t),
                       static_cast<long>(start_route));
        }
        bool resolved = false;
        std::vector<T> prev = c_frag;
        // Demotion ladder. Retries above the scalar rung re-run the
        // tile on the *primary* datapath (transient faults clear on
        // re-execution); the terminal scalar rung runs on the
        // fault-free clone, whose deterministic result either passes
        // the checksum or proves a false alarm - so the default ladder
        // always terminates. retries_per_route = 0 skips straight to
        // the scalar rung (the clean-recompute preset).
        //
        // Retry determinism: the primary injector's opportunity
        // counters are shared across tiles, so retries through it
        // would depend on thread interleaving. Each tile instead
        // gets a private injector seeded from
        // Rng(retry_seed ^ primary seed).split(tile) - a pure
        // function of (seeds, tile index). It and its engine are
        // built on the first primary-rung attempt, so a ladder that
        // goes straight to the scalar rung builds neither; without
        // an injector the primary engine retries as it is.
        std::optional<fault::FaultInjector> retry_inj;
        std::optional<core::M3xuEngine> retry_eng;
        const auto primary_retry_engine = [&]() -> const core::M3xuEngine& {
          const fault::FaultInjector* inj = engine.config().injector;
          if (inj == nullptr) return engine;
          if (!retry_eng) {
            retry_inj.emplace(Rng(policy.retry_seed ^ inj->seed())
                                  .split(static_cast<std::uint64_t>(t))
                                  .seed(),
                              inj->rates());
            retry_inj->stall_duration_ms = inj->stall_duration_ms;
            core::M3xuConfig retry_cfg = engine.config();
            retry_cfg.injector = &*retry_inj;
            retry_eng.emplace(retry_cfg);
          }
          return *retry_eng;
        };
        bool false_alarm = false;
        Route rung = start_route;
        int total_attempts = 0;
        for (;;) {
          const bool scalar_clean = rung == Route::kScalarReference;
          const int attempts_here =
              scalar_clean ? std::max(2, policy.retries_per_route)
                           : policy.retries_per_route;
          for (int attempt = 0; attempt < attempts_here && !resolved;
               ++attempt) {
            std::vector<T> redo = c_in;
            if (trace != nullptr) {
              trace->event("recovery.retry", static_cast<long>(t),
                           static_cast<long>(rung));
            }
            compute_tile(scalar_clean ? clean : primary_retry_engine(),
                         rung, redo, nullptr, /*allow_cache=*/false);
            ++local.abft_recomputed;
            ++local.recovery.retries;
            ++total_attempts;
            if (verify(redo)) {
              c_frag = std::move(redo);
              ++local.abft_recovered;
              ++local.recovery.recovered_on[static_cast<int>(rung)];
              resolved = true;
              if (trace != nullptr) {
                trace->event("recovery.recovered", static_cast<long>(t),
                             static_cast<long>(rung));
              }
            } else if (std::memcmp(redo.data(), prev.data(),
                                   redo.size() * sizeof(T)) == 0) {
              // Two identical results that both fail the checksum:
              // tolerance artifact, not a fault. Keep the bits.
              c_frag = std::move(redo);
              ++local.abft_false_alarms;
              resolved = true;
              false_alarm = true;
              if (trace != nullptr) {
                trace->event("abft.false_alarm", static_cast<long>(t),
                             static_cast<long>(rung));
              }
            } else {
              prev = std::move(redo);
            }
          }
          if (resolved ||
              static_cast<int>(rung) >= static_cast<int>(policy.floor)) {
            break;
          }
          rung = static_cast<Route>(static_cast<int>(rung) + 1);
          ++local.recovery.demotions;
          ++local.recovery.demoted_to[static_cast<int>(rung)];
          if (trace != nullptr) {
            trace->event("recovery.demote", static_cast<long>(t),
                         static_cast<long>(rung), route_name(rung));
          }
        }
        if (resolved && !false_alarm &&
            static_cast<int>(rung) > static_cast<int>(start_route) &&
            rails.quarantine != nullptr) {
          if (rails.quarantine->demote(static_cast<long>(t), rung)) {
            ++local.recovery.quarantined;
            if (trace != nullptr) {
              trace->event("recovery.quarantined", static_cast<long>(t),
                           static_cast<long>(rung));
            }
          }
        }
        if (!resolved) {
          switch (policy.terminal) {
            case RecoveryPolicy::Terminal::kThrow:
              if (trace != nullptr) {
                trace->event("abft.unrecovered", static_cast<long>(t),
                             static_cast<long>(rung));
              }
              throw AbftFailure(
                  "ABFT: tile (" + std::to_string(tile_row) + "," +
                      std::to_string(tile_col) +
                      ") failed its column checksum after " +
                      std::to_string(total_attempts) +
                      " attempts down to route " +
                      route_name(rung) + " (tolerance_scale=" +
                      std::to_string(abft.tolerance_scale) + ")",
                  tile_row, tile_col, rung, total_attempts);
            case RecoveryPolicy::Terminal::kDegrade:
              // Keep the last attempt's bits (already in prev /
              // c_frag lineage) and carry on degraded.
              ++local.recovery.degraded_tiles;
              if (trace != nullptr) {
                trace->event("recovery.degraded_tile",
                             static_cast<long>(t),
                             static_cast<long>(rung));
              }
              break;
            case RecoveryPolicy::Terminal::kPoison:
              std::fill(c_frag.begin(), c_frag.end(), Traits::poison());
              ++local.recovery.poisoned_tiles;
              if (trace != nullptr) {
                trace->event("recovery.poisoned_tile",
                             static_cast<long>(t),
                             static_cast<long>(rung));
              }
              break;
            }
          }
        }
      }

    {
      const telemetry::ScopedTimer span("tile.epilogue",
                                        &local.epilogue_seconds);
      for (int i = 0; i < m_eff; ++i) {
        for (int j = 0; j < n_eff; ++j) {
          c(bm + i, bn + j) = c_frag[static_cast<std::size_t>(i) * n_eff + j];
        }
      }
    }
    abft_checks_ctr.add(static_cast<std::uint64_t>(local.abft_tile_checks));
    abft_detected_ctr.add(static_cast<std::uint64_t>(local.abft_detected));
    abft_recomputed_ctr.add(
        static_cast<std::uint64_t>(local.abft_recomputed));
    abft_recovered_ctr.add(static_cast<std::uint64_t>(local.abft_recovered));
    abft_false_alarms_ctr.add(
        static_cast<std::uint64_t>(local.abft_false_alarms));
    const RecoveryReport& rec = local.recovery;
    rec_retries_ctr.add(static_cast<std::uint64_t>(rec.retries));
    rec_demotions_ctr.add(static_cast<std::uint64_t>(rec.demotions));
    long recovered = 0;
    for (int r = 0; r < kRouteCount; ++r) recovered += rec.recovered_on[r];
    rec_recovered_ctr.add(static_cast<std::uint64_t>(recovered));
    rec_quarantined_ctr.add(static_cast<std::uint64_t>(rec.quarantined));
    rec_quarantine_hits_ctr.add(
        static_cast<std::uint64_t>(rec.quarantine_hits));
    rec_alloc_fallbacks_ctr.add(
        static_cast<std::uint64_t>(rec.alloc_fallbacks));
    rec_degraded_ctr.add(static_cast<std::uint64_t>(rec.degraded_tiles));
    rec_poisoned_ctr.add(static_cast<std::uint64_t>(rec.poisoned_tiles));
    const std::lock_guard<std::mutex> lock(stats_mu);
    stats.mainloop_iterations += local.mainloop_iterations;
    stats.staged_bytes += local.staged_bytes;
    stats.mma_instructions += local.mma_instructions;
    stats.stage_seconds += local.stage_seconds;
    stats.pack_seconds += local.pack_seconds;
    stats.mainloop_seconds += local.mainloop_seconds;
    stats.epilogue_seconds += local.epilogue_seconds;
    stats.abft_seconds += local.abft_seconds;
    stats.abft_tile_checks += local.abft_tile_checks;
    stats.abft_detected += local.abft_detected;
    stats.abft_recomputed += local.abft_recomputed;
    stats.abft_recovered += local.abft_recovered;
    stats.abft_false_alarms += local.abft_false_alarms;
    stats.recovery.retries += rec.retries;
    stats.recovery.demotions += rec.demotions;
    for (int r = 0; r < kRouteCount; ++r) {
      stats.recovery.recovered_on[r] += rec.recovered_on[r];
      stats.recovery.demoted_to[r] += rec.demoted_to[r];
    }
    stats.recovery.quarantined += rec.quarantined;
    stats.recovery.quarantine_hits += rec.quarantine_hits;
    stats.recovery.alloc_fallbacks += rec.alloc_fallbacks;
    stats.recovery.degraded_tiles += rec.degraded_tiles;
    stats.recovery.poisoned_tiles += rec.poisoned_tiles;
      },
      popts);
  if (rails.trace != nullptr) {
    rails.trace->event("exec.done", grid.tiles(),
                      static_cast<long>(stats.abft_detected));
  }
  return stats;
}

/// Operand-shape validation on the compiled-dispatch execute path.
template <typename T>
void validate_shapes(const Matrix<T>& a, const Matrix<T>& b,
                     const Matrix<T>& c) {
  M3XU_CHECK_MSG(a.cols() == b.rows(),
                 "tiled GEMM shape mismatch: A columns != B rows");
  M3XU_CHECK_MSG(a.rows() == c.rows() && b.cols() == c.cols(),
                 "tiled GEMM shape mismatch: C must be A.rows x B.cols");
}

}  // namespace

void validate_tile_config(const TileConfig& config, int inst_k) {
  M3XU_CHECK_MSG(config.valid(),
                 "TileConfig invalid: block_m/block_n/block_k/warp_m/warp_n "
                 "must be positive and block_m/block_n divisible by "
                 "warp_m/warp_n");
  M3XU_CHECK_MSG(config.block_k % inst_k == 0,
                 "TileConfig.block_k must be a multiple of the mode's MMA "
                 "instruction K so chunk rounding boundaries line up");
}

void validate_abft_config(const AbftConfig& abft) {
  M3XU_CHECK_MSG(std::isfinite(abft.tolerance_scale) &&
                     abft.tolerance_scale >= 0.0,
                 "AbftConfig.tolerance_scale must be finite and >= 0 (a NaN "
                 "tolerance never trips the guard, a negative one trips it "
                 "on every tile)");
}

/// Catch nonsensical resilience-knob combinations at the API boundary
/// with a clear message instead of downstream misbehavior (a ladder
/// that can make no attempt at all, a stall watchdog with no deadline
/// backstop, an out-of-range demotion floor).
void validate_resilience_config(const RecoveryPolicy& policy,
                                const ExecRails& rails) {
  M3XU_CHECK_MSG(policy.retries_per_route >= 0,
                 "RecoveryPolicy.retries_per_route must be >= 0");
  M3XU_CHECK_MSG(static_cast<int>(policy.floor) >= 0 &&
                     static_cast<int>(policy.floor) < kRouteCount,
                 "RecoveryPolicy.floor must be a valid Route rung "
                 "(kMicrokernel..kScalarReference)");
  M3XU_CHECK_MSG(policy.retries_per_route > 0 ||
                     policy.floor != Route::kMicrokernel,
                 "RecoveryPolicy.retries_per_route == 0 skips the "
                 "microkernel rung, so floor == kMicrokernel would leave "
                 "the ladder no attempt at all");
  M3XU_CHECK_MSG(rails.deadline_ms >= 0,
                 "ExecRails.deadline_ms must be >= 0 (0 disables the "
                 "deadline watchdog)");
  M3XU_CHECK_MSG(rails.stall_ms >= 0,
                 "ExecRails.stall_ms must be >= 0 (0 disables stall "
                 "detection)");
  M3XU_CHECK_MSG(rails.stall_ms == 0 || rails.deadline_ms > 0,
                 "ExecRails.stall_ms requires a nonzero deadline_ms: stall "
                 "detection without a wall-deadline backstop can absorb an "
                 "arbitrarily slow trickle of progress");
  M3XU_CHECK_MSG(rails.b_cache == nullptr || rails.b_key != 0,
                 "ExecRails.b_cache requires a nonzero b_key identifying "
                 "the B matrix contents");
}

TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecRails& rails, const Matrix<float>& a,
                             const Matrix<float>& b, Matrix<float>& c) {
  M3XU_CHECK_MSG(dispatch.engine != nullptr && dispatch.clean != nullptr,
                 "CompiledDispatch must carry primary and clean engines");
  validate_shapes(a, b, c);
  return run_tiled<float>(dispatch, rails, a, b, c);
}

TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecRails& rails,
                             const Matrix<std::complex<float>>& a,
                             const Matrix<std::complex<float>>& b,
                             Matrix<std::complex<float>>& c) {
  M3XU_CHECK_MSG(dispatch.engine != nullptr && dispatch.clean != nullptr,
                 "CompiledDispatch must carry primary and clean engines");
  validate_shapes(a, b, c);
  return run_tiled<std::complex<float>>(dispatch, rails, a, b, c);
}

double abft_column_tolerance(const core::M3xuEngine& engine,
                             const TileConfig& config, const AbftConfig& abft,
                             const Matrix<float>& a, const Matrix<float>& b,
                             const Matrix<float>& c_in, int bm, int m_eff,
                             int j) {
  const int inst_k = core::shape_for(core::MxuMode::kFp32).k;
  const int k = a.cols();
  const long chunks = chunk_roundings(k, config.block_k, inst_k);
  double mag = 0.0;
  for (int i = 0; i < m_eff; ++i) {
    mag += std::fabs(static_cast<double>(c_in(bm + i, j)));
  }
  for (int kk = 0; kk < k; ++kk) {
    double acol = 0.0;
    for (int i = 0; i < m_eff; ++i) {
      acol += std::fabs(static_cast<double>(a(bm + i, kk)));
    }
    mag += acol * std::fabs(static_cast<double>(b(kk, j)));
  }
  return abft.tolerance_scale * static_cast<double>(chunks) *
         eps_per_chunk(engine.config().accum_prec) * mag;
}

}  // namespace m3xu::gemm
