// Hierarchical tiled GEMM driver - the CUTLASS-style host-side
// structure a production M3XU library would ship: threadblock tiles
// staged through an explicit shared-memory buffer model, warp tiles
// carved from the block tile, and the engine's MMA instruction as the
// innermost level. Functionally it produces bit-identical results to
// the flat engine loop (same K-chunk rounding boundaries) - verified
// by tests - while exhibiting the data movement the timing simulator
// models.
//
// The driver can additionally run ABFT-guarded (algorithm-based fault
// tolerance): per threadblock tile it maintains column-checksum
// vectors in double precision, verifies the tile's output against a
// mode-aware ULP tolerance after the mainloop, and on mismatch hands
// the tile to the RecoveryPolicy's retry-then-demote ladder
// (gemm/recovery.hpp), ending in a structured AbftFailure or another
// terminal outcome instead of an abort. With AbftConfig.enable == false
// (the default) the driver is byte-for-byte the unguarded path. See
// docs/FAULT_INJECTION.md for the tolerance derivation.
//
// The one way in is GemmPlan (gemm/plan.hpp): compile validates the
// configs and freezes a CompiledDispatch, and execute runs it through
// tiled_execute.
#pragma once

#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/recovery.hpp"

namespace m3xu::gemm {

struct TileConfig {
  int block_m = 128;
  int block_n = 128;
  int block_k = 32;  // staged K-depth per mainloop iteration
  int warp_m = 64;   // warp tile within the block tile
  int warp_n = 32;

  bool valid() const {
    // Positivity first: the divisibility checks below are UB on a zero
    // warp tile, and plan compile validates caller-supplied tiles, so
    // it can see exactly that kind of malformed input. A validator
    // must be safe on any input.
    if (block_m <= 0 || block_n <= 0 || block_k <= 0 || warp_m <= 0 ||
        warp_n <= 0) {
      return false;
    }
    return block_m % warp_m == 0 && block_n % warp_n == 0;
  }
};

/// ABFT guard configuration for the tiled driver.
struct AbftConfig {
  /// Off by default: the guarded path is opt-in and the unguarded path
  /// is bit-identical to the original driver.
  bool enable = false;
  /// Multiplier on the derived worst-case rounding bound. 1.0 already
  /// covers the bound with 2x headroom; raise it to trade detection
  /// sensitivity for fewer false alarms on adversarial inputs.
  double tolerance_scale = 1.0;
};

/// Thrown when a tile keeps failing its checksum after the demotion
/// ladder is exhausted under a RecoveryPolicy with Terminal::kThrow.
/// Carries the
/// tile's grid coordinates, the last route attempted, and the total
/// recompute attempts, so recovery reports and logs are actionable.
class AbftFailure : public std::runtime_error {
 public:
  explicit AbftFailure(const std::string& what) : std::runtime_error(what) {}
  AbftFailure(const std::string& what, long tile_row, long tile_col,
              Route route, int attempts)
      : std::runtime_error(what),
        tile_row_(tile_row),
        tile_col_(tile_col),
        route_(route),
        attempts_(attempts) {}

  /// Tile-grid coordinates of the failing threadblock tile (row index
  /// bm / block_m, column index bn / block_n); -1 when unknown.
  long tile_row() const { return tile_row_; }
  long tile_col() const { return tile_col_; }
  /// The last ladder rung the tile was attempted on.
  Route route() const { return route_; }
  /// Recompute attempts spent across all rungs before giving up.
  int attempts() const { return attempts_; }

 private:
  long tile_row_ = -1;
  long tile_col_ = -1;
  Route route_ = Route::kMicrokernel;
  int attempts_ = 0;
};

/// Counters the driver reports (cross-checked against the simulator's
/// traffic model in tests).
struct TiledGemmStats {
  long block_tiles = 0;       // threadblock tiles launched
  long mainloop_iterations = 0;  // summed over tiles
  double staged_bytes = 0.0;  // global -> staging traffic
  long mma_instructions = 0;  // engine MMA-shape invocations
  // Per-phase CPU seconds summed over tiles (across pool threads, so
  // they can exceed wall time). Fed by telemetry scoped timers: all
  // zero in M3XU_TELEMETRY=OFF builds.
  double stage_seconds = 0.0;     // global -> staging copies
  double pack_seconds = 0.0;      // lane-operand panel splits
  double mainloop_seconds = 0.0;  // warp-tile MMA loops
  double epilogue_seconds = 0.0;  // C fragment write-back
  double abft_seconds = 0.0;      // checksum verify + recompute
  // ABFT counters; all zero when the guard is disabled or nothing
  // trips the checksum.
  long abft_tile_checks = 0;   // tiles verified
  long abft_detected = 0;      // tiles whose checksum tripped
  long abft_recomputed = 0;    // fault-free recomputes executed
  long abft_recovered = 0;     // tiles recovered by a passing recompute
  long abft_false_alarms = 0;  // deterministic reproduction => tolerance
                               // artifact, original result kept
  // What the recovery ladder did (all zero on clean runs). See
  // gemm/recovery.hpp.
  RecoveryReport recovery;
};

/// Per-call-invariant state the compile-then-execute plan layer
/// (gemm/plan.hpp) freezes once: validated configs, the mode's MMA
/// instruction shape, the rounding bound per K-chunk, and the engine
/// set (primary plus the fault-free clone the terminal scalar rung
/// runs on). Both engine pointers are non-owning; the owning GemmPlan
/// keeps them alive across the execute call.
struct CompiledDispatch {
  TileConfig tile;
  AbftConfig abft;
  RecoveryPolicy policy;
  int inst_m = 0;
  int inst_n = 0;
  int inst_k = 0;
  double eps_chunk = 0.0;
  /// Primary datapath (may carry a fault injector).
  const core::M3xuEngine* engine = nullptr;
  /// Fault-free clone: the terminal scalar rung.
  const core::M3xuEngine* clean = nullptr;
};

/// Worst-case relative rounding error one K-chunk contributes to an
/// output element: half an output-format ULP from the FP32 pack plus
/// the per-step accumulation-register roundings (two steps at
/// 2^(1-accum_prec) each, folded into one term with headroom). The
/// plan layer freezes this into CompiledDispatch.eps_chunk at compile.
double eps_per_chunk(int accum_prec);

/// Config-only validation at plan compile: tile shape sanity (via
/// TileConfig::valid()) and the K-chunk alignment that keeps the
/// hierarchy bit-identical to the flat loop. Fails through
/// M3XU_CHECK_MSG.
void validate_tile_config(const TileConfig& config, int inst_k);

/// Rejects a non-finite or negative tolerance_scale: a NaN tolerance
/// never trips the guard and a negative one trips it on every tile.
/// 0.0 stays valid (it forces detection). Fails through M3XU_CHECK_MSG.
void validate_abft_config(const AbftConfig& abft);

/// Resilience-knob validation at plan compile (against empty rails)
/// and per execute (see tiled_driver.cpp for the rationale per check).
void validate_resilience_config(const RecoveryPolicy& policy,
                                const ExecRails& rails);

/// Executes one GEMM through a pre-compiled dispatch with zero
/// per-call re-derivation: no config validation beyond the operand
/// shape check, no engine clone construction, no eps/instruction-shape
/// lookups. The ExecRails carry the per-execute guard rails (token,
/// deadline, quarantine, B-panel cache).
TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecRails& rails, const Matrix<float>& a,
                             const Matrix<float>& b, Matrix<float>& c);

TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecRails& rails,
                             const Matrix<std::complex<float>>& a,
                             const Matrix<std::complex<float>>& b,
                             Matrix<std::complex<float>>& c);

/// The per-column ABFT detection tolerance the guarded FP32 driver
/// uses for one threadblock tile spanning rows [bm, bm+m_eff) and all
/// of K, evaluated for column `j` of C. Exposed so the fault campaign
/// and the property tests can classify a deviation as
/// guaranteed-detectable (> 2x tolerance) or sub-tolerance. For the
/// campaign's single-tile geometry this is the whole-matrix column.
double abft_column_tolerance(const core::M3xuEngine& engine,
                             const TileConfig& config, const AbftConfig& abft,
                             const Matrix<float>& a, const Matrix<float>& b,
                             const Matrix<float>& c_in, int bm, int m_eff,
                             int j);

}  // namespace m3xu::gemm
