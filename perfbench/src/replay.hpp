// Single-thread replay of the core layer's public stage functions on
// panels shaped like a workload's staged tiles, and the per-call
// prediction of the driver's pack + mainloop CPU that the replay rates
// give.
//
// The tiled driver stages each (tile, K-block) into an A panel of
// m_eff x kc and a B panel of kc x n_eff, packs both, and runs every
// warp tile through M3xuEngine::gemm_fp32{,c}_prepacked: full MR x NR
// register blocks take the microkernel, the remaining strips take the
// per-element route. The replay times exactly those public functions:
//
//   core::pack_fp32{,c}_{a,b}               ns per packed element
//   core::microkernel_fp32{,c}_block        ns per real MAC
//   M3xuEngine::gemm_fp32{,c}_prepacked on a strip narrower than one
//   register block (all outputs per-element)   ns per real MAC
//
// A complex MAC counts as 4 real MACs throughout.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/tiled_driver.hpp"

namespace perfbench {

/// Replay rates for one dtype.
struct StageRates {
  double mk_ns_per_mac = 0.0;
  double edge_ns_per_mac = 0.0;
  double pack_a_ns_per_elem = 0.0;
  double pack_b_ns_per_elem = 0.0;
};

struct ReplayRates {
  StageRates sgemm;
  StageRates cgemm;
};

/// A staged panel shape to replay on.
struct PanelShape {
  int m_eff = 0;
  int n_eff = 0;
  int kc = 0;
};

/// Times the stage functions on seeded panels of the given shapes
/// (one shape per dtype), `reps` rounds each, and returns the median
/// rate per stage. Runs on the calling thread only.
ReplayRates replay_core(const m3xu::core::M3xuConfig& engine_cfg,
                        PanelShape sgemm_shape, PanelShape cgemm_shape,
                        std::uint64_t seed, int reps);

/// Real MACs one GEMM sends through microkernel blocks and through
/// the per-element edge route, computed from the driver's tile
/// hierarchy (block tiles, K-blocks, warp tiles) and the resolved
/// register-block shape.
struct MacSplit {
  double block_macs = 0.0;
  double edge_macs = 0.0;
};
MacSplit mac_split(const m3xu::gemm::TileConfig& tile, int m, int n, int k,
                   bool cplx, int mr, int nr);

/// The staged panel shape that carries most of one GEMM's MACs.
PanelShape dominant_panel(const m3xu::gemm::TileConfig& tile, int m, int n,
                          int k);

/// Predicted pack + mainloop CPU seconds of one call.
double predict_seconds(const StageRates& r, const MacSplit& macs,
                       double a_elems_packed, double b_elems_packed);

}  // namespace perfbench
