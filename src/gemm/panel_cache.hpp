// Seam between the tiled driver and an external prepacked-B cache.
//
// Serving workloads are dominated by many GEMMs against a small set of
// shared B matrices (weights), and the pack step re-splits the same B
// panel for every request and every tile row that touches it. A
// PanelCache lets the driver reuse a previously packed B panel keyed by
// (caller-assigned B identity, K-block, column block): tiles in the
// same column of the grid - and requests against the same weights -
// coalesce onto one pack.
//
// The driver only consults the cache when ExecRails::b_key is nonzero
// AND the executing engine carries no fault injector: injected
// staged-panel corruption must never be published into a cache shared
// across requests (it would turn one transient fault into a persistent
// cross-request one). Ladder retries always repack locally for the
// same reason, so recovery is never at the mercy of a cached panel.
//
// Implementations own eviction, thread safety, and integrity: get()
// must return false (a miss) for an entry it cannot vouch for, so a
// corrupted cached panel is repacked instead of served. The concrete
// LRU + checksum implementation lives in src/serve/pack_cache.hpp; the
// driver depends only on this interface. See docs/SERVING.md.
#pragma once

#include <cstdint>

#include "core/packed_panel.hpp"

namespace m3xu::gemm {

/// Identity of one packed B panel: which B matrix (caller-assigned
/// key), which K-block x column-block slice of it, and the panel's
/// dimensions. The driver packs staged B slices of exactly (kc x cols)
/// at matrix offset (k0, col0).
struct PanelKey {
  std::uint64_t b_key = 0;  // ExecRails::b_key of the owning matrix
  int k0 = 0;               // K offset of the staged slice
  int col0 = 0;             // column offset of the staged slice
  int kc = 0;               // staged K extent
  int cols = 0;             // staged column extent
  bool cplx = false;        // fp32c panel (distinct key space)

  friend bool operator==(const PanelKey& a, const PanelKey& b) {
    return a.b_key == b.b_key && a.k0 == b.k0 && a.col0 == b.col0 &&
           a.kc == b.kc && a.cols == b.cols && a.cplx == b.cplx;
  }
};

/// Abstract prepacked-B panel cache (see file comment). All methods
/// must be safe to call concurrently from driver worker threads.
class PanelCache {
 public:
  virtual ~PanelCache() = default;

  /// On a verified hit, copies the cached panel into *out and returns
  /// true. Returns false on a miss or when the entry fails integrity
  /// verification (the implementation should invalidate it so the
  /// repacked panel replaces it).
  virtual bool get_fp32(const PanelKey& key, core::PackedPanelFp32B* out) = 0;
  virtual bool get_fp32c(const PanelKey& key,
                         core::PackedPanelFp32cB* out) = 0;

  /// Publishes a freshly packed panel (copied in).
  virtual void put_fp32(const PanelKey& key,
                        const core::PackedPanelFp32B& panel) = 0;
  virtual void put_fp32c(const PanelKey& key,
                         const core::PackedPanelFp32cB& panel) = 0;
};

}  // namespace m3xu::gemm
