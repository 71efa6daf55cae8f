// Recovery policy for the tiled GEMM driver: the route hierarchy
// doubles as a degradation ladder.
//
// Every route computes bit-identical results by construction (same
// step schedule, same rounding points - verified by the tiled tests),
// so demoting a tile trades only throughput, never numerics. Two
// rungs:
//
//   kMicrokernel      the engine's prepacked GEMM over packed panels
//                     (register-blocked microkernel, or its generic
//                     per-dot loop when a fault injector is attached)
//   kScalarReference  plain per-dot gemm over the staged buffers
//                     (no packing at all - also the allocation-failure
//                     fallback)
//
// On an ABFT detection the driver retries the tile a bounded number of
// times per rung, then demotes one rung and retries again, down to
// RecoveryPolicy::floor. The bottom rung runs on the fault-free engine
// clone (the "trusted scalar unit"), whose deterministic reproduction
// either passes the checksum or proves the mismatch is a tolerance
// artifact - so a full ladder always terminates. retries_per_route = 0
// is the clean-recompute preset: no primary-rung retries, straight to
// the fault-free rung, so every correction is bit-exact. Persistent
// offenders can be remembered in a TileQuarantine so later calls start
// them on a lower rung directly. See docs/RESILIENCE.md.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/cancellation.hpp"

namespace m3xu {
class ThreadPool;
}

namespace m3xu::telemetry {
class TraceContext;  // see telemetry/trace_context.hpp
}

namespace m3xu::gemm {

class PanelCache;  // see gemm/panel_cache.hpp

/// One rung of the demotion ladder, fastest first. Higher enum values
/// are *lower* rungs.
enum class Route : int {
  kMicrokernel = 0,
  kScalarReference = 1,
};

inline constexpr int kRouteCount = 2;

const char* route_name(Route route);

/// Thread-safe per-tile route memory shared across driver calls: a
/// tile that had to demote records its landing rung, and later GEMMs
/// over the same grid start that tile there instead of re-walking the
/// ladder. Keyed by flat tile index (row * grid_n + col), so reuse a
/// quarantine only across calls with the same tile grid.
///
/// The tracked-tile set is bounded: at most `capacity` entries, with
/// least-recently-touched eviction (a lookup hit or a demote both
/// refresh an entry). A long-lived server can therefore share one
/// quarantine per tenant indefinitely - cold entries age out instead
/// of growing the map without limit. Evictions are counted here and in
/// the recovery.quarantine_evictions telemetry counter.
class TileQuarantine {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TileQuarantine(std::size_t capacity = kDefaultCapacity);

  /// Looks up the quarantined rung for `tile`. Returns false (and
  /// leaves *route untouched) when the tile is not quarantined. A hit
  /// refreshes the entry's LRU position.
  bool lookup(long tile, Route* route) const;

  /// Quarantines `tile` at `route`. Only ever lowers (a recorded rung
  /// is never raised back up). Returns true when the entry is new or
  /// was lowered. May evict the least-recently-touched entry when the
  /// quarantine is at capacity.
  bool demote(long tile, Route route);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped by LRU eviction since construction (clear() does
  /// not count).
  std::uint64_t evictions() const;
  void clear();

 private:
  struct Entry {
    Route route;
    std::list<long>::iterator lru_it;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  // Front = most recently touched. splice() moves nodes without
  // invalidating the iterators stored in tiles_.
  mutable std::list<long> lru_;
  std::unordered_map<long, Entry> tiles_;
};

/// How the driver escalates when a tile's ABFT checksum keeps failing.
struct RecoveryPolicy {
  /// Retry attempts on each rung above the floor before demoting one
  /// rung further. Primary-rung retries run through a per-tile retry
  /// injector, so a retry can pass the checksum while still carrying a
  /// sub-tolerance flip. 0 is the clean-recompute preset: no
  /// primary-rung attempts, every detection goes straight to the
  /// fault-free scalar rung and every correction is bit-exact. The
  /// scalar rung always gets max(2, retries_per_route) attempts so its
  /// deterministic reproduction can prove a false alarm.
  int retries_per_route = 1;
  /// Lowest rung the ladder may demote to. Raising the floor above
  /// kScalarReference makes the terminal behavior reachable even for
  /// tolerance artifacts (used by tests); the default floor guarantees
  /// recovery for every transient fault.
  Route floor = Route::kScalarReference;
  /// What happens when the ladder hits the floor without a passing
  /// checksum.
  enum class Terminal {
    kThrow,    // AbftFailure with tile coordinates / route / attempts
    kDegrade,  // keep the suspect tile result, count it, continue
    kPoison,   // overwrite the tile with quiet NaNs, count, continue
  };
  Terminal terminal = Terminal::kThrow;
  /// Root for the per-tile deterministic retry streams: tile t's retry
  /// injector is seeded from Rng(seed ^ injector seed).split(t), so
  /// recovery replays identically regardless of thread interleaving.
  std::uint64_t retry_seed = 0x5eedbed5ull;
};

/// Per-execute guard rails threaded through the driver's parallel_for
/// calls and its per-chunk checkpoints - the request-scoped
/// counterpart of the options a GemmPlan freezes at compile. All
/// default-off: the default ExecRails leaves the driver byte-identical
/// to the unguarded path.
struct ExecRails {
  /// Cooperative cancellation, polled per tile and per staged K-block.
  const CancellationToken* token = nullptr;
  /// Watchdog wall deadline per parallel_for call, in ms (0 = none).
  std::int64_t deadline_ms = 0;
  /// Watchdog no-progress window, in ms (0 = none). Requires a nonzero
  /// deadline_ms as a backstop (validated at execute).
  std::int64_t stall_ms = 0;
  /// Per-tenant cross-call tile memory for this execute (non-owning;
  /// may be null).
  TileQuarantine* quarantine = nullptr;
  /// Optional shared prepacked-B cache (non-owning; may be null), e.g.
  /// the serving PackCache. Takes precedence over a plan's private
  /// store. Only consulted when b_key is nonzero and the engine
  /// carries no fault injector - injected staged-panel corruption must
  /// never enter a cache shared across requests. Ladder retries always
  /// repack locally, so a corrupted cached panel cannot defeat
  /// recovery.
  PanelCache* b_cache = nullptr;
  /// Caller-assigned identity of the B matrix contents for cache keys
  /// (0 = caching disabled for this call). Callers must guarantee two
  /// calls share a b_key only when their B bytes are identical.
  std::uint64_t b_key = 0;
  /// Thread pool the driver partitions the tile grid across (non-
  /// owning; null = ThreadPool::global()). Results are bit-identical
  /// for every pool size - tiles are independent and each tile's
  /// K-chunk schedule is fixed - so this only chooses where the work
  /// runs (benchmark thread sweeps, per-tenant pools).
  ThreadPool* pool = nullptr;
  /// Optional request-scoped trace (non-owning; may be null). The
  /// driver logs tile-level milestones - pack-cache hits, ABFT
  /// detections, ladder retries/demotions, quarantine activity,
  /// terminal degradations - into it and installs it as the active
  /// thread-local context around each tile so the core route dispatch
  /// can attribute route decisions to the request.
  telemetry::TraceContext* trace = nullptr;
};

/// What the recovery layer did during one driver call. Folded into
/// TiledGemmStats and mirrored into telemetry recovery.* counters.
struct RecoveryReport {
  long retries = 0;          // recompute attempts driven by the ladder
  long demotions = 0;        // rung steps taken (summed over tiles)
  long recovered_on[kRouteCount] = {};  // recoveries by landing rung
  long demoted_to[kRouteCount] = {};    // rung arrivals (ladder steps)
  long quarantined = 0;      // tiles newly added/lowered in quarantine
  long quarantine_hits = 0;  // tiles that started on a quarantined rung
  long alloc_fallbacks = 0;  // staged K-blocks that lost their packed
                             // panels (bad_alloc or injected) and ran
                             // the unpacked per-dot fallback
  long degraded_tiles = 0;   // Terminal::kDegrade outcomes
  long poisoned_tiles = 0;   // Terminal::kPoison outcomes
};

}  // namespace m3xu::gemm
