// Tests for the resilient execution layer around the tiled GEMM
// driver: the retry-then-demote ladder, tile quarantine, terminal
// behaviors, allocation-failure fallback, staged-panel faults, the
// NaN-aware checksum, and legacy-protocol equivalence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::gemm {
namespace {

std::uint32_t bits32(float v) { return std::bit_cast<std::uint32_t>(v); }

bool bitwise_equal(const Matrix<float>& x, const Matrix<float>& y) {
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      if (bits32(x(i, j)) != bits32(y(i, j))) return false;
    }
  }
  return true;
}

struct Problem {
  Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{Matrix<float>(m, k), Matrix<float>(k, n), Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

TileConfig single_tile_cfg() { return TileConfig{32, 32, 32, 16, 16}; }

AbftConfig abft_on() {
  AbftConfig abft;
  abft.enable = true;
  return abft;
}

long total_recovered(const RecoveryReport& rec) {
  long total = 0;
  for (int r = 0; r < kRouteCount; ++r) total += rec.recovered_on[r];
  return total;
}

TEST(TileQuarantine, OnlyLowersAndReportsChanges) {
  TileQuarantine q;
  Route route = Route::kMicrokernel;
  EXPECT_FALSE(q.lookup(7, &route));
  EXPECT_TRUE(q.demote(7, Route::kGenericPerDot));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kGenericPerDot);
  // Raising back up is a no-op.
  EXPECT_FALSE(q.demote(7, Route::kMicrokernel));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kGenericPerDot);
  // Lowering further sticks.
  EXPECT_TRUE(q.demote(7, Route::kScalarReference));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kScalarReference);
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.lookup(7, &route));
}

TEST(TileQuarantine, CapacityBoundsEntriesWithLruEviction) {
  TileQuarantine q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.demote(1, Route::kMicrokernel));
  EXPECT_TRUE(q.demote(2, Route::kMicrokernel));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.evictions(), 0u);
  // Refresh tile 1 so tile 2 is the LRU victim of the next insert.
  Route route = Route::kMicrokernel;
  EXPECT_TRUE(q.lookup(1, &route));
  EXPECT_TRUE(q.demote(3, Route::kGenericPerDot));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.evictions(), 1u);
  EXPECT_TRUE(q.lookup(1, &route));
  EXPECT_FALSE(q.lookup(2, &route));  // evicted
  EXPECT_TRUE(q.lookup(3, &route));
}

#if M3XU_TELEMETRY_ENABLED
TEST(TileQuarantine, EvictionCounterIsExported) {
  const telemetry::Snapshot before = telemetry::snapshot();
  TileQuarantine q(1);
  q.demote(1, Route::kMicrokernel);
  q.demote(2, Route::kMicrokernel);  // evicts tile 1
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "recovery.quarantine_evictions"), 1u);
}
#endif

TEST(ResilienceValidation, RejectsMalformedPolicyAndExecConfigs) {
  const ScopedCheckHandler guard(throwing_check_failure_handler);
  const Problem p = make(32, 32, 32, 90);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> out = p.c;

  RecoveryPolicy bad_retries;
  bad_retries.retries_per_route = -1;
  EXPECT_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(), bad_retries,
                           ExecConfig{}, p.a, p.b, out),
               CheckError);

  RecoveryPolicy bad_floor;
  bad_floor.floor = static_cast<Route>(kRouteCount);
  EXPECT_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(), bad_floor,
                           ExecConfig{}, p.a, p.b, out),
               CheckError);

  ExecConfig negative_deadline;
  negative_deadline.deadline_ms = -5;
  EXPECT_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(),
                           RecoveryPolicy{}, negative_deadline, p.a, p.b,
                           out),
               CheckError);

  // Stall detection without a wall-deadline backstop is rejected: a
  // trickle of progress would never terminate.
  ExecConfig stall_only;
  stall_only.stall_ms = 10;
  EXPECT_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(),
                           RecoveryPolicy{}, stall_only, p.a, p.b, out),
               CheckError);

  // A panel cache requires a nonzero B-identity key.
  struct NullCache final : PanelCache {
    bool get_fp32(const PanelKey&, core::PackedPanelFp32B*) override {
      return false;
    }
    bool get_fp32c(const PanelKey&, core::PackedPanelFp32cB*) override {
      return false;
    }
    void put_fp32(const PanelKey&, const core::PackedPanelFp32B&) override {}
    void put_fp32c(const PanelKey&,
                   const core::PackedPanelFp32cB&) override {}
  };
  NullCache cache;
  ExecConfig keyless_cache;
  keyless_cache.b_cache = &cache;
  EXPECT_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(),
                           RecoveryPolicy{}, keyless_cache, p.a, p.b, out),
               CheckError);

  // The valid combinations still run.
  ExecConfig ok;
  ok.deadline_ms = 60'000;
  ok.stall_ms = 60'000;
  EXPECT_NO_THROW(tiled_sgemm(clean, single_tile_cfg(), abft_on(),
                              RecoveryPolicy{}, ok, p.a, p.b, out));
}

TEST(Resilience, LadderWalksToScalarAndRecoversBitExact) {
  // Rate-1.0 accumulator faults corrupt every pass through the primary
  // datapath (and every per-tile retry injector), so the ladder must
  // walk all the way down; the scalar rung runs fault-free and its
  // recovery is bit-exact by construction.
  const Problem p = make(32, 32, 64, 77);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> ref = p.c;
  tiled_sgemm(clean, single_tile_cfg(), p.a, p.b, ref);

  const fault::FaultInjector inj(
      1234, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  const RecoveryPolicy policy;  // defaults: full ladder, throw terminal
  Matrix<float> out = p.c;
  const TiledGemmStats stats = tiled_sgemm(eng, single_tile_cfg(), abft_on(),
                                           policy, ExecConfig{}, p.a, p.b,
                                           out);
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.recovery.demotions, 2);
  EXPECT_EQ(stats.recovery.demoted_to[static_cast<int>(
                Route::kScalarReference)],
            1);
  EXPECT_EQ(stats.recovery.recovered_on[static_cast<int>(
                Route::kScalarReference)],
            1);
  EXPECT_GE(stats.recovery.retries, 3);
  EXPECT_TRUE(bitwise_equal(out, ref));
  // Every detection resolves one way or another under the default
  // ladder (throw terminal would have escaped the call).
  EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
            stats.abft_detected);
}

TEST(Resilience, QuarantineSkipsTheLadderOnTheNextCall) {
  const Problem p = make(32, 32, 64, 78);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> ref = p.c;
  tiled_sgemm(clean, single_tile_cfg(), p.a, p.b, ref);

  const fault::FaultInjector inj(
      99, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  TileQuarantine quarantine;
  RecoveryPolicy policy;
  policy.quarantine = &quarantine;

  Matrix<float> out1 = p.c;
  const TiledGemmStats s1 = tiled_sgemm(eng, single_tile_cfg(), abft_on(),
                                        policy, ExecConfig{}, p.a, p.b, out1);
  EXPECT_EQ(s1.recovery.demotions, 2);
  EXPECT_EQ(s1.recovery.quarantined, 1);
  EXPECT_EQ(quarantine.size(), 1u);
  EXPECT_TRUE(bitwise_equal(out1, ref));

  // Second call: the tile starts directly on the quarantined scalar
  // rung - still detected (the primary pass is faulty), but recovery
  // needs zero demotions now.
  Matrix<float> out2 = p.c;
  const TiledGemmStats s2 = tiled_sgemm(eng, single_tile_cfg(), abft_on(),
                                        policy, ExecConfig{}, p.a, p.b, out2);
  EXPECT_EQ(s2.recovery.quarantine_hits, 1);
  EXPECT_EQ(s2.recovery.demotions, 0);
  EXPECT_TRUE(bitwise_equal(out2, ref));
}

TEST(Resilience, TerminalThrowCarriesTileAndRouteContext) {
  // Floor at the top rung with persistent faults: the ladder cannot
  // demote, so the terminal fires after retries_per_route attempts.
  const Problem p = make(32, 32, 64, 79);
  const fault::FaultInjector inj(
      7, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  RecoveryPolicy policy;
  policy.floor = Route::kMicrokernel;
  policy.retries_per_route = 2;
  Matrix<float> out = p.c;
  try {
    tiled_sgemm(eng, single_tile_cfg(), abft_on(), policy, ExecConfig{}, p.a,
                p.b, out);
    FAIL() << "expected AbftFailure";
  } catch (const AbftFailure& e) {
    EXPECT_EQ(e.tile_row(), 0);
    EXPECT_EQ(e.tile_col(), 0);
    EXPECT_EQ(e.route(), Route::kMicrokernel);
    EXPECT_EQ(e.attempts(), 2);
  }
}

TEST(Resilience, TerminalPoisonOverwritesTheTileWithNaNs) {
  const Problem p = make(32, 32, 64, 80);
  const fault::FaultInjector inj(
      8, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  RecoveryPolicy policy;
  policy.floor = Route::kMicrokernel;
  policy.terminal = RecoveryPolicy::Terminal::kPoison;
  Matrix<float> out = p.c;
  const TiledGemmStats stats = tiled_sgemm(eng, single_tile_cfg(), abft_on(),
                                           policy, ExecConfig{}, p.a, p.b,
                                           out);
  EXPECT_EQ(stats.recovery.poisoned_tiles, 1);
  EXPECT_EQ(stats.recovery.degraded_tiles, 0);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      ASSERT_TRUE(std::isnan(out(i, j))) << i << "," << j;
    }
  }
}

TEST(Resilience, TerminalDegradeKeepsTheSuspectResult) {
  const Problem p = make(32, 32, 64, 81);
  const fault::FaultInjector inj(
      9, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  RecoveryPolicy policy;
  policy.floor = Route::kMicrokernel;
  policy.terminal = RecoveryPolicy::Terminal::kDegrade;
  Matrix<float> out = p.c;
  const TiledGemmStats stats = tiled_sgemm(eng, single_tile_cfg(), abft_on(),
                                           policy, ExecConfig{}, p.a, p.b,
                                           out);
  EXPECT_EQ(stats.recovery.degraded_tiles, 1);
  EXPECT_EQ(stats.recovery.poisoned_tiles, 0);
}

TEST(Resilience, AllocFailureFallsBackBitExact) {
  // Every staged K-block loses its packed panels; the per-dot fallback
  // must deliver the same bits with no ABFT involvement.
  const Problem p = make(64, 64, 64, 82);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const TileConfig tile{32, 32, 32, 16, 16};  // 2x2 tile grid
  Matrix<float> ref = p.c;
  tiled_sgemm(clean, tile, p.a, p.b, ref);

  const fault::FaultInjector inj(
      5, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  Matrix<float> out = p.c;
  const TiledGemmStats stats = tiled_sgemm(eng, tile, abft_on(),
                                           RecoveryPolicy{}, ExecConfig{},
                                           p.a, p.b, out);
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(stats.abft_detected, 0);
  EXPECT_EQ(stats.recovery.alloc_fallbacks, stats.mainloop_iterations);
}

TEST(Resilience, AllocFailureFallsBackBitExactComplex) {
  using C = std::complex<float>;
  Matrix<C> a(32, 64), b(64, 32), c0(32, 32);
  Rng rng(83);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<C> ref = c0;
  tiled_cgemm(clean, single_tile_cfg(), a, b, ref);

  const fault::FaultInjector inj(
      6, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  Matrix<C> out = c0;
  const TiledGemmStats stats = tiled_cgemm(eng, single_tile_cfg(), abft_on(),
                                           RecoveryPolicy{}, ExecConfig{}, a,
                                           b, out);
  EXPECT_GT(stats.recovery.alloc_fallbacks, 0);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits32(out(i, j).real()), bits32(ref(i, j).real()));
      ASSERT_EQ(bits32(out(i, j).imag()), bits32(ref(i, j).imag()));
    }
  }
}

TEST(Resilience, StagedPanelFaultsNeverEscapeAboveTolerance) {
  // Staged-panel flips may land below the checksum tolerance (benign)
  // or above it (must be detected + repaired). Either way the result
  // the driver returns must never deviate beyond the detectability
  // bar.
  const Problem p = make(32, 32, 64, 84);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const AbftConfig abft = abft_on();
  Matrix<float> ref = p.c;
  tiled_sgemm(clean, single_tile_cfg(), p.a, p.b, ref);
  long detections = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault::FaultInjector inj(
        seed, fault::SiteRates::only(fault::Site::kStagedPanel, 2e-3));
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    const core::M3xuEngine eng(cfg);
    Matrix<float> out = p.c;
    const TiledGemmStats stats = tiled_sgemm(eng, single_tile_cfg(), abft,
                                             RecoveryPolicy{}, ExecConfig{},
                                             p.a, p.b, out);
    detections += stats.abft_detected;
    EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
              stats.abft_detected);
    for (int j = 0; j < 32; ++j) {
      const double limit = 2.0 * abft_column_tolerance(
                                     clean, single_tile_cfg(), abft, p.a,
                                     p.b, p.c, 0, 32, j);
      for (int i = 0; i < 32; ++i) {
        const double dev = std::fabs(static_cast<double>(out(i, j)) -
                                     static_cast<double>(ref(i, j)));
        ASSERT_TRUE(dev <= limit) << "seed " << seed << " at " << i << ","
                                  << j;
      }
    }
  }
  // At a 2e-3 per-scalar rate over 12 seeds the guard must have seen
  // real work (each pass stages ~6k scalars).
  EXPECT_GT(detections, 0);
}

TEST(Resilience, NaNInputTripsTheChecksumAsFalseAlarmNotEscape) {
  // A NaN residual fails the negated-<= comparison, so poisoned
  // inputs surface as a detection; the clean reproduction then proves
  // the false alarm and the NaN propagates honestly.
  Problem p = make(32, 32, 64, 85);
  p.c(3, 4) = std::numeric_limits<float>::quiet_NaN();
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> out = p.c;
  const TiledGemmStats stats =
      tiled_sgemm(clean, single_tile_cfg(), abft_on(), p.a, p.b, out);
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.abft_false_alarms, 1);
  EXPECT_TRUE(std::isnan(out(3, 4)));
}

TEST(Resilience, LegacyModeMatchesLegacyOverloadUnderInjection) {
  // policy.demote == false must reproduce the legacy detect/recompute
  // protocol bit-for-bit, including the stats it reports.
  const Problem p = make(32, 32, 64, 86);
  const fault::SiteRates rates =
      fault::SiteRates::only(fault::Site::kOperandA, 1e-3);

  const fault::FaultInjector inj_a(42, rates);
  core::M3xuConfig cfg_a;
  cfg_a.injector = &inj_a;
  const core::M3xuEngine eng_a(cfg_a);
  Matrix<float> out_a = p.c;
  const TiledGemmStats legacy =
      tiled_sgemm(eng_a, single_tile_cfg(), abft_on(), p.a, p.b, out_a);

  const fault::FaultInjector inj_b(42, rates);
  core::M3xuConfig cfg_b;
  cfg_b.injector = &inj_b;
  const core::M3xuEngine eng_b(cfg_b);
  RecoveryPolicy no_ladder;
  no_ladder.demote = false;
  Matrix<float> out_b = p.c;
  const TiledGemmStats compat = tiled_sgemm(eng_b, single_tile_cfg(),
                                            abft_on(), no_ladder,
                                            ExecConfig{}, p.a, p.b, out_b);

  EXPECT_TRUE(bitwise_equal(out_a, out_b));
  EXPECT_EQ(legacy.abft_detected, compat.abft_detected);
  EXPECT_EQ(legacy.abft_recomputed, compat.abft_recomputed);
  EXPECT_EQ(legacy.abft_recovered, compat.abft_recovered);
  EXPECT_EQ(legacy.abft_false_alarms, compat.abft_false_alarms);
  // Legacy mode never engages the ladder.
  EXPECT_EQ(legacy.recovery.retries, 0);
  EXPECT_EQ(compat.recovery.retries, 0);
  EXPECT_EQ(compat.recovery.demotions, 0);
  EXPECT_EQ(total_recovered(compat.recovery), 0);
}

TEST(Resilience, CleanResilientPathBitIdenticalToUnguarded) {
  // The full resilient configuration on a clean engine changes nothing
  // about the numerics.
  const Problem p = make(64, 48, 96, 87);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const TileConfig tile{32, 32, 32, 16, 16};
  Matrix<float> ref = p.c;
  tiled_sgemm(clean, tile, p.a, p.b, ref);
  TileQuarantine quarantine;
  RecoveryPolicy policy;
  policy.quarantine = &quarantine;
  CancellationToken token;
  ExecConfig exec;
  exec.token = &token;
  exec.deadline_ms = 60'000;
  exec.stall_ms = 60'000;
  Matrix<float> out = p.c;
  const TiledGemmStats stats =
      tiled_sgemm(clean, tile, abft_on(), policy, exec, p.a, p.b, out);
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(stats.abft_detected, 0);
  EXPECT_EQ(stats.recovery.retries, 0);
  EXPECT_EQ(quarantine.size(), 0u);
}

TEST(Resilience, CancellationTokenAbortsTheDriver) {
  const Problem p = make(96, 96, 64, 88);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const TileConfig tile{32, 32, 32, 16, 16};
  CancellationToken token;
  token.request_cancel("test abort");
  ExecConfig exec;
  exec.token = &token;
  Matrix<float> out = p.c;
  EXPECT_THROW(tiled_sgemm(clean, tile, abft_on(), RecoveryPolicy{}, exec,
                           p.a, p.b, out),
               CancelledError);
}

}  // namespace
}  // namespace m3xu::gemm
