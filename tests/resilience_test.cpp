// Tests for the resilient execution layer around the tiled GEMM
// driver: the retry-then-demote ladder, tile quarantine, terminal
// behaviors, allocation-failure fallback, staged-panel faults, the
// NaN-aware checksum, and the clean-recompute preset.
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
#include "plan_gemm.hpp"
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

TEST(TileQuarantine, OnlyLowersAndReportsChanges) {
  TileQuarantine q;
  Route route = Route::kMicrokernel;
  EXPECT_FALSE(q.lookup(7, &route));
  EXPECT_TRUE(q.demote(7, Route::kMicrokernel));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kMicrokernel);
  // Re-recording the same rung is not a change.
  EXPECT_FALSE(q.demote(7, Route::kMicrokernel));
  // Lowering sticks.
  EXPECT_TRUE(q.demote(7, Route::kScalarReference));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kScalarReference);
  // Raising back up is a no-op.
  EXPECT_FALSE(q.demote(7, Route::kMicrokernel));
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
  EXPECT_TRUE(q.demote(3, Route::kScalarReference));
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

TEST(ResilienceValidation, RejectsMalformedPolicyAndExecRails) {
  const ScopedCheckHandler guard(throwing_check_failure_handler);
  const Problem p = make(32, 32, 32, 90);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> out = p.c;

  RecoveryPolicy bad_retries;
  bad_retries.retries_per_route = -1;
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         bad_retries),
               CheckError);

  RecoveryPolicy bad_floor;
  bad_floor.floor = static_cast<Route>(kRouteCount);
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         bad_floor),
               CheckError);

  // The preset skips rung 0, so a floor there leaves no attempt.
  RecoveryPolicy no_attempt;
  no_attempt.retries_per_route = 0;
  no_attempt.floor = Route::kMicrokernel;
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         no_attempt),
               CheckError);

  ExecRails negative_deadline;
  negative_deadline.deadline_ms = -5;
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         RecoveryPolicy{}, negative_deadline),
               CheckError);

  // Stall detection without a wall-deadline backstop is rejected: a
  // trickle of progress would never terminate.
  ExecRails stall_only;
  stall_only.stall_ms = 10;
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         RecoveryPolicy{}, stall_only),
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
  ExecRails keyless_cache;
  keyless_cache.b_cache = &cache;
  EXPECT_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                         RecoveryPolicy{}, keyless_cache),
               CheckError);

  // The valid combinations still run.
  ExecRails ok;
  ok.deadline_ms = 60'000;
  ok.stall_ms = 60'000;
  EXPECT_NO_THROW(plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on(),
                            RecoveryPolicy{}, ok));
}

TEST(Resilience, LadderWalksToScalarAndRecoversBitExact) {
  // Rate-1.0 accumulator faults corrupt every pass through the primary
  // datapath (and every per-tile retry injector), so the ladder must
  // walk all the way down; the scalar rung runs fault-free and its
  // recovery is bit-exact by construction.
  const Problem p = make(32, 32, 64, 77);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> ref = p.c;
  plan_gemm(clean, single_tile_cfg(), p.a, p.b, ref);

  const fault::FaultInjector inj(
      1234, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  const RecoveryPolicy policy;  // defaults: full ladder, throw terminal
  Matrix<float> out = p.c;
  const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), p.a, p.b, out,
                                         abft_on(), policy);
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.recovery.demotions, 1);
  EXPECT_EQ(stats.recovery.demoted_to[static_cast<int>(
                Route::kScalarReference)],
            1);
  EXPECT_EQ(stats.recovery.recovered_on[static_cast<int>(
                Route::kScalarReference)],
            1);
  EXPECT_GE(stats.recovery.retries, 2);
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
  plan_gemm(clean, single_tile_cfg(), p.a, p.b, ref);

  const fault::FaultInjector inj(
      99, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  TileQuarantine quarantine;
  const RecoveryPolicy policy;
  ExecRails rails;
  rails.quarantine = &quarantine;

  Matrix<float> out1 = p.c;
  const TiledGemmStats s1 = plan_gemm(eng, single_tile_cfg(), p.a, p.b, out1,
                                      abft_on(), policy, rails);
  EXPECT_EQ(s1.recovery.demotions, 1);
  EXPECT_EQ(s1.recovery.quarantined, 1);
  EXPECT_EQ(quarantine.size(), 1u);
  EXPECT_TRUE(bitwise_equal(out1, ref));

  // Second call: the tile starts directly on the quarantined scalar
  // rung - still detected (the primary pass is faulty), but recovery
  // needs zero demotions now.
  Matrix<float> out2 = p.c;
  const TiledGemmStats s2 = plan_gemm(eng, single_tile_cfg(), p.a, p.b, out2,
                                      abft_on(), policy, rails);
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
    plan_gemm(eng, single_tile_cfg(), p.a, p.b, out, abft_on(), policy);
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
  const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), p.a, p.b, out,
                                         abft_on(), policy);
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
  const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), p.a, p.b, out,
                                         abft_on(), policy);
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
  plan_gemm(clean, tile, p.a, p.b, ref);

  const fault::FaultInjector inj(
      5, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  Matrix<float> out = p.c;
  const TiledGemmStats stats = plan_gemm(eng, tile, p.a, p.b, out, abft_on(),
                                         RecoveryPolicy{});
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
  plan_gemm(clean, single_tile_cfg(), a, b, ref);

  const fault::FaultInjector inj(
      6, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine eng(cfg);
  Matrix<C> out = c0;
  const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), a, b, out,
                                         abft_on(), RecoveryPolicy{});
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
  plan_gemm(clean, single_tile_cfg(), p.a, p.b, ref);
  long detections = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault::FaultInjector inj(
        seed, fault::SiteRates::only(fault::Site::kStagedPanel, 2e-3));
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    const core::M3xuEngine eng(cfg);
    Matrix<float> out = p.c;
    const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), p.a, p.b,
                                           out, abft, RecoveryPolicy{});
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
      plan_gemm(clean, single_tile_cfg(), p.a, p.b, out, abft_on());
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.abft_false_alarms, 1);
  EXPECT_TRUE(std::isnan(out(3, 4)));
}

TEST(Resilience, CleanRecomputePresetGoesStraightToTheScalarRung) {
  // retries_per_route = 0: a detected tile makes no primary-rung
  // attempt and recovers on the fault-free scalar rung, so every
  // correction is bit-exact against the clean reference.
  const Problem p = make(32, 32, 64, 86);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  Matrix<float> ref = p.c;
  plan_gemm(clean, single_tile_cfg(), p.a, p.b, ref);

  const fault::SiteRates rates =
      fault::SiteRates::only(fault::Site::kAccumulator, 1e-3);
  const RecoveryPolicy preset{.retries_per_route = 0};
  const int scalar = static_cast<int>(Route::kScalarReference);
  long detected = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const fault::FaultInjector inj(seed, rates);
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    const core::M3xuEngine eng(cfg);
    Matrix<float> out = p.c;
    const TiledGemmStats stats = plan_gemm(eng, single_tile_cfg(), p.a, p.b,
                                           out, abft_on(), preset);
    detected += stats.abft_detected;
    // Every detection demotes once and recovers on the first scalar
    // attempt: one attempt per detection leaves none for rung 0.
    EXPECT_EQ(stats.recovery.demoted_to[scalar], stats.abft_detected);
    EXPECT_EQ(stats.recovery.recovered_on[scalar], stats.abft_detected);
    EXPECT_EQ(stats.recovery.retries, stats.abft_detected);
    if (stats.abft_detected > 0) {
      EXPECT_TRUE(bitwise_equal(out, ref)) << "seed " << seed;
    }
  }
  EXPECT_GT(detected, 0) << "the injection rate must trip the guard";
}

TEST(Resilience, CleanResilientPathBitIdenticalToUnguarded) {
  // The full resilient configuration on a clean engine changes nothing
  // about the numerics.
  const Problem p = make(64, 48, 96, 87);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const TileConfig tile{32, 32, 32, 16, 16};
  Matrix<float> ref = p.c;
  plan_gemm(clean, tile, p.a, p.b, ref);
  TileQuarantine quarantine;
  CancellationToken token;
  ExecRails rails;
  rails.quarantine = &quarantine;
  rails.token = &token;
  rails.deadline_ms = 60'000;
  rails.stall_ms = 60'000;
  Matrix<float> out = p.c;
  const TiledGemmStats stats = plan_gemm(clean, tile, p.a, p.b, out,
                                         abft_on(), RecoveryPolicy{}, rails);
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
  ExecRails exec;
  exec.token = &token;
  Matrix<float> out = p.c;
  EXPECT_THROW(plan_gemm(clean, tile, p.a, p.b, out, abft_on(),
                         RecoveryPolicy{}, exec),
               CancelledError);
}

}  // namespace
}  // namespace m3xu::gemm
