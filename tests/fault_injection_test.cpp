// Tests for the fault-injection framework and the ABFT guard: injector
// determinism, the detect-or-below-tolerance property for single-bit
// flips, the detect/recompute recovery protocol, and the campaign
// runner's reproducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fp/unpacked.hpp"
#include "gemm/matrix.hpp"
#include "gemm/reference.hpp"
#include "plan_gemm.hpp"

namespace m3xu::fault {
namespace {

TEST(FaultInjector, ZeroRateNeverInjects) {
  const FaultInjector inj(123, SiteRates{});
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(inj.corrupt(Site::kOperandA, 0xabcull, 12), 0xabcull);
  }
  EXPECT_EQ(inj.total_injected(), 0u);
  EXPECT_EQ(inj.opportunities(Site::kOperandA), 10'000u);
}

TEST(FaultInjector, RateOneAlwaysFlipsExactlyOneBit) {
  const FaultInjector inj(7, SiteRates::uniform(1.0));
  for (int i = 0; i < 1'000; ++i) {
    const std::uint64_t out = inj.corrupt(Site::kPartialProduct, 0xfffull, 24);
    const std::uint64_t diff = out ^ 0xfffull;
    EXPECT_NE(diff, 0u);
    EXPECT_EQ(diff & (diff - 1), 0u);  // exactly one bit
    EXPECT_LT(highest_bit(diff), 24);
  }
  EXPECT_EQ(inj.injected(Site::kPartialProduct), 1'000u);
}

TEST(FaultInjector, SameSeedReplaysIdenticalFaults) {
  const SiteRates rates = SiteRates::uniform(0.01);
  const FaultInjector a(42, rates), b(42, rates);
  for (int i = 0; i < 50'000; ++i) {
    const Site site = static_cast<Site>(i % kSiteCount);
    EXPECT_EQ(a.corrupt(site, 0x5a5a5ull, 24), b.corrupt(site, 0x5a5a5ull, 24));
  }
  EXPECT_GT(a.total_injected(), 0u);
  EXPECT_EQ(a.log(), b.log());
}

TEST(FaultInjector, SeedsDecorrelate) {
  const SiteRates rates = SiteRates::uniform(0.01);
  const FaultInjector a(1, rates), b(2, rates);
  for (int i = 0; i < 50'000; ++i) {
    a.corrupt(Site::kOperandB, 0x7ffull, 12);
    b.corrupt(Site::kOperandB, 0x7ffull, 12);
  }
  EXPECT_GT(a.total_injected(), 0u);
  EXPECT_GT(b.total_injected(), 0u);
  EXPECT_NE(a.log(), b.log());
}

TEST(FaultInjector, CorruptUnpackedStaysNormalizedOrZero) {
  const FaultInjector inj(99, SiteRates::uniform(1.0));
  Rng rng(1234);
  for (int i = 0; i < 10'000; ++i) {
    const fp::Unpacked in = fp::unpack(rng.scaled_float());
    if (in.cls != fp::FpClass::kNormal) continue;
    const fp::Unpacked out = inj.corrupt_unpacked(Site::kAccumulator, in, 48);
    if (out.cls == fp::FpClass::kZero) continue;
    ASSERT_EQ(out.cls, fp::FpClass::kNormal);
    // Normalized: the leading significand bit sits at kSigTop.
    EXPECT_EQ(highest_bit(out.sig), fp::Unpacked::kSigTop);
  }
}

TEST(FaultInjector, SpecialsPassThroughButConsumeOpportunity) {
  const FaultInjector inj(5, SiteRates::uniform(1.0));
  fp::Unpacked inf;
  inf.cls = fp::FpClass::kInf;
  const fp::Unpacked out = inj.corrupt_unpacked(Site::kAccumulator, inf, 48);
  EXPECT_EQ(out.cls, fp::FpClass::kInf);
  EXPECT_EQ(inj.opportunities(Site::kAccumulator), 1u);
  EXPECT_EQ(inj.injected(Site::kAccumulator), 0u);
}

// --- ABFT property tests ---------------------------------------------

struct Problem {
  gemm::Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{gemm::Matrix<float>(m, k), gemm::Matrix<float>(k, n),
            gemm::Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

// Every injected single-bit flip is either detected by the ABFT guard
// or its effect on every output element stays below twice the mode's
// column tolerance (i.e. provably inside the legitimate rounding band).
// Swept across all four sites.
TEST(AbftProperty, FlipDetectedOrBelowTolerance) {
  constexpr int m = 32, n = 32, k = 64;
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  const gemm::AbftConfig abft{true, 1.0};
  const core::M3xuEngine clean;
  int injected_trials = 0, detected_trials = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Problem p = make(m, n, k, 9000 + trial);
    gemm::Matrix<float> ref = p.c;
    gemm::plan_gemm(clean, tile, p.a, p.b, ref);
    const Site site = static_cast<Site>(trial % kSiteCount);
    const std::uint64_t seed = 777 + trial;
    // Low rate: typically a handful of flips per run (a 32x32x64 run
    // offers a few hundred thousand operand opportunities).
    const SiteRates rates = SiteRates::only(site, 3e-5);

    const FaultInjector raw_inj(seed, rates);
    core::M3xuConfig cfg;
    cfg.injector = &raw_inj;
    const core::M3xuEngine faulty(cfg);
    gemm::Matrix<float> raw = p.c;
    gemm::plan_gemm(faulty, tile, p.a, p.b, raw);
    if (raw_inj.total_injected() == 0) continue;
    ++injected_trials;

    const FaultInjector guard_inj(seed, rates);
    core::M3xuConfig gcfg;
    gcfg.injector = &guard_inj;
    const core::M3xuEngine guarded(gcfg);
    gemm::Matrix<float> fixed = p.c;
    const gemm::TiledGemmStats stats =
        gemm::plan_gemm(guarded, tile, p.a, p.b, fixed, abft);
    // The guarded pass replays the identical flips.
    EXPECT_EQ(guard_inj.log(), raw_inj.log());
    detected_trials += stats.abft_detected > 0 ? 1 : 0;

    for (int j = 0; j < n; ++j) {
      const double tol = gemm::abft_column_tolerance(clean, tile, abft, p.a,
                                                     p.b, p.c, 0, m, j);
      for (int i = 0; i < m; ++i) {
        const double dev = std::fabs(static_cast<double>(raw(i, j)) -
                                     static_cast<double>(ref(i, j)));
        if (dev > 2.0 * tol) {
          // Guaranteed-detectable deviation: the guard must have seen it.
          ASSERT_GT(stats.abft_detected, 0)
              << "escaped SDC at (" << i << "," << j << "), trial " << trial;
          // And the recompute must restore the fault-free result.
          ASSERT_EQ(bits_of(fixed(i, j)), bits_of(ref(i, j)));
        }
      }
    }
    if (stats.abft_detected > 0) {
      // A detected tile is recomputed fault-free: full bitwise match.
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(bits_of(fixed(i, j)), bits_of(ref(i, j)));
        }
      }
    }
  }
  // The sweep must actually exercise the machinery.
  EXPECT_GT(injected_trials, 10);
  EXPECT_GT(detected_trials, 0);
}

TEST(Abft, RecoversFromHeavyInjection) {
  const Problem p = make(48, 48, 96, 3111);
  const gemm::TileConfig tile{48, 48, 32, 16, 16};
  const core::M3xuEngine clean;
  gemm::Matrix<float> ref = p.c;
  gemm::plan_gemm(clean, tile, p.a, p.b, ref);

  const FaultInjector inj(21, SiteRates::uniform(1e-4));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const core::M3xuEngine faulty(cfg);
  gemm::Matrix<float> c = p.c;
  const gemm::TiledGemmStats stats =
      gemm::plan_gemm(faulty, tile, p.a, p.b, c, gemm::AbftConfig{true, 1.0});
  ASSERT_GT(inj.total_injected(), 0u);
  ASSERT_GT(stats.abft_detected, 0);
  EXPECT_EQ(stats.abft_recovered, stats.abft_detected);
  for (int i = 0; i < 48; ++i) {
    for (int j = 0; j < 48; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j))) << i << "," << j;
    }
  }
}

TEST(Abft, ZeroToleranceCleanEngineIsFalseAlarm) {
  // tolerance_scale = 0 makes even legitimate rounding trip the check.
  // With a fault-free engine the recompute reproduces the same bits,
  // which the driver classifies as a tolerance artifact and accepts.
  const Problem p = make(32, 32, 32, 3333);
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  const core::M3xuEngine clean;
  gemm::Matrix<float> ref = p.c;
  gemm::plan_gemm(clean, tile, p.a, p.b, ref);
  gemm::Matrix<float> c = p.c;
  const gemm::TiledGemmStats stats = gemm::plan_gemm(
      clean, tile, p.a, p.b, c, gemm::AbftConfig{true, 0.0});
  EXPECT_GT(stats.abft_detected, 0);
  EXPECT_GT(stats.abft_false_alarms, 0);
  EXPECT_EQ(stats.abft_recovered, 0);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j)));
    }
  }
}

// --- Campaign runner --------------------------------------------------

CampaignConfig small_campaign() {
  CampaignConfig config;
  config.m = config.n = 16;
  config.k = 32;
  config.tile = gemm::TileConfig{16, 16, 16, 16, 16};
  config.trials = 4;
  config.sites = {Site::kOperandA, Site::kAccumulator};
  config.rates = {1e-4};
  return config;
}

TEST(Campaign, SameSeedIsBitReproducible) {
  const CampaignResult r1 = run_campaign(small_campaign());
  const CampaignResult r2 = run_campaign(small_campaign());
  ASSERT_EQ(r1.cells.size(), r2.cells.size());
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    EXPECT_EQ(r1.cells[i].site, r2.cells[i].site);
    EXPECT_EQ(r1.cells[i].faults_injected, r2.cells[i].faults_injected);
    EXPECT_EQ(r1.cells[i].perturbed, r2.cells[i].perturbed);
    EXPECT_EQ(r1.cells[i].corrupting, r2.cells[i].corrupting);
    EXPECT_EQ(r1.cells[i].detected, r2.cells[i].detected);
    EXPECT_EQ(r1.cells[i].corrected, r2.cells[i].corrected);
    EXPECT_EQ(r1.cells[i].escaped_sdc, r2.cells[i].escaped_sdc);
  }
  EXPECT_EQ(to_json(r1), to_json(r2));
}

TEST(Campaign, NoEscapedSdcAndCoherentCounts) {
  CampaignConfig config = small_campaign();
  config.trials = 8;
  const CampaignResult r = run_campaign(config);
  ASSERT_EQ(r.cells.size(), 2u);
  for (const CampaignCell& cell : r.cells) {
    EXPECT_EQ(cell.trials, 8);
    EXPECT_GE(cell.perturbed, cell.corrupting);
    EXPECT_LE(cell.escaped_sdc, cell.corrupting);
    EXPECT_LE(cell.corrected, cell.detected);
    EXPECT_EQ(cell.escaped_sdc, 0) << site_name(cell.site);
    EXPECT_EQ(cell.corrected, cell.detected) << site_name(cell.site);
  }
  EXPECT_DOUBLE_EQ(r.overall_detection_rate(), 1.0);
}

TEST(Campaign, RejectsMultiTileGeometry) {
  CampaignConfig config = small_campaign();
  config.m = 64;  // > tile.block_m: fault replay would depend on
                  // scheduling order
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  EXPECT_THROW(run_campaign(config), CheckError);
}

TEST(Campaign, RejectsNonFiniteOrNegativeToleranceScale) {
  // A NaN tolerance never trips the guard (every trial would read as
  // undetected-but-clean) and a negative one trips it on every tile.
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    CampaignConfig config = small_campaign();
    config.abft.tolerance_scale = bad;
    EXPECT_THROW(run_campaign(config), CheckError) << bad;
  }
}

}  // namespace
}  // namespace m3xu::fault
