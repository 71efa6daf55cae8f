// Tests for the checksummed LRU prepacked-B panel cache (PackCache):
// LRU eviction order, corruption detection -> drop -> repack, hit/miss
// accounting, bit-identical cached-vs-uncached GEMM results through the
// driver, and concurrent multi-tenant access (tsan-labeled).
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
#include "gemm/matrix.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/recovery.hpp"
#include "serve/pack_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "plan_gemm.hpp"

namespace m3xu::serve {
namespace {

/// A small deterministic FP32 B panel packed from ramp data; `salt`
/// varies the contents per key so distinct panels stay distinct.
core::PackedPanelFp32B make_panel(int salt) {
  const int k = 8, cols = 4;
  std::vector<float> b(static_cast<std::size_t>(k) * cols);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.25f * static_cast<float>(i + 1) + static_cast<float>(salt);
  }
  core::PackedPanelFp32B panel;
  core::pack_fp32_b(b.data(), cols, k, cols, panel);
  return panel;
}

gemm::PanelKey key_for(std::uint64_t b_key, int k0 = 0) {
  return gemm::PanelKey{b_key, k0, 0, 8, 4, false};
}

bool lanes_equal(const std::vector<core::LaneOperand>& x,
                 const std::vector<core::LaneOperand>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].cls != y[i].cls || x[i].sign != y[i].sign ||
        x[i].exp2 != y[i].exp2 || x[i].sig != y[i].sig) {
      return false;
    }
  }
  return true;
}

TEST(PackCache, RoundTripsAPanelBitExactly) {
  PackCache cache(8);
  const core::PackedPanelFp32B panel = make_panel(1);
  cache.put_fp32(key_for(1), panel);
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get_fp32(key_for(1), &out));
  EXPECT_EQ(out.k, panel.k);
  EXPECT_EQ(out.cols, panel.cols);
  EXPECT_EQ(out.has_special, panel.has_special);
  EXPECT_TRUE(lanes_equal(out.like, panel.like));
  EXPECT_TRUE(lanes_equal(out.swapped, panel.swapped));
  EXPECT_TRUE(lanes_equal(out.cls, panel.cls));
  EXPECT_EQ(out.special, panel.special);
}

TEST(PackCache, MissOnUnknownKeyAndCountersTrack) {
  PackCache cache(8);
  core::PackedPanelFp32B out;
  EXPECT_FALSE(cache.get_fp32(key_for(42), &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.put_fp32(key_for(42), make_panel(0));
  EXPECT_TRUE(cache.get_fp32(key_for(42), &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PackCache, EvictsLeastRecentlyUsedFirst) {
  PackCache cache(3);
  cache.put_fp32(key_for(1), make_panel(1));
  cache.put_fp32(key_for(2), make_panel(2));
  cache.put_fp32(key_for(3), make_panel(3));
  ASSERT_EQ(cache.size(), 3u);
  // Touch key 1 so key 2 becomes the LRU victim.
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get_fp32(key_for(1), &out));
  cache.put_fp32(key_for(4), make_panel(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get_fp32(key_for(1), &out));
  EXPECT_FALSE(cache.get_fp32(key_for(2), &out));  // evicted
  EXPECT_TRUE(cache.get_fp32(key_for(3), &out));
  EXPECT_TRUE(cache.get_fp32(key_for(4), &out));
}

TEST(PackCache, ReinsertRefreshesInsteadOfEvicting) {
  PackCache cache(2);
  cache.put_fp32(key_for(1), make_panel(1));
  cache.put_fp32(key_for(2), make_panel(2));
  // Re-putting an existing key replaces in place: no eviction.
  cache.put_fp32(key_for(1), make_panel(9));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get_fp32(key_for(1), &out));
  EXPECT_TRUE(lanes_equal(out.like, make_panel(9).like));
}

TEST(PackCache, CorruptedEntryIsDroppedNotServed) {
  PackCache cache(8);
  cache.put_fp32(key_for(7), make_panel(7));
  ASSERT_TRUE(cache.corrupt_one(7));
  core::PackedPanelFp32B out;
  // The checksum trips: the hit becomes a miss and the entry is gone.
  EXPECT_FALSE(cache.get_fp32(key_for(7), &out));
  EXPECT_EQ(cache.corrupt_dropped(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  // A repack (what the driver does on the miss) restores service.
  cache.put_fp32(key_for(7), make_panel(7));
  ASSERT_TRUE(cache.get_fp32(key_for(7), &out));
  EXPECT_TRUE(lanes_equal(out.like, make_panel(7).like));
}

TEST(PackCache, ComplexPanelsKeyedSeparatelyFromReal) {
  PackCache cache(8);
  cache.put_fp32(key_for(1), make_panel(1));
  gemm::PanelKey ckey = key_for(1);
  ckey.cplx = true;
  core::PackedPanelFp32cB cout_panel;
  EXPECT_FALSE(cache.get_fp32c(ckey, &cout_panel));

  const int k = 8, cols = 4;
  std::vector<std::complex<float>> cb(static_cast<std::size_t>(k) * cols);
  for (std::size_t i = 0; i < cb.size(); ++i) {
    cb[i] = {0.5f * static_cast<float>(i + 1), -1.5f};
  }
  core::PackedPanelFp32cB cpanel;
  core::pack_fp32c_b(cb.data(), cols, k, cols, cpanel);
  cache.put_fp32c(ckey, cpanel);
  ASSERT_TRUE(cache.get_fp32c(ckey, &cout_panel));
  EXPECT_TRUE(lanes_equal(cout_panel.real_like, cpanel.real_like));
  EXPECT_TRUE(lanes_equal(cout_panel.imag_like, cpanel.imag_like));

  // Corruption detection covers the complex panel type too.
  ASSERT_TRUE(cache.corrupt_one(1));
  cache.clear();
}

#if M3XU_TELEMETRY_ENABLED
TEST(PackCache, TelemetryMirrorsCounters) {
  const telemetry::Snapshot before = telemetry::snapshot();
  PackCache cache(2);
  core::PackedPanelFp32B out;
  cache.get_fp32(key_for(1), &out);       // miss
  cache.put_fp32(key_for(1), make_panel(1));
  cache.get_fp32(key_for(1), &out);       // hit
  cache.put_fp32(key_for(2), make_panel(2));
  cache.put_fp32(key_for(3), make_panel(3));  // evicts
  ASSERT_TRUE(cache.corrupt_one(3));
  cache.get_fp32(key_for(3), &out);       // corrupt drop
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "serve.pack_cache.misses"), 2u);
  EXPECT_GE(after.counter_delta(before, "serve.pack_cache.hits"), 1u);
  EXPECT_GE(after.counter_delta(before, "serve.pack_cache.evictions"), 1u);
  EXPECT_GE(after.counter_delta(before, "serve.pack_cache.corrupt_dropped"),
            1u);
}
#endif

/// End-to-end bit-identity: the same GEMM run uncached, cache-cold, and
/// cache-warm must produce byte-identical C. This is the property that
/// licenses sharing packed panels across tenants at all.
TEST(PackCacheDriver, CachedRunsAreBitIdenticalToUncached) {
  const int m = 96, n = 80, k = 72;
  gemm::Matrix<float> a(m, k), b(k, n), c0(m, n);
  Rng rng(101);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  core::M3xuConfig ecfg;
  const core::M3xuEngine engine(ecfg);
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  gemm::AbftConfig abft;
  abft.enable = true;
  const gemm::RecoveryPolicy policy;

  gemm::Matrix<float> c_plain = c0;
  gemm::plan_gemm(engine, tile, a, b, c_plain, abft, policy);

  PackCache cache(64);
  gemm::ExecRails exec;
  exec.b_cache = &cache;
  exec.b_key = 0xB0B;

  gemm::Matrix<float> c_cold = c0;
  gemm::plan_gemm(engine, tile, a, b, c_cold, abft, policy, exec);
  EXPECT_GT(cache.size(), 0u);  // the cold run populated the cache

  gemm::Matrix<float> c_warm = c0;
  gemm::plan_gemm(engine, tile, a, b, c_warm, abft, policy, exec);
  EXPECT_GT(cache.hits(), 0u);  // the warm run actually hit

  ASSERT_EQ(std::memcmp(c_plain.data(), c_cold.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_warm.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
}

TEST(PackCacheDriver, ComplexCachedRunsAreBitIdenticalToUncached) {
  const int m = 48, n = 40, k = 36;
  gemm::Matrix<std::complex<float>> a(m, k), b(k, n), c0(m, n);
  Rng rng(11);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  core::M3xuConfig ecfg;
  const core::M3xuEngine engine(ecfg);
  const gemm::TileConfig tile{16, 16, 32, 16, 16};
  gemm::AbftConfig abft;
  abft.enable = true;
  const gemm::RecoveryPolicy policy;

  gemm::Matrix<std::complex<float>> c_plain = c0;
  gemm::plan_gemm(engine, tile, a, b, c_plain, abft, policy);

  PackCache cache(64);
  gemm::ExecRails exec;
  exec.b_cache = &cache;
  exec.b_key = 0xC0C;

  gemm::Matrix<std::complex<float>> c_cold = c0;
  gemm::plan_gemm(engine, tile, a, b, c_cold, abft, policy, exec);
  gemm::Matrix<std::complex<float>> c_warm = c0;
  gemm::plan_gemm(engine, tile, a, b, c_warm, abft, policy, exec);
  EXPECT_GT(cache.hits(), 0u);

  ASSERT_EQ(std::memcmp(c_plain.data(), c_cold.data(),
                        sizeof(std::complex<float>) *
                            static_cast<std::size_t>(m) * n),
            0);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_warm.data(),
                        sizeof(std::complex<float>) *
                            static_cast<std::size_t>(m) * n),
            0);
}

/// A corrupted shared panel must never change results: the checksum
/// converts the would-be wrong answer into a repack.
TEST(PackCacheDriver, CorruptionBetweenRunsStillYieldsBitIdenticalResult) {
  const int m = 64, n = 64, k = 64;
  gemm::Matrix<float> a(m, k), b(k, n), c0(m, n);
  Rng rng(7);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  core::M3xuConfig ecfg;
  const core::M3xuEngine engine(ecfg);
  const gemm::TileConfig tile{32, 32, 32, 16, 16};

  gemm::Matrix<float> c_plain = c0;
  gemm::plan_gemm(engine, tile, a, b, c_plain, gemm::AbftConfig{},
                  gemm::RecoveryPolicy{});

  PackCache cache(64);
  gemm::ExecRails exec;
  exec.b_cache = &cache;
  exec.b_key = 0xDEAD;
  gemm::Matrix<float> c_cold = c0;
  gemm::plan_gemm(engine, tile, a, b, c_cold, gemm::AbftConfig{},
                  gemm::RecoveryPolicy{}, exec);
  ASSERT_TRUE(cache.corrupt_one(0xDEAD));
  const std::uint64_t drops_before = cache.corrupt_dropped();
  gemm::Matrix<float> c_after = c0;
  gemm::plan_gemm(engine, tile, a, b, c_after, gemm::AbftConfig{},
                  gemm::RecoveryPolicy{}, exec);
  EXPECT_GT(cache.corrupt_dropped(), drops_before);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_after.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
}

/// Concurrent tenants hammering overlapping key ranges (tsan target):
/// correctness here is "no data race, every hit returns an intact
/// panel" - corruption injection races against readers on purpose.
TEST(PackCacheConcurrency, ConcurrentTenantsGetConsistentPanels) {
  PackCache cache(16);
  constexpr int kThreads = 6;
  constexpr int kRounds = 200;
  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::PackedPanelFp32B out;
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t b_key =
            static_cast<std::uint64_t>((t + r) % 8 + 1);
        const gemm::PanelKey key = key_for(static_cast<int>(b_key));
        if (cache.get_fp32(key, &out)) {
          // A served panel is always intact (checksum-verified) and
          // internally consistent with its key contents.
          if (!lanes_equal(out.like,
                           make_panel(static_cast<int>(b_key)).like)) {
            fail = true;
          }
        } else {
          cache.put_fp32(key, make_panel(static_cast<int>(b_key)));
        }
        if (t == 0 && r % 50 == 13) {
          cache.corrupt_one(b_key);  // chaos: readers must survive it
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(fail.load());
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace m3xu::serve
