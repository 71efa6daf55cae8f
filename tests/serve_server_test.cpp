// Tests for the fault-tolerant multi-tenant GemmServer: request
// lifecycle (every submission ends in exactly one terminal status),
// admission control and load shedding, deadline propagation, retry,
// per-tenant quarantine isolation, shared pack-cache coalescing, and
// shutdown semantics. Concurrency-sensitive (tsan-labeled).
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <complex>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "serve/server.hpp"
#include "plan_gemm.hpp"

namespace m3xu::serve {
namespace {

using gemm::Matrix;

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

/// Small-tile config so modest matrices exercise a multi-tile grid.
ServerConfig base_config() {
  ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = gemm::TileConfig{32, 32, 32, 16, 16};
  cfg.abft.enable = true;
  return cfg;
}

/// Spins until `req` leaves kQueued (the executor picked it up) or the
/// timeout expires.
bool wait_running(const RequestHandle& req, int timeout_ms = 10'000) {
  const auto t0 = std::chrono::steady_clock::now();
  while (req->status() == RequestStatus::kQueued) {
    if (std::chrono::steady_clock::now() - t0 >
        std::chrono::milliseconds(timeout_ms)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(GemmServer, SgemmRequestCompletesOkBitIdenticalToDirectRun) {
  const Problem p = make(64, 48, 96, 1);
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  Matrix<float> ref = p.c;
  gemm::plan_gemm(direct_engine, cfg.tile, p.a, p.b, ref);

  GemmServer server(cfg);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  EXPECT_EQ(req->attempts(), 1);
  EXPECT_TRUE(bitwise_equal(req->result_f32(), ref));
  EXPECT_EQ(req->stats().recovery.retries, 0);
}

TEST(GemmServer, CgemmRequestCompletesOk) {
  using C = std::complex<float>;
  Matrix<C> a(32, 32), b(32, 32), c0(32, 32);
  Rng rng(2);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  Matrix<C> ref = c0;
  gemm::plan_gemm(direct_engine, cfg.tile, a, b, ref);

  GemmServer server(cfg);
  const RequestHandle req = server.submit_cgemm(a, b, c0);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  const Matrix<C>& out = req->result_c64();
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits32(out(i, j).real()), bits32(ref(i, j).real()));
      ASSERT_EQ(bits32(out(i, j).imag()), bits32(ref(i, j).imag()));
    }
  }
}

TEST(GemmServer, InvalidShapesResolveFailedAtSubmission) {
  GemmServer server(base_config());
  const RequestHandle req = server.submit_sgemm(
      Matrix<float>(8, 4), Matrix<float>(5, 8), Matrix<float>(8, 8));
  // Already terminal: no need to wait.
  EXPECT_EQ(req->status(), RequestStatus::kFailed);
  EXPECT_NE(req->error().find("invalid shapes"), std::string::npos);
}

TEST(GemmServer, ConcurrentTenantsAllReachOkWithCorrectResults) {
  const ServerConfig cfg = [] {
    ServerConfig c = base_config();
    c.executors = 3;
    c.queue_capacity = 256;
    return c;
  }();
  const core::M3xuEngine direct_engine{cfg.engine};
  constexpr int kTenants = 4;
  constexpr int kPerTenant = 3;
  std::vector<Problem> problems;
  std::vector<Matrix<float>> refs;
  for (int t = 0; t < kTenants; ++t) {
    problems.push_back(make(48, 48, 64, 100 + static_cast<std::uint64_t>(t)));
    Matrix<float> ref = problems.back().c;
    gemm::plan_gemm(direct_engine, cfg.tile, problems.back().a,
                    problems.back().b, ref);
    refs.push_back(std::move(ref));
  }

  GemmServer server(cfg);
  std::vector<std::vector<RequestHandle>> handles(kTenants);
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      for (int r = 0; r < kPerTenant; ++r) {
        RequestOptions opts;
        opts.tenant = "tenant-" + std::to_string(t);
        handles[t].push_back(server.submit_sgemm(
            problems[t].a, problems[t].b, problems[t].c, opts));
      }
    });
  }
  for (auto& th : tenants) th.join();
  for (int t = 0; t < kTenants; ++t) {
    for (const RequestHandle& req : handles[t]) {
      req->wait();
      ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
      // Isolation: every tenant gets its own bits, never a neighbor's.
      ASSERT_TRUE(bitwise_equal(req->result_f32(), refs[t]));
    }
  }
}

/// Fixture pattern for the shed/cancel tests: a single-executor server
/// whose executor is pinned by a deliberately large request, so queue
/// admission behavior is deterministic.
class BlockedServerTest : public ::testing::Test {
 protected:
  void StartBlocked(std::size_t queue_capacity, AdmissionPolicy admission) {
    ServerConfig cfg = base_config();
    cfg.executors = 1;
    cfg.queue_capacity = queue_capacity;
    cfg.admission = admission;
    server_.emplace(cfg);
    blocker_problem_ = make(384, 384, 384, 3);
    blocker_ = server_->submit_sgemm(blocker_problem_.a, blocker_problem_.b,
                                     blocker_problem_.c);
    ASSERT_TRUE(wait_running(blocker_));
    ASSERT_EQ(server_->queued(), 0u);
  }

  void TearDown() override {
    if (blocker_) blocker_->cancel();
    if (server_) server_->shutdown();
  }

  std::optional<GemmServer> server_;
  Problem blocker_problem_;
  RequestHandle blocker_;
};

TEST_F(BlockedServerTest, RejectNewShedsWhenQueueIsFull) {
  StartBlocked(1, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 4);
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_FALSE(queued->done());
  // The queue is full now: the next submission sheds immediately.
  const RequestHandle shed = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_EQ(shed->status(), RequestStatus::kShed);
  EXPECT_NE(shed->error().find("queue full"), std::string::npos);
}

TEST_F(BlockedServerTest, EvictLowestPriorityShedsTheVictimExplicitly) {
  StartBlocked(1, AdmissionPolicy::kEvictLowestPriority);
  const Problem p = make(32, 32, 32, 5);
  RequestOptions low;
  low.priority = 1;
  const RequestHandle victim = server_->submit_sgemm(p.a, p.b, p.c, low);
  EXPECT_FALSE(victim->done());

  // Equal priority does not evict: the newcomer is shed instead.
  const RequestHandle equal = server_->submit_sgemm(p.a, p.b, p.c, low);
  EXPECT_EQ(equal->status(), RequestStatus::kShed);
  EXPECT_FALSE(victim->done());

  // A strictly higher priority evicts the queued low-priority request,
  // which resolves kShed (no silent drop).
  RequestOptions high;
  high.priority = 9;
  const RequestHandle winner = server_->submit_sgemm(p.a, p.b, p.c, high);
  EXPECT_EQ(victim->status(), RequestStatus::kShed);
  EXPECT_NE(victim->error().find("evicted"), std::string::npos);
  EXPECT_FALSE(winner->done());
}

TEST_F(BlockedServerTest, CancelWhileQueuedResolvesCancelled) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 6);
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c);
  queued->cancel("changed my mind");
  blocker_->cancel();  // free the executor so it picks `queued` up
  queued->wait();
  EXPECT_EQ(queued->status(), RequestStatus::kCancelled);
  EXPECT_NE(queued->error().find("changed my mind"), std::string::npos);
  EXPECT_EQ(queued->attempts(), 0);
}

TEST_F(BlockedServerTest, DeadlineExpiringInQueueResolvesDeadlineExceeded) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 7);
  RequestOptions opts;
  opts.deadline_ms = 1;
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker_->cancel();
  queued->wait();
  EXPECT_EQ(queued->status(), RequestStatus::kDeadlineExceeded);
}

TEST_F(BlockedServerTest, ShutdownShedsQueuedRequestsExplicitly) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 8);
  const RequestHandle q1 = server_->submit_sgemm(p.a, p.b, p.c);
  const RequestHandle q2 = server_->submit_sgemm(p.a, p.b, p.c);
  blocker_->cancel();
  server_->shutdown();
  EXPECT_TRUE(q1->done());
  EXPECT_TRUE(q2->done());
  for (const RequestHandle& q : {q1, q2}) {
    // Either the executor got to it before shutdown drained the queue
    // (kOk) or it was shed - never stuck, never silently dropped.
    EXPECT_TRUE(q->status() == RequestStatus::kShed ||
                q->status() == RequestStatus::kOk)
        << request_status_name(q->status());
  }
  // Post-shutdown submissions shed immediately.
  const RequestHandle late = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_EQ(late->status(), RequestStatus::kShed);
}

TEST(GemmServer, DeadlineMidRunResolvesDeadlineExceeded) {
  ServerConfig cfg = base_config();
  cfg.executors = 1;
  cfg.default_deadline_ms = 30;  // far less than a 384^3 emulated GEMM
  GemmServer server(cfg);
  const Problem p = make(384, 384, 384, 9);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kDeadlineExceeded) << req->error();
}

TEST(GemmServer, PerRequestDeadlineOptOutOverridesServerDefault) {
  ServerConfig cfg = base_config();
  cfg.default_deadline_ms = 60'000;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 32, 10);
  RequestOptions opts;
  opts.deadline_ms = -1;  // no deadline even though the server has one
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c, opts);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kOk) << req->error();
}

TEST(GemmServer, DegradedPerPolicyResolvesDegraded) {
  // Persistent faults with the ladder floored at the top rung and a
  // degrade terminal: the request completes with the suspect result
  // and reports kDegraded.
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      11, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  cfg.recovery.floor = gemm::Route::kMicrokernel;
  cfg.recovery.terminal = gemm::RecoveryPolicy::Terminal::kDegrade;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 11);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kDegraded) << req->error();
  EXPECT_GT(req->stats().recovery.degraded_tiles, 0);
  server.shutdown();
}

TEST(GemmServer, ExhaustedLadderRetriesThenFails) {
  // Terminal::kThrow with a floored ladder: every attempt exhausts its
  // retries and throws AbftFailure; the server retries max_attempts
  // times, then resolves kFailed with a structured error.
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      12, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  cfg.recovery.floor = gemm::Route::kMicrokernel;
  cfg.recovery.retries_per_route = 1;
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 12);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kFailed);
  EXPECT_EQ(req->attempts(), 2);
  EXPECT_NE(req->error().find("attempts"), std::string::npos);
  server.shutdown();
}

TEST(GemmServer, QuarantineIsScopedPerTenant) {
  // Both tenants run on the same faulty engine and grid, but each
  // accumulates quarantine state under its own key: tenant B's first
  // request walks the full ladder itself (demotions > 0, zero
  // quarantine hits) even after tenant A quarantined the same tile
  // index - A's offenders never demote B's route.
  ServerConfig cfg = base_config();
  cfg.executors = 1;  // serialize so cross-request ordering is exact
  const fault::FaultInjector inj(
      13, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 13);  // single-tile grid

  RequestOptions ta;
  ta.tenant = "tenant-a";
  const RequestHandle a1 = server.submit_sgemm(p.a, p.b, p.c, ta);
  a1->wait();
  ASSERT_EQ(a1->status(), RequestStatus::kOk) << a1->error();
  EXPECT_GT(a1->stats().recovery.demotions, 0);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-a", 1, 1), 1u);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-b", 1, 1), 0u);

  // A's second request benefits from A's quarantine.
  const RequestHandle a2 = server.submit_sgemm(p.a, p.b, p.c, ta);
  a2->wait();
  ASSERT_EQ(a2->status(), RequestStatus::kOk) << a2->error();
  EXPECT_EQ(a2->stats().recovery.demotions, 0);
  EXPECT_GT(a2->stats().recovery.quarantine_hits, 0);

  // B starts cold despite A's history on the identical grid.
  RequestOptions tb;
  tb.tenant = "tenant-b";
  const RequestHandle b1 = server.submit_sgemm(p.a, p.b, p.c, tb);
  b1->wait();
  ASSERT_EQ(b1->status(), RequestStatus::kOk) << b1->error();
  EXPECT_GT(b1->stats().recovery.demotions, 0);
  EXPECT_EQ(b1->stats().recovery.quarantine_hits, 0);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-b", 1, 1), 1u);
  server.shutdown();
}

TEST(GemmServer, PackCacheCoalescesSameWeightsRequests) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 14);
  Matrix<float> ref = p.c;
  gemm::plan_gemm(direct_engine, cfg.tile, p.a, p.b, ref);

  GemmServer server(cfg);
  RequestOptions opts;
  opts.b_key = 0xFEED;
  const RequestHandle r1 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r1->wait();
  ASSERT_EQ(r1->status(), RequestStatus::kOk) << r1->error();
  const std::uint64_t hits_before = server.pack_cache().hits();
  const RequestHandle r2 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r2->wait();
  ASSERT_EQ(r2->status(), RequestStatus::kOk) << r2->error();
  EXPECT_GT(server.pack_cache().hits(), hits_before);
  // Cached packing must not change a single bit of the result.
  EXPECT_TRUE(bitwise_equal(r1->result_f32(), ref));
  EXPECT_TRUE(bitwise_equal(r2->result_f32(), ref));
}

TEST(GemmServer, CorruptedSharedPanelIsRepackedNotServed) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 15);
  Matrix<float> ref = p.c;
  gemm::plan_gemm(direct_engine, cfg.tile, p.a, p.b, ref);

  GemmServer server(cfg);
  RequestOptions opts;
  opts.b_key = 0xBAD;
  const RequestHandle r1 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r1->wait();
  ASSERT_EQ(r1->status(), RequestStatus::kOk) << r1->error();
  ASSERT_TRUE(server.pack_cache().corrupt_one(0xBAD));
  const RequestHandle r2 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r2->wait();
  ASSERT_EQ(r2->status(), RequestStatus::kOk) << r2->error();
  EXPECT_GT(server.pack_cache().corrupt_dropped(), 0u);
  EXPECT_TRUE(bitwise_equal(r2->result_f32(), ref));
}

TEST_F(BlockedServerTest, DeadlineExpiredInQueueNeverStartsExecution) {
  // Regression for the deadline race: a request whose deadline expired
  // while queued used to reach the executor, where the old floor-1ms
  // watchdog arm gave it a bonus millisecond of real execution. The
  // executor must now re-check expiry at execution entry and resolve
  // without a single attempt.
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 17);
  RequestOptions opts;
  opts.deadline_ms = 1;
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker_->cancel();
  queued->wait();
  ASSERT_EQ(queued->status(), RequestStatus::kDeadlineExceeded)
      << queued->error();
  EXPECT_EQ(queued->attempts(), 0);
  // Either guard may catch it (dequeue-time or execution-entry); what
  // matters is that no attempt ran.
  EXPECT_NE(queued->error().find("deadline exceeded"), std::string::npos)
      << queued->error();
}

TEST(GemmServer, ShutdownDuringRetryBackoffResolvesPromptly) {
  // Regression for the backoff hang: a request sleeping out a long
  // retry backoff used to hold shutdown() hostage for the full
  // backoff and then resolve as if nothing happened. The backoff wait
  // must wake on shutdown and resolve the request terminally.
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      18, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  cfg.recovery.floor = gemm::Route::kMicrokernel;
  cfg.recovery.retries_per_route = 1;
  cfg.executors = 1;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 60'000;  // far longer than the test budget
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 18);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);

  // Wait until the first attempt failed and the executor entered the
  // backoff sleep.
  const auto t0 = std::chrono::steady_clock::now();
  while (req->attempts() < 1 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(req->attempts(), 1);

  const auto shutdown_start = std::chrono::steady_clock::now();
  server.shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - shutdown_start;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "shutdown blocked on retry backoff";
  ASSERT_TRUE(req->done());
  EXPECT_EQ(req->status(), RequestStatus::kShed)
      << request_status_name(req->status());
  EXPECT_NE(req->error().find("shutdown during retry backoff"),
            std::string::npos)
      << req->error();
}

TEST(GemmServer, RepeatedShapesReuseOneCompiledPlan) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 19);
  Matrix<float> ref = p.c;
  gemm::plan_gemm(direct_engine, cfg.tile, p.a, p.b, ref);

  GemmServer server(cfg);
  EXPECT_EQ(server.plan_count(), 0u);
  for (int i = 0; i < 3; ++i) {
    const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
    req->wait();
    ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
    EXPECT_TRUE(bitwise_equal(req->result_f32(), ref));
  }
  EXPECT_EQ(server.plan_count(), 1u);  // one shape, one compiled plan

  const Problem q = make(32, 48, 64, 20);
  const RequestHandle other = server.submit_sgemm(q.a, q.b, q.c);
  other->wait();
  ASSERT_EQ(other->status(), RequestStatus::kOk) << other->error();
  EXPECT_EQ(server.plan_count(), 2u);
  server.shutdown();
}

TEST(GemmServer, CancelMidRunResolvesCancelled) {
  ServerConfig cfg = base_config();
  cfg.executors = 1;
  GemmServer server(cfg);
  const Problem p = make(384, 384, 384, 16);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  ASSERT_TRUE(wait_running(req));
  req->cancel();
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kCancelled) << req->error();
}

}  // namespace
}  // namespace m3xu::serve
