// GemmServer: an in-process, fault-tolerant, multi-tenant GEMM serving
// layer over the resilient tiled driver.
//
// Tenants submit asynchronous sgemm/cgemm requests; a bounded priority
// queue applies admission control (reject-new or evict-lowest-priority
// - either way the loser terminates as kShed, never a silent drop);
// executor threads pop requests and run them on the shared ThreadPool
// through per-tenant GemmPlans with the full resilience stack:
//
//   - per-request deadline propagated end-to-end: a CancelTimer latches
//     the request's CancellationToken (reason kDeadline) and the pool
//     watchdog bounds each parallel_for, so a request expires whether
//     it is queued, staging, or mid-mainloop;
//   - retry-with-backoff for transient failures (watchdog stalls,
//     allocation failures, exhausted ABFT ladders) up to max_attempts,
//     restoring the original C operand before each attempt;
//   - per-tenant tile quarantine: repeat offenders start demoted on
//     later requests of the *same* tenant and grid only - one tenant's
//     faults never demote a neighbor's route;
//   - a shared checksummed LRU prepacked-B cache (PackCache) so
//     same-weights requests coalesce their pack work, with corruption
//     detected and repacked rather than served.
//
// Isolation contract: requests share only the thread pool, the
// checksummed pack cache, and the engine configuration. Matrices are
// owned per-request (moved in at submission), so no request can
// observe another tenant's operands or results. See docs/SERVING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/mxu.hpp"
#include "gemm/plan.hpp"
#include "gemm/recovery.hpp"
#include "gemm/tiled_driver.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/pack_cache.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"

namespace m3xu::serve {

struct ServerConfig {
  /// Executor threads popping the submission queue. Each runs one
  /// request at a time; their parallel_for calls queue on the shared
  /// pool (see common/thread_pool.hpp).
  int executors = 2;
  /// Bounded submission queue: at most this many queued requests.
  std::size_t queue_capacity = 64;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;
  /// Default wall deadline per request, ms from submission (0 = none).
  /// RequestOptions::deadline_ms overrides per request.
  std::int64_t default_deadline_ms = 0;
  /// Watchdog no-progress window per parallel_for, ms. Applied only to
  /// requests that have an effective deadline (the driver requires the
  /// deadline backstop).
  std::int64_t stall_ms = 0;
  /// Execution attempts per request: 1 initial + (max_attempts - 1)
  /// retries for transient failures (stall, bad_alloc, exhausted ABFT
  /// ladder with Terminal::kThrow).
  int max_attempts = 3;
  /// Base retry backoff, ms; doubles per retry. 0 retries immediately.
  std::int64_t retry_backoff_ms = 1;
  gemm::TileConfig tile;
  /// ABFT guard for every request (serving typically enables it).
  gemm::AbftConfig abft;
  /// Recovery ladder for every request; each request's ExecRails carry
  /// its tenant's quarantine.
  gemm::RecoveryPolicy recovery;
  /// LRU capacity of each tenant's per-grid TileQuarantine.
  std::size_t quarantine_tiles_per_tenant =
      gemm::TileQuarantine::kDefaultCapacity;
  /// Shared prepacked-B cache: max cached panels. Every hit
  /// re-verifies the entry checksum.
  std::size_t pack_cache_entries = 256;
  /// Engine configuration for the primary datapath. May carry a fault
  /// injector (chaos benches do); ABFT recomputes and the terminal
  /// scalar rung always run a fault-free clone.
  core::M3xuConfig engine;
  /// Create a request-scoped TraceContext per submission and thread it
  /// through admission, execution, recovery, and route dispatch (see
  /// telemetry/trace_context.hpp; Request::trace() exposes it). Costs
  /// one allocation plus microsecond-scale event logging per request;
  /// compiles out entirely with M3XU_TELEMETRY=OFF.
  bool trace_requests = true;
  /// Rolling-window SLO monitor fed by every terminal resolution. The
  /// default thresholds never breach; see serve/slo.hpp.
  SloConfig slo;
};

class GemmServer {
 public:
  explicit GemmServer(const ServerConfig& config);
  ~GemmServer();  // shutdown(): sheds queued requests, joins executors

  GemmServer(const GemmServer&) = delete;
  GemmServer& operator=(const GemmServer&) = delete;

  /// Submits C <- A*B + C on the FP32 mode. Matrices are moved into
  /// the request (per-request ownership is the isolation boundary).
  /// Returns a handle that is possibly already terminal: kShed when
  /// admission rejected it, kFailed when the shapes are invalid.
  RequestHandle submit_sgemm(gemm::Matrix<float> a, gemm::Matrix<float> b,
                             gemm::Matrix<float> c,
                             RequestOptions options = {});
  /// FP32-complex variant.
  RequestHandle submit_cgemm(gemm::Matrix<std::complex<float>> a,
                             gemm::Matrix<std::complex<float>> b,
                             gemm::Matrix<std::complex<float>> c,
                             RequestOptions options = {});

  /// Stops admission, sheds every queued request (kShed), lets running
  /// requests finish, joins executors. Idempotent.
  void shutdown();

  std::size_t queued() const { return queue_.size(); }
  PackCache& pack_cache() { return cache_; }
  const ServerConfig& config() const { return config_; }

  /// The SLO monitor every terminal resolution feeds. Non-const so
  /// external verifiers (chaos benches checking results against a
  /// reference) can report SDC escapes into it.
  SloMonitor& slo() { return slo_; }
  const SloMonitor& slo() const { return slo_; }

  /// The quarantined-tile count for one tenant's grid (tests/benches;
  /// 0 when that tenant never demoted on that grid).
  std::size_t tenant_quarantine_size(const std::string& tenant, long grid_m,
                                     long grid_n) const;

  /// Compiled GemmPlans held for reuse across requests (tests/benches;
  /// one per distinct (tenant, shape, dtype) the server has executed).
  std::size_t plan_count() const;

 private:
  /// Stamps the submission time and (when trace_requests is on)
  /// creates the request's TraceContext with its "request.submit"
  /// event. Runs before shape validation so even rejected submissions
  /// carry a timeline.
  void begin_request(const RequestHandle& req, const gemm::PlanKey& key);
  RequestHandle admit(RequestHandle req);
  void executor_loop();
  void run_request(const RequestHandle& req);
  template <typename T>
  void run_attempts(const RequestHandle& req, gemm::Matrix<T>& a,
                    gemm::Matrix<T>& b, gemm::Matrix<T>& c);
  gemm::TileQuarantine& tenant_quarantine(const std::string& tenant,
                                          long grid_m, long grid_n);
  /// The compiled plan for one (tenant, shape, dtype), compiling and
  /// memoizing on first use. Compilation freezes everything
  /// request-invariant (validated configs, engine clones); per-request
  /// state rides in ExecRails at execute time.
  const gemm::GemmPlan& tenant_plan(const std::string& tenant,
                                    const gemm::PlanKey& key);
  /// The request's effective wall deadline in ms (per-request
  /// override, else the server default; negative opts out -> 0). The
  /// single derivation both the queued-expiry check and the execution
  /// path use.
  std::int64_t effective_deadline_ms(const RequestHandle& req) const;
  void resolve_and_count(const RequestHandle& req, RequestStatus s,
                         const std::string& error);

  const ServerConfig config_;
  PackCache cache_;
  SloMonitor slo_;
  BoundedQueue<RequestHandle> queue_;
  mutable std::mutex quarantine_mu_;
  std::map<std::tuple<std::string, long, long>,
           std::unique_ptr<gemm::TileQuarantine>>
      quarantines_;
  mutable std::mutex plans_mu_;
  std::map<std::tuple<std::string, int, int, int, bool>,
           std::unique_ptr<gemm::GemmPlan>>
      plans_;
  std::vector<std::thread> executors_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace m3xu::serve
