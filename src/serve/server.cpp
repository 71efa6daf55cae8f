#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::serve {

namespace {

// Serving outcome counters and latency histograms (no-ops when
// M3XU_TELEMETRY=OFF). Every submission bumps submitted and exactly
// one terminal counter, so their sums reconcile.
telemetry::Counter srv_submitted("serve.requests.submitted");
telemetry::Counter srv_ok("serve.requests.ok");
telemetry::Counter srv_degraded("serve.requests.degraded");
telemetry::Counter srv_deadline("serve.requests.deadline_exceeded");
telemetry::Counter srv_shed("serve.requests.shed");
telemetry::Counter srv_cancelled("serve.requests.cancelled");
telemetry::Counter srv_failed("serve.requests.failed");
telemetry::Counter srv_retries("serve.requests.retries");
telemetry::Counter srv_shed_rejected("serve.shed.rejected");
telemetry::Counter srv_shed_evicted("serve.shed.evicted");
telemetry::Counter srv_plan_compiled("serve.plan.compiled");
telemetry::Counter srv_plan_reused("serve.plan.reused");
telemetry::Histogram srv_queue_wait("serve.queue_wait_ns");
telemetry::Histogram srv_latency("serve.request_latency_ns");

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void count_terminal(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      srv_ok.increment();
      break;
    case RequestStatus::kDegraded:
      srv_degraded.increment();
      break;
    case RequestStatus::kDeadlineExceeded:
      srv_deadline.increment();
      break;
    case RequestStatus::kShed:
      srv_shed.increment();
      break;
    case RequestStatus::kCancelled:
      srv_cancelled.increment();
      break;
    case RequestStatus::kFailed:
      srv_failed.increment();
      break;
    default:
      break;
  }
}

/// Terminal status for a request whose token latched before or during
/// execution, from the latch's reason tag.
RequestStatus status_for_cancel(CancelReason reason) {
  switch (reason) {
    case CancelReason::kDeadline:
      return RequestStatus::kDeadlineExceeded;
    case CancelReason::kShed:
      return RequestStatus::kShed;
    default:
      return RequestStatus::kCancelled;
  }
}

}  // namespace

GemmServer::GemmServer(const ServerConfig& config)
    : config_(config),
      cache_(config.pack_cache_entries),
      slo_(config.slo),
      queue_(config.queue_capacity, config.admission) {
  M3XU_CHECK_MSG(config_.executors >= 1,
                 "ServerConfig.executors must be >= 1");
  M3XU_CHECK_MSG(config_.queue_capacity >= 1,
                 "ServerConfig.queue_capacity must be >= 1");
  M3XU_CHECK_MSG(config_.max_attempts >= 1,
                 "ServerConfig.max_attempts must be >= 1");
  M3XU_CHECK_MSG(config_.retry_backoff_ms >= 0,
                 "ServerConfig.retry_backoff_ms must be >= 0");
  M3XU_CHECK_MSG(config_.default_deadline_ms >= 0,
                 "ServerConfig.default_deadline_ms must be >= 0 (use "
                 "RequestOptions.deadline_ms < 0 for per-request opt-out)");
  M3XU_CHECK_MSG(config_.stall_ms >= 0, "ServerConfig.stall_ms must be >= 0");
  M3XU_CHECK_MSG(config_.quarantine_tiles_per_tenant >= 1,
                 "ServerConfig.quarantine_tiles_per_tenant must be >= 1");
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  for (int i = 0; i < config_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

GemmServer::~GemmServer() { shutdown(); }

void GemmServer::shutdown() {
  if (shut_down_.exchange(true)) {
    // Second caller (or the destructor after an explicit shutdown):
    // executors are already joined or being joined by the first.
    for (auto& t : executors_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  // Stop admission and shed everything still queued - explicitly, so
  // no request ever just disappears.
  for (const RequestHandle& req : queue_.close()) {
    req->token_.request_cancel("server shutdown", CancelReason::kShed);
    resolve_and_count(req, RequestStatus::kShed, "shed: server shutdown");
  }
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
}

RequestHandle GemmServer::submit_sgemm(gemm::Matrix<float> a,
                                       gemm::Matrix<float> b,
                                       gemm::Matrix<float> c,
                                       RequestOptions options) {
  RequestHandle req(new Request());
  req->options_ = std::move(options);
  req->complex_ = false;
  req->a_ = std::move(a);
  req->b_ = std::move(b);
  req->c_ = std::move(c);
  begin_request(req, gemm::PlanKey{req->a_.rows(), req->b_.cols(),
                                   req->a_.cols(), false});
  if (req->a_.cols() != req->b_.rows() || req->a_.rows() != req->c_.rows() ||
      req->b_.cols() != req->c_.cols()) {
    srv_submitted.increment();
    resolve_and_count(req, RequestStatus::kFailed,
                      "invalid shapes: need A(m,k) B(k,n) C(m,n)");
    return req;
  }
  return admit(std::move(req));
}

RequestHandle GemmServer::submit_cgemm(gemm::Matrix<std::complex<float>> a,
                                       gemm::Matrix<std::complex<float>> b,
                                       gemm::Matrix<std::complex<float>> c,
                                       RequestOptions options) {
  RequestHandle req(new Request());
  req->options_ = std::move(options);
  req->complex_ = true;
  req->ca_ = std::move(a);
  req->cb_ = std::move(b);
  req->cc_ = std::move(c);
  begin_request(req, gemm::PlanKey{req->ca_.rows(), req->cb_.cols(),
                                   req->ca_.cols(), true});
  if (req->ca_.cols() != req->cb_.rows() ||
      req->ca_.rows() != req->cc_.rows() ||
      req->cb_.cols() != req->cc_.cols()) {
    srv_submitted.increment();
    resolve_and_count(req, RequestStatus::kFailed,
                      "invalid shapes: need A(m,k) B(k,n) C(m,n)");
    return req;
  }
  return admit(std::move(req));
}

void GemmServer::begin_request(const RequestHandle& req,
                               const gemm::PlanKey& key) {
  req->submit_ns_ = now_ns();
  if (!config_.trace_requests) return;
  req->trace_ = std::make_unique<telemetry::TraceContext>(
      req->options_.tenant, gemm::plan_key_label(key));
  req->trace_->event("request.submit", req->options_.priority,
                     static_cast<long>(effective_deadline_ms(req)));
}

RequestHandle GemmServer::admit(RequestHandle req) {
  srv_submitted.increment();
  if (shut_down_.load(std::memory_order_acquire)) {
    req->token_.request_cancel("server shut down", CancelReason::kShed);
    resolve_and_count(req, RequestStatus::kShed, "shed: server shut down");
    return req;
  }
  const int priority = req->options_.priority;
  // Logged BEFORE the push: the push hands the request to an executor,
  // which may dequeue and start logging immediately - an admit event
  // written after the handoff could land mid-execution or after the
  // terminal event. A push the queue then rejects resolves to kShed
  // below, whose terminal event carries the reason.
  if (req->trace_ != nullptr) {
    req->trace_->event("request.admit", static_cast<long>(queue_.size()));
  }
  BoundedQueue<RequestHandle>::Admit admit = queue_.push(req, priority);
  if (!admit.admitted) {
    srv_shed_rejected.increment();
    req->token_.request_cancel("queue full", CancelReason::kShed);
    resolve_and_count(req, RequestStatus::kShed,
                      "shed: submission queue full");
    return req;
  }
  if (admit.evicted.has_value()) {
    const RequestHandle& victim = *admit.evicted;
    srv_shed_evicted.increment();
    if (victim->trace_ != nullptr) {
      victim->trace_->event("request.evicted", req->options_.priority);
    }
    victim->token_.request_cancel("evicted by higher-priority request",
                                  CancelReason::kShed);
    resolve_and_count(victim, RequestStatus::kShed,
                      "shed: evicted by higher-priority request");
  }
  return req;
}

void GemmServer::executor_loop() {
  for (;;) {
    std::optional<RequestHandle> item = queue_.pop();
    if (!item.has_value()) return;  // queue closed and drained
    run_request(*item);
  }
}

void GemmServer::resolve_and_count(const RequestHandle& req, RequestStatus s,
                                   const std::string& error) {
  if (!req->claim_terminal()) return;
  count_terminal(s);
  if (req->trace_ != nullptr) {
    req->trace_->event("request.done", static_cast<long>(s), req->attempts(),
                       request_status_name(s));
  }
  const std::uint64_t latency_ns = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, now_ns() - req->submit_ns_));
  slo_.record(s, latency_ns,
              static_cast<std::uint64_t>(req->stats_.recovery.demotions),
              static_cast<std::uint64_t>(req->stats_.abft_detected));
  req->publish_resolution(s, error);
}

gemm::TileQuarantine& GemmServer::tenant_quarantine(const std::string& tenant,
                                                    long grid_m,
                                                    long grid_n) {
  const std::lock_guard<std::mutex> lock(quarantine_mu_);
  auto& slot = quarantines_[std::make_tuple(tenant, grid_m, grid_n)];
  if (slot == nullptr) {
    slot = std::make_unique<gemm::TileQuarantine>(
        config_.quarantine_tiles_per_tenant);
  }
  return *slot;
}

std::size_t GemmServer::tenant_quarantine_size(const std::string& tenant,
                                               long grid_m,
                                               long grid_n) const {
  const std::lock_guard<std::mutex> lock(quarantine_mu_);
  const auto it = quarantines_.find(std::make_tuple(tenant, grid_m, grid_n));
  return it == quarantines_.end() ? 0 : it->second->size();
}

const gemm::GemmPlan& GemmServer::tenant_plan(const std::string& tenant,
                                              const gemm::PlanKey& key) {
  const std::lock_guard<std::mutex> lock(plans_mu_);
  auto& slot = plans_[std::make_tuple(tenant, key.m, key.n, key.k, key.cplx)];
  if (slot == nullptr) {
    gemm::PlanOptions options;
    options.tile = config_.tile;
    options.abft = config_.abft;
    options.policy = config_.recovery;
    // B varies per request here; cross-request panel sharing is the
    // checksummed PackCache's job (ExecRails.b_cache), not the plan's
    // private store.
    options.reuse_b_panels = false;
    slot = std::make_unique<gemm::GemmPlan>(
        gemm::GemmPlan::compile(config_.engine, key, options));
    srv_plan_compiled.increment();
  } else {
    srv_plan_reused.increment();
  }
  return *slot;
}

std::size_t GemmServer::plan_count() const {
  const std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_.size();
}

std::int64_t GemmServer::effective_deadline_ms(const RequestHandle& req) const {
  std::int64_t deadline_ms = req->options_.deadline_ms;
  if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
  return deadline_ms < 0 ? 0 : deadline_ms;
}

void GemmServer::run_request(const RequestHandle& req) {
  const std::int64_t wait_ns =
      std::max<std::int64_t>(0, now_ns() - req->submit_ns_);
  srv_queue_wait.record(static_cast<std::uint64_t>(wait_ns));
  if (req->trace_ != nullptr) {
    req->trace_->event("request.dequeue", static_cast<long>(wait_ns / 1000));
  }
  // Requests that died while queued (user cancel, deadline timer at a
  // higher layer) resolve without touching the pool.
  if (req->token_.cancelled()) {
    resolve_and_count(req, status_for_cancel(req->token_.reason_tag()),
                      "aborted while queued: " + req->token_.reason());
    return;
  }
  const std::int64_t deadline_ms = effective_deadline_ms(req);
  if (deadline_ms > 0) {
    const std::int64_t elapsed_ms =
        (now_ns() - req->submit_ns_) / 1'000'000;
    if (elapsed_ms >= deadline_ms) {
      resolve_and_count(req, RequestStatus::kDeadlineExceeded,
                        "deadline exceeded while queued");
      srv_latency.record(
          static_cast<std::uint64_t>(now_ns() - req->submit_ns_));
      return;
    }
  }
  req->set_running();
  if (req->complex_) {
    run_attempts<std::complex<float>>(req, req->ca_, req->cb_, req->cc_);
  } else {
    run_attempts<float>(req, req->a_, req->b_, req->c_);
  }
  srv_latency.record(
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, now_ns() - req->submit_ns_)));
}

template <typename T>
void GemmServer::run_attempts(const RequestHandle& req, gemm::Matrix<T>& a,
                              gemm::Matrix<T>& b, gemm::Matrix<T>& c) {
  // Remaining wall budget; the CancelTimer latches the request token
  // when it runs out, covering queue-of-pool waits and everything the
  // per-call watchdog cannot see. Both fire as "deadline".
  const std::int64_t deadline_ms = effective_deadline_ms(req);
  std::int64_t remaining_ms = 0;
  std::optional<CancelTimer> timer;
  if (deadline_ms > 0) {
    remaining_ms = deadline_ms - (now_ns() - req->submit_ns_) / 1'000'000;
    if (remaining_ms <= 0) {
      // Lost the race between the queued-expiry check and execution
      // entry (executor descheduled in between). Resolve as the
      // deadline outcome it is; arming a clamped floor-1ms timer here
      // would start real work just to cancel it moments later.
      resolve_and_count(req, RequestStatus::kDeadlineExceeded,
                        "deadline exceeded before execution start");
      return;
    }
    timer.emplace(req->token_, remaining_ms, CancelReason::kDeadline,
                  "request deadline exceeded");
  }

  const gemm::PlanKey plan_key{a.rows(), b.cols(), a.cols(),
                               std::is_same_v<T, std::complex<float>>};
  const gemm::GemmPlan& plan = tenant_plan(req->options_.tenant, plan_key);

  gemm::ExecRails rails;
  rails.token = &req->token_;
  rails.deadline_ms = remaining_ms;
  // The driver requires a deadline backstop for stall detection, so a
  // no-deadline request runs without it.
  rails.stall_ms = remaining_ms > 0 ? config_.stall_ms : 0;
  const long grid_m =
      (a.rows() + config_.tile.block_m - 1) / config_.tile.block_m;
  const long grid_n =
      (b.cols() + config_.tile.block_n - 1) / config_.tile.block_n;
  rails.quarantine = &tenant_quarantine(req->options_.tenant, grid_m, grid_n);
  if (req->options_.b_key != 0) {
    rails.b_cache = &cache_;
    rails.b_key = req->options_.b_key;
  }
  rails.trace = req->trace_.get();

  // The original C operand, restored before every retry (the driver
  // accumulates into C in place).
  const gemm::Matrix<T> c0 = c;
  for (int attempt = 1;; ++attempt) {
    {
      const std::lock_guard<std::mutex> lock(req->mu_);
      req->attempts_ = attempt;
    }
    if (req->trace_ != nullptr) {
      req->trace_->event("request.attempt", attempt);
    }
    const char* transient = nullptr;
    std::string detail;
    try {
      if (attempt > 1) c = c0;
      req->stats_ = plan.execute(a, b, c, rails);
      const bool degraded = req->stats_.recovery.degraded_tiles +
                                req->stats_.recovery.poisoned_tiles >
                            0;
      resolve_and_count(
          req, degraded ? RequestStatus::kDegraded : RequestStatus::kOk,
          degraded ? "degraded per policy: suspect tiles accepted" : "");
      return;
    } catch (const DeadlineExceeded& e) {
      if (e.reason() == CancelReason::kStall) {
        // A watchdog stall is transient (a slow worker, an injected
        // delay): worth another attempt if budget remains.
        transient = "watchdog stall";
        detail = e.what();
      } else {
        resolve_and_count(req, RequestStatus::kDeadlineExceeded, e.what());
        return;
      }
    } catch (const CancelledError& e) {
      resolve_and_count(req, status_for_cancel(e.reason()), e.what());
      return;
    } catch (const gemm::AbftFailure& e) {
      // The ladder bottomed out under Terminal::kThrow. A fresh
      // attempt re-runs the full ladder (new retry streams).
      transient = "unrecovered ABFT failure";
      detail = e.what();
    } catch (const std::bad_alloc&) {
      transient = "allocation failure";
      detail = "std::bad_alloc";
    } catch (const CheckError& e) {
      resolve_and_count(req, RequestStatus::kFailed, e.what());
      return;
    } catch (const std::exception& e) {
      resolve_and_count(req, RequestStatus::kFailed, e.what());
      return;
    }
    if (attempt >= config_.max_attempts) {
      resolve_and_count(
          req, RequestStatus::kFailed,
          std::string(transient) + " after " +
              std::to_string(attempt) + " attempts: " + detail);
      return;
    }
    srv_retries.increment();
    // Exponential backoff, polling the token AND the shutdown flag so
    // a cancel, the deadline timer, or server stop cuts the wait
    // short - an executor sleeping out a long backoff must not stall
    // shutdown's join.
    std::int64_t backoff_ms = config_.retry_backoff_ms
                              << std::min(attempt - 1, 20);
    if (req->trace_ != nullptr) {
      req->trace_->event("request.retry_backoff", attempt,
                         static_cast<long>(backoff_ms), transient);
    }
    while (backoff_ms > 0 && !req->token_.cancelled() &&
           !shut_down_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --backoff_ms;
    }
    if (req->token_.cancelled()) {
      resolve_and_count(req, status_for_cancel(req->token_.reason_tag()),
                        "aborted during retry backoff: " +
                            req->token_.reason());
      return;
    }
    if (shut_down_.load(std::memory_order_acquire)) {
      req->token_.request_cancel("server shutdown during retry backoff",
                                 CancelReason::kShed);
      resolve_and_count(req, RequestStatus::kShed,
                        "shed: server shutdown during retry backoff");
      return;
    }
  }
}

template void GemmServer::run_attempts<float>(const RequestHandle&,
                                              gemm::Matrix<float>&,
                                              gemm::Matrix<float>&,
                                              gemm::Matrix<float>&);
template void GemmServer::run_attempts<std::complex<float>>(
    const RequestHandle&, gemm::Matrix<std::complex<float>>&,
    gemm::Matrix<std::complex<float>>&, gemm::Matrix<std::complex<float>>&);

}  // namespace m3xu::serve
