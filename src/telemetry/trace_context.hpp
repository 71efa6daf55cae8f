// Request-scoped tracing: a TraceContext carries one request's
// identity (process-unique request id + tenant + label) and a bounded,
// causally-ordered event log from admission to terminal resolution.
// The serving layer creates one per request and threads a pointer down
// through ExecRails into the tiled driver and recovery
// ladder; layers without a rails pointer (the core route dispatch)
// reach the active context through a thread-local scope installed by
// the driver around each tile.
//
// Events are request-level milestones (admission, queue wait, pack
// cache hits, ABFT detections, retries, demotions, terminal status),
// not per-element records: emission takes the context mutex and copies
// a short detail string, which is microseconds-scale against a
// millisecond-scale GEMM. The log is bounded at kMaxEvents; overflow
// increments a drop counter instead of growing.
//
// Event ids are drawn from one process-wide atomic, so they are unique
// and monotonic across pool threads; `seq` orders events within one
// context. Timestamps share the now_ns() epoch with trace spans, and
// the JSON export also carries span-relative microseconds so a
// per-request timeline can be laid over the Perfetto trace.
//
// In M3XU_TELEMETRY=OFF builds the class compiles to a no-op with the
// same surface: events are discarded, exports return empty documents.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace m3xu::telemetry {

class JsonWriter;

/// Events retained per request; later events are dropped (counted).
inline constexpr std::size_t kMaxTraceEvents = 512;

/// One milestone in a request's history. `name` must be a string
/// literal (the log stores the pointer). `a0`/`a1` are event-specific
/// small arguments (tile index, route rung, attempt number, ...); -1
/// means unused. `detail` is optional free-form context.
struct TraceEvent {
  std::uint64_t id = 0;     // process-unique, monotonic across threads
  std::uint64_t seq = 0;    // position within the owning context
  std::uint64_t ts_ns = 0;  // now_ns() epoch (same clock as spans)
  const char* name = "";
  long a0 = -1;
  long a1 = -1;
  std::string detail;
};

#if M3XU_TELEMETRY_ENABLED

class TraceContext {
 public:
  /// Assigns the next process-unique request id.
  TraceContext(std::string tenant, std::string label);
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  std::uint64_t request_id() const { return request_id_; }
  const std::string& tenant() const { return tenant_; }
  const std::string& label() const { return label_; }
  std::uint64_t created_ns() const { return created_ns_; }

  /// Appends one event. `name` must be a string literal.
  void event(const char* name, long a0 = -1, long a1 = -1,
             std::string detail = {});

  /// Appends the event only if no event with the same name (pointer or
  /// text equality) has been logged yet; returns true when appended.
  /// Used by per-chunk code (core route dispatch) to record "this
  /// request left the fast path" exactly once instead of flooding.
  bool event_once(const char* name, long a0 = -1, long a1 = -1);

  /// Snapshot of the log so far, seq-ordered (thread-safe copy).
  std::vector<TraceEvent> events() const;
  /// Events discarded after the log filled up.
  std::uint64_t dropped() const;

  /// Writes {"request_id", "tenant", "label", "created_ns", "events":
  /// [...], "dropped_events"} as the writer's next value. Each event
  /// carries ts_ns plus ts_us relative to the span-trace origin.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  const std::uint64_t request_id_;
  const std::string tenant_;
  const std::string label_;
  const std::uint64_t created_ns_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Installs `ctx` as the calling thread's active context for the
/// scope's lifetime (nullptr is fine and means "no tracing"). Nests:
/// the previous context is restored on destruction.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext* ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext* prev_;
};

/// The calling thread's active context, or nullptr.
TraceContext* current_trace_context();

#else  // !M3XU_TELEMETRY_ENABLED

class TraceContext {
 public:
  TraceContext(std::string, std::string) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  std::uint64_t request_id() const { return 0; }
  const std::string& tenant() const { return empty_; }
  const std::string& label() const { return empty_; }
  std::uint64_t created_ns() const { return 0; }

  void event(const char*, long = -1, long = -1, std::string = {}) {}
  bool event_once(const char*, long = -1, long = -1) { return false; }

  std::vector<TraceEvent> events() const { return {}; }
  std::uint64_t dropped() const { return 0; }

  void write_json(JsonWriter& w) const;
  std::string to_json() const { return "{}"; }

 private:
  inline static const std::string empty_;
};

class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext*) {}
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;
};

inline TraceContext* current_trace_context() { return nullptr; }

#endif  // M3XU_TELEMETRY_ENABLED

}  // namespace m3xu::telemetry
