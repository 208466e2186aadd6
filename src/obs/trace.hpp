#pragma once
/// \file trace.hpp
/// \brief Structured tracing: RAII spans on thread-local stacks, exported
///        as Chrome `trace_event` JSON (chrome://tracing / Perfetto).
///
/// Every instrumentation point declares one function-local `SpanSite`
/// (static — resolved once) and opens a `TraceSpan` on it.  When both
/// tracing and metrics are off the span constructor is two relaxed atomic
/// loads and a branch; nothing is allocated.  When on, the span:
///
///  * pushes itself on a thread-local stack so nesting is tracked,
///  * on destruction emits one complete ("ph":"X") Chrome trace event into
///    the calling thread's private buffer (merged at export — same
///    contention-free pattern as the metrics shards), and
///  * feeds the metrics registry with three counters per site —
///    `span.<name>.total_s` (inclusive), `span.<name>.self_s` (exclusive:
///    duration minus time spent in child spans) and `span.<name>.calls` —
///    so the metrics file alone answers "where did the time go": the
///    self-times of all spans under a root span sum to ~the root's total.
///
/// Export format (strict, line-oriented — `Tracer::preload` parses it back
/// so a resumed `--run-dir` sweep appends to the same trace):
///
///   {"displayTimeUnit":"ms","otherData":{"droppedEvents":N},
///   "traceEvents":[
///   {"name":"...","cat":"...","ph":"X","ts":1,"dur":2,"pid":0,"tid":1,"args":{}},
///   ...
///   ]}
///
/// Timestamps are microseconds on the process steady clock; on resume the
/// clock is offset past the previous run's last event so the spliced
/// timeline stays monotonic in the viewer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tacos::obs {

/// Process-wide tracing switch (off by default; near-zero disabled cost).
bool trace_enabled();
void set_trace_enabled(bool on);

/// A trace/span-id pair identifying "who asked for this work".  A zero
/// trace id means "untraced": codecs omit the pair entirely so untraced
/// artifacts stay byte-identical to pre-trace-context builds.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext& o) const {
    return trace_id == o.trace_id && span_id == o.span_id;
  }
};

/// The context new spans (and spawned workers) should chain from: the
/// innermost open traced span on this thread, else the process ambient.
/// Returns a zero context when tracing is disabled — callers need no extra
/// guard.
TraceContext current_trace_context();

/// Process ambient context.  Set explicitly in child processes (fabric
/// workers receive the supervisor's context via an internal `--trace-ctx`
/// flag); lazily minted from pid + clock the first time a traced span needs
/// a trace id.  Trace ids never reach journals, so the mint being
/// non-deterministic is harmless.
TraceContext process_trace_context();
void set_process_trace_context(const TraceContext& ctx);

/// Render "trace:span" as zero-padded hex (the `--trace-ctx=` wire form)
/// and parse it back.  parse accepts only the exact emitted form.
std::string trace_context_string(const TraceContext& ctx);
bool parse_trace_context(const std::string& s, TraceContext* out);

class TraceSpan;

/// Collects finished span events in per-thread buffers; merged at export.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer every TraceSpan emits into.
  static Tracer& global();

  /// Microseconds since tracer construction (plus any resume offset).
  std::uint64_t now_us() const;

  /// Append one complete ("X") event to the calling thread's buffer.
  /// `args_json` is the inner object body without braces (may be empty).
  void emit_complete(const char* name, const char* cat, std::uint64_t ts_us,
                     std::uint64_t dur_us, const std::string& args_json);

  /// Full Chrome trace_event JSON document (see file header for format).
  std::string to_json() const;

  /// Splice a previous run's `to_json()` output in front of this run's
  /// events and shift our clock past its last event (the `--run-dir`
  /// resume path).  Returns the number of events loaded.
  std::size_t preload(const std::string& json);

  /// Events currently buffered (preloaded + new, excluding dropped).
  std::size_t event_count() const;
  /// Events discarded because the buffer cap was reached.
  std::uint64_t dropped_events() const;

  /// Wall-clock milliseconds (Unix epoch) corresponding to `ts == 0`;
  /// exported as `otherData.epochMs` so `obs::merge` can align shards
  /// emitted by different processes onto one timeline.  On preload the
  /// spliced file's epoch is adopted, so resumed timelines keep one base.
  std::uint64_t wall_epoch_ms() const;

  /// Drop every buffered event and reset the clock offset (tests).
  void reset();

  /// Buffer cap: beyond this many events new ones are counted as dropped
  /// so a runaway sweep cannot exhaust memory through its own trace.
  static constexpr std::size_t kMaxEvents = 1u << 21;

 private:
  /// One thread's private event buffer.  The owning thread locks `mu` on
  /// every emit; only the exporter ever contends.
  struct ThreadBuf {
    std::mutex mu;
    std::uint32_t tid = 0;  ///< small sequential id, stable per thread
    std::vector<std::string> lines;
    std::uint64_t dropped = 0;
  };

  ThreadBuf& buf_for_this_thread();

  const std::uint64_t uid_;  ///< distinguishes tracers in thread caches
  const std::uint64_t epoch_ns_;

  mutable std::mutex mu_;  ///< guards bufs_ and the preload state
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::vector<std::string> preloaded_lines_;
  std::uint64_t preloaded_dropped_ = 0;

  std::atomic<std::uint64_t> ts_offset_us_{0};  ///< resume splice shift
  std::atomic<std::size_t> approx_events_{0};
  std::atomic<std::uint64_t> wall_epoch_ms_{0};  ///< wall clock at ts == 0
};

/// One named instrumentation point.  Declare as a function-local static so
/// the metric handles resolve once:
///
///   static obs::SpanSite site("thermal.solve", "thermal");
///   obs::TraceSpan span(site);
///   span.arg("rung", rung_name);
class SpanSite {
 public:
  explicit SpanSite(const char* name, const char* cat = "tacos")
      : name_(name), cat_(cat) {}
  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  const char* name() const { return name_; }
  const char* cat() const { return cat_; }

 private:
  friend class TraceSpan;
  void resolve_metrics();  ///< lazy, once; registers the three counters

  const char* name_;
  const char* cat_;
  std::once_flag once_;
  Counter total_s_, self_s_, calls_;
};

/// RAII span: times a scope, tracks nesting per thread, emits the trace
/// event and site metrics on destruction.  Inert (and cheap) when both
/// tracing and metrics are disabled.
class TraceSpan {
 public:
  explicit TraceSpan(SpanSite& site);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is recording (either backend enabled at entry).
  bool active() const { return active_; }

  /// This span's identity in the distributed trace ({0,0} when the trace
  /// backend was off at entry).  Hand it to outgoing work (lease claims)
  /// so child processes chain to this span.
  TraceContext context() const { return {trace_id_, span_id_}; }

  /// Attach a key/value to the trace event's `args` object.  No-ops when
  /// inactive or when only metrics are enabled (args exist only in the
  /// trace); call sites don't need their own guards.
  void arg(const char* key, const std::string& value);
  void arg(const char* key, const char* value);
  void arg(const char* key, double value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, int value) { arg(key, static_cast<std::int64_t>(value)); }
  void arg(const char* key, std::size_t value) {
    arg(key, static_cast<std::int64_t>(value));
  }

 private:
  friend TraceContext current_trace_context();

  SpanSite* site_ = nullptr;
  bool active_ = false;
  bool tracing_ = false;  ///< trace backend was on at entry
  std::uint64_t t0_us_ = 0;
  std::uint64_t children_us_ = 0;  ///< children add their duration here
  std::uint64_t trace_id_ = 0;     ///< inherited from the parent context
  std::uint64_t span_id_ = 0;      ///< minted per span when tracing
  std::uint64_t parent_span_ = 0;  ///< parent context's span id (0 = root)
  std::string args_;               ///< inner JSON body, comma-joined
};

/// Append `"key":"escaped"` (comma-prefixed if needed) to an args body.
void append_json_kv(std::string& body, const char* key, const std::string& value);
void append_json_kv(std::string& body, const char* key, double value);
void append_json_kv(std::string& body, const char* key, std::int64_t value);

}  // namespace tacos::obs
