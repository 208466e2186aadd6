#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tacos::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: cheap bijective mixer, used to mint well-spread trace and
/// span ids (never zero — zero means "untraced").
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// %.17g renders a double so it round-trips through strtod exactly.
std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Extract the raw text of `"key":<value>` from one JSON line of our own
/// strict format; value ends at the next top-level ',' or '}'.
bool find_raw(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  int depth = 0;
  bool in_str = false;
  std::size_t end = pos;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (in_str) {
      if (c == '\\') {
        ++end;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  *out = line.substr(pos, end - pos);
  return true;
}

// ---- Thread-local caches -------------------------------------------------
//
// Same scheme as the metrics shards: each thread caches (tracer uid ->
// ThreadBuf*).  Uids are never reused, so a cache entry can never alias a
// buffer of a newer tracer after the old one is destroyed.

std::atomic<std::uint64_t> g_tracer_uid{1};

struct BufCacheEntry {
  std::uint64_t uid;
  void* buf;
};
thread_local std::vector<BufCacheEntry> t_buf_cache;

// ---- Thread-local span stack --------------------------------------------

thread_local std::vector<TraceSpan*> t_span_stack;

// ---- Trace context -------------------------------------------------------

/// Process ambient: {trace id, span id} this process's root spans chain to.
/// Set once by `--trace-ctx` in children; minted lazily otherwise.
std::atomic<std::uint64_t> g_proc_trace_id{0};
std::atomic<std::uint64_t> g_proc_span_id{0};

/// Span ids mix a per-process salt with a sequence number so ids from
/// concurrently tracing processes (fabric workers) do not collide when
/// their shards are merged onto one timeline.
std::atomic<std::uint64_t> g_span_seq{0};

std::uint64_t process_salt() {
  static const std::uint64_t salt =
      mix64(static_cast<std::uint64_t>(::getpid()) ^ steady_ns());
  return salt;
}

std::uint64_t mint_span_id() {
  const std::uint64_t id = mix64(
      process_salt() ^ (g_span_seq.fetch_add(1, std::memory_order_relaxed) + 1));
  return id != 0 ? id : 1;
}

}  // namespace

bool trace_enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }
void set_trace_enabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceContext process_trace_context() {
  return {g_proc_trace_id.load(std::memory_order_relaxed),
          g_proc_span_id.load(std::memory_order_relaxed)};
}

void set_process_trace_context(const TraceContext& ctx) {
  g_proc_trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  g_proc_span_id.store(ctx.span_id, std::memory_order_relaxed);
}

TraceContext current_trace_context() {
  if (!trace_enabled()) return {};
  // Innermost *traced* span; metrics-only spans sit on the stack too but
  // carry no ids, so skip them.
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if ((*it)->trace_id_ != 0) return {(*it)->trace_id_, (*it)->span_id_};
  }
  std::uint64_t trace = g_proc_trace_id.load(std::memory_order_relaxed);
  if (trace == 0) {
    // Lazily mint the process trace id.  Ids never touch journals, so the
    // mint being time-dependent cannot perturb determinism guarantees.
    std::uint64_t minted = mix64(process_salt() ^ 0x74616373u);
    if (minted == 0) minted = 1;
    std::uint64_t expected = 0;
    if (!g_proc_trace_id.compare_exchange_strong(expected, minted,
                                                std::memory_order_relaxed)) {
      minted = expected;  // another thread minted first; share its id
    }
    trace = minted;
  }
  return {trace, g_proc_span_id.load(std::memory_order_relaxed)};
}

std::string trace_context_string(const TraceContext& ctx) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 ":%016" PRIx64, ctx.trace_id,
                ctx.span_id);
  return buf;
}

bool parse_trace_context(const std::string& s, TraceContext* out) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  char* end = nullptr;
  const std::uint64_t trace = std::strtoull(s.c_str(), &end, 16);
  if (end != s.c_str() + colon) return false;
  const std::uint64_t span = std::strtoull(s.c_str() + colon + 1, &end, 16);
  if (end != s.c_str() + s.size()) return false;
  out->trace_id = trace;
  out->span_id = span;
  return true;
}

void append_json_kv(std::string& body, const char* key, const std::string& value) {
  if (!body.empty()) body += ',';
  body += '"';
  append_escaped(body, key);
  body += "\":\"";
  append_escaped(body, value.c_str());
  body += '"';
}

void append_json_kv(std::string& body, const char* key, double value) {
  if (!body.empty()) body += ',';
  body += '"';
  append_escaped(body, key);
  body += "\":";
  body += fmt_num(value);
}

void append_json_kv(std::string& body, const char* key, std::int64_t value) {
  if (!body.empty()) body += ',';
  body += '"';
  append_escaped(body, key);
  body += "\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  body += buf;
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer()
    : uid_(g_tracer_uid.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(steady_ns()) {
  wall_epoch_ms_.store(wall_ms(), std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000u +
         ts_offset_us_.load(std::memory_order_relaxed);
}

Tracer::ThreadBuf& Tracer::buf_for_this_thread() {
  for (const BufCacheEntry& e : t_buf_cache) {
    if (e.uid == uid_) return *static_cast<ThreadBuf*>(e.buf);
  }
  std::lock_guard<std::mutex> lk(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = static_cast<std::uint32_t>(bufs_.size());
  ThreadBuf* raw = buf.get();
  bufs_.push_back(std::move(buf));
  t_buf_cache.push_back({uid_, raw});
  return *raw;
}

void Tracer::emit_complete(const char* name, const char* cat,
                           std::uint64_t ts_us, std::uint64_t dur_us,
                           const std::string& args_json) {
  ThreadBuf& buf = buf_for_this_thread();
  if (approx_events_.load(std::memory_order_relaxed) >= kMaxEvents) {
    std::lock_guard<std::mutex> lk(buf.mu);
    ++buf.dropped;
    return;
  }
  approx_events_.fetch_add(1, std::memory_order_relaxed);

  std::string line;
  line.reserve(96 + args_json.size());
  line += "{\"name\":\"";
  append_escaped(line, name);
  line += "\",\"cat\":\"";
  append_escaped(line, cat);
  line += "\",\"ph\":\"X\",\"ts\":";
  char buf_num[32];
  std::snprintf(buf_num, sizeof(buf_num), "%" PRIu64, ts_us);
  line += buf_num;
  line += ",\"dur\":";
  std::snprintf(buf_num, sizeof(buf_num), "%" PRIu64, dur_us);
  line += buf_num;
  line += ",\"pid\":0,\"tid\":";
  std::snprintf(buf_num, sizeof(buf_num), "%u", buf.tid);
  line += buf_num;
  line += ",\"args\":{";
  line += args_json;
  line += "}}";

  std::lock_guard<std::mutex> lk(buf.mu);
  buf.lines.push_back(std::move(line));
}

std::string Tracer::to_json() const {
  // Snapshot under the registry lock, then each buffer under its own.
  std::vector<std::string> preloaded;
  std::uint64_t dropped = 0;
  struct Ev {
    std::uint64_t ts;
    std::uint32_t tid;
    const std::string* line;
  };
  std::vector<Ev> events;
  std::vector<std::vector<std::string>> copies;
  {
    std::lock_guard<std::mutex> lk(mu_);
    preloaded = preloaded_lines_;
    dropped = preloaded_dropped_;
    copies.reserve(bufs_.size());
    for (const auto& b : bufs_) {
      std::lock_guard<std::mutex> blk(b->mu);
      dropped += b->dropped;
      copies.push_back(b->lines);
    }
    for (std::size_t i = 0; i < copies.size(); ++i) {
      for (const std::string& line : copies[i]) {
        std::string raw;
        std::uint64_t ts = 0;
        if (find_raw(line, "ts", &raw)) {
          ts = std::strtoull(raw.c_str(), nullptr, 10);
        }
        events.push_back({ts, static_cast<std::uint32_t>(i), &line});
      }
    }
  }
  // Viewers prefer a time-sorted stream; ties broken by thread for
  // deterministic output.
  std::stable_sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.tid < b.tid;
  });

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":";
  char buf_num[32];
  std::snprintf(buf_num, sizeof(buf_num), "%" PRIu64, dropped);
  out += buf_num;
  out += ",\"epochMs\":";
  std::snprintf(buf_num, sizeof(buf_num), "%" PRIu64,
                wall_epoch_ms_.load(std::memory_order_relaxed));
  out += buf_num;
  out += "},\n\"traceEvents\":[\n";
  bool first = true;
  // Preloaded events first: they predate this run's (shifted) clock.
  for (const std::string& line : preloaded) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  }
  for (const Ev& e : events) {
    if (!first) out += ",\n";
    first = false;
    out += *e.line;
  }
  out += "\n]}\n";
  return out;
}

std::size_t Tracer::preload(const std::string& json) {
  const std::string open = "\"traceEvents\":[";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return 0;
  pos += open.size();

  std::vector<std::string> lines;
  std::uint64_t max_end_us = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    // Strip a trailing comma (the line separator in our format).
    while (!line.empty() && (line.back() == ',' || line.back() == '\r' ||
                             line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line[0] == ']') break;  // "]}" terminator
    if (line[0] != '{') continue;
    std::string raw;
    std::uint64_t ts = 0, dur = 0;
    if (find_raw(line, "ts", &raw)) ts = std::strtoull(raw.c_str(), nullptr, 10);
    if (find_raw(line, "dur", &raw)) dur = std::strtoull(raw.c_str(), nullptr, 10);
    max_end_us = std::max(max_end_us, ts + dur);
    lines.push_back(std::move(line));
  }

  std::uint64_t dropped = 0;
  {
    std::string raw;
    if (find_raw(json, "droppedEvents", &raw)) {
      dropped = std::strtoull(raw.c_str(), nullptr, 10);
    }
    // Keep the spliced file's wall-clock base: its events keep their old
    // timestamps, so ts == 0 still means the original epoch.
    if (find_raw(json, "epochMs", &raw)) {
      const std::uint64_t epoch = std::strtoull(raw.c_str(), nullptr, 10);
      if (epoch != 0) wall_epoch_ms_.store(epoch, std::memory_order_relaxed);
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  for (std::string& line : lines) {
    preloaded_lines_.push_back(std::move(line));
  }
  preloaded_dropped_ += dropped;
  approx_events_.fetch_add(lines.size(), std::memory_order_relaxed);
  if (max_end_us > 0) {
    // Shift this run's clock past the spliced history (plus a visible gap)
    // so the resumed timeline stays monotonic in the viewer.
    ts_offset_us_.store(max_end_us + 1000, std::memory_order_relaxed);
  }
  return lines.size();
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = preloaded_lines_.size();
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->lines.size();
  }
  return n;
}

std::uint64_t Tracer::wall_epoch_ms() const {
  return wall_epoch_ms_.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = preloaded_dropped_;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->dropped;
  }
  return n;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->lines.clear();
    b->dropped = 0;
  }
  preloaded_lines_.clear();
  preloaded_dropped_ = 0;
  ts_offset_us_.store(0, std::memory_order_relaxed);
  approx_events_.store(0, std::memory_order_relaxed);
  wall_epoch_ms_.store(wall_ms(), std::memory_order_relaxed);
}

// ---- SpanSite / TraceSpan ------------------------------------------------

void SpanSite::resolve_metrics() {
  std::call_once(once_, [this] {
    MetricsRegistry& reg = MetricsRegistry::global();
    const std::string base = std::string("span.") + name_;
    total_s_ = reg.counter(base + ".total_s");
    self_s_ = reg.counter(base + ".self_s");
    calls_ = reg.counter(base + ".calls");
  });
}

TraceSpan::TraceSpan(SpanSite& site) {
  tracing_ = trace_enabled();
  const bool metrics = metrics_enabled();
  if (!tracing_ && !metrics) return;
  site_ = &site;
  active_ = true;
  if (metrics) site.resolve_metrics();
  if (tracing_) {
    // Chain to whatever context is current *before* we join the stack.
    const TraceContext parent = current_trace_context();
    trace_id_ = parent.trace_id;
    parent_span_ = parent.span_id;
    span_id_ = mint_span_id();
  }
  t0_us_ = Tracer::global().now_us();
  t_span_stack.push_back(this);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t t1 = Tracer::global().now_us();
  const std::uint64_t dur = t1 >= t0_us_ ? t1 - t0_us_ : 0;
  // Strict RAII nesting per thread: we are the stack top.
  if (!t_span_stack.empty() && t_span_stack.back() == this) {
    t_span_stack.pop_back();
  }
  if (!t_span_stack.empty()) {
    t_span_stack.back()->children_us_ += dur;
  }
  if (metrics_enabled() && site_ != nullptr) {
    site_->resolve_metrics();
    const std::uint64_t self =
        dur >= children_us_ ? dur - children_us_ : 0;
    site_->total_s_.add(static_cast<double>(dur) * 1e-6);
    site_->self_s_.add(static_cast<double>(self) * 1e-6);
    site_->calls_.add(1.0);
  }
  if (tracing_ && trace_enabled()) {
    if (trace_id_ != 0) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id_);
      append_json_kv(args_, "trace", std::string(buf));
      std::snprintf(buf, sizeof(buf), "%016" PRIx64, span_id_);
      append_json_kv(args_, "span", std::string(buf));
      if (parent_span_ != 0) {
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, parent_span_);
        append_json_kv(args_, "parent", std::string(buf));
      }
    }
    Tracer::global().emit_complete(site_->name(), site_->cat(), t0_us_, dur,
                                   args_);
  }
}

void TraceSpan::arg(const char* key, const std::string& value) {
  if (!active_ || !tracing_) return;
  append_json_kv(args_, key, value);
}
void TraceSpan::arg(const char* key, const char* value) {
  if (!active_ || !tracing_) return;
  append_json_kv(args_, key, std::string(value));
}
void TraceSpan::arg(const char* key, double value) {
  if (!active_ || !tracing_) return;
  append_json_kv(args_, key, value);
}
void TraceSpan::arg(const char* key, std::int64_t value) {
  if (!active_ || !tracing_) return;
  append_json_kv(args_, key, value);
}

}  // namespace tacos::obs
