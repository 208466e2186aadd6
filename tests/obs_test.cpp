/// Tests for the observability layer (src/obs): shard-merge determinism of
/// the metrics registry at 1/2/8 threads, histogram bucket (`le`) edge
/// semantics, span nesting / self-time accounting, Chrome-trace JSON
/// well-formedness (parsed back with a real JSON parser), the preload
/// round trips behind `--run-dir --resume`, and the ThreadPool gauges.
/// The concurrent update-while-scrape tests double as the TSan targets
/// for the registry and the tracer.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "entry/run_options.hpp"
#include "obs/obs.hpp"

namespace tacos {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// Enable chosen backends for one test body; always restore "off" (the
/// process default every other test suite in this binary relies on).
struct ObsGuard {
  ObsGuard(bool metrics, bool trace) {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
  }
  ~ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
};

bool find_counter(const obs::MetricsSnapshot& s, const std::string& name,
                  double* out) {
  for (const auto& kv : s.counters)
    if (kv.first == name) {
      *out = kv.second;
      return true;
    }
  return false;
}

bool find_gauge(const obs::MetricsSnapshot& s, const std::string& name,
                double* out) {
  for (const auto& kv : s.gauges)
    if (kv.first == name) {
      *out = kv.second;
      return true;
    }
  return false;
}

bool find_hist(const obs::MetricsSnapshot& s, const std::string& name,
               obs::HistogramSnapshot* out) {
  for (const auto& kv : s.histograms)
    if (kv.first == name) {
      *out = kv.second;
      return true;
    }
  return false;
}

double counter_or(const obs::MetricsSnapshot& s, const std::string& name,
                  double fallback) {
  double v = fallback;
  find_counter(s, name, &v);
  return v;
}

/// Burn wall time so span durations are distinguishable at µs resolution.
void spin_for_us(std::int64_t us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < us) {
  }
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: the "parse it back" half of the
// Chrome-trace well-formedness contract.  Accepts exactly the JSON value
// grammar (objects, arrays, strings with escapes, numbers, literals);
// rejects trailing garbage.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++i_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() || !std::isxdigit(
                static_cast<unsigned char>(s_[i_])))
              return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++i_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    if (i_ == start) return false;
    char* end = nullptr;
    const std::string tok = s_.substr(start, i_ - start);
    std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

bool json_well_formed(const std::string& s) { return JsonChecker(s).valid(); }

/// Extract `"key":<unsigned>` from one trace-event line.
bool event_u64(const std::string& line, const std::string& key,
               std::uint64_t* out) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t pos = line.find(pat);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + pos + pat.size(), nullptr, 10);
  return true;
}

/// The event lines of a Tracer::to_json() document (trailing commas
/// stripped), in document order.
std::vector<std::string> event_lines(const std::string& doc) {
  std::vector<std::string> out;
  const std::size_t open = doc.find("\"traceEvents\":[");
  EXPECT_NE(open, std::string::npos);
  std::size_t pos = doc.find('\n', open);
  while (pos != std::string::npos) {
    ++pos;
    std::size_t eol = doc.find('\n', pos);
    if (eol == std::string::npos) break;
    std::string line = doc.substr(pos, eol - pos);
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (!line.empty() && line.front() == '{') out.push_back(line);
    pos = eol;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bucket-edge generators

TEST(ObsEdges, Pow2EdgesDoubleUpToLast) {
  const std::vector<double> e = obs::pow2_edges(1, 4096);
  ASSERT_GE(e.size(), 2u);
  EXPECT_DOUBLE_EQ(e.front(), 1.0);
  EXPECT_GE(e.back(), 4096.0);
  for (std::size_t i = 1; i < e.size(); ++i)
    EXPECT_DOUBLE_EQ(e[i], 2.0 * e[i - 1]);
}

TEST(ObsEdges, DecadeEdgesCoverRange) {
  const std::vector<double> e = obs::decade_edges(1e-12, 1.0);
  ASSERT_GE(e.size(), 2u);
  EXPECT_DOUBLE_EQ(e.front(), 1e-12);
  EXPECT_GE(e.back(), 1.0 - 1e-9);
  for (std::size_t i = 1; i < e.size(); ++i)
    EXPECT_NEAR(e[i] / e[i - 1], 10.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(ObsMetrics, HistogramLeBucketSemantics) {
  ObsGuard on(true, false);
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("h", {1.0, 2.0, 4.0});
  // A value lands in the first bucket whose edge is >= value; above the
  // last edge is the overflow cell.
  for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 4.5}) h.observe(v);
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(find_hist(reg.snapshot(), "h", &snap));
  ASSERT_EQ(snap.edges.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);  // 0.5, 1.0 (edge is inclusive)
  EXPECT_EQ(snap.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(snap.counts[2], 1u);  // 4.0
  EXPECT_EQ(snap.counts[3], 1u);  // 4.5 -> overflow
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5);
}

TEST(ObsMetrics, ShardMergeDeterministicAcrossThreadCounts) {
  ObsGuard on(true, false);
  const std::size_t kAdds = 10000;
  std::vector<double> counter_totals;
  std::vector<std::uint64_t> hist_counts;
  for (std::size_t n_threads : {1u, 2u, 8u}) {
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("work");
    obs::Histogram h = reg.histogram("vals", obs::pow2_edges(1, 8));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n_threads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kAdds / n_threads; ++i) {
          c.add();
          h.observe(static_cast<double>((t + i) % 10));
        }
      });
    for (auto& th : threads) th.join();
    double total = 0.0;
    obs::HistogramSnapshot snap;
    const obs::MetricsSnapshot s = reg.snapshot();
    ASSERT_TRUE(find_counter(s, "work", &total));
    ASSERT_TRUE(find_hist(s, "vals", &snap));
    counter_totals.push_back(total);
    hist_counts.push_back(snap.count);
    // 10000 is divisible by 1, 2 and 8? 10000/8 = 1250 exactly.
    EXPECT_DOUBLE_EQ(total, static_cast<double>(kAdds));
    EXPECT_EQ(snap.count, kAdds);
  }
  for (std::size_t i = 1; i < counter_totals.size(); ++i) {
    EXPECT_DOUBLE_EQ(counter_totals[i], counter_totals[0]);
    EXPECT_EQ(hist_counts[i], hist_counts[0]);
  }
}

TEST(ObsMetrics, GaugeLastWriterWinsAcrossThreads) {
  ObsGuard on(true, false);
  obs::MetricsRegistry reg;
  obs::Gauge g = reg.gauge("g");
  g.set(1.0);
  std::thread other([&] { g.set(2.0); });
  other.join();
  double v = 0.0;
  ASSERT_TRUE(find_gauge(reg.snapshot(), "g", &v));
  EXPECT_DOUBLE_EQ(v, 2.0);  // the join orders the writes: 2.0 is last
  g.set(3.0);
  ASSERT_TRUE(find_gauge(reg.snapshot(), "g", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(ObsMetrics, RegistrationIsIdempotentByName) {
  ObsGuard on(true, false);
  obs::MetricsRegistry reg;
  obs::Counter a = reg.counter("c");
  obs::Counter b = reg.counter("c");
  a.add(2.0);
  b.add(3.0);
  const obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(counter_or(s, "c", -1.0), 5.0);

  // Re-registering a histogram with different edges keeps the originals.
  reg.histogram("h", {1.0, 2.0});
  reg.histogram("h", {10.0, 20.0, 30.0});
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(find_hist(reg.snapshot(), "h", &snap));
  EXPECT_EQ(snap.edges, (std::vector<double>{1.0, 2.0}));
}

TEST(ObsMetrics, ResetValuesKeepsDefinitions) {
  ObsGuard on(true, false);
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("c");
  obs::Gauge g = reg.gauge("g");
  obs::Histogram h = reg.histogram("h", {1.0});
  c.add(4.0);
  g.set(7.0);
  h.observe(0.5);
  reg.reset_values();
  const obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(counter_or(s, "c", -1.0), 0.0);
  double gv = -1.0;
  ASSERT_TRUE(find_gauge(s, "g", &gv));
  EXPECT_DOUBLE_EQ(gv, 0.0);
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(find_hist(s, "h", &snap));
  EXPECT_EQ(snap.count, 0u);
  // Handles stay valid after the reset.
  c.add(1.0);
  EXPECT_DOUBLE_EQ(counter_or(reg.snapshot(), "c", -1.0), 1.0);
}

TEST(ObsMetrics, JsonExportIsWellFormedAndPreloadsBack) {
  ObsGuard on(true, false);
  obs::MetricsRegistry a;
  a.counter("solves").add(5.0);
  a.gauge("threads").set(2.5);
  obs::Histogram h = a.histogram("iters", {1.0, 10.0});
  h.observe(0.5);
  h.observe(100.0);
  const std::string json = a.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;

  // The resume path: preload yesterday's artifact, add today's work, and
  // the next export carries the accumulated totals.
  obs::MetricsRegistry b;
  EXPECT_EQ(b.preload_from_json(json), 3u);
  b.counter("solves").add(3.0);
  const obs::MetricsSnapshot s = b.snapshot();
  EXPECT_DOUBLE_EQ(counter_or(s, "solves", -1.0), 8.0);
  double gv = -1.0;
  ASSERT_TRUE(find_gauge(s, "threads", &gv));
  EXPECT_DOUBLE_EQ(gv, 2.5);  // preloaded value survives with no live write
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(find_hist(s, "iters", &snap));
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[2], 1u);  // overflow cell round-trips too
  EXPECT_DOUBLE_EQ(snap.sum, 100.5);

  // A live write after preload overrides the preloaded gauge.
  b.gauge("threads").set(9.0);
  ASSERT_TRUE(find_gauge(b.snapshot(), "threads", &gv));
  EXPECT_DOUBLE_EQ(gv, 9.0);

  // Round-trip the merged registry once more: still valid JSON, and the
  // human-readable export mentions every metric.
  EXPECT_TRUE(json_well_formed(b.to_json()));
  const std::string text = b.to_text();
  EXPECT_NE(text.find("solves"), std::string::npos);
  EXPECT_NE(text.find("threads"), std::string::npos);
  EXPECT_NE(text.find("iters"), std::string::npos);
}

TEST(ObsMetrics, DisabledWritesAreDropped) {
  ObsGuard off(false, false);
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("c");
  c.add(5.0);
  EXPECT_DOUBLE_EQ(counter_or(reg.snapshot(), "c", -1.0), 0.0);
}

// The TSan target for the registry: writers hammer every metric type
// while the scraper exports concurrently.  Run under
// -fsanitize=thread in CI; the final totals also check nothing is lost.
TEST(ObsMetrics, ConcurrentUpdatesWhileScraping) {
  ObsGuard on(true, false);
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("c");
  obs::Gauge g = reg.gauge("g");
  obs::Histogram h = reg.histogram("h", {1.0, 2.0, 4.0});
  const std::size_t kWriters = 4, kOps = 10000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot s = reg.snapshot();
      (void)s;
      (void)reg.to_json();
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t)
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kOps; ++i) {
        c.add();
        g.set(static_cast<double>(t));
        h.observe(static_cast<double>(i % 6));
      }
    });
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  const obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(counter_or(s, "c", -1.0),
                   static_cast<double>(kWriters * kOps));
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(find_hist(s, "h", &snap));
  EXPECT_EQ(snap.count, kWriters * kOps);
}

// ---------------------------------------------------------------------------
// Tracer document format

TEST(ObsTrace, ChromeTraceJsonParsesBack) {
  obs::Tracer t;
  t.emit_complete("solve", "thermal", 10, 5, "");
  std::string args;
  obs::append_json_kv(args, "bench", std::string("chol\"esky\n"));
  obs::append_json_kv(args, "iters", static_cast<std::int64_t>(42));
  obs::append_json_kv(args, "resid", 1.5e-7);
  t.emit_complete("task", "opt", 1, 100, args);
  EXPECT_EQ(t.event_count(), 2u);

  const std::string doc = t.to_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  ASSERT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  ASSERT_NE(doc.find("\"droppedEvents\":0"), std::string::npos);

  const std::vector<std::string> lines = event_lines(doc);
  ASSERT_EQ(lines.size(), 2u);
  // Events come out time-sorted regardless of emission order, each with
  // the full Chrome complete-event field set.
  std::uint64_t ts0 = 0, ts1 = 0;
  ASSERT_TRUE(event_u64(lines[0], "ts", &ts0));
  ASSERT_TRUE(event_u64(lines[1], "ts", &ts1));
  EXPECT_LE(ts0, ts1);
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_well_formed(line)) << line;
    for (const char* key : {"\"name\":", "\"cat\":", "\"ph\":\"X\"",
                            "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":",
                            "\"args\":"})
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }
  EXPECT_NE(doc.find("\"iters\":42"), std::string::npos);
}

TEST(ObsTrace, EmissionFromManyThreadsStaysWellFormed) {
  obs::Tracer t;
  const std::size_t kThreads = 4, kEvents = 2000;
  std::atomic<bool> done{false};
  std::thread exporter([&] {
    while (!done.load(std::memory_order_relaxed)) (void)t.to_json();
  });
  std::vector<std::thread> emitters;
  for (std::size_t k = 0; k < kThreads; ++k)
    emitters.emplace_back([&, k] {
      for (std::size_t i = 0; i < kEvents; ++i)
        t.emit_complete("ev", "test", k * kEvents + i, 1, "");
    });
  for (auto& e : emitters) e.join();
  done.store(true, std::memory_order_relaxed);
  exporter.join();
  EXPECT_EQ(t.event_count(), kThreads * kEvents);
  const std::string doc = t.to_json();
  EXPECT_TRUE(json_well_formed(doc));
  EXPECT_EQ(event_lines(doc).size(), kThreads * kEvents);
}

TEST(ObsTrace, PreloadSplicesAndShiftsTheClock) {
  obs::Tracer a;
  a.emit_complete("old.task", "run", 100, 50, "");
  a.emit_complete("old.root", "run", 0, 200, "");
  const std::string json_a = a.to_json();

  obs::Tracer b;
  EXPECT_EQ(b.preload(json_a), 2u);
  // The resumed clock starts past the previous run's last event, so the
  // spliced timeline stays monotonic in the viewer.
  const std::uint64_t now = b.now_us();
  EXPECT_GE(now, 200u + 1000u);
  b.emit_complete("new.task", "run", now, 10, "");
  const std::string doc = b.to_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  const std::vector<std::string> lines = event_lines(doc);
  ASSERT_EQ(lines.size(), 3u);
  // Preloaded events come first, the resumed run's events after.
  EXPECT_NE(lines[0].find("old."), std::string::npos);
  EXPECT_NE(lines[1].find("old."), std::string::npos);
  EXPECT_NE(lines[2].find("new.task"), std::string::npos);
  std::uint64_t new_ts = 0;
  ASSERT_TRUE(event_u64(lines[2], "ts", &new_ts));
  EXPECT_GE(new_ts, 200u + 1000u);
}

// ---------------------------------------------------------------------------
// Spans (global tracer + registry — the instrumented-code path)

TEST(ObsSpans, NestingOrderingAndSelfTimeAccounting) {
  ObsGuard on(true, true);
  obs::Tracer::global().reset();
  obs::MetricsRegistry::global().reset_values();

  static obs::SpanSite outer_site("test.outer", "test");
  static obs::SpanSite inner_site("test.inner", "test");
  {
    obs::TraceSpan outer(outer_site);
    ASSERT_TRUE(outer.active());
    outer.arg("k", std::string("v"));
    spin_for_us(2000);
    {
      obs::TraceSpan inner(inner_site);
      ASSERT_TRUE(inner.active());
      spin_for_us(2000);
    }
    spin_for_us(2000);
  }

  // Metrics side: one call each; the outer's self time excludes the inner
  // span exactly (self = duration - children, in the same µs arithmetic).
  const obs::MetricsSnapshot s = obs::MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(counter_or(s, "span.test.outer.calls", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(counter_or(s, "span.test.inner.calls", -1.0), 1.0);
  const double outer_total = counter_or(s, "span.test.outer.total_s", -1.0);
  const double outer_self = counter_or(s, "span.test.outer.self_s", -1.0);
  const double inner_total = counter_or(s, "span.test.inner.total_s", -1.0);
  EXPECT_GE(outer_total, inner_total);
  EXPECT_GE(inner_total, 1e-3);  // at least the 2ms spin
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);

  // Trace side: both events on one thread, time-sorted (outer starts
  // first), and the inner interval is contained in the outer's.
  const std::string doc = obs::Tracer::global().to_json();
  obs::Tracer::global().reset();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  const std::vector<std::string> lines = event_lines(doc);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"test.inner\""), std::string::npos);
  std::uint64_t o_ts = 0, o_dur = 0, i_ts = 0, i_dur = 0, o_tid = 0,
                i_tid = 1;
  ASSERT_TRUE(event_u64(lines[0], "ts", &o_ts));
  ASSERT_TRUE(event_u64(lines[0], "dur", &o_dur));
  ASSERT_TRUE(event_u64(lines[1], "ts", &i_ts));
  ASSERT_TRUE(event_u64(lines[1], "dur", &i_dur));
  ASSERT_TRUE(event_u64(lines[0], "tid", &o_tid));
  ASSERT_TRUE(event_u64(lines[1], "tid", &i_tid));
  EXPECT_EQ(o_tid, i_tid);
  EXPECT_LE(o_ts, i_ts);
  EXPECT_LE(i_ts + i_dur, o_ts + o_dur);
  EXPECT_NE(lines[0].find("\"k\":\"v\""), std::string::npos);
}

TEST(ObsSpans, DisabledSpansAreInert) {
  ObsGuard off(false, false);
  obs::Tracer::global().reset();
  obs::MetricsRegistry::global().reset_values();
  static obs::SpanSite site("test.inert", "test");
  {
    obs::TraceSpan span(site);
    EXPECT_FALSE(span.active());
    span.arg("k", 1);  // must be a no-op, not a crash
  }
  EXPECT_EQ(obs::Tracer::global().event_count(), 0u);
  double v = 0.0;
  EXPECT_FALSE(
      find_counter(obs::MetricsRegistry::global().snapshot(),
                   "span.test.inert.calls", &v) &&
      v != 0.0);
}

// ---------------------------------------------------------------------------
// ThreadPool gauges and the front door

TEST(ObsPool, PoolPublishesUtilizationMetrics) {
  ObsGuard on(true, false);
  obs::MetricsRegistry::global().reset_values();
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(1000, 10, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000u);
  const obs::MetricsSnapshot s = obs::MetricsRegistry::global().snapshot();
  double threads = 0.0;
  ASSERT_TRUE(find_gauge(s, "pool.threads", &threads));
  EXPECT_DOUBLE_EQ(threads, 3.0);
  EXPECT_GE(counter_or(s, "pool.tasks_enqueued", -1.0), 1.0);
  double depth = -1.0;
  EXPECT_TRUE(find_gauge(s, "pool.queue_depth", &depth));
  // Per-worker execution counters exist for both workers (lane 0 is the
  // caller and has none).
  double w = -1.0;
  EXPECT_TRUE(find_counter(s, "pool.worker.0.tasks_executed", &w));
  EXPECT_TRUE(find_counter(s, "pool.worker.1.tasks_executed", &w));
}

TEST(ObsOptions, ParsesFlagsAndPublishesArtifacts) {
  ObsGuard restore(false, false);  // dtor restores "off" after finalize()
  // The flag table (src/entry/run_options.hpp) fills the options.
  using entry::apply_flag;
  using entry::kObsFlags;
  entry::RunOptions ro;
  EXPECT_THROW(apply_flag("--frobnicate", kObsFlags, ro), entry::UsageError);
  EXPECT_THROW(apply_flag("12", kObsFlags, ro), entry::UsageError);
  apply_flag("--metrics", kObsFlags, ro);
  apply_flag("--trace=/explicit/trace.json", kObsFlags, ro);
  const obs::ObsOptions& o = ro.obs;
  EXPECT_TRUE(o.metrics);
  EXPECT_TRUE(o.trace);
  EXPECT_EQ(o.trace_path, "/explicit/trace.json");
  EXPECT_TRUE(o.metrics_path.empty());

  // Defaults resolve into the run dir, next to the journal.
  entry::RunOptions rp;
  apply_flag("--metrics", kObsFlags, rp);
  apply_flag("--trace", kObsFlags, rp);
  obs::ObsOptions& p = rp.obs;
  const std::string dir = ::testing::TempDir();
  p.finalize(dir, /*resume=*/false);
  EXPECT_TRUE(obs::metrics_enabled());
  EXPECT_TRUE(obs::trace_enabled());
  EXPECT_NE(p.metrics_path.find(dir), std::string::npos);
  EXPECT_NE(p.metrics_path.find("metrics.json"), std::string::npos);
  EXPECT_NE(p.trace_path.find("trace.json"), std::string::npos);

  obs::MetricsRegistry::global().counter("test.publish").add(1.0);
  EXPECT_TRUE(p.publish());
  for (const std::string& path : {p.metrics_path, p.trace_path}) {
    std::string content;
    {
      FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr) << path;
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, n);
      std::fclose(f);
    }
    EXPECT_TRUE(json_well_formed(content)) << path;
  }
}

TEST(ObsOptions, RecordRunHealthExportsNonZeroCounters) {
  ObsGuard on(true, false);
  obs::MetricsRegistry::global().reset_values();
  RunHealth h;
  h.cold_restarts = 2;
  h.timeouts = 1;
  EXPECT_TRUE(json_well_formed(h.to_json()));
  obs::record_run_health(h);
  const obs::MetricsSnapshot s = obs::MetricsRegistry::global().snapshot();
  EXPECT_DOUBLE_EQ(counter_or(s, "health.cold_restarts", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(counter_or(s, "health.timeouts", -1.0), 1.0);
  // Zero fields are skipped: either never registered or still zero.
  EXPECT_LE(counter_or(s, "health.quarantined", 0.0), 0.0);
}

}  // namespace
}  // namespace tacos
