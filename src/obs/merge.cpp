#include "obs/merge.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

namespace tacos::obs {

namespace {

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extract the raw text of `"key":<value>` from one line of our own strict
/// trace format (value ends at the next top-level ',' or '}').  Also
/// reports the value's [begin, end) span for in-place rewriting.
bool find_raw_span(const std::string& line, const char* key, std::string* out,
                   std::size_t* begin, std::size_t* end) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  int depth = 0;
  bool in_str = false;
  std::size_t stop = pos;
  for (; stop < line.size(); ++stop) {
    const char c = line[stop];
    if (in_str) {
      if (c == '\\') {
        ++stop;
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
  *out = line.substr(pos, stop - pos);
  if (begin) *begin = pos;
  if (end) *end = stop;
  return true;
}

bool find_raw(const std::string& line, const char* key, std::string* out) {
  return find_raw_span(line, key, out, nullptr, nullptr);
}

/// Replace the raw value of a numeric field in place; false when absent.
bool replace_num_field(std::string* line, const char* key,
                       std::uint64_t value) {
  std::string raw;
  std::size_t begin = 0, end = 0;
  if (!find_raw_span(*line, key, &raw, &begin, &end)) return false;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  line->replace(begin, end - begin, buf);
  return true;
}

/// One parsed shard, events still as raw JSON lines.
struct ParsedShard {
  TraceShard info;
  std::uint64_t epoch_ms = 0;
  std::uint64_t dropped = 0;
  std::vector<std::string> lines;
};

/// Tolerant line-wise parse of one shard: every complete event line is
/// kept; a missing "]}" terminator flags the shard torn.
ParsedShard parse_shard(const std::string& dir_path, TraceShard info) {
  ParsedShard out;
  out.info = std::move(info);
  const std::string body = read_whole_file(dir_path + "/" + out.info.file);
  std::string raw;
  if (find_raw(body, "epochMs", &raw))
    out.epoch_ms = std::strtoull(raw.c_str(), nullptr, 10);
  if (find_raw(body, "droppedEvents", &raw))
    out.dropped = std::strtoull(raw.c_str(), nullptr, 10);

  const std::string open = "\"traceEvents\":[";
  std::size_t pos = body.find(open);
  if (pos == std::string::npos) {
    out.info.torn = true;
    return out;
  }
  pos += open.size();
  bool terminated = false;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    const bool complete_line = eol != std::string::npos;
    if (!complete_line) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.back() == ',' || line.back() == '\r' ||
                             line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line[0] == ']') {
      terminated = true;
      break;
    }
    if (line[0] != '{' || line.back() != '}') continue;  // torn fragment
    if (!complete_line) continue;  // unterminated final line: drop it
    out.lines.push_back(std::move(line));
  }
  out.info.torn = !terminated;
  out.info.events = out.lines.size();
  return out;
}

/// Stable shard identity: which files we merge and the pid each one gets.
/// Worker k keeps pid 2+k no matter which other shards exist, so reruns
/// and resumed runs agree on process naming.
bool classify_trace_shard(const std::string& name, TraceShard* out) {
  if (name == "trace.json") {
    *out = {name, "supervisor", 0, 0, false};
    return true;
  }
  const std::string worker_prefix = "trace-w";
  if (name.rfind(worker_prefix, 0) == 0 &&
      name.size() > worker_prefix.size() + 5 &&
      name.compare(name.size() - 5, 5, ".json") == 0) {
    const std::string idx =
        name.substr(worker_prefix.size(),
                    name.size() - worker_prefix.size() - 5);
    if (idx.empty() ||
        idx.find_first_not_of("0123456789") != std::string::npos)
      return false;
    const unsigned long k = std::strtoul(idx.c_str(), nullptr, 10);
    *out = {name, "worker w" + idx, static_cast<std::uint32_t>(2 + k), 0,
            false};
    return true;
  }
  return false;
}

bool is_metrics_shard(const std::string& name) {
  if (name == "metrics.json") return true;
  const std::string worker_prefix = "metrics-w";
  if (name.rfind(worker_prefix, 0) == 0 &&
      name.size() > worker_prefix.size() + 5 &&
      name.compare(name.size() - 5, 5, ".json") == 0) {
    const std::string idx =
        name.substr(worker_prefix.size(),
                    name.size() - worker_prefix.size() - 5);
    return !idx.empty() &&
           idx.find_first_not_of("0123456789") == std::string::npos;
  }
  return false;
}

std::vector<std::string> list_dir(const std::string& run_dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(run_dir, ec)) {
    if (entry.is_regular_file(ec)) names.push_back(entry.path().filename());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

TraceMergeResult merge_trace_shards(const std::string& run_dir) {
  TraceMergeResult result;
  std::vector<ParsedShard> shards;
  for (const std::string& name : list_dir(run_dir)) {
    TraceShard info;
    if (!classify_trace_shard(name, &info)) continue;
    shards.push_back(parse_shard(run_dir, std::move(info)));
  }
  std::sort(shards.begin(), shards.end(),
            [](const ParsedShard& a, const ParsedShard& b) {
              return a.info.pid < b.info.pid;
            });

  // Common wall-clock base: the earliest shard epoch.  Shards without an
  // epoch (torn before the header, or older format) keep their raw clock.
  std::uint64_t base_ms = 0;
  bool have_base = false;
  for (const ParsedShard& s : shards) {
    if (s.epoch_ms == 0) continue;
    if (!have_base || s.epoch_ms < base_ms) {
      base_ms = s.epoch_ms;
      have_base = true;
    }
  }

  struct Ev {
    std::uint64_t ts = 0;
    std::uint32_t pid = 0;
    std::uint64_t tid = 0;
    std::string line;
  };
  std::vector<Ev> events;
  for (ParsedShard& s : shards) {
    const std::uint64_t shift_us =
        (s.epoch_ms != 0 && have_base) ? (s.epoch_ms - base_ms) * 1000u : 0u;
    for (std::string& line : s.lines) {
      Ev ev;
      ev.pid = s.info.pid;
      std::string raw;
      if (find_raw(line, "ts", &raw))
        ev.ts = std::strtoull(raw.c_str(), nullptr, 10) + shift_us;
      if (find_raw(line, "tid", &raw))
        ev.tid = std::strtoull(raw.c_str(), nullptr, 10);
      replace_num_field(&line, "ts", ev.ts);
      replace_num_field(&line, "pid", s.info.pid);
      ev.line = std::move(line);
      events.push_back(std::move(ev));
    }
    result.dropped += s.dropped;
    result.shards.push_back(s.info);
  }
  std::stable_sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.pid != b.pid) return a.pid < b.pid;
    return a.tid < b.tid;
  });
  result.events = events.size();

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, result.dropped);
  out += buf;
  out += ",\"epochMs\":";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, base_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"mergedShards\":%zu",
                result.shards.size());
  out += buf;
  out += "},\n\"traceEvents\":[\n";
  bool first = true;
  // process_name metadata first: the viewer labels each shard's lane.
  for (const TraceShard& s : result.shards) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":";
    std::snprintf(buf, sizeof(buf), "%u", s.pid);
    out += buf;
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += s.label;  // labels are our own fixed strings; no escaping needed
    out += "\"}}";
  }
  for (const Ev& e : events) {
    if (!first) out += ",\n";
    first = false;
    out += e.line;
  }
  out += "\n]}\n";
  result.json = std::move(out);
  return result;
}

MetricsMergeResult merge_metrics_shards(const std::string& run_dir) {
  MetricsMergeResult result;
  MetricsRegistry reg;
  for (const std::string& name : list_dir(run_dir)) {
    if (!is_metrics_shard(name)) continue;
    const std::string body = read_whole_file(run_dir + "/" + name);
    if (body.empty()) continue;
    result.series += reg.preload_from_json(body);
    result.shards.push_back(name);
  }
  result.json = reg.to_json();
  return result;
}

std::map<std::string, double> merged_counters(const std::string& run_dir) {
  MetricsRegistry reg;
  for (const std::string& name : list_dir(run_dir)) {
    if (!is_metrics_shard(name)) continue;
    const std::string body = read_whole_file(run_dir + "/" + name);
    if (!body.empty()) reg.preload_from_json(body);
  }
  std::map<std::string, double> out;
  for (const auto& [name, value] : reg.snapshot().counters) out[name] = value;
  return out;
}

}  // namespace tacos::obs
