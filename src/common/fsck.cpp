#include "common/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/journal.hpp"
#include "common/lease.hpp"

namespace tacos {

namespace {

namespace fs = std::filesystem;

/// Split a file into complete lines plus an unterminated tail (if any).
/// Returns false when the file does not exist.
bool read_lines(const std::string& path, std::vector<std::string>* lines,
                bool* unterminated) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  *unterminated = false;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      lines->push_back(content.substr(pos));
      *unterminated = true;
      break;
    }
    lines->push_back(content.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return true;
}

void rewrite(const std::string& path, const std::vector<std::string>& lines) {
  AtomicFile out(path);
  for (const std::string& l : lines) out.stream() << l << '\n';
  out.commit();
}

}  // namespace

FsckFile fsck_journal_file(const std::string& path, bool fix) {
  FsckFile f;
  f.name = fs::path(path).filename().string();
  std::vector<std::string> lines;
  bool unterminated = false;
  if (!read_lines(path, &lines, &unterminated)) return f;
  // Strict prefix: the first line that fails the CRC'd parse (or the
  // unterminated tail) invalidates everything after it — exactly what
  // RunJournal::load silently drops on the next --resume.
  std::vector<std::string> valid_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string id, payload;
    const bool torn = unterminated && i + 1 == lines.size();
    if (torn || !parse_journal_line(lines[i], &id, &payload)) {
      f.corrupt = lines.size() - i;
      f.torn_tail = true;
      break;
    }
    ++f.valid;
    valid_lines.push_back(lines[i]);
  }
  if (fix && f.corrupt > 0) {
    rewrite(path, valid_lines);
    f.fixed = true;
  }
  return f;
}

FsckFile fsck_lease_file(const std::string& path, bool fix) {
  FsckFile f;
  f.name = fs::path(path).filename().string();
  f.event_log = true;
  std::vector<std::string> lines;
  bool unterminated = false;
  if (!read_lines(path, &lines, &unterminated)) return f;
  // Event-log semantics: every complete line stands on its own, so
  // corruption anywhere is skipped (and counted) without condemning what
  // follows.  An unterminated final line is a writer caught mid-append.
  std::vector<std::string> valid_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    LeaseRecord rec;
    const bool torn = unterminated && i + 1 == lines.size();
    if (torn || !decode_lease_record(lines[i], &rec)) {
      ++f.corrupt;
      if (i + 1 == lines.size()) f.torn_tail = true;
      continue;
    }
    ++f.valid;
    valid_lines.push_back(lines[i]);
  }
  if (fix && f.corrupt > 0) {
    rewrite(path, valid_lines);
    f.fixed = true;
  }
  return f;
}

FsckFile fsck_telemetry_file(const std::string& path) {
  FsckFile f;
  f.name = fs::path(path).filename().string();
  f.advisory = true;
  std::vector<std::string> lines;
  bool unterminated = false;
  if (!read_lines(path, &lines, &unterminated)) return f;
  const bool is_trace = f.name.rfind("trace", 0) == 0;
  // Shards are line-oriented by construction: one `{...}` object per
  // event/metric line between the opening `...:[` and the `]` terminator.
  // Count complete objects; a missing terminator is the signature of a
  // process that died mid-publish (or a torn copy).
  bool in_body = false;
  bool terminated = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    while (!line.empty() && (line.back() == ',' || line.back() == '\r' ||
                             line.back() == ' '))
      line.pop_back();
    if (!in_body) {
      if (line.find(is_trace ? "\"traceEvents\":[" : "\"metrics\":[") !=
          std::string::npos)
        in_body = true;
      continue;
    }
    if (line.empty()) continue;
    if (line[0] == ']') {
      terminated = true;
      break;
    }
    const bool torn = unterminated && i + 1 == lines.size();
    if (!torn && line[0] == '{' && line.back() == '}')
      ++f.valid;
    else
      ++f.corrupt;
  }
  if (!terminated) {
    ++f.corrupt;
    f.torn_tail = true;
  }
  return f;
}

FsckReport fsck_run_dir(const std::string& dir, bool fix) {
  TACOS_CHECK(fs::is_directory(dir),
              "fsck: run directory '" << dir << "' does not exist");
  FsckReport report;
  const auto add = [&](const FsckFile& f) {
    if (f.valid > 0 || f.corrupt > 0) report.files.push_back(f);
  };
  add(fsck_journal_file(dir + "/journal.jsonl", fix));
  // Shard journals in slot order, so reports are deterministic.
  std::vector<std::string> shards;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-w", 0) == 0 &&
        name.size() > 13 &&  // "shard-w" + k + ".jsonl"
        name.compare(name.size() - 6, 6, ".jsonl") == 0)
      shards.push_back(entry.path().string());
  }
  std::sort(shards.begin(), shards.end());
  for (const std::string& s : shards) add(fsck_journal_file(s, fix));
  add(fsck_lease_file(dir + "/leases.jsonl", fix));
  // Telemetry artifacts (advisory): trace/metrics shards and merges.
  std::vector<std::string> telemetry;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if ((name.rfind("trace", 0) == 0 || name.rfind("metrics", 0) == 0) &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0)
      telemetry.push_back(entry.path().string());
  }
  std::sort(telemetry.begin(), telemetry.end());
  for (const std::string& t : telemetry) add(fsck_telemetry_file(t));
  return report;
}

}  // namespace tacos
