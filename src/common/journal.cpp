#include "common/journal.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

namespace tacos {

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool json_unescape(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out->push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        unsigned v = 0;
        for (int k = 1; k <= 4; ++k) {
          const char c = s[i + static_cast<std::size_t>(k)];
          v <<= 4;
          if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
          else return false;
        }
        if (v > 0xFF) return false;  // we only ever emit \u00XX
        out->push_back(static_cast<char>(v));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    switch (s[++i]) {
      case '\\': out.push_back('\\'); break;
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      default:  // unknown escape: keep verbatim (escape_field never emits it)
        out.push_back('\\');
        out.push_back(s[i]);
    }
  }
  return out;
}

namespace {

/// CRC input: the raw (unescaped) id and payload, separated by a byte that
/// json_escape can never leave unescaped ambiguity around.
std::string crc_input(const std::string& id, const std::string& payload) {
  std::string s;
  s.reserve(id.size() + payload.size() + 1);
  s += id;
  s += '\x1f';
  s += payload;
  return s;
}

/// Scan a JSON string literal starting at s[pos] (just after the opening
/// quote); sets `end` to the index of the closing quote.  Returns false if
/// the line ends before the string does (a truncated record).
bool scan_string(const std::string& s, std::size_t pos, std::size_t* end) {
  bool escaped = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (escaped) {
      escaped = false;
    } else if (s[i] == '\\') {
      escaped = true;
    } else if (s[i] == '"') {
      *end = i;
      return true;
    }
  }
  return false;
}

bool expect(const std::string& s, std::size_t* pos, const char* lit) {
  const std::size_t n = std::char_traits<char>::length(lit);
  if (s.compare(*pos, n, lit) != 0) return false;
  *pos += n;
  return true;
}

}  // namespace

std::string format_journal_line(const std::string& id,
                                const std::string& payload) {
  std::ostringstream os;
  os << "{\"task\":\"" << json_escape(id) << "\",\"crc\":"
     << crc32(crc_input(id, payload)) << ",\"data\":\""
     << json_escape(payload) << "\"}";
  return os.str();
}

bool parse_journal_line(const std::string& line, std::string* id,
                        std::string* payload) {
  std::size_t pos = 0;
  if (!expect(line, &pos, "{\"task\":\"")) return false;
  std::size_t end = 0;
  if (!scan_string(line, pos, &end)) return false;
  std::string raw_id = line.substr(pos, end - pos);
  pos = end + 1;
  if (!expect(line, &pos, ",\"crc\":")) return false;
  std::uint64_t crc = 0;
  std::size_t digits = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    crc = crc * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    if (crc > 0xFFFFFFFFull) return false;
    ++pos;
    ++digits;
  }
  if (digits == 0) return false;
  if (!expect(line, &pos, ",\"data\":\"")) return false;
  if (!scan_string(line, pos, &end)) return false;
  std::string raw_payload = line.substr(pos, end - pos);
  pos = end + 1;
  if (!expect(line, &pos, "}") || pos != line.size()) return false;

  if (!json_unescape(raw_id, id)) return false;
  if (!json_unescape(raw_payload, payload)) return false;
  return crc32(crc_input(*id, *payload)) == static_cast<std::uint32_t>(crc);
}

RunJournal::RunJournal(std::string dir, std::string filename)
    : dir_(std::move(dir)), filename_(std::move(filename)) {
  TACOS_CHECK(!dir_.empty(), "run directory must not be empty");
  TACOS_CHECK(!filename_.empty(), "journal filename must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  TACOS_CHECK(!ec, "cannot create run directory " << dir_ << ": "
                                                  << ec.message());
  acquire_lockfile();
}

RunJournal::~RunJournal() { release_lockfile(); }

std::string RunJournal::path() const { return dir_ + "/" + filename_; }

RunJournal::LoadStats RunJournal::read_records(
    const std::string& path,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  LoadStats stats;
  std::ifstream in(path);
  if (!in.good()) return stats;  // fresh run directory
  std::map<std::string, std::size_t> seen;
  std::string line;
  bool torn = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string id, payload;
    if (torn || !parse_journal_line(line, &id, &payload)) {
      // First tear (truncated tail, corrupted CRC, hand-edited line):
      // everything from here on is untrusted and will be recomputed.
      torn = true;
      ++stats.dropped;
      continue;
    }
    if (seen.count(id)) continue;  // duplicate id: first record wins
    seen.emplace(id, out->size());
    out->emplace_back(std::move(id), std::move(payload));
    ++stats.loaded;
  }
  return stats;
}

RunJournal::LoadStats RunJournal::load() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, std::string>> records;
  const LoadStats stats = read_records(path(), &records);
  records_ = std::move(records);
  index_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i)
    index_.emplace(records_[i].first, i);
  return stats;
}

void RunJournal::bind_meta(const std::string& key, const std::string& value) {
  const std::string id = "meta:" + key;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      TACOS_CHECK(records_[it->second].second == value,
                  "run directory " << dir_ << " belongs to a different sweep: "
                                   << key << " was '"
                                   << records_[it->second].second
                                   << "', this run has '" << value << "'"
                                   << " (use a fresh --run-dir)");
      return;
    }
  }
  append(id, value);
}

std::size_t RunJournal::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_.size();
}

std::size_t RunJournal::task_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [id, payload] : records_)
    if (id.rfind("meta:", 0) != 0) ++n;
  return n;
}

bool RunJournal::has(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.count(id) != 0;
}

std::optional<std::string> RunJournal::find(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return records_[it->second].second;
}

void RunJournal::append(const std::string& id, const std::string& payload) {
  static obs::SpanSite append_site("journal.append", "journal");
  obs::TraceSpan span(append_site);
  std::lock_guard<std::mutex> lk(mu_);
  if (index_.count(id)) return;  // idempotent (resume re-runs are no-ops)
  index_.emplace(id, records_.size());
  records_.emplace_back(id, payload);
  rewrite_locked();
}

void RunJournal::rewrite_locked() {
  // Whole-file rewrite through the atomic helper: the published journal is
  // always a prefix-complete, checksummed snapshot.  O(records²) bytes over
  // a run's lifetime — irrelevant at sweep scale (tens of tasks), and the
  // price of never exposing a half-appended line.
  AtomicFile out(path());
  for (const auto& [id, payload] : records_)
    out.stream() << format_journal_line(id, payload) << '\n';
  out.commit();
}

void RunJournal::acquire_lockfile() {
#if defined(__unix__) || defined(__APPLE__)
  const std::string lock = path() + ".lock";
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string pid = std::to_string(::getpid()) + "\n";
      [[maybe_unused]] ssize_t n = ::write(fd, pid.data(), pid.size());
      ::close(fd);
      locked_ = true;
      return;
    }
    if (errno != EEXIST) return;  // unlockable filesystem: proceed unlocked
    long owner = 0;
    {
      std::ifstream in(lock);
      in >> owner;
    }
    if (owner <= 0) {
      // Mid-creation by another process, or debris with no pid: give the
      // writer one beat, then treat the lock as stale.
      if (attempt < 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
    } else if (owner != static_cast<long>(::getpid()) &&
               !(::kill(static_cast<pid_t>(owner), 0) == -1 &&
                 errno == ESRCH)) {
      // A live process (or one we cannot signal, which still proves
      // existence) owns this journal: fail fast instead of interleaving.
      throw Error("run journal " + path() + " is locked by live process " +
                  std::to_string(owner) +
                  " (two sweeps must not share one journal file; use the"
                  " --workers fabric or a fresh --run-dir)");
    }
    // Stale (dead pid) or our own pid (same-process reopen, which the
    // in-memory mutex already serializes): take the lock over.
    ::unlink(lock.c_str());
  }
  throw Error("run journal " + path() +
              " lockfile thrashing: could not acquire " + lock);
#endif
}

void RunJournal::release_lockfile() {
#if defined(__unix__) || defined(__APPLE__)
  if (!locked_) return;
  locked_ = false;
  const std::string lock = path() + ".lock";
  long owner = 0;
  {
    std::ifstream in(lock);
    in >> owner;
  }
  // Only remove a lock that is still ours: a same-pid takeover (see
  // acquire) may have re-issued it to a newer instance.
  if (owner == static_cast<long>(::getpid())) ::unlink(lock.c_str());
#endif
}

}  // namespace tacos
