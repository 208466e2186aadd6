#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "workload.hpp"

namespace perfbench {

std::map<std::string, double> Counts::named() const {
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  return {{"full_solves", d(full_solves)},
          {"evals", d(evals)},
          {"combos", d(combos)},
          {"screened", d(screened)},
          {"rejected", d(rejected)},
          {"surrogate_scores", d(surrogate_scores)},
          {"coarse_solves", d(coarse_solves)},
          {"medium_solves", d(medium_solves)},
          {"leak_nonconverged", d(leak_nonconverged)},
          {"recoveries", d(recoveries)},
          {"steps", d(steps)},
          {"step_iters", d(step_iters)},
          {"journal_rows", d(journal_rows)},
          {"journal_bytes", d(journal_bytes)}};
}

std::string read_reference(const std::string& dir, const std::string& name,
                           std::uint64_t seed) {
  std::ifstream in(dir + "/" + name + ".seed" + std::to_string(seed) + ".txt");
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string full(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

struct DigestLine {
  std::string label;
  std::vector<std::pair<std::string, std::string>> fields;
};

std::vector<DigestLine> parse_digest(const std::string& text) {
  std::vector<DigestLine> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream toks(line);
    DigestLine d;
    toks >> d.label;
    std::string tok;
    while (toks >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) continue;
      d.fields.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
    out.push_back(std::move(d));
  }
  return out;
}

bool listed(const std::vector<std::string>& keys, const std::string& k) {
  for (const std::string& x : keys)
    if (x == k) return true;
  return false;
}

}  // namespace

std::vector<std::string> compare_digests(const std::string& actual,
                                         const std::string& reference,
                                         const std::vector<std::string>& tolerant,
                                         double tol,
                                         const std::vector<std::string>& ignored) {
  const std::vector<DigestLine> a = parse_digest(actual);
  const std::vector<DigestLine> r = parse_digest(reference);
  std::vector<std::string> errors;
  if (a.size() != r.size()) {
    errors.push_back("reference has " + std::to_string(r.size()) +
                     " results, the run produced " + std::to_string(a.size()));
    return errors;
  }
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (a[i].label != r[i].label || a[i].fields.size() != r[i].fields.size()) {
      errors.push_back("result " + std::to_string(i) + ": '" + a[i].label +
                       "' does not line up with reference '" + r[i].label +
                       "'");
      continue;
    }
    for (std::size_t k = 0; k < r[i].fields.size(); ++k) {
      const auto& [key, ref] = r[i].fields[k];
      const auto& [akey, val] = a[i].fields[k];
      if (akey != key) {
        errors.push_back(r[i].label + ": field '" + akey + "' where the reference has '" + key + "'");
        continue;
      }
      if (listed(ignored, key)) continue;
      const bool ok = listed(tolerant, key)
                          ? std::fabs(std::stod(val) - std::stod(ref)) <= tol
                          : val == ref;
      if (!ok)
        errors.push_back(r[i].label + " " + key + "=" + val +
                         " differs from the reference " + ref);
    }
  }
  return errors;
}

}  // namespace perfbench
