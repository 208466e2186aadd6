#include "service/protocol.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/hash.hpp"
#include "common/journal.hpp"

namespace tacos {

namespace {

std::string fmt_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool read_double_tok(const std::string& tok, double* out) {
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size() && !tok.empty();
}

void put_u16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void protocol_error(const std::string& detail) {
  throw ServiceError(ServiceError::Kind::kProtocol, detail);
}

}  // namespace

std::string encode_frame_header(const FrameHeader& h) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  put_u32(&out, kFrameMagic);
  put_u16(&out, kProtocolVersion);
  put_u16(&out, static_cast<std::uint16_t>(h.type));
  put_u32(&out, h.length);
  put_u32(&out, h.crc);
  return out;
}

FrameHeader decode_frame_header(const char* bytes, std::size_t len) {
  if (len < kFrameHeaderBytes)
    protocol_error("short frame header (" + std::to_string(len) + " of " +
                   std::to_string(kFrameHeaderBytes) + " bytes)");
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes);
  const std::uint32_t magic = get_u32(p);
  if (magic != kFrameMagic) {
    std::ostringstream os;
    os << "bad frame magic 0x" << std::hex << magic;
    protocol_error(os.str());
  }
  const std::uint16_t version = get_u16(p + 4);
  if (version != kProtocolVersion)
    protocol_error("protocol version " + std::to_string(version) +
                   " (this build speaks " + std::to_string(kProtocolVersion) +
                   ")");
  FrameHeader h;
  const std::uint16_t type = get_u16(p + 6);
  if (type != static_cast<std::uint16_t>(Frame::Type::kRequest) &&
      type != static_cast<std::uint16_t>(Frame::Type::kResponse))
    protocol_error("unknown frame type " + std::to_string(type));
  h.type = static_cast<Frame::Type>(type);
  h.length = get_u32(p + 8);
  if (h.length > kMaxFramePayload)
    protocol_error("frame payload length " + std::to_string(h.length) +
                   " exceeds the " + std::to_string(kMaxFramePayload) +
                   "-byte bound");
  h.crc = get_u32(p + 12);
  return h;
}

void check_frame_payload(const FrameHeader& h, const std::string& payload) {
  if (payload.size() != h.length)
    protocol_error("frame payload truncated (" +
                   std::to_string(payload.size()) + " of " +
                   std::to_string(h.length) + " bytes)");
  const std::uint32_t crc = crc32(payload);
  if (crc != h.crc)
    protocol_error("frame checksum mismatch");
}

std::string encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload)
    protocol_error("frame payload too large to encode");
  FrameHeader h;
  h.type = frame.type;
  h.length = static_cast<std::uint32_t>(frame.payload.size());
  h.crc = crc32(frame.payload);
  return encode_frame_header(h) + frame.payload;
}

Frame decode_frame(const std::string& bytes) {
  const FrameHeader h = decode_frame_header(bytes.data(), bytes.size());
  if (bytes.size() != kFrameHeaderBytes + h.length)
    protocol_error("frame length mismatch (" + std::to_string(bytes.size()) +
                   " bytes for a " +
                   std::to_string(kFrameHeaderBytes + h.length) +
                   "-byte frame)");
  Frame f;
  f.type = h.type;
  f.payload = bytes.substr(kFrameHeaderBytes);
  check_frame_payload(h, f.payload);
  return f;
}

// --- Messages ----------------------------------------------------------

namespace {

const char* request_kind_name(EvalRequest::Kind k) {
  switch (k) {
    case EvalRequest::Kind::kPing: return "ping";
    case EvalRequest::Kind::kOptimize: return "optimize";
    case EvalRequest::Kind::kEvaluate: return "evaluate";
    case EvalRequest::Kind::kStats: return "stats";
  }
  return "ping";
}

bool request_kind_from(const std::string& s, EvalRequest::Kind* out) {
  if (s == "ping") *out = EvalRequest::Kind::kPing;
  else if (s == "optimize") *out = EvalRequest::Kind::kOptimize;
  else if (s == "evaluate") *out = EvalRequest::Kind::kEvaluate;
  else if (s == "stats") *out = EvalRequest::Kind::kStats;
  else return false;
  return true;
}

}  // namespace

std::string encode_request(const EvalRequest& req) {
  std::ostringstream os;
  os << "kind " << request_kind_name(req.kind) << '\n'
     << "idem " << req.idem << '\n'
     << "deadline_ms " << req.deadline_ms << '\n'
     << "task_deadline " << fmt_g17(req.task_deadline_s) << '\n';
  // Emitted only when traced: untraced request bytes stay identical to
  // builds that predate trace-context propagation.
  if (req.trace_id != 0)
    os << "trace " << req.trace_id << ' ' << req.parent_span << '\n';
  if (!req.params.empty()) os << "params " << escape_field(req.params) << '\n';
  if (!req.bench.empty()) os << "bench " << req.bench << '\n';
  if (req.kind == EvalRequest::Kind::kEvaluate)
    os << "org " << req.org.n_chiplets << ' ' << fmt_g17(req.org.spacing.s1)
       << ' ' << fmt_g17(req.org.spacing.s2) << ' '
       << fmt_g17(req.org.spacing.s3) << ' ' << req.org.dvfs_idx << ' '
       << req.org.active_cores << '\n';
  return os.str();
}

bool decode_request(const std::string& payload, EvalRequest* req) {
  *req = EvalRequest{};
  bool saw_kind = false;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "kind") {
      std::string k;
      if (!(ls >> k) || !request_kind_from(k, &req->kind)) return false;
      saw_kind = true;
    } else if (key == "idem") {
      if (!(ls >> req->idem)) return false;
    } else if (key == "deadline_ms") {
      if (!(ls >> req->deadline_ms)) return false;
    } else if (key == "task_deadline") {
      std::string tok;
      if (!(ls >> tok) || !read_double_tok(tok, &req->task_deadline_s))
        return false;
    } else if (key == "trace") {
      if (!(ls >> req->trace_id >> req->parent_span)) return false;
    } else if (key == "params") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      req->params = unescape_field(rest);
    } else if (key == "bench") {
      if (!(ls >> req->bench)) return false;
    } else if (key == "org") {
      std::string s1, s2, s3;
      if (!(ls >> req->org.n_chiplets >> s1 >> s2 >> s3 >>
            req->org.dvfs_idx >> req->org.active_cores))
        return false;
      if (!read_double_tok(s1, &req->org.spacing.s1) ||
          !read_double_tok(s2, &req->org.spacing.s2) ||
          !read_double_tok(s3, &req->org.spacing.s3))
        return false;
    } else {
      return false;  // strict: we only ever parse our own output
    }
  }
  return saw_kind;
}

std::string encode_response(const EvalResponse& resp) {
  std::ostringstream os;
  os << "status " << (resp.ok ? "ok" : "error") << '\n'
     << "idem " << resp.idem << '\n';
  if (resp.ok) {
    os << "memo " << (resp.memo_hit ? 1 : 0) << '\n'
       << "payload " << escape_field(resp.payload) << '\n';
  } else {
    os << "error_kind " << resp.error_kind << '\n'
       << "retryable " << (resp.retryable ? 1 : 0) << '\n'
       << "detail " << escape_field(resp.detail) << '\n';
  }
  return os.str();
}

bool decode_response(const std::string& payload, EvalResponse* resp) {
  *resp = EvalResponse{};
  bool saw_status = false;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    const auto rest_of = [&ls]() {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      return unescape_field(rest);
    };
    if (key == "status") {
      std::string s;
      if (!(ls >> s)) return false;
      if (s != "ok" && s != "error") return false;
      resp->ok = s == "ok";
      saw_status = true;
    } else if (key == "idem") {
      if (!(ls >> resp->idem)) return false;
    } else if (key == "memo") {
      int v = 0;
      if (!(ls >> v)) return false;
      resp->memo_hit = v != 0;
    } else if (key == "payload") {
      resp->payload = rest_of();
    } else if (key == "error_kind") {
      if (!(ls >> resp->error_kind)) return false;
    } else if (key == "retryable") {
      int v = 0;
      if (!(ls >> v)) return false;
      resp->retryable = v != 0;
    } else if (key == "detail") {
      resp->detail = rest_of();
    } else {
      return false;
    }
  }
  return saw_status;
}

void throw_response_error(const EvalResponse& resp) {
  ServiceError::Kind kind = ServiceError::Kind::kRemote;
  for (const ServiceError::Kind k :
       {ServiceError::Kind::kConnection, ServiceError::Kind::kProtocol,
        ServiceError::Kind::kOverloaded, ServiceError::Kind::kDeadline,
        ServiceError::Kind::kShutdown, ServiceError::Kind::kRemote})
    if (resp.error_kind == ServiceError::kind_name(k)) kind = k;
  throw ServiceError(kind, resp.detail.empty()
                               ? "server reported '" + resp.error_kind + "'"
                               : resp.detail);
}

// --- Configuration canonicalization ------------------------------------

std::string encode_eval_params(const EvalConfig& config,
                               const OptimizerOptions& opts) {
  std::ostringstream os;
  os << "v1 grid=" << config.thermal.grid_nx << 'x' << config.thermal.grid_ny
     << " precond=" << precond_name(config.thermal.solve.precond)
     << " mg_mixed=" << (config.thermal.solve.mg_mixed_precision ? 1 : 0)
     << " leak_tol=" << fmt_g17(config.leak_tol_c)
     << " max_leak_iters=" << config.max_leak_iters
     << " frontier_margin=" << fmt_g17(config.frontier_margin_c)
     << " fidelity=" << fidelity_mode_name(config.ladder.mode)
     << " keep_frac=" << fmt_g17(config.ladder.keep_frac)
     << " min_calib=" << config.ladder.min_calibration
     << " ladder_margin=" << fmt_g17(config.ladder.safety_margin_c)
     << " medium_min=" << config.ladder.medium_grid_min
     << " medium_leak_tol=" << fmt_g17(config.ladder.medium_leak_tol_c)
     << " alpha=" << fmt_g17(opts.alpha) << " beta=" << fmt_g17(opts.beta)
     << " threshold=" << fmt_g17(opts.threshold_c)
     << " step=" << fmt_g17(opts.step_mm) << " starts=" << opts.starts
     << " max_moves=" << opts.max_moves << " seed=" << opts.seed
     << " prune=" << fmt_g17(opts.prune_margin_c);
  // Refinement knobs are emitted only when refinement is on: grid-only
  // requests keep their historical canonical form (and memo keys).
  if (opts.refine)
    os << " refine=1 refine_tol=" << fmt_g17(opts.refine_tol_mm)
       << " refine_max_steps=" << opts.refine_max_steps;
  os << " n=";
  for (std::size_t i = 0; i < opts.chiplet_counts.size(); ++i)
    os << (i ? "," : "") << opts.chiplet_counts[i];
  return os.str();
}

bool decode_eval_params(const std::string& line, EvalConfig* config,
                        OptimizerOptions* opts) {
  *config = EvalConfig{};
  *opts = OptimizerOptions{};
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "v1") return false;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "grid") {
      std::size_t nx = 0, ny = 0;
      char x = 0;
      std::istringstream gs(val);
      if (!(gs >> nx >> x >> ny) || x != 'x' || nx == 0 || ny == 0)
        return false;
      config->thermal.grid_nx = nx;
      config->thermal.grid_ny = ny;
    } else if (key == "precond") {
      if (!parse_precond_name(val, &config->thermal.solve.precond))
        return false;
    } else if (key == "mg_mixed") {
      config->thermal.solve.mg_mixed_precision = val == "1";
      if (val != "0" && val != "1") return false;
    } else if (key == "leak_tol") {
      if (!read_double_tok(val, &config->leak_tol_c)) return false;
    } else if (key == "max_leak_iters") {
      config->max_leak_iters = std::atoi(val.c_str());
      if (config->max_leak_iters <= 0) return false;
    } else if (key == "frontier_margin") {
      if (!read_double_tok(val, &config->frontier_margin_c)) return false;
    } else if (key == "fidelity") {
      const std::optional<FidelityMode> m = parse_fidelity_mode(val);
      if (!m) return false;
      config->ladder.mode = *m;
    } else if (key == "keep_frac") {
      if (!read_double_tok(val, &config->ladder.keep_frac)) return false;
    } else if (key == "min_calib") {
      config->ladder.min_calibration = std::atoi(val.c_str());
    } else if (key == "ladder_margin") {
      if (!read_double_tok(val, &config->ladder.safety_margin_c))
        return false;
    } else if (key == "medium_min") {
      config->ladder.medium_grid_min =
          static_cast<std::size_t>(std::atol(val.c_str()));
    } else if (key == "medium_leak_tol") {
      if (!read_double_tok(val, &config->ladder.medium_leak_tol_c))
        return false;
    } else if (key == "alpha") {
      if (!read_double_tok(val, &opts->alpha)) return false;
    } else if (key == "beta") {
      if (!read_double_tok(val, &opts->beta)) return false;
    } else if (key == "threshold") {
      if (!read_double_tok(val, &opts->threshold_c)) return false;
    } else if (key == "step") {
      if (!read_double_tok(val, &opts->step_mm)) return false;
    } else if (key == "starts") {
      opts->starts = std::atoi(val.c_str());
      if (opts->starts <= 0) return false;
    } else if (key == "max_moves") {
      opts->max_moves = std::atoi(val.c_str());
      if (opts->max_moves <= 0) return false;
    } else if (key == "seed") {
      char* end = nullptr;
      opts->seed = std::strtoull(val.c_str(), &end, 10);
      if (end != val.c_str() + val.size()) return false;
    } else if (key == "prune") {
      if (!read_double_tok(val, &opts->prune_margin_c)) return false;
    } else if (key == "refine") {
      opts->refine = val == "1";
      if (val != "0" && val != "1") return false;
    } else if (key == "refine_tol") {
      if (!read_double_tok(val, &opts->refine_tol_mm)) return false;
    } else if (key == "refine_max_steps") {
      opts->refine_max_steps = std::atoi(val.c_str());
      if (opts->refine_max_steps <= 0) return false;
    } else if (key == "n") {
      opts->chiplet_counts.clear();
      std::istringstream ns(val);
      std::string piece;
      while (std::getline(ns, piece, ','))
        opts->chiplet_counts.push_back(std::atoi(piece.c_str()));
      if (opts->chiplet_counts.empty()) return false;
    } else {
      return false;  // strict: an unknown knob must not be silently dropped
    }
  }
  return true;
}

std::string canonical_org_key(const Organization& org) {
  // Quantize spacings at 1 nm — the Evaluator's own LayoutKey resolution —
  // so keys identify what the stack can distinguish.  (0.01 mm used to be
  // enough for grid-stepped sweeps, but gradient-refined spacings land at
  // arbitrary off-grid points and would collide at that resolution.)
  const auto q = [](double v) { return std::lround(v * 1e6); };
  std::ostringstream os;
  os << "n=" << org.n_chiplets << " s=" << q(org.spacing.s1) << ','
     << q(org.spacing.s2) << ',' << q(org.spacing.s3)
     << " f=" << org.dvfs_idx << " p=" << org.active_cores;
  return os.str();
}

std::string memo_key_optimize(const std::string& params,
                              const std::string& bench) {
  return "opt:" + hash_hex(fnv1a64(params)) + ":" + bench;
}

std::string memo_key_evaluate(const std::string& params,
                              const std::string& bench,
                              const Organization& org) {
  const std::string key = canonical_org_key(org);
  return "eval:" + hash_hex(fnv1a64(params)) + ":" + bench + ":" +
         hash_hex(fnv1a64(key));
}

std::uint64_t request_idem_key(const EvalRequest& req) {
  std::string id = request_kind_name(req.kind);
  id += '\x1f';
  id += req.params;
  id += '\x1f';
  id += req.bench;
  id += '\x1f';
  id += fmt_g17(req.task_deadline_s);
  if (req.kind == EvalRequest::Kind::kEvaluate) {
    id += '\x1f';
    id += canonical_org_key(req.org);
  }
  return fnv1a64(id);
}

}  // namespace tacos
