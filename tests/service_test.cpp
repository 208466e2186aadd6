#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/journal.hpp"
#include "core/optimizer.hpp"
#include "perf/benchmark.hpp"
#include "service/client.hpp"
#include "service/memo.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace tacos {
namespace {

// The service contract (docs/ROBUSTNESS.md, "The evaluation service"):
// every corrupt or truncated frame is a typed ServiceError, never a crash
// or a misread request; an overloaded server sheds explicitly instead of
// hanging; a request deadline kills in-flight work without poisoning the
// memo cache; and a remote optimize response is byte-for-byte the payload
// a local run would journal — including when it is replayed from the
// durable cross-run cache after a server restart.

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tacos_service_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

EvalConfig small_config() {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = 12;
  return c;
}

OptimizerOptions small_options() {
  OptimizerOptions o;
  o.step_mm = 4.0;
  o.starts = 3;
  return o;
}

std::string bench_name(std::size_t i) {
  return std::string(representative_benchmarks()[i]);
}

/// What a local run would journal for this task — the byte-identity
/// oracle.  Cached per benchmark: tests compare against it repeatedly.
/// Must never be first called while a remote hook is installed.
const std::string& local_payload(const std::string& bench) {
  static std::map<std::string, std::string>& cache =
      *new std::map<std::string, std::string>();
  auto it = cache.find(bench);
  if (it == cache.end()) {
    const TaskOutcome out =
        optimize_one_guarded(small_config(), bench, small_options(), nullptr);
    it = cache.emplace(bench, encode_opt_result(out.result, out.stats)).first;
  }
  return it->second;
}

/// An in-process server on a Unix socket under its own run dir.
struct TestServer {
  ServerOptions options;
  CancelToken stop;
  std::thread thread;
  ServerStats stats;

  explicit TestServer(const std::string& dir) {
    options.endpoint = parse_endpoint(dir + "/svc.sock");
    options.memo_dir = dir;
  }
  ~TestServer() { shutdown(); }

  void start() {
    thread = std::thread([this] { stats = serve_forever(options, &stop); });
    for (int i = 0; i < 500; ++i) {
      try {
        Conn probe = connect_endpoint(options.endpoint, 200);
        if (probe.ok()) return;
      } catch (const ServiceError&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server never came up on "
                  << options.endpoint.describe();
  }

  void shutdown() {
    stop.cancel();
    if (thread.joinable()) thread.join();
  }
};

ClientOptions client_options(const Endpoint& ep, int attempts = 5) {
  ClientOptions o;
  o.endpoint = ep;
  o.max_attempts = attempts;
  o.backoff = BackoffPolicy{20, 200, 0.0, 0};  // fast retries for tests
  return o;
}

EvalRequest ping_request() {
  EvalRequest req;
  req.kind = EvalRequest::Kind::kPing;
  return req;
}

// ------------------------------------------------------------- framing

TEST(FrameCodec, RoundTripsBothTypesAndBinaryPayloads) {
  for (const Frame::Type type :
       {Frame::Type::kRequest, Frame::Type::kResponse}) {
    Frame f;
    f.type = type;
    f.payload = std::string("binary\0\xff\n payload", 17);
    const Frame back = decode_frame(encode_frame(f));
    EXPECT_EQ(back.type, f.type);
    EXPECT_EQ(back.payload, f.payload);
  }
  // Empty payloads are legal frames.
  const Frame empty = decode_frame(encode_frame(Frame{}));
  EXPECT_TRUE(empty.payload.empty());
}

TEST(FrameCodec, EveryCorruptedHeaderByteIsRejected) {
  const std::string wire =
      encode_frame(Frame{Frame::Type::kRequest, "kind ping\n"});
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    try {
      decode_frame(bad);
      FAIL() << "header byte " << i << " flipped undetected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.kind(), ServiceError::Kind::kProtocol) << "byte " << i;
    }
  }
}

TEST(FrameCodec, EveryCorruptedPayloadByteIsRejected) {
  const std::string wire =
      encode_frame(Frame{Frame::Type::kRequest, "kind ping\nidem 7\n"});
  for (std::size_t i = kFrameHeaderBytes; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    try {
      decode_frame(bad);
      FAIL() << "payload byte " << i << " flipped undetected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.kind(), ServiceError::Kind::kProtocol) << "byte " << i;
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
  }
}

TEST(FrameCodec, EveryTruncationIsRejected) {
  const std::string wire =
      encode_frame(Frame{Frame::Type::kResponse, "status ok\nidem 1\n"});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    try {
      decode_frame(wire.substr(0, len));
      FAIL() << "truncation to " << len << " bytes undetected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.kind(), ServiceError::Kind::kProtocol) << "length " << len;
    }
  }
}

TEST(FrameCodec, RejectsOversizedDeclaredLengthAndAlienVersion) {
  FrameHeader h;
  h.type = Frame::Type::kRequest;
  h.length = kMaxFramePayload + 1;
  const std::string oversized = encode_frame_header(h);
  EXPECT_THROW(decode_frame_header(oversized.data(), oversized.size()),
               ServiceError);

  std::string alien = encode_frame(Frame{Frame::Type::kRequest, "x"});
  alien[4] = static_cast<char>(kProtocolVersion + 1);  // version, LE low byte
  try {
    decode_frame(alien);
    FAIL() << "alien protocol version undetected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceError::Kind::kProtocol);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// ----------------------------------------------------- message codecs

TEST(RequestCodec, RoundTripsEveryKind) {
  EvalRequest req;
  req.kind = EvalRequest::Kind::kEvaluate;
  req.idem = 0xDEADBEEFCAFEull;
  req.deadline_ms = 1234;
  req.task_deadline_s = 0.125;
  req.params = "v1 grid=12x12 tricky\tfield\nwith newline";
  req.bench = "cholesky";
  req.org = Organization{16, {1.25, 0.5, 2.0}, 3, 128};

  EvalRequest back;
  ASSERT_TRUE(decode_request(encode_request(req), &back));
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.idem, req.idem);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.task_deadline_s, req.task_deadline_s);
  EXPECT_EQ(back.params, req.params);
  EXPECT_EQ(back.bench, req.bench);
  EXPECT_EQ(back.org, req.org);

  for (const EvalRequest::Kind k :
       {EvalRequest::Kind::kPing, EvalRequest::Kind::kOptimize}) {
    EvalRequest r;
    r.kind = k;
    r.params = "v1";
    r.bench = "canneal";
    ASSERT_TRUE(decode_request(encode_request(r), &back));
    EXPECT_EQ(back.kind, k);
  }
}

TEST(RequestCodec, RejectsEveryMutatedField) {
  EvalRequest req;
  req.kind = EvalRequest::Kind::kEvaluate;
  req.idem = 42;
  req.params = "v1 grid=12x12";
  req.bench = "cholesky";
  const std::string good = encode_request(req);
  EvalRequest out;
  ASSERT_TRUE(decode_request(good, &out));

  // Table: replace each line's key with an unknown one — strict parsers
  // must refuse rather than silently drop a field they don't understand.
  std::vector<std::string> lines;
  std::istringstream in(good);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  ASSERT_GE(lines.size(), 6u);  // kind/idem/deadline_ms/task_deadline/...
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string payload;
    for (std::size_t j = 0; j < lines.size(); ++j)
      payload += (j == i ? "zz_unknown " + lines[j] : lines[j]) + "\n";
    EXPECT_FALSE(decode_request(payload, &out)) << "mutated line " << i;
  }
  // Dropping the kind line leaves the request unidentifiable.
  std::string no_kind;
  for (std::size_t j = 1; j < lines.size(); ++j) no_kind += lines[j] + "\n";
  EXPECT_FALSE(decode_request(no_kind, &out));
  // Garbled numeric fields are refused, not defaulted.
  EXPECT_FALSE(decode_request("kind ping\nidem notanumber\n", &out));
  EXPECT_FALSE(decode_request("kind ping\ntask_deadline 1.5x\n", &out));
  EXPECT_FALSE(decode_request("kind evaluate\norg 16 1.0 2.0\n", &out));
  EXPECT_FALSE(decode_request("kind teleport\n", &out));
  EXPECT_FALSE(decode_request("", &out));
}

TEST(ResponseCodec, RoundTripsOkAndErrorShapes) {
  EvalResponse ok;
  ok.ok = true;
  ok.idem = 77;
  ok.memo_hit = true;
  ok.payload = "line one\nline two\ttabbed";
  EvalResponse back;
  ASSERT_TRUE(decode_response(encode_response(ok), &back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.idem, 77u);
  EXPECT_TRUE(back.memo_hit);
  EXPECT_EQ(back.payload, ok.payload);

  EvalResponse err;
  err.ok = false;
  err.idem = 78;
  err.error_kind = "overloaded";
  err.detail = "queue full\nshed";
  err.retryable = true;
  ASSERT_TRUE(decode_response(encode_response(err), &back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error_kind, "overloaded");
  EXPECT_EQ(back.detail, err.detail);
  EXPECT_TRUE(back.retryable);
}

TEST(ResponseCodec, RejectsMutationsAndMapsErrorKinds) {
  EvalResponse out;
  EXPECT_FALSE(decode_response("", &out));
  EXPECT_FALSE(decode_response("idem 1\n", &out));           // no status
  EXPECT_FALSE(decode_response("status maybe\nidem 1\n", &out));
  EXPECT_FALSE(decode_response("status ok\nzz_unknown 1\n", &out));
  EXPECT_FALSE(decode_response("status ok\nmemo yes\n", &out));

  // throw_response_error maps every wire tag back onto its typed kind.
  for (const ServiceError::Kind k :
       {ServiceError::Kind::kConnection, ServiceError::Kind::kProtocol,
        ServiceError::Kind::kOverloaded, ServiceError::Kind::kDeadline,
        ServiceError::Kind::kShutdown, ServiceError::Kind::kRemote}) {
    EvalResponse err;
    err.error_kind = ServiceError::kind_name(k);
    err.detail = "detail";
    try {
      throw_response_error(err);
      FAIL() << "did not throw";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.kind(), k);
    }
  }
}

// ------------------------------------------- configuration canonicalization

TEST(EvalParams, RoundTripsEveryResultAffectingKnob) {
  EvalConfig config = small_config();
  config.thermal.solve.mg_mixed_precision = true;
  config.leak_tol_c = 0.125;
  config.max_leak_iters = 7;
  config.frontier_margin_c = 2.5;
  config.ladder.keep_frac = 0.375;
  config.ladder.min_calibration = 9;
  config.ladder.safety_margin_c = 1.5;
  config.ladder.medium_grid_min = 10;
  config.ladder.medium_leak_tol_c = 0.5;
  OptimizerOptions opts = small_options();
  opts.alpha = 0.75;
  opts.beta = 0.25;
  opts.threshold_c = 90.0;
  opts.max_moves = 123;
  opts.seed = 987654321;
  opts.prune_margin_c = 4.5;
  opts.chiplet_counts = {1, 4, 16};
  opts.refine = true;
  opts.refine_tol_mm = 2e-3;
  opts.refine_max_steps = 7;

  const std::string line = encode_eval_params(config, opts);
  EvalConfig c2;
  OptimizerOptions o2;
  ASSERT_TRUE(decode_eval_params(line, &c2, &o2));
  // Re-encoding the decoded structs must reproduce the line bit-exactly —
  // the property the memo key (a hash of this line) depends on.
  EXPECT_EQ(encode_eval_params(c2, o2), line);
  EXPECT_EQ(c2.thermal.grid_nx, 12u);
  EXPECT_TRUE(c2.thermal.solve.mg_mixed_precision);
  EXPECT_EQ(o2.seed, 987654321u);
  EXPECT_EQ(o2.chiplet_counts, (std::vector<int>{1, 4, 16}));
  EXPECT_TRUE(o2.refine);
  EXPECT_EQ(o2.refine_tol_mm, 2e-3);
  EXPECT_EQ(o2.refine_max_steps, 7);
  // Grid-only requests must not grow refine knobs: their canonical params
  // line (and thus every existing memo key) is frozen.
  OptimizerOptions grid_only = small_options();
  EXPECT_EQ(encode_eval_params(config, grid_only).find("refine"),
            std::string::npos);
}

TEST(EvalParams, RejectsUnknownOrMalformedKnobs) {
  const std::string good =
      encode_eval_params(small_config(), small_options());
  EvalConfig c;
  OptimizerOptions o;
  ASSERT_TRUE(decode_eval_params(good, &c, &o));
  const std::vector<std::string> bad = {
      "",
      "v2 grid=12x12",              // alien version
      good + " bogus=1",            // unknown knob must not be dropped
      good + " grid",               // knob without '='
      "v1 grid=0x12",               // degenerate grid
      "v1 grid=12y12",              // malformed grid separator
      "v1 precond=warp",            // unknown preconditioner
      "v1 mg_mixed=2",              // non-boolean
      "v1 leak_tol=abc",
      "v1 max_leak_iters=0",
      "v1 fidelity=psychic",
      "v1 starts=0",
      "v1 max_moves=-3",
      "v1 seed=12abc",
      "v1 n=",
  };
  for (const std::string& line : bad)
    EXPECT_FALSE(decode_eval_params(line, &c, &o)) << "accepted: " << line;
}

TEST(OrgKey, QuantizesAtEvaluatorResolution) {
  const Organization a{16, {1.0, 0.5, 1.0}, 0, 128};
  Organization b = a;
  b.spacing.s1 += 1e-10;  // below the 1 nm LayoutKey resolution
  EXPECT_EQ(canonical_org_key(a), canonical_org_key(b));
  Organization c = a;
  c.spacing.s1 += 0.001;  // refined spacings differ at micron scale
  EXPECT_NE(canonical_org_key(a), canonical_org_key(c));

  const std::string params = encode_eval_params(small_config(),
                                                small_options());
  EXPECT_EQ(memo_key_evaluate(params, "cholesky", a),
            memo_key_evaluate(params, "cholesky", b));
  EXPECT_NE(memo_key_evaluate(params, "cholesky", a),
            memo_key_evaluate(params, "cholesky", c));
  EXPECT_NE(memo_key_evaluate(params, "cholesky", a),
            memo_key_evaluate(params, "canneal", a));
  EXPECT_NE(memo_key_optimize(params, "cholesky"),
            memo_key_optimize(params + " ", "cholesky"));
}

TEST(IdemKey, IdentifiesLogicalRequestsNotTransportBudgets) {
  EvalRequest a;
  a.kind = EvalRequest::Kind::kOptimize;
  a.params = encode_eval_params(small_config(), small_options());
  a.bench = "cholesky";
  EvalRequest b = a;
  b.deadline_ms = 5000;  // the transport budget is not part of identity:
  b.idem = 999;          // a retry with a new budget hits the same slot
  EXPECT_EQ(request_idem_key(a), request_idem_key(b));

  EvalRequest c = a;
  c.task_deadline_s = 2.0;  // the *semantic* budget changes the result
  EXPECT_NE(request_idem_key(a), request_idem_key(c));
  EvalRequest d = a;
  d.bench = "canneal";
  EXPECT_NE(request_idem_key(a), request_idem_key(d));
  EvalRequest e = a;
  e.kind = EvalRequest::Kind::kEvaluate;
  EXPECT_NE(request_idem_key(a), request_idem_key(e));
}

// ------------------------------------------------------------ memo store

TEST(MemoStore, PersistsAcrossReopenAndKeepsFirstWrite) {
  const std::string dir = fresh_dir("memo_persist");
  {
    MemoStore store(dir);
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_FALSE(store.lookup("opt:k1:cholesky").has_value());
    store.store("opt:k1:cholesky", "payload one");
    store.store("opt:k2:canneal", "payload two");
    // Idempotent: the slot's bytes never change after the first write.
    store.store("opt:k1:cholesky", "DIFFERENT");
    EXPECT_EQ(store.lookup("opt:k1:cholesky").value_or(""), "payload one");
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
  }
  MemoStore reopened(dir);
  EXPECT_EQ(reopened.replayed(), 2u);
  EXPECT_EQ(reopened.dropped(), 0u);
  EXPECT_EQ(reopened.lookup("opt:k1:cholesky").value_or(""), "payload one");
  EXPECT_EQ(reopened.lookup("opt:k2:canneal").value_or(""), "payload two");
}

TEST(MemoStore, DropsTornTailOnReplay) {
  const std::string dir = fresh_dir("memo_torn");
  {
    MemoStore store(dir);
    store.store("opt:a:x", "alpha");
    store.store("opt:b:y", "beta");
  }
  {
    // A crash mid-write leaves a torn final line.
    std::ofstream out(dir + "/memo.jsonl",
                      std::ios::binary | std::ios::app);
    out << "{\"task\":\"opt:c:z\",\"crc\":12";  // torn mid-record
  }
  MemoStore store(dir);
  EXPECT_EQ(store.replayed(), 2u);
  EXPECT_EQ(store.dropped(), 1u);
  EXPECT_EQ(store.lookup("opt:b:y").value_or(""), "beta");
  EXPECT_FALSE(store.lookup("opt:c:z").has_value());
}

// ------------------------------------------------------------- transport

TEST(Transport, ParsesEndpoints) {
  const Endpoint unix_ep = parse_endpoint("/tmp/svc.sock");
  EXPECT_FALSE(unix_ep.tcp);
  EXPECT_EQ(unix_ep.path, "/tmp/svc.sock");
  const Endpoint prefixed = parse_endpoint("unix:/tmp/svc2.sock");
  EXPECT_EQ(prefixed.path, "/tmp/svc2.sock");
  const Endpoint tcp_ep = parse_endpoint("tcp:127.0.0.1:7001");
  EXPECT_TRUE(tcp_ep.tcp);
  EXPECT_EQ(tcp_ep.host, "127.0.0.1");
  EXPECT_EQ(tcp_ep.port, 7001);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1"), ServiceError);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1:notaport"), ServiceError);
  EXPECT_THROW(parse_endpoint("tcp:127.0.0.1:99999"), ServiceError);
  EXPECT_THROW(parse_endpoint(""), ServiceError);
}

TEST(Transport, TcpLoopbackFrameRoundTrip) {
  // TCP sits behind the same Endpoint interface as Unix sockets; `--port=0`
  // binds an ephemeral port the listener reports.
  Listener listener;
  Endpoint ep;
  ep.tcp = true;
  ep.port = 0;
  listener.open(ep);
  ASSERT_NE(listener.bound_port(), 0);

  std::thread echo([&listener] {
    std::optional<Conn> peer = listener.accept(5'000);
    if (!peer) return;
    const std::optional<Frame> f = peer->recv_frame(5'000);
    if (f) peer->send_frame(*f, 5'000);
  });

  Endpoint target = ep;
  target.port = listener.bound_port();
  Conn conn = connect_endpoint(target, 2'000);
  const Frame sent{Frame::Type::kRequest, "hello over tcp"};
  conn.send_frame(sent, 2'000);
  const std::optional<Frame> back = conn.recv_frame(5'000);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, sent.payload);
  echo.join();
}

TEST(Transport, ConnectionToAbsentServerIsTypedAndRetryable) {
  const std::string dir = fresh_dir("no_server");
  try {
    connect_endpoint(parse_endpoint(dir + "/nothing.sock"), 500);
    FAIL() << "connected to nothing";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceError::Kind::kConnection);
    EXPECT_TRUE(e.retryable());
  }
}

// ----------------------------------------------------------- end to end

TEST(ServiceE2E, OptimizeIsByteIdenticalMemoizedAndRestartDurable) {
  const std::string dir = fresh_dir("byte_identity");
  const std::string bench = bench_name(0);
  const std::string& oracle = local_payload(bench);

  std::string first;
  {
    TestServer server(dir);
    server.start();
    EvalClient client(client_options(server.options.endpoint));
    bool memo = true;
    first = client.optimize(small_config(), small_options(), bench,
                            /*task_deadline_s=*/0.0, &memo);
    EXPECT_FALSE(memo);  // cold: computed
    EXPECT_EQ(client.last_attempts(), 1);
    // The core contract: the remote payload is byte-for-byte what a local
    // run journals for this task.
    EXPECT_EQ(first, oracle);

    bool memo2 = false;
    const std::string second = client.optimize(
        small_config(), small_options(), bench, 0.0, &memo2);
    EXPECT_TRUE(memo2);  // warm: answered from cache
    EXPECT_EQ(second, first);
    server.shutdown();
    EXPECT_GE(server.stats.served_ok, 2u);
    EXPECT_GE(server.stats.memo_hits, 1u);
    EXPECT_EQ(server.stats.shed, 0u);
  }

  // A restarted server replays the durable cache: the warm answer is
  // bit-identical across process lifetimes.
  TestServer server(dir);
  server.start();
  EvalClient client(client_options(server.options.endpoint));
  bool memo = false;
  const std::string warm =
      client.optimize(small_config(), small_options(), bench, 0.0, &memo);
  EXPECT_TRUE(memo);
  EXPECT_EQ(warm, first);
  server.shutdown();
  EXPECT_GE(server.stats.memo_replayed, 1u);
}

TEST(ServiceE2E, EvaluateMemoizesAtQuantizedOrgIdentity) {
  const std::string dir = fresh_dir("evaluate");
  TestServer server(dir);
  server.start();
  EvalClient client(client_options(server.options.endpoint));
  const Organization org{16, {1.0, 0.5, 1.0}, 0, 128};

  bool memo = true;
  const std::string cold = client.evaluate(small_config(), small_options(),
                                           "cholesky", org, &memo);
  EXPECT_FALSE(memo);
  EXPECT_NE(cold.find("peak "), std::string::npos);
  EXPECT_NE(cold.find("converged "), std::string::npos);

  // An organization the evaluation stack cannot distinguish (below the
  // 1 nm key quantization — fine enough that gradient-refined off-grid
  // spacings never collide) resolves to the same cache slot.
  Organization near = org;
  near.spacing.s2 += 1e-10;
  const std::string warm = client.evaluate(small_config(), small_options(),
                                           "cholesky", near, &memo);
  EXPECT_TRUE(memo);
  EXPECT_EQ(warm, cold);

  Organization far = org;
  far.spacing.s2 += 0.001;
  client.evaluate(small_config(), small_options(), "cholesky", far, &memo);
  EXPECT_FALSE(memo);  // a distinguishable layout computes fresh
}

TEST(ServiceE2E, OverloadShedsExplicitlyAndRetrierRecovers) {
  const std::string dir = fresh_dir("overload");
  TestServer server(dir);
  server.options.threads = 1;
  server.options.queue_capacity = 1;
  server.options.fault_hold_ms = 400;  // wedge the worker deterministically
  server.start();

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&] {
      EvalClient c(client_options(server.options.endpoint, /*attempts=*/1));
      try {
        c.call(ping_request());
        ok.fetch_add(1);
      } catch (const ServiceError& e) {
        (e.kind() == ServiceError::Kind::kOverloaded ? shed : other)
            .fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Load was shed explicitly and immediately — nobody hung on the full
  // queue (6 pings through a 1-worker, 400 ms-held server would need
  // ~2.4 s if queued; shed clients return in milliseconds).
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  EXPECT_LT(elapsed_s, 10.0);

  // `overloaded` is retryable by contract: a backoff client rides out the
  // flood and succeeds.
  EvalClient retrier(client_options(server.options.endpoint, /*attempts=*/8));
  EXPECT_TRUE(retrier.call(ping_request()).ok);
  server.shutdown();
  EXPECT_GE(server.stats.shed, static_cast<std::size_t>(shed.load()));
}

TEST(ServiceE2E, DeadlineKillsInFlightWorkWithoutPoisoningTheCache) {
  const std::string dir = fresh_dir("deadline");
  const std::string bench = bench_name(1);
  const std::string& oracle = local_payload(bench);
  TestServer server(dir);
  server.start();

  ClientOptions tight = client_options(server.options.endpoint, 1);
  tight.request_deadline_ms = 1;  // expires long before the solve finishes
  EvalClient impatient(tight);
  try {
    impatient.optimize(small_config(), small_options(), bench, 0.0);
    FAIL() << "a 1 ms optimize deadline was met?!";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.kind(), ServiceError::Kind::kDeadline);
    EXPECT_TRUE(e.retryable());
  }

  // The abandoned attempt was NOT memoized: the unhurried retry computes
  // (memo miss), and only the *completed* result enters the cache.
  EvalClient patient(client_options(server.options.endpoint));
  bool memo = true;
  const std::string computed =
      patient.optimize(small_config(), small_options(), bench, 0.0, &memo);
  EXPECT_FALSE(memo);
  EXPECT_EQ(computed, oracle);
  bool memo2 = false;
  EXPECT_EQ(patient.optimize(small_config(), small_options(), bench, 0.0,
                             &memo2),
            computed);
  EXPECT_TRUE(memo2);
  server.shutdown();
  EXPECT_GE(server.stats.deadline_expired, 1u);
}

TEST(ServiceE2E, ClientRetriesThroughServerAbsence) {
  const std::string dir = fresh_dir("late_server");
  TestServer server(dir);
  std::thread starter([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.start();
  });

  // The first attempts land on a socket that does not exist yet; the
  // retry loop (capped backoff, reconnect per attempt) rides through.
  EvalClient client(client_options(server.options.endpoint, /*attempts=*/40));
  const EvalResponse resp = client.call(ping_request());
  EXPECT_TRUE(resp.ok);
  EXPECT_GT(client.last_attempts(), 1);
  starter.join();
}

TEST(ServiceE2E, CorruptBytesOnTheWireGetTypedRefusals) {
  const std::string dir = fresh_dir("wire_corrupt");
  TestServer server(dir);
  server.start();

  {  // A checksum-failing frame: refused with a protocol error, then the
     // connection is dropped (its stream can no longer be trusted).
    Conn conn = connect_endpoint(server.options.endpoint, 2'000);
    std::string bytes = encode_frame(
        {Frame::Type::kRequest, encode_request(ping_request())});
    bytes[kFrameHeaderBytes] =
        static_cast<char>(bytes[kFrameHeaderBytes] ^ 0x01);
    ASSERT_EQ(::send(conn.fd(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    const std::optional<Frame> f = conn.recv_frame(5'000);
    ASSERT_TRUE(f.has_value());
    EvalResponse resp;
    ASSERT_TRUE(decode_response(f->payload, &resp));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_kind, "protocol");
    EXPECT_FALSE(resp.retryable);
    EXPECT_FALSE(conn.recv_frame(5'000).has_value());  // dropped (EOF)
  }
  {  // A response-typed frame where a request belongs.
    Conn conn = connect_endpoint(server.options.endpoint, 2'000);
    conn.send_frame({Frame::Type::kResponse, "status ok\nidem 0\n"}, 2'000);
    const std::optional<Frame> f = conn.recv_frame(5'000);
    ASSERT_TRUE(f.has_value());
    EvalResponse resp;
    ASSERT_TRUE(decode_response(f->payload, &resp));
    EXPECT_EQ(resp.error_kind, "protocol");
  }
  {  // A well-framed but malformed request payload.
    Conn conn = connect_endpoint(server.options.endpoint, 2'000);
    conn.send_frame({Frame::Type::kRequest, "zz not a request"}, 2'000);
    const std::optional<Frame> f = conn.recv_frame(5'000);
    ASSERT_TRUE(f.has_value());
    EvalResponse resp;
    ASSERT_TRUE(decode_response(f->payload, &resp));
    EXPECT_EQ(resp.error_kind, "protocol");
    EXPECT_FALSE(resp.retryable);
  }
  server.shutdown();
  EXPECT_GE(server.stats.protocol_errors, 3u);
}

TEST(ServiceE2E, DrainReleasesIdleConnectionsAndReportsSummary) {
  const std::string dir = fresh_dir("drain");
  TestServer server(dir);
  server.start();
  EvalClient client(client_options(server.options.endpoint));
  EXPECT_TRUE(client.ping());

  // Park an idle connection, then drain: it must be released (EOF), not
  // held open or force-reset mid-frame.
  Conn idle = connect_endpoint(server.options.endpoint, 2'000);
  server.shutdown();
  EXPECT_FALSE(idle.recv_frame(5'000).has_value());

  const std::string summary = format_drain_summary(server.stats);
  EXPECT_NE(summary.find("[serve] drained"), std::string::npos);
  EXPECT_NE(summary.find("requests="), std::string::npos);
  EXPECT_NE(summary.find("memo_hits="), std::string::npos);
  EXPECT_NE(summary.find("shed="), std::string::npos);
  EXPECT_GE(server.stats.requests, 1u);
  EXPECT_GE(server.stats.served_ok, 1u);
}

TEST(ServiceE2E, ConcurrentClientsAgreeByteForByte) {
  // The TSan target: many clients, shared memo store, one answer.
  const std::string dir = fresh_dir("concurrent");
  const std::string b0 = bench_name(0);
  const std::string b1 = bench_name(1);
  const std::string& oracle0 = local_payload(b0);
  const std::string& oracle1 = local_payload(b1);

  TestServer server(dir);
  server.options.threads = 4;
  server.options.queue_capacity = 16;
  server.start();

  constexpr int kClients = 8;
  std::vector<std::string> payloads(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      EvalClient c(client_options(server.options.endpoint));
      payloads[static_cast<std::size_t>(i)] = c.optimize(
          small_config(), small_options(), i % 2 ? b1 : b0, 0.0);
    });
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kClients; ++i)
    EXPECT_EQ(payloads[static_cast<std::size_t>(i)],
              i % 2 ? oracle1 : oracle0)
        << "client " << i;
  server.shutdown();
  EXPECT_GE(server.stats.served_ok, static_cast<std::size_t>(kClients));
}

// ----------------------------------------------------- remote-offload hook

/// Uninstalls the hook even when an assertion fails mid-test.
struct HookGuard {
  ~HookGuard() { set_remote_optimize_hook({}); }
};

TEST(RemoteHook, SuccessPayloadIsJournaledVerbatimAndReplayed) {
  const std::string bench = bench_name(0);
  const std::string payload = local_payload(bench);  // before installing!
  HookGuard guard;
  std::atomic<int> calls{0};
  set_remote_optimize_hook([&calls, payload](const EvalConfig&,
                                             const std::string&,
                                             const OptimizerOptions&,
                                             double) {
    calls.fetch_add(1);
    return payload;
  });

  const std::string dir = fresh_dir("hook_success");
  RunJournal journal(dir);
  journal.load();
  const RunControl run{&journal, nullptr, 0.0};
  TaskOutcome out =
      optimize_one_guarded(small_config(), bench, small_options(), &run);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(calls.load(), 1);
  // The remote payload lands in the journal byte-for-byte.
  EXPECT_EQ(journal.find("optimize:" + bench).value_or(""), payload);
  // Replay answers from the journal, not the hook.
  out = optimize_one_guarded(small_config(), bench, small_options(), &run);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(calls.load(), 1);
}

TEST(RemoteHook, ServiceFailureQuarantinesWithoutJournaling) {
  const std::string bench = bench_name(0);
  local_payload(bench);  // warm the oracle cache before installing the hook
  HookGuard guard;
  set_remote_optimize_hook([](const EvalConfig&, const std::string&,
                              const OptimizerOptions&,
                              double) -> std::string {
    throw ServiceError(ServiceError::Kind::kConnection,
                       "server unreachable after exhausted retries");
  });

  const std::string dir = fresh_dir("hook_failure");
  RunJournal journal(dir);
  journal.load();
  const RunControl run{&journal, nullptr, 0.0};
  const TaskOutcome out =
      optimize_one_guarded(small_config(), bench, small_options(), &run);
  EXPECT_TRUE(out.result.quarantined);
  EXPECT_EQ(out.stats.health.quarantined, 1u);
  EXPECT_NE(out.result.diagnostic.find("unreachable"), std::string::npos);
  // Deliberately NOT journaled: the failure is environmental, so a resume
  // against a healthy server recomputes instead of replaying the outage.
  EXPECT_FALSE(journal.has("optimize:" + bench));
}

TEST(RemoteHook, CancellationLeavesTheTaskResumable) {
  const std::string bench = bench_name(0);
  local_payload(bench);
  HookGuard guard;
  set_remote_optimize_hook([](const EvalConfig&, const std::string&,
                              const OptimizerOptions&,
                              double) -> std::string {
    throw CancelledError(CancelledError::Reason::kInterrupt, 0.1, 0.0);
  });

  const std::string dir = fresh_dir("hook_cancel");
  RunJournal journal(dir);
  journal.load();
  const RunControl run{&journal, nullptr, 0.0};
  const TaskOutcome out =
      optimize_one_guarded(small_config(), bench, small_options(), &run);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.result.interrupted);
  EXPECT_FALSE(journal.has("optimize:" + bench));
}

}  // namespace
}  // namespace tacos
