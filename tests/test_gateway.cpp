// End-to-end HTTP gateway tests over real loopback sockets: two
// registered models behind one gateway, JSON dock results bit-identical
// to direct DockingService calls on the routed model, publishing a
// checkpoint onto one model, the 4xx error contract, stats/discovery
// endpoints, and hostile-peer behaviour — garbage bytes, mid-body
// hangup, and an RST before the reply (the SIGPIPE regression) must
// never take the server down. Neither may thousands of closed
// connections (handler threads are reaped) nor an accept() that runs out
// of fds (the accept loop retries).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/common/rng.hpp"
#include "src/gateway/gateway.hpp"
#include "src/rl/checkpoint.hpp"

namespace dqndock::gateway {
namespace {

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Minimal raw HTTP/1.1 client: just enough socket + framing code to
/// exercise the gateway the way curl would, including keep-alive and
/// deliberately rude disconnects.
class HttpConn {
 public:
  explicit HttpConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  }
  ~HttpConn() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Close with SO_LINGER {on, 0}: the kernel sends RST instead of FIN,
  /// so the server's next send on this connection fails with
  /// EPIPE/ECONNRESET — the exact condition that used to raise SIGPIPE.
  void abortiveClose() {
    linger hard{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    close();
  }

  /// Bound every read, so a server that never answers fails the test
  /// instead of hanging it.
  void setRecvTimeout(int seconds) {
    timeval timeout{seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }

  void sendRaw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0);
      off += static_cast<std::size_t>(w);
    }
  }

  void get(const std::string& path) {
    sendRaw("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
  }

  void post(const std::string& path, const std::string& json) {
    sendRaw("POST " + path + " HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
            "Content-Length: " + std::to_string(json.size()) + "\r\n\r\n" + json);
  }

  /// Parse one response off the stream (keep-alive aware: surplus bytes
  /// stay buffered for the next call). Status 0 = connection died first.
  HttpResponse readResponse() {
    HttpResponse out;
    const std::string headerEnd = "\r\n\r\n";
    std::size_t headerLen;
    while ((headerLen = buffer_.find(headerEnd)) == std::string::npos) {
      if (!recvMore()) return out;
    }
    headerLen += headerEnd.size();
    const std::string head = buffer_.substr(0, headerLen);
    out.status = std::atoi(head.c_str() + head.find(' '));

    std::size_t contentLength = 0;
    const std::string marker = "Content-Length: ";
    const std::size_t at = head.find(marker);
    if (at != std::string::npos) {
      contentLength = static_cast<std::size_t>(std::atol(head.c_str() + at + marker.size()));
    }
    while (buffer_.size() < headerLen + contentLength) {
      if (!recvMore()) return HttpResponse{};
    }
    out.body = buffer_.substr(headerLen, contentLength);
    buffer_.erase(0, headerLen + contentLength);
    return out;
  }

 private:
  bool recvMore() {
    char buf[8192];
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(r));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Two models ("alpha", "beta") with DIFFERENT weights behind one
/// gateway — routing correctness is observable as score differences.
class GatewayFixture : public ::testing::Test {
 protected:
  GatewayFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {
    const std::size_t dim = scenario_.ligand.atomCount() * 3;
    serve::ServiceOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 8;
    opts.batcher.flushDeadline = std::chrono::microseconds(50);
    const std::uint64_t seeds[] = {2024, 777};
    const char* names[] = {"alpha", "beta"};
    for (int i = 0; i < 2; ++i) {
      Rng rng(seeds[i]);
      registries_.push_back(std::make_unique<serve::ModelRegistry>(
          std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{16}, 12, rng)));
      services_.push_back(
          std::make_unique<serve::DockingService>(scenario_, *registries_.back(), opts));
      directory_.add(names[i], *services_.back(), *registries_.back());
    }
    gateway_ = std::make_unique<HttpGateway>(directory_);
  }

  ~GatewayFixture() override {
    gateway_->stop();
    for (auto& service : services_) service->shutdown();
  }

  std::uint16_t port() const { return gateway_->port(); }

  /// Poll until the gateway has observed `field` (handler threads run
  /// asynchronously relative to the client's view of the socket).
  template <typename Pred>
  bool waitFor(Pred pred) const {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  /// Writes a checkpoint of a fresh network with the given hidden layers
  /// to a file private to this process; returns its path.
  std::string writeCheckpoint(const std::string& stem, std::vector<std::size_t> hidden) const {
    Rng rng(99);
    rl::MlpQNetwork net(scenario_.ligand.atomCount() * 3, std::move(hidden), 12, rng);
    const std::string path = (std::filesystem::temp_directory_path() /
                              (stem + "_" + std::to_string(::getpid()) + ".bin"))
                                 .string();
    rl::saveWeightsFile(path, net);
    return path;
  }

  chem::Scenario scenario_;
  std::vector<std::unique_ptr<serve::ModelRegistry>> registries_;
  std::vector<std::unique_ptr<serve::DockingService>> services_;
  serve::TenantDirectory directory_;
  std::unique_ptr<HttpGateway> gateway_;
};

TEST_F(GatewayFixture, HealthzAndModelsDiscovery) {
  HttpConn conn(port());
  conn.get("/v1/healthz");
  HttpResponse health = conn.readResponse();
  ASSERT_EQ(health.status, 200);
  const JsonValue healthDoc = jsonParse(health.body);
  EXPECT_EQ(healthDoc.find("status")->asString(), "ok");
  EXPECT_EQ(healthDoc.find("models")->asNumber(), 2.0);

  conn.get("/v1/models");  // keep-alive: same connection
  HttpResponse models = conn.readResponse();
  ASSERT_EQ(models.status, 200);
  const JsonValue doc = jsonParse(models.body);
  const auto& list = doc.find("models")->items();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].find("name")->asString(), "alpha");  // lexicographic
  EXPECT_EQ(list[1].find("name")->asString(), "beta");
  for (const JsonValue& entry : list) {
    EXPECT_EQ(entry.find("model_version")->asNumber(), 1.0);
    EXPECT_EQ(entry.find("state_dim")->asNumber(),
              static_cast<double>(scenario_.ligand.atomCount() * 3));
    EXPECT_EQ(entry.find("actions")->asNumber(), 12.0);
  }
}

TEST_F(GatewayFixture, DockRoutesToNamedModelBitIdentically) {
  // The acceptance criterion: POST /v1/models/<name>/dock must return
  // scores BIT-identical to a direct DockingService call on the routed
  // model. Epsilon 0 makes the rollout deterministic given the weights,
  // so any routing mixup or JSON precision loss shows up as inequality.
  serve::DockRequest direct;
  direct.maxSteps = 8;
  direct.epsilon = 0.0;
  direct.seed = 42;
  const char* names[] = {"alpha", "beta"};
  for (int i = 0; i < 2; ++i) {
    const serve::SubmitResult submitted = services_[i]->submitDock(direct);
    ASSERT_TRUE(submitted.accepted());
    const serve::JobOutcome reference = services_[i]->wait(submitted.jobId);
    ASSERT_EQ(reference.status, serve::JobStatus::kDone);

    HttpConn conn(port());
    conn.post(std::string("/v1/models/") + names[i] + "/dock",
              R"({"max_steps":8,"epsilon":0,"seed":42})");
    const HttpResponse response = conn.readResponse();
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = jsonParse(response.body);
    EXPECT_EQ(doc.find("model")->asString(), names[i]);
    EXPECT_EQ(doc.find("status")->asString(), "done");

    const double viaHttp[4] = {
        doc.find("initial_score")->asNumber(), doc.find("best_score")->asNumber(),
        doc.find("final_score")->asNumber(), doc.find("best_rmsd")->asNumber()};
    const double viaDirect[4] = {reference.dock.initialScore, reference.dock.bestScore,
                                 reference.dock.finalScore, reference.dock.bestRmsd};
    EXPECT_EQ(std::memcmp(viaHttp, viaDirect, sizeof viaHttp), 0)
        << names[i] << ": scores did not survive the HTTP surface bit-identically";
    EXPECT_EQ(doc.find("steps")->asNumber(), static_cast<double>(reference.dock.steps));
    EXPECT_EQ(doc.find("termination")->asString(), reference.dock.termination);
  }
  // Routing proof: each model's OWN pool executed exactly two jobs (the
  // direct reference + the routed HTTP dock). A collapsed route table
  // would show 4/0 instead of 2/2.
  EXPECT_EQ(services_[0]->stats().done, 2u);
  EXPECT_EQ(services_[1]->stats().done, 2u);
}

TEST_F(GatewayFixture, ScreenRoutesAndReportsHits) {
  HttpConn conn(port());
  conn.post("/v1/models/beta/screen",
            R"({"library_size":2,"min_atoms":6,"max_atoms":8,"evals":40})");
  const HttpResponse response = conn.readResponse();
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = jsonParse(response.body);
  EXPECT_EQ(doc.find("model")->asString(), "beta");
  EXPECT_EQ(doc.find("status")->asString(), "done");
  EXPECT_EQ(doc.find("ligands")->asNumber(), 2.0);
  EXPECT_GT(doc.find("evaluations")->asNumber(), 0.0);
  EXPECT_FALSE(doc.find("best_ligand")->asString().empty());
}

TEST_F(GatewayFixture, ErrorContract) {
  HttpConn conn(port());
  // Unknown model -> 404.
  conn.post("/v1/models/gamma/dock", "{}");
  EXPECT_EQ(conn.readResponse().status, 404);
  // Unknown action -> 404.
  conn.post("/v1/models/alpha/undock", "{}");
  EXPECT_EQ(conn.readResponse().status, 404);
  // Wrong method on a job route -> 405.
  conn.get("/v1/models/alpha/dock");
  EXPECT_EQ(conn.readResponse().status, 405);
  // Wrong method on a read route -> 405.
  conn.sendRaw("POST /v1/healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(conn.readResponse().status, 405);
  // Malformed JSON body -> 400.
  conn.post("/v1/models/alpha/dock", "{nope");
  EXPECT_EQ(conn.readResponse().status, 400);
  // Non-object body -> 400.
  conn.post("/v1/models/alpha/dock", "[1,2]");
  EXPECT_EQ(conn.readResponse().status, 400);
  // Mistyped field -> 400 (not a silently-applied default).
  conn.post("/v1/models/alpha/dock", R"({"max_steps":"many"})");
  EXPECT_EQ(conn.readResponse().status, 400);
  // Fractional integer field -> 400.
  conn.post("/v1/models/alpha/dock", R"({"max_steps":12.5})");
  EXPECT_EQ(conn.readResponse().status, 400);
  // Integers out of range for their field -> 400 naming the field, not a
  // wrapped or undefined cast: beyond any integer type, strtod's inf,
  // 2^32 + 1 for an int step count, and a negative library size.
  for (const char* body : {R"({"max_steps":1e300})", R"({"max_steps":1e400})",
                           R"({"max_steps":4294967297})"}) {
    conn.post("/v1/models/alpha/dock", body);
    const HttpResponse response = conn.readResponse();
    EXPECT_EQ(response.status, 400) << body;
    EXPECT_NE(response.body.find("max_steps"), std::string::npos) << response.body;
  }
  conn.post("/v1/models/alpha/screen", R"({"library_size":-1})");
  const HttpResponse negative = conn.readResponse();
  EXPECT_EQ(negative.status, 400);
  EXPECT_NE(negative.body.find("library_size"), std::string::npos) << negative.body;
  // No route -> 404.
  conn.get("/v2/anything");
  EXPECT_EQ(conn.readResponse().status, 404);
  // Wrong method on publish -> 405; publish on an unknown model -> 404.
  conn.get("/v1/models/alpha/publish");
  EXPECT_EQ(conn.readResponse().status, 405);
  conn.post("/v1/models/gamma/publish", R"({"path":"/nonexistent/w.bin"})");
  EXPECT_EQ(conn.readResponse().status, 404);
  // All of it on ONE keep-alive connection, which still works:
  conn.get("/v1/healthz");
  EXPECT_EQ(conn.readResponse().status, 200);
}

/// The same gateway on loopback; its suite holds the requests that route
/// fine but that the service refuses, apart from the routing contract.
class LoopbackFixture : public GatewayFixture {};

TEST_F(LoopbackFixture, BadRequestsComeBackAsErrors) {
  HttpConn conn(port());
  // Publish without a usable path -> 400.
  for (const char* body : {"{}", R"({"path":5})", R"({"path":""})"}) {
    conn.post("/v1/models/alpha/publish", body);
    EXPECT_EQ(conn.readResponse().status, 400) << body;
  }
  // A checkpoint the registry will not publish -> 422 with its reason.
  conn.post("/v1/models/alpha/publish", R"({"path":"/nonexistent/w.bin"})");
  HttpResponse refused = conn.readResponse();
  EXPECT_EQ(refused.status, 422);
  EXPECT_NE(refused.body.find("cannot open"), std::string::npos) << refused.body;
  const std::string otherShape = writeCheckpoint("dqndock_gateway_other_shape", {8});
  conn.post("/v1/models/alpha/publish", R"({"path":")" + otherShape + R"("})");
  refused = conn.readResponse();
  EXPECT_EQ(refused.status, 422);
  EXPECT_NE(refused.body.find("shape mismatch"), std::string::npos) << refused.body;
  std::remove(otherShape.c_str());
  // No refused publish swapped a model,
  EXPECT_EQ(registries_[0]->currentVersion(), 1u);
  EXPECT_EQ(registries_[1]->currentVersion(), 1u);
  // and the connection survives all of it.
  conn.get("/v1/healthz");
  EXPECT_EQ(conn.readResponse().status, 200);
}

TEST_F(GatewayFixture, PublishHotSwapsTheNamedModel) {
  // Same architecture as alpha, other weights.
  const std::string path = writeCheckpoint("dqndock_gateway_publish", {16});
  HttpConn conn(port());
  conn.post("/v1/models/alpha/publish", R"({"path":")" + path + R"("})");
  const HttpResponse published = conn.readResponse();
  std::remove(path.c_str());
  ASSERT_EQ(published.status, 200) << published.body;
  const JsonValue doc = jsonParse(published.body);
  EXPECT_EQ(doc.find("model")->asString(), "alpha");
  EXPECT_EQ(doc.find("model_version")->asNumber(), 2.0);

  // The next alpha dock runs on the new version.
  conn.post("/v1/models/alpha/dock", R"({"max_steps":3})");
  const HttpResponse docked = conn.readResponse();
  ASSERT_EQ(docked.status, 200) << docked.body;
  EXPECT_EQ(jsonParse(docked.body).find("model_version")->asNumber(), 2.0);

  // beta is untouched.
  conn.get("/v1/models");
  const JsonValue models = jsonParse(conn.readResponse().body);
  const auto& list = models.find("models")->items();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].find("model_version")->asNumber(), 2.0);
  EXPECT_EQ(list[1].find("name")->asString(), "beta");
  EXPECT_EQ(list[1].find("model_version")->asNumber(), 1.0);
}

TEST_F(GatewayFixture, StatsReflectPerModelTraffic) {
  {
    HttpConn conn(port());
    conn.post("/v1/models/alpha/dock", R"({"max_steps":3})");
    ASSERT_EQ(conn.readResponse().status, 200);
    conn.post("/v1/models/alpha/dock", R"({"max_steps":3,"seed":5})");
    ASSERT_EQ(conn.readResponse().status, 200);
  }
  HttpConn conn(port());
  conn.get("/v1/stats");
  const HttpResponse response = conn.readResponse();
  ASSERT_EQ(response.status, 200);
  const JsonValue doc = jsonParse(response.body);

  // The snapshot is taken while the /v1/stats request itself is still in
  // flight, so only the two docks are counted yet.
  const JsonValue* gw = doc.find("gateway");
  ASSERT_NE(gw, nullptr);
  EXPECT_GE(gw->find("requests")->asNumber(), 2.0);
  EXPECT_GE(gw->find("connections")->asNumber(), 2.0);

  const auto& models = doc.find("models")->items();
  ASSERT_EQ(models.size(), 2u);
  const JsonValue& alpha = models[0];
  ASSERT_EQ(alpha.find("name")->asString(), "alpha");
  EXPECT_EQ(alpha.find("dock")->find("requests")->asNumber(), 2.0);
  EXPECT_EQ(alpha.find("dock")->find("errors")->asNumber(), 0.0);
  EXPECT_EQ(alpha.find("dock")->find("latency_samples")->asNumber(), 2.0);
  const JsonValue* latency = alpha.find("dock")->find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->find("p50")->asNumber(), 0.0);
  EXPECT_GE(latency->find("p99")->asNumber(), latency->find("p50")->asNumber());
  EXPECT_EQ(alpha.find("jobs")->find("done")->asNumber(), 2.0);
  // Each batch is counted under exactly one flush reason.
  for (const char* key : {"batches", "full_batches", "rollout_flushes", "deadline_flushes"}) {
    ASSERT_NE(alpha.find(key), nullptr) << key;
  }
  const double batches = alpha.find("batches")->asNumber();
  EXPECT_GE(batches, 1.0);
  EXPECT_EQ(alpha.find("full_batches")->asNumber() + alpha.find("rollout_flushes")->asNumber() +
                alpha.find("deadline_flushes")->asNumber(),
            batches);
  // Beta saw none of it.
  const JsonValue& beta = models[1];
  ASSERT_EQ(beta.find("name")->asString(), "beta");
  EXPECT_EQ(beta.find("dock")->find("requests")->asNumber(), 0.0);
}

TEST_F(GatewayFixture, PipelinedRequestsAnswerInOrder) {
  HttpConn conn(port());
  conn.sendRaw("GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/models HTTP/1.1\r\n\r\n");
  const HttpResponse first = conn.readResponse();
  ASSERT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"status\":\"ok\""), std::string::npos);
  const HttpResponse second = conn.readResponse();
  ASSERT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"models\":["), std::string::npos);
}

TEST_F(GatewayFixture, GarbageBytesGet400AndServerSurvives) {
  {
    HttpConn conn(port());
    conn.sendRaw("\x16\x03\x01 this is not http\r\n\r\n");
    const HttpResponse response = conn.readResponse();
    EXPECT_GE(response.status, 400);
    // After a parse error the gateway closes: next read sees EOF.
    EXPECT_EQ(conn.readResponse().status, 0);
  }
  EXPECT_TRUE(waitFor([&] { return gateway_->stats().parseErrors >= 1; }));
  HttpConn again(port());
  again.get("/v1/healthz");
  EXPECT_EQ(again.readResponse().status, 200);
}

TEST_F(GatewayFixture, MidBodyHangupClosesCleanly) {
  {
    HttpConn conn(port());
    conn.sendRaw("POST /v1/models/alpha/dock HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"max");
    // Hang up with 44 body bytes owed. Nothing to answer; no crash.
  }
  HttpConn again(port());
  again.get("/v1/healthz");
  EXPECT_EQ(again.readResponse().status, 200);
}

TEST_F(GatewayFixture, RstBeforeReplyIsCountedNotFatal) {
  // SIGPIPE regression (ISSUE satellite): the peer submits a dock and
  // vanishes with an RST before the reply. The gateway's send must fail
  // with EPIPE/ECONNRESET — counted as a peer hangup — and the process
  // must stay up. Without SIG_IGN/MSG_NOSIGNAL this test kills the
  // whole test binary with SIGPIPE.
  {
    HttpConn conn(port());
    conn.post("/v1/models/alpha/dock", R"({"max_steps":40})");
    conn.abortiveClose();
  }
  EXPECT_TRUE(waitFor([&] { return gateway_->stats().peerHangups >= 1; }));
  // Alive and serving.
  HttpConn again(port());
  again.post("/v1/models/alpha/dock", R"({"max_steps":3})");
  EXPECT_EQ(again.readResponse().status, 200);
}

TEST_F(GatewayFixture, StopRefusesNewConnections) {
  gateway_->requestStop();
  gateway_->stop();
  EXPECT_TRUE(gateway_->stopRequested());
  // The listener is gone: connect is refused outright, or (if the kernel
  // raced us into the backlog) the connection yields no response.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const char probe[] = "GET /v1/healthz HTTP/1.1\r\n\r\n";
    (void)::send(fd, probe, sizeof probe - 1, MSG_NOSIGNAL);
    char buf[256];
    EXPECT_LE(::recv(fd, buf, sizeof buf, 0), 0);
  }
  ::close(fd);
}

/// Lines in /proc/self/maps. A thread that exited but was never joined
/// keeps its stack and guard page mapped.
std::size_t mappingCount() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(std::count(std::istreambuf_iterator<char>(maps),
                                             std::istreambuf_iterator<char>(), '\n'));
}

TEST_F(GatewayFixture, ClosedConnectionsReleaseTheirThreads) {
  // Every connection gets its own handler thread. One left unjoined
  // after its peer closes keeps two mappings; enough of them exhaust
  // vm.max_map_count, and the next thread creation aborts the gateway.
  const auto closeAfterReply = [&] {
    HttpConn conn(port());
    conn.sendRaw("GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    return conn.readResponse().status;
  };
  for (int i = 0; i < 16; ++i) ASSERT_EQ(closeAfterReply(), 200);  // warm the stack cache
  const std::size_t before = mappingCount();
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(closeAfterReply(), 200);
  const std::size_t after = mappingCount();
  EXPECT_LT(after, before + 100) << "mappings grew from " << before << " to " << after;
  EXPECT_EQ(gateway_->stats().connections, 2016u);
}

/// Threads in this process: the entries of /proc/self/task.
std::size_t threadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// Lowers this process's soft fd limit and fills every free slot, so the
/// next fd anyone asks for fails with EMFILE. The destructor closes the
/// fillers and restores the limit.
class FdExhaustion {
 public:
  FdExhaustion() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    source_ = ::open("/dev/null", O_RDONLY);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min<rlim_t>(saved_.rlim_cur, 256);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
    for (int fd; (fd = ::dup(source_)) >= 0;) fillers_.push_back(fd);
    exhausted_ = errno == EMFILE;
  }
  ~FdExhaustion() {
    release();
    ::close(source_);
    ::setrlimit(RLIMIT_NOFILE, &saved_);
  }

  /// True when the table is full and one slot can be freed.
  bool exhausted() const { return exhausted_ && !fillers_.empty(); }

  void freeOneSlot() {
    ::close(fillers_.back());
    fillers_.pop_back();
  }

  void release() {
    for (const int fd : fillers_) ::close(fd);
    fillers_.clear();
  }

 private:
  rlimit saved_{};
  int source_ = -1;
  bool exhausted_ = false;
  std::vector<int> fillers_;
};

TEST_F(GatewayFixture, AcceptSurvivesFdExhaustion) {
  // A blocked accept() has already reserved the fd it will hand out, so
  // the first client is served. The accept() after it finds no free fd
  // and fails with EMFILE. That failure must not end the accept loop:
  // once the fds are back, the next client is served.
  // One request runs before the table fills, so first-time work that
  // needs an fd of its own is done (UBSan's dynamic-type check opens a
  // pipe on a cache miss). That includes the first handler thread's
  // exit, so the table fills only once the warm-up's handler is gone.
  const std::uint16_t gatewayPort = port();
  const std::size_t threadsBefore = threadCount();
  {
    HttpConn warmup(gatewayPort);
    warmup.get("/v1/healthz");
    ASSERT_EQ(warmup.readResponse().status, 200);
  }
  ASSERT_TRUE(waitFor([&] { return threadCount() <= threadsBefore; }));
  FdExhaustion fds;
  ASSERT_TRUE(fds.exhausted());
  fds.freeOneSlot();
  {
    HttpConn first(gatewayPort);
    first.setRecvTimeout(2);
    first.get("/v1/healthz");
    ASSERT_EQ(first.readResponse().status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // accept() hits EMFILE
  }
  fds.release();
  HttpConn next(gatewayPort);
  next.setRecvTimeout(2);
  next.get("/v1/healthz");
  EXPECT_EQ(next.readResponse().status, 200);
}

TEST(TenantDirectoryTest, RejectsBadRegistrations) {
  const chem::Scenario scenario = chem::buildScenario(chem::ScenarioSpec::tiny());
  const std::size_t dim = scenario.ligand.atomCount() * 3;
  Rng rng(1);
  serve::ModelRegistry registry(
      std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{16}, 12, rng));
  serve::DockingService service(scenario, registry);
  serve::TenantDirectory directory;
  directory.add("ok-name_1.2", service, registry);
  EXPECT_THROW(directory.add("", service, registry), std::invalid_argument);
  EXPECT_THROW(directory.add("ok-name_1.2", service, registry), std::invalid_argument);
  EXPECT_THROW(directory.add("has space", service, registry), std::invalid_argument);
  EXPECT_THROW(directory.add("has/slash", service, registry), std::invalid_argument);
  EXPECT_EQ(directory.size(), 1u);
  EXPECT_NE(directory.find("ok-name_1.2"), nullptr);
  EXPECT_EQ(directory.find("nope"), nullptr);
  service.shutdown();
}

TEST(LatencyWindowTest, NearestRankPercentilesAndAging) {
  serve::LatencyWindow window(4);
  EXPECT_EQ(window.percentileSeconds(50), 0.0);  // empty
  window.record(0.010);
  window.record(0.020);
  window.record(0.030);
  window.record(0.040);
  EXPECT_DOUBLE_EQ(window.percentileSeconds(50), 0.020);
  EXPECT_DOUBLE_EQ(window.percentileSeconds(100), 0.040);
  EXPECT_DOUBLE_EQ(window.percentileSeconds(0), 0.010);
  // Ring overwrite: a fifth sample ages the oldest out.
  window.record(0.050);
  EXPECT_DOUBLE_EQ(window.percentileSeconds(0), 0.020);
  EXPECT_DOUBLE_EQ(window.percentileSeconds(100), 0.050);
  EXPECT_EQ(window.count(), 5u);
}

}  // namespace
}  // namespace dqndock::gateway
