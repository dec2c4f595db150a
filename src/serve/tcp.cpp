#include "src/serve/tcp.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/logging.hpp"

namespace dqndock::serve {

namespace {

JobPriority priorityFromName(const std::string& name) {
  if (name == "high") return JobPriority::kHigh;
  if (name == "low") return JobPriority::kLow;
  return JobPriority::kNormal;
}

void fillDockFields(Message& reply, const JobOutcome& outcome) {
  reply.set("job_id", outcome.jobId)
      .set("status", std::string(jobStatusName(outcome.status)))
      .set("initial_score", outcome.dock.initialScore)
      .set("best_score", outcome.dock.bestScore)
      .set("final_score", outcome.dock.finalScore)
      .set("best_rmsd", outcome.dock.bestRmsd)
      .set("steps", static_cast<std::uint64_t>(outcome.dock.steps))
      .set("termination", outcome.dock.termination)
      .set("model_version", outcome.dock.modelVersion)
      .set("seconds", outcome.dock.seconds);
  if (!outcome.error.empty()) reply.set("error", outcome.error);
}

void fillScreenFields(Message& reply, const JobOutcome& outcome) {
  reply.set("job_id", outcome.jobId)
      .set("status", std::string(jobStatusName(outcome.status)))
      .set("ligands", static_cast<std::uint64_t>(outcome.screen.ligands))
      .set("hit_count", static_cast<std::uint64_t>(outcome.screen.hitCount))
      .set("best_score", outcome.screen.bestScore)
      .set("best_ligand", outcome.screen.bestLigand)
      .set("evaluations", static_cast<std::uint64_t>(outcome.screen.totalEvaluations))
      .set("seconds", outcome.screen.seconds);
  if (!outcome.error.empty()) reply.set("error", outcome.error);
}

}  // namespace

TcpServer::TcpServer(DockingService& service, ModelRegistry& registry, std::uint16_t port)
    : service_(service), registry_(registry) {
  listener_.emplace("TcpServer", port, [this](int fd) { handleConnection(fd); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::handleConnection(int fd) {
  Message request;
  for (;;) {
    try {
      if (!recvMessage(fd, request)) break;  // client hung up cleanly
    } catch (const ProtocolError&) {
      std::lock_guard lock(mu_);
      ++stats_.protocolErrors;
      break;
    } catch (const std::exception&) {
      break;  // transport failure (reset, stop() shutdown) — not the peer's fault
    }
    Message reply;
    try {
      reply = handleRequest(request);
    } catch (const std::exception& e) {
      reply = Message::error(e.what());
    }
    {
      std::lock_guard lock(mu_);
      ++stats_.requests;
    }
    try {
      sendMessage(fd, reply);
    } catch (const PeerClosedError&) {
      // EPIPE/ECONNRESET: the client sent a request and hung up without
      // reading the reply. Same clean-hangup path as an orderly EOF.
      std::lock_guard lock(mu_);
      ++stats_.peerHangups;
      break;
    } catch (const std::exception&) {
      break;  // transport fault mid-response
    }
    if (request.type == "SHUTDOWN") break;
  }
}

Message TcpServer::handleRequest(const Message& request) {
  if (request.type == "PING") return Message::ok();
  if (request.type == "STATUS") return handleStatus();
  if (request.type == "DOCK") return handleDock(request);
  if (request.type == "SCREEN") return handleScreen(request);
  if (request.type == "PUBLISH") {
    const std::string path = request.get("path");
    if (path.empty()) return Message::error("PUBLISH requires path=");
    const std::uint64_t version = registry_.publishFromFile(path);
    Message reply = Message::ok();
    reply.set("model_version", version);
    return reply;
  }
  if (request.type == "SHUTDOWN") {
    requestStop();
    return Message::ok();
  }
  return Message::error("unknown request type: " + request.type);
}

Message TcpServer::handleDock(const Message& request) {
  DockRequest dock;
  dock.maxSteps = static_cast<int>(request.getInt("max_steps", dock.maxSteps));
  dock.epsilon = request.getDouble("epsilon", dock.epsilon);
  dock.seed = static_cast<std::uint64_t>(request.getInt("seed", 1));
  dock.priority = priorityFromName(request.get("priority", "normal"));
  dock.timeoutSeconds = request.getDouble("timeout_s", 0.0);

  const SubmitResult submitted = service_.submitDock(dock);
  if (!submitted.accepted()) {
    Message reply = Message::error(submitted.reason());
    reply.set("code", std::string(submitStatusName(submitted.status)));
    return reply;
  }
  const JobOutcome outcome = service_.wait(submitted.jobId);
  Message reply = outcome.status == JobStatus::kDone ? Message::ok()
                                                     : Message{"ERROR", {}};
  fillDockFields(reply, outcome);
  return reply;
}

Message TcpServer::handleScreen(const Message& request) {
  ScreenRequest screen;
  screen.librarySize =
      static_cast<std::size_t>(request.getInt("library_size", static_cast<long>(screen.librarySize)));
  screen.minAtoms = static_cast<std::size_t>(request.getInt("min_atoms", 8));
  screen.maxAtoms = static_cast<std::size_t>(request.getInt("max_atoms", 14));
  screen.evaluationsPerLigand = static_cast<std::size_t>(request.getInt("evals", 400));
  screen.seed = static_cast<std::uint64_t>(request.getInt("seed", 2020));
  screen.priority = priorityFromName(request.get("priority", "normal"));
  screen.timeoutSeconds = request.getDouble("timeout_s", 0.0);

  const SubmitResult submitted = service_.submitScreen(screen);
  if (!submitted.accepted()) {
    Message reply = Message::error(submitted.reason());
    reply.set("code", std::string(submitStatusName(submitted.status)));
    return reply;
  }
  const JobOutcome outcome = service_.wait(submitted.jobId);
  Message reply = outcome.status == JobStatus::kDone ? Message::ok()
                                                     : Message{"ERROR", {}};
  fillScreenFields(reply, outcome);
  return reply;
}

Message TcpServer::handleStatus() const {
  const ServiceStats stats = service_.stats();
  Message reply = Message::ok();
  reply.set("workers", static_cast<std::uint64_t>(stats.workers))
      .set("queue_depth", static_cast<std::uint64_t>(stats.queueDepth))
      .set("queue_capacity", static_cast<std::uint64_t>(service_.options().queueCapacity))
      .set("model_version", registry_.currentVersion())
      .set("jobs_done", stats.done)
      .set("jobs_failed", stats.failed)
      .set("jobs_cancelled", stats.cancelled)
      .set("jobs_timed_out", stats.timedOut)
      .set("batches", stats.batcher.batches)
      .set("mean_batch_rows", stats.batcher.meanBatchRows());
  return reply;
}

ServerStats TcpServer::stats() const {
  std::lock_guard lock(mu_);
  ServerStats stats = stats_;
  stats.connections = listener_->connections();
  return stats;
}

RetryPolicy RetryPolicy::patient() {
  RetryPolicy p;
  p.maxAttempts = 8;
  p.initialBackoff = std::chrono::milliseconds(100);
  p.backoffMultiplier = 2.0;
  p.maxBackoff = std::chrono::milliseconds(2000);
  p.deadline = std::chrono::milliseconds(30000);
  return p;
}

namespace {

/// Shared attempt loop for connect and request retries: runs `attempt`
/// up to policy.maxAttempts times under the overall deadline, sleeping a
/// capped exponential backoff between failures. Rethrows the last error.
template <typename Fn>
auto retryLoop(const RetryPolicy& policy, const char* what, Fn&& attempt) {
  const auto start = std::chrono::steady_clock::now();
  const int attempts = std::max(1, policy.maxAttempts);
  std::chrono::milliseconds backoff =
      std::max(policy.initialBackoff, std::chrono::milliseconds(1));
  for (int i = 1;; ++i) {
    try {
      return attempt();
    } catch (...) {
      if (i >= attempts) throw;
      if (policy.deadline.count() > 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
        if (elapsed + backoff >= policy.deadline) {
          // Sleeping would blow the budget; surface the last failure now
          // rather than returning later than the caller allowed.
          throw;
        }
      }
      logDebug() << "TcpClient: " << what << " attempt " << i << "/" << attempts
                 << " failed; retrying in " << backoff.count() << " ms";
      std::this_thread::sleep_for(backoff);
      const auto next = static_cast<long>(static_cast<double>(backoff.count()) *
                                          std::max(1.0, policy.backoffMultiplier));
      backoff = std::min(policy.maxBackoff, std::chrono::milliseconds(next));
    }
  }
}

}  // namespace

TcpClient::TcpClient(std::uint16_t port, const std::string& host) : host_(host), port_(port) {
  connectOnce();
}

TcpClient::TcpClient(std::uint16_t port, const std::string& host, const RetryPolicy& retry)
    : host_(host), port_(port) {
  retryLoop(retry, "connect", [&] { connectOnce(); return 0; });
}

void TcpClient::connectOnce() {
  ignoreSigpipe();  // a server that dies mid-exchange must not kill us
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("TcpClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("TcpClient: bad host address " + host_);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("TcpClient: connect to " + host_ + ":" + std::to_string(port_) +
                             " failed: " + err);
  }
  fd_ = fd;
}

TcpClient::~TcpClient() { close(); }

Message TcpClient::request(const Message& msg) {
  if (fd_ < 0) throw std::runtime_error("TcpClient::request: closed");
  // After any failure the stream position is unknown (a request may be
  // half-written, a reply half-read) — reusing the fd would pair the next
  // request with a stale or misaligned reply. Close so every later
  // request() fails fast instead of desyncing silently.
  try {
    sendMessage(fd_, msg);
    Message reply;
    if (!recvMessage(fd_, reply)) {
      throw std::runtime_error("TcpClient::request: server closed the connection");
    }
    return reply;
  } catch (...) {
    close();
    throw;
  }
}

Message TcpClient::request(const Message& msg, const RetryPolicy& retry) {
  return retryLoop(retry, "request", [&] {
    // A failed exchange already closed the desynced socket (request()'s
    // close-on-throw rule); every retry therefore starts from a fresh
    // connection, never a reused stream.
    if (fd_ < 0) connectOnce();
    return request(msg);
  });
}

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dqndock::serve
