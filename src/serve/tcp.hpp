#pragma once

/// \file tcp.hpp
/// Localhost TCP transport for the docking service: a threaded
/// accept-loop server that speaks the wire.hpp framed protocol and a
/// blocking request/response client. POSIX sockets only — no new
/// dependencies. Request types:
///
///   PING                          liveness probe -> OK
///   STATUS                        queue/worker/model stats -> OK
///   DOCK     max_steps epsilon seed priority timeout_s -> OK(result)
///   SCREEN   library_size min_atoms max_atoms evals seed ... -> OK(result)
///   PUBLISH  path                 hot-swap weights from checkpoint -> OK
///   SHUTDOWN                      graceful stop -> OK, server drains
///
/// Rejections (queue full, shutdown) come back as ERROR with the
/// backpressure reason — the client is expected to retry later.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "src/serve/docking_service.hpp"
#include "src/serve/listener.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::serve {

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocolErrors = 0;
  /// Peers that hung up mid-exchange (EPIPE/ECONNRESET while replying).
  /// A hangup is the client's prerogative — it is never a protocol
  /// error and must never kill the server (the PR-10 SIGPIPE fix).
  std::uint64_t peerHangups = 0;
};

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; read the chosen one via
  /// port()) and starts accepting. Throws std::runtime_error on bind
  /// failure.
  TcpServer(DockingService& service, ModelRegistry& registry, std::uint16_t port = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// The listener's stop levels (listener.hpp). A SHUTDOWN request calls
  /// requestStop(), which wakes waitUntilStopped(); the owner then calls
  /// stop() to join every handler thread. The destructor stops too.
  void requestStop() { listener_->requestStop(); }
  bool stopRequested() const { return listener_->stopRequested(); }
  void waitUntilStopped() { listener_->waitUntilStopped(); }
  void stop() { listener_->stop(); }

  ServerStats stats() const;

 private:
  void handleConnection(int fd);
  Message handleRequest(const Message& request);
  Message handleDock(const Message& request);
  Message handleScreen(const Message& request);
  Message handleStatus() const;

  DockingService& service_;
  ModelRegistry& registry_;

  mutable std::mutex mu_;
  ServerStats stats_;  ///< connections is read from the listener

  std::optional<LoopbackListener> listener_;  ///< emplaced last in the constructor
};

/// Retry schedule for connect/request: capped exponential backoff under
/// an overall deadline. The default (one attempt, no waiting) preserves
/// fail-fast behaviour.
struct RetryPolicy {
  int maxAttempts = 1;  ///< total attempts, including the first (>= 1)
  std::chrono::milliseconds initialBackoff{100};
  double backoffMultiplier = 2.0;
  std::chrono::milliseconds maxBackoff{2000};
  /// Overall wall-clock budget across all attempts and backoff sleeps;
  /// zero means no deadline (attempts alone bound the retries).
  std::chrono::milliseconds deadline{0};

  /// A patient default for workers joining a service that may still be
  /// starting up or briefly unreachable: 8 attempts, 100 ms → 2 s capped
  /// backoff, 30 s overall deadline.
  static RetryPolicy patient();
};

/// Blocking request/response client for the framed protocol.
class TcpClient {
 public:
  /// Connects to host:port (host default 127.0.0.1). Throws
  /// std::runtime_error on connection failure.
  explicit TcpClient(std::uint16_t port, const std::string& host = "127.0.0.1");

  /// Connects with retry: failed connect attempts back off per `retry`
  /// until the attempt count or deadline is exhausted, then throw the
  /// last error.
  TcpClient(std::uint16_t port, const std::string& host, const RetryPolicy& retry);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Send one request, block for the response. Throws on I/O failure,
  /// framing violation (ProtocolError), or server hangup. Any throw
  /// closes the connection — the stream position is unknown after a
  /// failure, so reusing it could pair a request with the wrong reply;
  /// subsequent request() calls fail fast until a new client is made
  /// (or the retrying overload below reconnects).
  Message request(const Message& msg);

  /// request() with retry: each failed exchange closes the socket (a
  /// desynced stream is never reused — the PR-4 rule), backs off, opens
  /// a FRESH connection and resends. Only safe for idempotent requests:
  /// a lost reply means the server may have executed the request once
  /// already when the resend arrives. Throws the last error when the
  /// attempt count or deadline is exhausted.
  Message request(const Message& msg, const RetryPolicy& retry);

  void close();

 private:
  /// One connect attempt; throws std::runtime_error on failure.
  void connectOnce();

  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;
};

}  // namespace dqndock::serve
