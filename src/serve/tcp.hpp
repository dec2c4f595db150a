#pragma once

/// \file tcp.hpp
/// Blocking request/response client for the wire.hpp framed protocol on
/// localhost, with capped-backoff connect/request retry. POSIX sockets
/// only — no new dependencies. The screen workers speak the
/// coordinator's lease protocol through it; the servers are protocol
/// handlers over serve::LoopbackListener.

#include <chrono>
#include <cstdint>
#include <string>

#include "src/serve/wire.hpp"

namespace dqndock::serve {

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
