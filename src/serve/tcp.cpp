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
