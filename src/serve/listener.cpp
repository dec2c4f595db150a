#include "src/serve/listener.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/logging.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::serve {

namespace {

constexpr int kBacklog = 32;
constexpr std::chrono::milliseconds kAcceptRetryDelay{5};

/// accept() errors of one aborted handshake, not of the listener (Linux
/// passes the new connection's pending network errors through accept()).
bool abortedConnection(int err) {
  return err == EINTR || err == ECONNABORTED || err == EPROTO || err == ENETDOWN ||
         err == ENETUNREACH || err == EHOSTDOWN || err == EHOSTUNREACH || err == ENOPROTOOPT ||
         err == EOPNOTSUPP;
}

}  // namespace

LoopbackListener::LoopbackListener(std::string name, std::uint16_t port, Handler handler)
    : name_(std::move(name)), handler_(std::move(handler)) {
  ignoreSigpipe();  // a client hanging up mid-reply is EPIPE, never process death
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) throw std::runtime_error(name_ + ": socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only, by design
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, kBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd_);
    throw std::runtime_error(name_ + ": bind failed: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptThread_ = std::thread([this] { acceptLoop(); });
  logInfo() << name_ << ": listening on 127.0.0.1:" << port_;
}

void LoopbackListener::acceptLoop() {
  bool failing = false;
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd >= 0) {
      failing = false;
      reap(/*all=*/false);
      spawn(fd);
      continue;
    }
    const int err = errno;
    if (stopRequested()) return;  // requestStop() shut the listener down
    if (abortedConnection(err)) continue;
    // Out of fds, buffers or memory: the connection stays queued, so wait
    // for the resource instead of going deaf.
    if (!std::exchange(failing, true)) {
      logWarn() << name_ << ": accept failed (" << std::strerror(err) << "); retrying every "
                << kAcceptRetryDelay.count() << " ms";
    }
    std::this_thread::sleep_for(kAcceptRetryDelay);
  }
}

void LoopbackListener::spawn(int fd) {
  std::lock_guard lock(mu_);
  if (stopRequested_) {
    ::close(fd);  // raced a stop request into the backlog
    return;
  }
  const ConnectionIt conn = live_.insert(live_.end(), Connection{fd, {}});
  try {
    conn->thread = std::thread([this, conn, fd] { serve(conn, fd); });
  } catch (const std::system_error& e) {
    live_.erase(conn);
    ::close(fd);
    logWarn() << name_ << ": dropped a connection, no handler thread: " << e.what();
    return;
  }
  ++connections_;
}

void LoopbackListener::serve(ConnectionIt conn, int fd) {
  try {
    handler_(fd);
  } catch (const std::exception& e) {
    logWarn() << name_ << ": connection handler failed: " << e.what();
  }
  {
    std::lock_guard lock(mu_);
    conn->fd = -1;  // deregister before close: halt() never sees a recycled fd
  }
  ::close(fd);
}

void LoopbackListener::reap(bool all) {
  std::list<Connection> joining;  // splicing keeps running handlers' iterators valid
  {
    std::lock_guard lock(mu_);
    for (ConnectionIt it = live_.begin(); it != live_.end();) {
      const ConnectionIt next = std::next(it);
      if (all || it->fd < 0) joining.splice(joining.end(), live_, it);
      it = next;
    }
  }
  for (Connection& conn : joining) conn.thread.join();
}

std::uint64_t LoopbackListener::connections() const {
  std::lock_guard lock(mu_);
  return connections_;
}

void LoopbackListener::requestStop() {
  std::lock_guard lock(mu_);
  if (stopRequested_) return;
  stopRequested_ = true;
  ::shutdown(listenFd_, SHUT_RDWR);  // wakes the blocked accept()
  stopCv_.notify_all();
}

bool LoopbackListener::stopRequested() const {
  std::lock_guard lock(mu_);
  return stopRequested_;
}

void LoopbackListener::waitUntilStopped() {
  std::unique_lock lock(mu_);
  stopCv_.wait(lock, [&] { return stopRequested_; });
}

void LoopbackListener::halt() {
  requestStop();
  std::lock_guard lock(mu_);
  for (const Connection& conn : live_) {
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  }
}

void LoopbackListener::stop() {
  halt();
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  acceptThread_.join();
  reap(/*all=*/true);
  ::close(listenFd_);  // requestStop() no longer touches it
  logInfo() << name_ << ": stopped after " << connections() << " connections";
}

}  // namespace dqndock::serve
