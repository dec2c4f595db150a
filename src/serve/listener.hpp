#pragma once

/// \file listener.hpp
/// The one loopback socket lifecycle under screen::ScreenCoordinator and
/// gateway::HttpGateway, which are protocol handlers over it (DESIGN.md
/// §9 "One listener"). It binds 127.0.0.1, accepts on its own thread and
/// runs the owner's handler on one thread per connection. It owns every
/// socket: after the handler returns, it deregisters the fd and then
/// closes it, so no stop level ever shuts down a recycled fd. Finished
/// handler threads are joined by the accept loop before its next spawn,
/// or by stop(); none is detached. Only a stop request ends the accept
/// loop: aborted handshakes are retried at once, any other accept() error
/// (EMFILE, ENOBUFS, ...) after a short fixed delay.
///
/// Lock rule: the listener never holds its lock while a handler runs and
/// never calls into its owner otherwise, so handlers and owners may call
/// requestStop() and halt() under their own locks.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace dqndock::serve {

class LoopbackListener {
 public:
  /// Serves one connection; the listener closes `fd` once it returns.
  using Handler = std::function<void(int fd)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; read the chosen one via
  /// port()) and starts accepting. `name` prefixes errors and log lines.
  /// Throws std::runtime_error when the socket cannot be bound.
  LoopbackListener(std::string name, std::uint16_t port, Handler handler);
  ~LoopbackListener() { stop(); }

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint64_t connections() const;  ///< handed to the handler so far

  /// Stop level 1: refuse new connections and wake waitUntilStopped();
  /// live connections run on.
  void requestStop();
  bool stopRequested() const;
  void waitUntilStopped();

  /// Stop level 2: requestStop(), and shut down every live connection so
  /// blocked handler reads return. Joins nothing.
  void halt();

  /// Stop level 3: halt(), then join the accept thread and every handler
  /// and close the listening socket. Idempotent. It joins, so never call
  /// it from a handler thread.
  void stop();

 private:
  struct Connection {
    int fd = -1;  ///< -1 once the handler has returned
    std::thread thread;
  };
  using ConnectionIt = std::list<Connection>::iterator;

  void acceptLoop();
  void spawn(int fd);
  void serve(ConnectionIt conn, int fd);
  /// Joins the handler threads that have returned, or with `all` every one.
  void reap(bool all);

  const std::string name_;
  const Handler handler_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable stopCv_;
  bool stopRequested_ = false;
  bool stopped_ = false;
  std::uint64_t connections_ = 0;
  std::list<Connection> live_;  ///< spawned, not yet joined

  std::thread acceptThread_;
};

}  // namespace dqndock::serve
