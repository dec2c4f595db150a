#pragma once

// Single-threaded HTTP/1.1 load generator for the gateway workloads. One
// thread multiplexes a few keep-alive loopback connections with ppoll():
// scheduled (open-loop) calls are sent when due on the next idle
// connection of their lane, and an optional closed loop keeps every idle
// connection of one lane busy until a deadline. Every call records when
// it was due, when the generator noticed it was due, when its first byte
// was written and when its reply completed, so latency can be taken from
// the due time (counting the wait a stall imposes on later calls) and
// the generator's own lateness can be checked.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/e2e/common.hpp"

namespace e2e {

struct HttpCall {
  Clock::time_point due;
  int lane = 0;
  std::string path;  ///< POST target, e.g. /v1/models/alpha/dock
  std::string body;  ///< JSON request body
  std::uint64_t tag = 0;  ///< caller's key (the request seed)

  Clock::time_point seen{};  ///< generator noticed the call was due
  Clock::time_point sent{};  ///< first byte written
  Clock::time_point done{};  ///< reply complete (or transport failure)
  int status = 0;            ///< HTTP status; 0 = transport failure
  std::string reply;         ///< response body

  double latencyMs() const { return secondsBetween(due, done) * 1e3; }
  double latenessMs() const { return secondsBetween(due, seen) * 1e3; }
};

struct ClosedLoop {
  int lane = 0;
  Clock::time_point until;
  std::function<HttpCall()> next;  ///< the next call to send (due = now)
};

class LoadGenerator {
 public:
  /// Opens connectionsPerLane[l] keep-alive connections to
  /// 127.0.0.1:port for lane l. Throws std::runtime_error on failure.
  LoadGenerator(std::uint16_t port, const std::vector<std::size_t>& connectionsPerLane);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Send `scheduled` (any order; each goes out when due, FIFO per lane)
  /// and, when given, run the closed loop; returns once every call has
  /// completed. The result holds the scheduled calls first, then the
  /// closed-loop calls in the order they were sent.
  std::vector<HttpCall> run(std::vector<HttpCall> scheduled, const ClosedLoop* closed = nullptr);

 private:
  struct Connection {
    int fd = -1;
    int lane = 0;
    std::string out;
    std::size_t outOff = 0;
    std::string in;
    long call = -1;  ///< index of the in-flight call, -1 = idle
  };

  void connect(Connection& c);
  void start(Connection& c, std::vector<HttpCall>& calls, std::size_t index);
  /// Drive c's I/O after poll readiness; marks its call done on a
  /// complete reply or a transport failure.
  void service(Connection& c, std::vector<HttpCall>& calls, short revents);
  void fail(Connection& c, std::vector<HttpCall>& calls);

  std::uint16_t port_;
  std::vector<Connection> connections_;
};

}  // namespace e2e
