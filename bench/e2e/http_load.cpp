#include "bench/e2e/http_load.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace e2e {
namespace {

/// Bytes of the reply once complete, or 0 while more are needed.
/// Fills status and body. The gateway always frames with Content-Length.
std::size_t parseReply(const std::string& in, int& status, std::string& body) {
  const std::size_t headEnd = in.find("\r\n\r\n");
  if (headEnd == std::string::npos) return 0;
  // "HTTP/1.1 200 OK"
  const std::size_t sp = in.find(' ');
  if (sp == std::string::npos || sp > headEnd) throw std::runtime_error("malformed status line");
  status = std::atoi(in.c_str() + sp + 1);
  std::size_t length = 0;
  std::string head = in.substr(0, headEnd);
  std::transform(head.begin(), head.end(), head.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const std::size_t cl = head.find("\r\ncontent-length:");
  if (cl != std::string::npos) length = std::strtoul(head.c_str() + cl + 17, nullptr, 10);
  const std::size_t total = headEnd + 4 + length;
  if (in.size() < total) return 0;
  body.assign(in, headEnd + 4, length);
  return total;
}

}  // namespace

LoadGenerator::LoadGenerator(std::uint16_t port, const std::vector<std::size_t>& connectionsPerLane)
    : port_(port) {
  for (std::size_t lane = 0; lane < connectionsPerLane.size(); ++lane) {
    for (std::size_t i = 0; i < connectionsPerLane[lane]; ++i) {
      Connection c;
      c.lane = static_cast<int>(lane);
      connections_.push_back(std::move(c));
    }
  }
  for (Connection& c : connections_) connect(c);
}

LoadGenerator::~LoadGenerator() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoadGenerator::connect(Connection& c) {
  if (c.fd >= 0) ::close(c.fd);
  c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c.fd < 0) throw std::runtime_error("LoadGenerator: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error(std::string("LoadGenerator: connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  c.out.clear();
  c.outOff = 0;
  c.in.clear();
  c.call = -1;
}

void LoadGenerator::start(Connection& c, std::vector<HttpCall>& calls, std::size_t index) {
  HttpCall& call = calls[index];
  c.call = static_cast<long>(index);
  c.out = "POST " + call.path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(call.body.size()) + "\r\n\r\n" + call.body;
  c.outOff = 0;
  c.in.clear();
  call.sent = Clock::now();
  service(c, calls, POLLOUT);
}

void LoadGenerator::fail(Connection& c, std::vector<HttpCall>& calls) {
  HttpCall& call = calls[static_cast<std::size_t>(c.call)];
  call.status = 0;
  call.done = Clock::now();
  connect(c);  // fresh connection for the next call
}

void LoadGenerator::service(Connection& c, std::vector<HttpCall>& calls, short revents) {
  if (c.call < 0) return;
  if ((revents & POLLOUT) && c.outOff < c.out.size()) {
    const ssize_t w =
        ::send(c.fd, c.out.data() + c.outOff, c.out.size() - c.outOff, MSG_NOSIGNAL);
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      fail(c, calls);
      return;
    }
    if (w > 0) c.outOff += static_cast<std::size_t>(w);
  }
  if (revents & (POLLIN | POLLHUP | POLLERR)) {
    char buf[16384];
    for (;;) {
      const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        continue;
      }
      if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        fail(c, calls);
        return;
      }
      break;
    }
    HttpCall& call = calls[static_cast<std::size_t>(c.call)];
    if (parseReply(c.in, call.status, call.reply) > 0) {
      call.done = Clock::now();
      c.call = -1;
    }
  }
}

std::vector<HttpCall> LoadGenerator::run(std::vector<HttpCall> calls, const ClosedLoop* closed) {
  std::stable_sort(calls.begin(), calls.end(),
                   [](const HttpCall& a, const HttpCall& b) { return a.due < b.due; });
  const std::size_t scheduled = calls.size();
  std::size_t cursor = 0;         // next scheduled call not yet due
  std::deque<std::size_t> ready;  // due, waiting for an idle connection of their lane
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;

  for (;;) {
    const auto now = Clock::now();
    while (cursor < scheduled && calls[cursor].due <= now) {
      calls[cursor].seen = now;
      ready.push_back(cursor++);
    }
    const bool closedActive = closed != nullptr && now < closed->until;
    for (Connection& c : connections_) {
      if (c.call >= 0) continue;
      const auto it = std::find_if(ready.begin(), ready.end(), [&](std::size_t i) {
        return calls[i].lane == c.lane;
      });
      if (it != ready.end()) {
        const std::size_t index = *it;
        ready.erase(it);
        start(c, calls, index);
      } else if (closedActive && closed->lane == c.lane) {
        calls.push_back(closed->next());
        calls.back().lane = c.lane;
        calls.back().due = calls.back().seen = now;
        start(c, calls, calls.size() - 1);
      }
    }

    fds.clear();
    polled.clear();
    for (Connection& c : connections_) {
      if (c.call < 0) continue;
      fds.push_back({c.fd, static_cast<short>(c.outOff < c.out.size() ? POLLOUT : POLLIN), 0});
      polled.push_back(&c);
    }
    if (cursor == scheduled && ready.empty() && fds.empty() && !closedActive) break;

    // Sleep until the next call falls due, the closed loop ends, or I/O.
    Clock::duration wait = std::chrono::seconds(1);
    if (cursor < scheduled) wait = std::min(wait, calls[cursor].due - now);
    if (closedActive) wait = std::min(wait, closed->until - now);
    wait = std::max(wait, Clock::duration::zero());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    const int n = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (n < 0 && errno != EINTR) throw std::runtime_error("LoadGenerator: ppoll failed");
    for (std::size_t i = 0; n > 0 && i < fds.size(); ++i) {
      if (fds[i].revents != 0) service(*polled[i], calls, fds[i].revents);
    }
  }
  return calls;
}

}  // namespace e2e
