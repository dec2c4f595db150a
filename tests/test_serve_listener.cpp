// LoopbackListener: the socket lifecycle every server shares. Covers what
// separates its non-joining stop levels — requestStop() lets live
// connections run on, halt() shuts them — and the lock rule: a handler
// may halt the listener while holding its owner's lock.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>

#include "src/serve/listener.hpp"

namespace dqndock::serve {
namespace {

/// Connected client fd, or -1 with errno set when the connect failed.
int tryConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  timeval timeout{5, 0};  // a broken stop level fails the test, never hangs it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

/// Handler that echoes bytes until EOF, except that 'h' halts the
/// listener under `ownerMu` and returns. `listener` is set after the
/// listener starts, hence atomic.
struct EchoOwner {
  std::mutex ownerMu;
  std::atomic<LoopbackListener*> listener{nullptr};

  void handle(int fd) {
    char byte;
    while (::recv(fd, &byte, 1, 0) == 1) {
      if (byte == 'h') {
        std::lock_guard lock(ownerMu);
        listener.load()->halt();
        return;
      }
      if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) return;
    }
  }
};

/// Sends one byte and returns the echoed byte, or 0 on EOF or error.
char echo(int fd, char byte) {
  if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) return 0;
  char reply = 0;
  return ::recv(fd, &reply, 1, 0) == 1 ? reply : 0;
}

/// True once the peer closed `fd` (EOF within the receive timeout).
bool seesEof(int fd) {
  char byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

TEST(LoopbackListenerTest, RequestStopRefusesNewConnectionsButLiveOnesRunOn) {
  EchoOwner owner;
  LoopbackListener listener("test", 0, [&](int fd) { owner.handle(fd); });
  owner.listener = &listener;
  const int live = tryConnect(listener.port());
  ASSERT_GE(live, 0);
  ASSERT_EQ(echo(live, 'a'), 'a');

  std::thread waiter([&] { listener.waitUntilStopped(); });
  listener.requestStop();
  waiter.join();
  EXPECT_TRUE(listener.stopRequested());
  EXPECT_EQ(echo(live, 'b'), 'b');
  EXPECT_EQ(tryConnect(listener.port()), -1);
  EXPECT_EQ(errno, ECONNREFUSED);

  listener.stop();
  EXPECT_TRUE(seesEof(live));
  EXPECT_EQ(listener.connections(), 1u);
  ::close(live);
}

TEST(LoopbackListenerTest, HaltFromAHandlerUnderTheOwnersLockShutsEveryConnection) {
  EchoOwner owner;
  LoopbackListener listener("test", 0, [&](int fd) { owner.handle(fd); });
  owner.listener = &listener;
  const int idle = tryConnect(listener.port());
  const int halter = tryConnect(listener.port());
  ASSERT_GE(idle, 0);
  ASSERT_GE(halter, 0);
  ASSERT_EQ(echo(idle, 'a'), 'a');  // both handlers are running
  ASSERT_EQ(echo(halter, 'a'), 'a');

  // The listener never holds its own lock while a handler runs, so a
  // handler may call halt(); halt() joins nothing, so it returns.
  ASSERT_EQ(echo(halter, 'h'), 0);
  EXPECT_TRUE(seesEof(idle));
  EXPECT_TRUE(listener.stopRequested());
  listener.stop();
  ::close(idle);
  ::close(halter);
}

}  // namespace
}  // namespace dqndock::serve
