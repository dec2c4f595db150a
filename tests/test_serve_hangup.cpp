// SIGPIPE regression tests: a client that hangs up after sending a
// request — FIN or RST — must never kill the server. Before the fix, the
// server's reply write could raise SIGPIPE (default action: process
// death) on the ::write fallback path, and EPIPE surfaced as a generic
// transport error instead of the clean peer-hangup path. These tests run
// under the ASan/UBSan CI matrix.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>

#include "src/serve/listener.hpp"
#include "src/serve/tcp.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::serve {
namespace {

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void abortiveClose(int fd) {
  // SO_LINGER {on, 0}: close() sends RST, so the server's pending reply
  // write fails with EPIPE/ECONNRESET instead of buffering into a void.
  linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  ::close(fd);
}

TEST(SigpipeHardeningTest, WriteToClosedPipeThrowsPeerClosedError) {
  // The pipe path takes the ::write fallback inside writeSome — exactly
  // where an unignored SIGPIPE would kill the process.
  ignoreSigpipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // reader gone
  EXPECT_THROW(writeFrame(fds[1], "doomed payload"), PeerClosedError);
  ::close(fds[1]);
}

TEST(SigpipeHardeningTest, WriteToResetSocketThrowsPeerClosedError) {
  ignoreSigpipe();
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ::close(pair[0]);
  // The first write may succeed into the buffer; EPIPE lands by the
  // second at the latest.
  try {
    writeFrame(pair[1], "first");
    writeFrame(pair[1], "second");
    FAIL() << "expected PeerClosedError writing to a closed socketpair";
  } catch (const PeerClosedError&) {
  }
  ::close(pair[1]);
}

/// A bare LoopbackListener under a wire handler that answers every
/// request with OK, the way the screen coordinator answers lease
/// messages. A HOLD request is answered only after the test has closed
/// the peer: the handler reports that it has read the request, waits for
/// the test's go, then replies until a send throws and records what threw.
class HangupFixture : public ::testing::Test {
 protected:
  enum class Phase { kIdle, kRequestRead, kPeerClosed };

  HangupFixture() { listener_.emplace("hangup-test", 0, [this](int fd) { handle(fd); }); }

  ~HangupFixture() override {
    // A test that failed midway must not leave a handler waiting for its go.
    setPhase(Phase::kPeerClosed);
  }

  std::uint16_t port() const { return listener_->port(); }

  /// Sends HOLD on a raw connection, closes it with RST (`reset`) or FIN
  /// once the handler has read the request, then lets the handler reply.
  /// Returns what the handler's send threw.
  std::string replyAfterPeerCloses(bool reset) {
    const int fd = connectLoopback(port());
    sendMessage(fd, Message{"HOLD", {}});
    if (!waitForPhase(Phase::kRequestRead)) {
      ::close(fd);
      return "handler never read the request";
    }
    if (reset) {
      abortiveClose(fd);
    } else {
      ::close(fd);
    }
    setPhase(Phase::kPeerClosed);
    if (!waitForPhase(Phase::kIdle)) return "handler never replied";
    return thrown_;
  }

  /// A fresh client is answered.
  bool answersNewClient() {
    TcpClient client(port());
    return client.request(Message{"PING", {}}).type == "OK";
  }

 private:
  void handle(int fd) {
    Message request;
    try {
      while (recvMessage(fd, request)) {
        if (request.type == "HOLD") break;
        sendMessage(fd, Message::ok());
      }
    } catch (const std::exception&) {
      return;
    }
    if (request.type != "HOLD") return;
    setPhase(Phase::kRequestRead);
    waitForPhase(Phase::kPeerClosed);
    const std::string thrown = replyUntilSendThrows(fd);
    std::lock_guard lock(mu_);
    thrown_ = thrown;
    phase_ = Phase::kIdle;
    cv_.notify_all();
  }

  /// A FIN-closed peer may take the first reply into its buffer. It
  /// answers with an RST; poll() with no events waits for that RST
  /// (POLLERR/POLLHUP), so the second send meets it.
  static std::string replyUntilSendThrows(int fd) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        sendMessage(fd, Message::ok());
      } catch (const PeerClosedError&) {
        return "PeerClosedError";
      } catch (const ProtocolError&) {
        return "ProtocolError";
      } catch (const std::exception& e) {
        return std::string("other error: ") + e.what();
      }
      pollfd reset{fd, 0, 0};
      ::poll(&reset, 1, 10000);
    }
    return "no send threw";
  }

  void setPhase(Phase phase) {
    std::lock_guard lock(mu_);
    phase_ = phase;
    cv_.notify_all();
  }

  /// False when `phase` is not reached within 10 s: the test then fails
  /// instead of hanging.
  bool waitForPhase(Phase phase) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return phase_ == phase; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Phase phase_ = Phase::kIdle;
  std::string thrown_;  ///< what the held reply's send threw

  std::optional<LoopbackListener> listener_;  ///< emplaced last, destroyed first
};

TEST_F(HangupFixture, ClientRstBeforeReplyDoesNotKillServer) {
  // The regression scenario: the peer sends a request and vanishes with
  // an RST before the reply. The handler's send must fail with
  // PeerClosedError (EPIPE/ECONNRESET): not a protocol error, and no
  // SIGPIPE, which would kill this whole test binary.
  EXPECT_EQ(replyAfterPeerCloses(/*reset=*/true), "PeerClosedError");
  EXPECT_TRUE(answersNewClient());
}

TEST_F(HangupFixture, FinAfterRequestIsAHangupNotAProtocolError) {
  // An orderly close right after the request: the reply that follows
  // fails as a peer hangup, never as a malformed peer.
  EXPECT_EQ(replyAfterPeerCloses(/*reset=*/false), "PeerClosedError");
  EXPECT_TRUE(answersNewClient());
}

TEST_F(HangupFixture, ManyAbortingClientsLeaveServerServing) {
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(replyAfterPeerCloses(/*reset=*/true), "PeerClosedError") << "round " << round;
  }
  EXPECT_TRUE(answersNewClient());
}

}  // namespace
}  // namespace dqndock::serve
