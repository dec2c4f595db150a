// Wire protocol tests: message encode/decode round-trips, framed I/O
// over a pipe (EOF vs truncation vs oversize), framed exchanges between a
// TcpClient and a wire handler over LoopbackListener, and the client's
// close-on-failure rule against misbehaving raw servers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/serve/listener.hpp"
#include "src/serve/tcp.hpp"
#include "src/serve/wire.hpp"

namespace dqndock::serve {
namespace {

TEST(WireMessageTest, EncodeDecodeRoundTrip) {
  Message msg{"DOCK", {}};
  msg.set("max_steps", 25L).set("epsilon", 0.125).set("tag", "run-7");
  msg.set("seed", std::uint64_t{42});

  const std::string payload = encodeMessage(msg);
  const Message back = decodeMessage(payload);
  EXPECT_EQ(back.type, "DOCK");
  EXPECT_EQ(back.getInt("max_steps", -1), 25);
  EXPECT_EQ(back.getDouble("epsilon", 0.0), 0.125);
  EXPECT_EQ(back.get("tag"), "run-7");
  EXPECT_EQ(back.getInt("seed", 0), 42);
  EXPECT_FALSE(back.has("missing"));
  EXPECT_EQ(back.get("missing", "fallback"), "fallback");
}

TEST(WireMessageTest, DoubleFieldsRoundTripExactly) {
  Message msg{"OK", {}};
  msg.set("score", 0.1 + 0.2);  // a value with no short decimal form
  const Message back = decodeMessage(encodeMessage(msg));
  EXPECT_EQ(back.getDouble("score", 0.0), 0.1 + 0.2);  // %.17g is lossless
}

TEST(WireMessageTest, EncodeRejectsUnrepresentableContent) {
  EXPECT_THROW(encodeMessage(Message{"", {}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"A\nB", {}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"k", "line1\nline2"}}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"bad=key", "v"}}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"", "v"}}}), std::invalid_argument);
}

TEST(WireMessageTest, DecodeRejectsMalformedPayloads) {
  // Malformed peer payloads are ProtocolError (a runtime_error subtype),
  // so servers can distinguish "peer sent garbage" from transport faults.
  EXPECT_THROW(decodeMessage(""), ProtocolError);
  EXPECT_THROW(decodeMessage("OK\nno-equals-sign"), ProtocolError);
}

class PipeFixture : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::pipe(fds_), 0); }
  void TearDown() override {
    closeRead();
    closeWrite();
  }
  void closeRead() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void closeWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }
  int readFd() const { return fds_[0]; }
  int writeFd() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(PipeFixture, FrameRoundTripAndCleanEof) {
  writeFrame(writeFd(), "hello frame");
  writeFrame(writeFd(), "");  // empty payloads are legal frames
  closeWrite();
  std::string payload;
  ASSERT_TRUE(readFrame(readFd(), payload));
  EXPECT_EQ(payload, "hello frame");
  ASSERT_TRUE(readFrame(readFd(), payload));
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(readFrame(readFd(), payload));  // clean EOF at frame boundary
}

TEST_F(PipeFixture, TruncatedPrefixAndPayloadThrow) {
  // EOF after a PARTIAL length prefix is a mid-frame hangup, never a
  // clean shutdown: it must throw ProtocolError, not return false.
  const unsigned char partialPrefix[2] = {0, 0};
  ASSERT_EQ(::write(writeFd(), partialPrefix, 2), 2);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, TruncatedBodyThrows) {
  const unsigned char prefix[4] = {0, 0, 0, 10};  // announces 10 bytes
  ASSERT_EQ(::write(writeFd(), prefix, 4), 4);
  ASSERT_EQ(::write(writeFd(), "abc", 3), 3);  // delivers 3
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, SingleByteTruncationThrows) {
  // The tightest truncation: one byte of prefix, then hangup.
  const unsigned char oneByte[1] = {7};
  ASSERT_EQ(::write(writeFd(), oneByte, 1), 1);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, OversizedFramesRejectedBothDirections) {
  const std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_THROW(writeFrame(writeFd(), huge), std::runtime_error);
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // hostile length
  ASSERT_EQ(::write(writeFd(), prefix, 4), 4);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, SendRecvMessageOverPipe) {
  Message msg{"STATUS", {}};
  msg.set("probe", 1L);
  sendMessage(writeFd(), msg);
  closeWrite();
  Message back;
  ASSERT_TRUE(recvMessage(readFd(), back));
  EXPECT_EQ(back.type, "STATUS");
  EXPECT_EQ(back.getInt("probe", 0), 1);
  EXPECT_FALSE(recvMessage(readFd(), back));
}

// ---------------------------------------------------------------------------

TEST(WireListenerTest, BackToBackPingsDoNotWaitForDelayedAcks) {
  // One request/reply after another on one connection, answered the way
  // the screen coordinator answers lease messages. Were a frame's prefix
  // and payload sent apart, each payload would sit in Nagle's buffer
  // until the peer's delayed ACK (tens of ms per exchange once the
  // connection leaves quick-ACK mode); one send per frame keeps an
  // exchange at loopback round-trip cost.
  LoopbackListener listener("wire-test", 0, [](int fd) {
    Message request;
    try {
      while (recvMessage(fd, request)) sendMessage(fd, Message::ok());
    } catch (const std::exception&) {
    }
  });
  TcpClient client(listener.port());
  for (int i = 0; i < 5; ++i) ASSERT_EQ(client.request(Message{"PING", {}}).type, "OK");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) ASSERT_EQ(client.request(Message{"PING", {}}).type, "OK");
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 0.5);
}

/// Minimal raw loopback listener for simulating a misbehaving server.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }
  std::uint16_t port() const { return port_; }
  int acceptOne() { return ::accept(fd_, nullptr, nullptr); }

  /// Read the client's whole request frame. Closing with request bytes
  /// still unread makes the kernel send an RST, which the client would
  /// then see as a reset rather than whatever the test replies.
  static bool drainRequest(int fd) {
    std::string request;
    return readFrame(fd, request);
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(TcpClientFramingTest, ClosesConnectionAfterFramingError) {
  // A "server" that answers with a truncated length prefix then hangs up:
  // the client must throw ProtocolError AND close its fd — after a
  // framing failure the stream position is unknown, so reuse could pair
  // the next request with a stale reply.
  RawListener listener;
  std::thread server([&] {
    const int fd = listener.acceptOne();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawListener::drainRequest(fd));
    const unsigned char partial[2] = {0, 9};
    ASSERT_EQ(::write(fd, partial, 2), 2);
    ::close(fd);
  });
  TcpClient client(listener.port());
  EXPECT_THROW(client.request(Message{"PING", {}}), ProtocolError);
  server.join();
  // The fd is gone: later requests fail fast with "closed", they never
  // touch a desynchronised stream.
  try {
    client.request(Message{"PING", {}});
    FAIL() << "expected request() on a closed client to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos);
  }
}

TEST(TcpClientFramingTest, CleanServerHangupAlsoClosesClient) {
  // Orderly EOF instead of a reply is still a failed request/response
  // exchange from the client's point of view — same close-on-throw rule.
  RawListener listener;
  std::thread server([&] {
    const int fd = listener.acceptOne();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(RawListener::drainRequest(fd));
    ::close(fd);  // hang up with no reply at all
  });
  TcpClient client(listener.port());
  EXPECT_THROW(client.request(Message{"PING", {}}), std::runtime_error);
  server.join();
  EXPECT_THROW(client.request(Message{"PING", {}}), std::runtime_error);
}

}  // namespace
}  // namespace dqndock::serve
