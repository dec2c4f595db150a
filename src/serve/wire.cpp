#include "src/serve/wire.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace dqndock::serve {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void checkToken(const std::string& s, bool isKey, const char* what) {
  if (s.find('\n') != std::string::npos) {
    throw std::invalid_argument(std::string("encodeMessage: newline in ") + what);
  }
  if (isKey && (s.empty() || s.find('=') != std::string::npos)) {
    throw std::invalid_argument("encodeMessage: bad key");
  }
}

/// write() with SIGPIPE suppressed — a peer that hangs up mid-response
/// must surface as an error, not kill the server process.
ssize_t writeSome(int fd, const char* buf, std::size_t n) {
#ifdef MSG_NOSIGNAL
  ssize_t w = ::send(fd, buf, n, MSG_NOSIGNAL);
  if (w < 0 && errno == ENOTSOCK) w = ::write(fd, buf, n);  // pipes in tests
  return w;
#else
  return ::write(fd, buf, n);
#endif
}

/// Returns bytes read (0 on EOF); loops on EINTR only.
std::size_t readAll(int fd, char* buf, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, buf + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        throw PeerClosedError("readFrame: peer reset the connection");
      }
      throwErrno("readFrame");
    }
    if (r == 0) break;  // EOF
    off += static_cast<std::size_t>(r);
  }
  return off;
}

}  // namespace

void ignoreSigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 && current.sa_handler == SIG_DFL) {
      struct sigaction ignore {};
      ignore.sa_handler = SIG_IGN;
      ::sigaction(SIGPIPE, &ignore, nullptr);
    }
  });
}

std::string Message::get(const std::string& key, const std::string& fallback) const {
  const auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

long Message::getInt(const std::string& key, long fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  try {
    return std::stol(it->second);
  } catch (...) {
    return fallback;
  }
}

double Message::getDouble(const std::string& key, double fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

Message& Message::set(const std::string& key, const std::string& value) {
  fields[key] = value;
  return *this;
}

Message& Message::set(const std::string& key, long value) {
  fields[key] = std::to_string(value);
  return *this;
}

Message& Message::set(const std::string& key, std::uint64_t value) {
  fields[key] = std::to_string(value);
  return *this;
}

Message& Message::set(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields[key] = buf;
  return *this;
}

Message Message::error(const std::string& reason) {
  Message m{"ERROR", {}};
  m.set("reason", reason);
  return m;
}

std::string encodeMessage(const Message& msg) {
  checkToken(msg.type, /*isKey=*/false, "type");
  if (msg.type.empty()) throw std::invalid_argument("encodeMessage: empty type");
  std::string out = msg.type;
  out.push_back('\n');
  for (const auto& [key, value] : msg.fields) {
    checkToken(key, /*isKey=*/true, "key");
    checkToken(value, /*isKey=*/false, "value");
    out += key;
    out.push_back('=');
    out += value;
    out.push_back('\n');
  }
  return out;
}

Message decodeMessage(std::string_view payload) {
  Message msg;
  std::size_t pos = 0;
  bool first = true;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (first) {
      msg.type.assign(line);
      first = false;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ProtocolError("decodeMessage: malformed field line");
    }
    msg.fields.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
  if (msg.type.empty()) throw ProtocolError("decodeMessage: empty message");
  return msg;
}

void writeAll(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = writeSome(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // The peer hung up while we were replying — their prerogative,
        // not a transport fault of ours; callers route this to the same
        // clean-hangup path as an orderly EOF.
        throw PeerClosedError(std::string("write: peer closed: ") + std::strerror(errno));
      }
      throwErrno("write");
    }
    off += static_cast<std::size_t>(w);
  }
}

void writeFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("writeFrame: payload exceeds frame limit");
  }
  // Prefix and payload leave in one send. Sent apart, the payload of a
  // small frame sits in Nagle's buffer until the peer's delayed ACK of
  // the prefix (~40 ms per frame once a connection leaves quick-ACK).
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>(n >> 24));
  frame.push_back(static_cast<char>(n >> 16));
  frame.push_back(static_cast<char>(n >> 8));
  frame.push_back(static_cast<char>(n));
  frame.append(payload);
  writeAll(fd, frame);
}

bool readFrame(int fd, std::string& payload) {
  unsigned char header[4];
  const std::size_t got = readAll(fd, reinterpret_cast<char*>(header), sizeof header);
  if (got == 0) return false;  // clean EOF between frames
  if (got < sizeof header) throw ProtocolError("readFrame: truncated length prefix");
  const std::uint32_t n = (static_cast<std::uint32_t>(header[0]) << 24) |
                          (static_cast<std::uint32_t>(header[1]) << 16) |
                          (static_cast<std::uint32_t>(header[2]) << 8) |
                          static_cast<std::uint32_t>(header[3]);
  if (n > kMaxFrameBytes) throw ProtocolError("readFrame: frame exceeds limit");
  payload.resize(n);
  if (n > 0 && readAll(fd, payload.data(), n) < n) {
    throw ProtocolError("readFrame: truncated payload");
  }
  return true;
}

void sendMessage(int fd, const Message& msg) { writeFrame(fd, encodeMessage(msg)); }

bool recvMessage(int fd, Message& msg) {
  std::string payload;
  if (!readFrame(fd, payload)) return false;
  msg = decodeMessage(payload);
  return true;
}

}  // namespace dqndock::serve
