#pragma once

/// \file wire.hpp
/// Minimal wire protocol for remote docking: every frame on the socket
/// is a 4-byte big-endian payload length followed by the payload. A
/// payload is a text message — first line the type ("DOCK", "OK", ...),
/// then one "key=value" line per field. Language-agnostic (a dozen lines
/// of Python speaks it), debuggable with hexdump, and free of
/// serialization dependencies.
///
///   +--------+--------------------------+
///   | u32 BE |  TYPE\nkey=value\n...    |
///   +--------+--------------------------+

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dqndock::serve {

/// Frames larger than this are a protocol violation (protects the server
/// from hostile or corrupt length prefixes).
inline constexpr std::uint32_t kMaxFrameBytes = 1 << 20;

/// The peer violated the framing/message contract: EOF in the middle of
/// a frame (truncated length prefix or payload), a length prefix beyond
/// kMaxFrameBytes, or a payload that does not decode. Distinct from the
/// plain std::runtime_error used for transport failures (errno I/O
/// errors) so callers can tell "the peer sent garbage" from "the socket
/// broke", and so a stream in an unknown position is never mistaken for
/// an orderly shutdown.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer closed its end while we were mid-exchange: EPIPE/ECONNRESET
/// on a send, ECONNRESET on a read. Not a framing violation (the peer
/// sent nothing malformed) and not a local transport fault — servers map
/// it onto the same clean-hangup path as an orderly EOF instead of
/// counting a protocol error or crashing.
class PeerClosedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide, one-time SIGPIPE -> SIG_IGN. Socket sends already pass
/// MSG_NOSIGNAL, but the ::write fallback (pipes in tests) and any
/// future raw-fd path would still die by signal when the peer hangs up
/// mid-reply; every server front-end calls this from its constructor so
/// a client hangup can only ever surface as EPIPE. Idempotent and
/// thread-safe; never overrides a handler the application installed.
void ignoreSigpipe();

struct Message {
  std::string type;
  std::map<std::string, std::string> fields;

  bool has(const std::string& key) const { return fields.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const;
  long getInt(const std::string& key, long fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  Message& set(const std::string& key, const std::string& value);
  Message& set(const std::string& key, long value);
  Message& set(const std::string& key, std::uint64_t value);
  Message& set(const std::string& key, double value);

  static Message ok() { return Message{"OK", {}}; }
  static Message error(const std::string& reason);
};

/// Message <-> payload text. encode throws std::invalid_argument when a
/// type/key/value contains '\n' or a key contains '='; decode throws
/// ProtocolError on malformed payloads (empty type, missing '=').
std::string encodeMessage(const Message& msg);
Message decodeMessage(std::string_view payload);

// -- Framed socket I/O (POSIX fds) ------------------------------------------

/// Write one length-prefixed frame as a single send (prefix and payload
/// together, so Nagle never holds a payload back for the peer's delayed
/// ACK); loops over partial writes. Throws std::runtime_error on I/O
/// failure or oversized payloads.
void writeFrame(int fd, std::string_view payload);

/// Read one frame. Returns false ONLY on clean EOF at a frame boundary
/// (the peer hung up with zero bytes of the next frame on the wire).
/// EOF after a partial length prefix or mid-payload throws ProtocolError
/// — a truncated stream must never read as an orderly shutdown. I/O
/// failures throw std::runtime_error; oversized length prefixes throw
/// ProtocolError.
bool readFrame(int fd, std::string& payload);

/// Convenience: frame + encode/decode in one call.
void sendMessage(int fd, const Message& msg);
bool recvMessage(int fd, Message& msg);

}  // namespace dqndock::serve
