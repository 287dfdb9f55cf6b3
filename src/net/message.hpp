// Length-prefixed message framing over TcpStream, with optional
// token-bucket shaping of the payload path (the rshaper emulation applied
// to real sockets).
//
// Wire format: u32 tag | u64 payload size | payload bytes — all
// little-endian, the 12-byte header encoded field by field (no struct
// padding ever reaches the wire).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "net/socket.hpp"
#include "runtime/token_bucket.hpp"

REDIST_LAYER("net");

namespace redist {

/// recv_message's default payload bound: none, since mpilite's brute-force
/// path ships one message per pair of arbitrary size. Servers reading
/// outside input pass a real bound.
inline constexpr std::uint64_t kUnboundedPayload =
    std::numeric_limits<std::uint64_t>::max();

/// A frame header announced more payload than the receiver's bound; thrown
/// before anything is allocated. The payload stays unread, so the stream
/// is no longer framed and should be closed.
class PayloadTooLargeError : public Error {
 public:
  explicit PayloadTooLargeError(const std::string& what) : Error(what) {}
};

/// Sends one framed message. If `shapers` is non-empty, the payload is cut
/// into `chunk` byte pieces and every piece acquires that many tokens from
/// each shaper in order (e.g. {out-card, backbone}).
void send_message(TcpStream& stream, std::uint32_t tag, const void* payload,
                  std::size_t size,
                  const std::vector<TokenBucket*>& shapers = {},
                  Bytes chunk = 65536);

/// Receives one framed message into `payload` (resized to fit). Returns the
/// tag. Throws PayloadTooLargeError when the header announces more than
/// `max_payload` bytes. If `shapers` is non-empty, tokens are acquired per
/// chunk before reading it, so a slow receiver exerts real TCP
/// backpressure on the sender (the in-card shaping of the paper's testbed).
std::uint32_t recv_message(TcpStream& stream, std::vector<char>& payload,
                           std::uint64_t max_payload = kUnboundedPayload,
                           const std::vector<TokenBucket*>& shapers = {},
                           Bytes chunk = 65536);

/// The two halves of recv_message, for a server that reads the first four
/// bytes of a connection before it knows which protocol the peer speaks:
/// recv_tag reads a frame's u32 tag, recv_payload the size and payload
/// that follow it.
std::uint32_t recv_tag(TcpStream& stream);
void recv_payload(TcpStream& stream, std::vector<char>& payload,
                  std::uint64_t max_payload = kUnboundedPayload);

/// recv_message that also verifies the tag matches.
void recv_message_expect(TcpStream& stream, std::uint32_t expected_tag,
                         std::vector<char>& payload,
                         const std::vector<TokenBucket*>& shapers = {},
                         Bytes chunk = 65536);

}  // namespace redist
