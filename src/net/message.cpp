#include "net/message.hpp"

#include <algorithm>
#include <string>

namespace redist {

namespace {

constexpr std::size_t kMessageHeaderBytes = 12;

void acquire_all(const std::vector<TokenBucket*>& shapers, Bytes n) {
  for (TokenBucket* bucket : shapers) {
    if (bucket != nullptr) bucket->acquire(n);
  }
}

void put_le(unsigned char* out, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<unsigned char>(value >> (8 * i));
  }
}

std::uint64_t get_le(const unsigned char* in, std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

void recv_body(TcpStream& stream, std::uint64_t size,
               std::vector<char>& payload, std::uint64_t max_payload,
               const std::vector<TokenBucket*>& shapers, Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  if (size > max_payload) {
    throw PayloadTooLargeError("frame announces " + std::to_string(size) +
                               " payload bytes, over the bound of " +
                               std::to_string(max_payload));
  }
  payload.resize(static_cast<std::size_t>(size));
  char* p = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const std::size_t piece =
        std::min(left, static_cast<std::size_t>(chunk));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.recv_all(p, piece);
    p += piece;
    left -= piece;
  }
}

}  // namespace

void send_message(TcpStream& stream, std::uint32_t tag, const void* payload,
                  std::size_t size, const std::vector<TokenBucket*>& shapers,
                  Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  unsigned char header[kMessageHeaderBytes];
  put_le(header, tag, 4);
  put_le(header + 4, size, 8);
  stream.send_all(header, sizeof(header));
  const char* p = static_cast<const char*>(payload);
  std::size_t left = size;
  while (left > 0) {
    const std::size_t piece =
        std::min(left, static_cast<std::size_t>(chunk));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.send_all(p, piece);
    p += piece;
    left -= piece;
  }
}

std::uint32_t recv_message(TcpStream& stream, std::vector<char>& payload,
                           std::uint64_t max_payload,
                           const std::vector<TokenBucket*>& shapers,
                           Bytes chunk) {
  unsigned char header[kMessageHeaderBytes];
  stream.recv_all(header, sizeof(header));
  recv_body(stream, get_le(header + 4, 8), payload, max_payload, shapers,
            chunk);
  return static_cast<std::uint32_t>(get_le(header, 4));
}

std::uint32_t recv_tag(TcpStream& stream) {
  unsigned char tag[4];
  stream.recv_all(tag, sizeof(tag));
  return static_cast<std::uint32_t>(get_le(tag, 4));
}

void recv_payload(TcpStream& stream, std::vector<char>& payload,
                  std::uint64_t max_payload) {
  unsigned char size[8];
  stream.recv_all(size, sizeof(size));
  recv_body(stream, get_le(size, 8), payload, max_payload, {}, 65536);
}

void recv_message_expect(TcpStream& stream, std::uint32_t expected_tag,
                         std::vector<char>& payload,
                         const std::vector<TokenBucket*>& shapers,
                         Bytes chunk) {
  const std::uint32_t tag =
      recv_message(stream, payload, kUnboundedPayload, shapers, chunk);
  REDIST_CHECK_MSG(tag == expected_tag, "expected message tag "
                                            << expected_tag << ", got "
                                            << tag);
}

}  // namespace redist
