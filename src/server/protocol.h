#ifndef QBISM_SERVER_PROTOCOL_H_
#define QBISM_SERVER_PROTOCOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/result.h"

namespace qbism::server {

/// The QBISM wire protocol: length-prefixed binary frames over TCP.
/// Every frame is a fixed 36-byte header followed by `payload_bytes` of
/// payload, all little-endian:
///
///   offset size field
///   0      4    magic 0x4D534251 ("QBSM")
///   4      2    protocol version (kProtocolVersion)
///   6      2    message type (MessageType)
///   8      4    flags (reserved, must be 0)
///   12     8    session token (0 before HELLO/WELCOME)
///   20     8    request id (client-chosen, echoed on every reply frame)
///   28     4    payload length in bytes
///   32     4    CRC-32 (IEEE 802.3) of the payload bytes
///   36     ..   payload
///
/// The header is self-delimiting, so a reader can frame the stream
/// without knowing any message type, and a corrupt length or checksum
/// is detected before the payload is interpreted. docs/NETWORK.md is
/// the protocol reference.
inline constexpr uint32_t kMagic = 0x4D534251u;  // "QBSM"
inline constexpr uint16_t kProtocolVersion = 6;
inline constexpr size_t kHeaderBytes = 36;

/// Hard ceiling a reader enforces on `payload_bytes` before allocating
/// anything: an adversarial length prefix cannot make the peer reserve
/// gigabytes. A query answer ships as one frame, so it must fit too.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Numbers 4 and 6 are unassigned: a header carrying either fails as an
/// unknown type.
enum class MessageType : uint16_t {
  kHello = 1,    // client -> server: tenant credentials
  kWelcome = 2,  // server -> client: session token + idle TTL
  kQuery = 3,    // client -> server: one QuerySpec request
  kResult = 5,   // server -> client: the answer, EncodeAnswerPayload's bytes
  kError = 7,    // server -> client: status code + reason + message
  kPing = 8,     // client -> server: keepalive / session refresh
  kPong = 9,     // server -> client: keepalive ack
  kBye = 10,     // client -> server: orderly close
};

/// Stable name for logs and tests ("hello", "query", ...); "unknown"
/// for a number that names no message type.
const char* MessageTypeName(MessageType type);

/// Machine-readable reason carried by a kError frame, so clients (and
/// the metrics layer) can distinguish the rejection classes without
/// parsing the message text.
enum class ErrorReason : uint16_t {
  kNone = 0,
  kUnauthorized = 1,    // bad credentials or unknown session token
  kSessionExpired = 2,  // session past its idle TTL; re-HELLO
  kQuotaRejected = 3,   // tenant's waiting line or session cap full
  kProtocol = 4,        // malformed frame or payload
  kServerBusy = 5,      // connection cap reached
  kShutdown = 6,        // server is stopping
  kQueryFailed = 7,     // the query itself failed (status code says why)
};

const char* ErrorReasonName(ErrorReason reason);

/// Decoded frame header (magic validated and dropped).
struct FrameHeader {
  uint16_t version = kProtocolVersion;
  MessageType type = MessageType::kError;
  uint32_t flags = 0;
  uint64_t session = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// CRC-32 (IEEE reflected polynomial 0xEDB88320); shared with the
/// write-ahead log's record framing (common/crc32.h).
using qbism::Crc32;

/// Serializes the 36-byte header of a payload of `payload_bytes` bytes
/// whose CRC-32 is `payload_crc`: magic, version, type, length and CRC.
/// The caller checksums the payload, in as many pieces as it is sent
/// from (Crc32Extend).
std::array<uint8_t, kHeaderBytes> EncodeFrameHeader(MessageType type,
                                                    uint64_t session,
                                                    uint64_t request_id,
                                                    uint32_t payload_bytes,
                                                    uint32_t payload_crc);

/// The header followed by the payload in one contiguous buffer (how
/// tests craft raw frames; sockets gather the parts in one send).
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t session,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload);

/// Parses and validates a 36-byte header. Rejects short buffers, bad
/// magic, unsupported versions, unknown message types, non-zero
/// reserved flags, and payload lengths over `max_payload`. Does NOT
/// check the payload CRC (the payload has not been read yet) — use
/// VerifyPayload once it has.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t size,
                                      uint32_t max_payload = kMaxFramePayload);

/// CRC check of a fully-read payload against its header.
Status VerifyPayload(const FrameHeader& header,
                     const std::vector<uint8_t>& payload);

}  // namespace qbism::server

#endif  // QBISM_SERVER_PROTOCOL_H_
