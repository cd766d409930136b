#include "server/protocol.h"

#include <algorithm>

#include "common/bytes.h"

namespace qbism::server {

namespace {

/// MessageTypeName's answer for a number that names no message type;
/// the header check compares against this pointer.
constexpr const char* kUnknownType = "unknown";

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kWelcome: return "welcome";
    case MessageType::kQuery: return "query";
    case MessageType::kResult: return "result";
    case MessageType::kError: return "error";
    case MessageType::kPing: return "ping";
    case MessageType::kPong: return "pong";
    case MessageType::kBye: return "bye";
  }
  return kUnknownType;
}

const char* ErrorReasonName(ErrorReason reason) {
  switch (reason) {
    case ErrorReason::kNone: return "none";
    case ErrorReason::kUnauthorized: return "unauthorized";
    case ErrorReason::kSessionExpired: return "session_expired";
    case ErrorReason::kQuotaRejected: return "quota_rejected";
    case ErrorReason::kProtocol: return "protocol";
    case ErrorReason::kServerBusy: return "server_busy";
    case ErrorReason::kShutdown: return "shutdown";
    case ErrorReason::kQueryFailed: return "query_failed";
  }
  return "unknown";
}

std::array<uint8_t, kHeaderBytes> EncodeFrameHeader(MessageType type,
                                                    uint64_t session,
                                                    uint64_t request_id,
                                                    uint32_t payload_bytes,
                                                    uint32_t payload_crc) {
  // The offsets DecodeFrameHeader reads back.
  std::array<uint8_t, kHeaderBytes> out;
  StoreLE32(out.data(), kMagic);
  StoreLE16(out.data() + 4, kProtocolVersion);
  StoreLE16(out.data() + 6, static_cast<uint16_t>(type));
  StoreLE32(out.data() + 8, 0);  // flags (reserved)
  StoreLE64(out.data() + 12, session);
  StoreLE64(out.data() + 20, request_id);
  StoreLE32(out.data() + 28, payload_bytes);
  StoreLE32(out.data() + 32, payload_crc);
  return out;
}

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t session,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload) {
  const auto header =
      EncodeFrameHeader(type, session, request_id,
                        static_cast<uint32_t>(payload.size()), Crc32(payload));
  std::vector<uint8_t> out(kHeaderBytes + payload.size());
  std::copy(header.begin(), header.end(), out.begin());
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderBytes);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t size,
                                      uint32_t max_payload) {
  if (size < kHeaderBytes) {
    return Status::Corruption("frame header truncated: " +
                              std::to_string(size) + " of " +
                              std::to_string(kHeaderBytes) + " bytes");
  }
  if (LoadLE32(bytes) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader header;
  header.version = LoadLE16(bytes + 4);
  if (header.version != kProtocolVersion) {
    return Status::Corruption("unsupported protocol version " +
                              std::to_string(header.version));
  }
  const uint16_t raw_type = LoadLE16(bytes + 6);
  header.type = static_cast<MessageType>(raw_type);
  if (MessageTypeName(header.type) == kUnknownType) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  header.flags = LoadLE32(bytes + 8);
  if (header.flags != 0) {
    return Status::Corruption("reserved frame flags set");
  }
  header.session = LoadLE64(bytes + 12);
  header.request_id = LoadLE64(bytes + 20);
  header.payload_bytes = LoadLE32(bytes + 28);
  header.payload_crc = LoadLE32(bytes + 32);
  if (header.payload_bytes > max_payload) {
    return Status::Corruption(
        "frame payload length " + std::to_string(header.payload_bytes) +
        " exceeds limit " + std::to_string(max_payload));
  }
  return header;
}

Status VerifyPayload(const FrameHeader& header,
                     const std::vector<uint8_t>& payload) {
  if (payload.size() != header.payload_bytes) {
    return Status::Corruption("payload truncated: " +
                              std::to_string(payload.size()) + " of " +
                              std::to_string(header.payload_bytes) + " bytes");
  }
  uint32_t crc = Crc32(payload);
  if (crc != header.payload_crc) {
    return Status::Corruption("payload CRC mismatch");
  }
  return Status::OK();
}

}  // namespace qbism::server
