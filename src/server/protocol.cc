#include "server/protocol.h"

#include <array>
#include <cstring>

#include "common/macros.h"

namespace qbism::server {

namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | p[1] << 8);
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

void StoreU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void StoreU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void StoreU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kWelcome: return "welcome";
    case MessageType::kQuery: return "query";
    case MessageType::kResultHeader: return "result_header";
    case MessageType::kResultData: return "result_data";
    case MessageType::kResultEnd: return "result_end";
    case MessageType::kError: return "error";
    case MessageType::kPing: return "ping";
    case MessageType::kPong: return "pong";
    case MessageType::kBye: return "bye";
  }
  return "unknown";
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

std::vector<uint8_t> EncodeFrameHeader(MessageType type, uint64_t session,
                                       uint64_t request_id,
                                       const std::vector<uint8_t>& payload) {
  WireWriter w;
  w.PutU32(kMagic);
  w.PutU16(kProtocolVersion);
  w.PutU16(static_cast<uint16_t>(type));
  w.PutU32(0);  // flags (reserved)
  w.PutU64(session);
  w.PutU64(request_id);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  return w.Take();
}

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t session,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out =
      EncodeFrameHeader(type, session, request_id, payload);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t size,
                                      uint32_t max_payload) {
  if (size < kHeaderBytes) {
    return Status::Corruption("frame header truncated: " +
                              std::to_string(size) + " of " +
                              std::to_string(kHeaderBytes) + " bytes");
  }
  if (LoadU32(bytes) != kMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader header;
  header.version = LoadU16(bytes + 4);
  if (header.version != kProtocolVersion) {
    return Status::Corruption("unsupported protocol version " +
                              std::to_string(header.version));
  }
  uint16_t raw_type = LoadU16(bytes + 6);
  if (raw_type < static_cast<uint16_t>(MessageType::kHello) ||
      raw_type > static_cast<uint16_t>(MessageType::kBye)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  header.type = static_cast<MessageType>(raw_type);
  header.flags = LoadU32(bytes + 8);
  if (header.flags != 0) {
    return Status::Corruption("reserved frame flags set");
  }
  header.session = LoadU64(bytes + 12);
  header.request_id = LoadU64(bytes + 20);
  header.payload_bytes = LoadU32(bytes + 28);
  header.payload_crc = LoadU32(bytes + 32);
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

void WireWriter::PutU16(uint16_t v) { StoreU16(&buf_, v); }
void WireWriter::PutU32(uint32_t v) { StoreU32(&buf_, v); }
void WireWriter::PutU64(uint64_t v) { StoreU64(&buf_, v); }

void WireWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::PutBytes(const uint8_t* data, size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

Status WireReader::Need(size_t n) {
  if (size_ - pos_ < n) {
    return Status::Corruption("payload underrun: need " + std::to_string(n) +
                              " bytes, " + std::to_string(size_ - pos_) +
                              " left");
  }
  return Status::OK();
}

Result<uint8_t> WireReader::GetU8() {
  QBISM_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint16_t> WireReader::GetU16() {
  QBISM_RETURN_NOT_OK(Need(2));
  uint16_t v = LoadU16(data_ + pos_);
  pos_ += 2;
  return v;
}

Result<uint32_t> WireReader::GetU32() {
  QBISM_RETURN_NOT_OK(Need(4));
  uint32_t v = LoadU32(data_ + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::GetU64() {
  QBISM_RETURN_NOT_OK(Need(8));
  uint64_t v = LoadU64(data_ + pos_);
  pos_ += 8;
  return v;
}

Result<int32_t> WireReader::GetI32() {
  QBISM_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

Result<double> WireReader::GetF64() {
  QBISM_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::GetString(uint32_t max_bytes) {
  QBISM_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > max_bytes) {
    return Status::Corruption("string length " + std::to_string(n) +
                              " exceeds limit " + std::to_string(max_bytes));
  }
  QBISM_RETURN_NOT_OK(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<std::vector<uint8_t>> WireReader::GetRaw(size_t n) {
  QBISM_RETURN_NOT_OK(Need(n));
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::vector<uint8_t>> WireReader::GetBytes(uint32_t max_bytes) {
  QBISM_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > max_bytes) {
    return Status::Corruption("byte-array length " + std::to_string(n) +
                              " exceeds limit " + std::to_string(max_bytes));
  }
  QBISM_RETURN_NOT_OK(Need(n));
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

}  // namespace qbism::server
