#include "server/client.h"

#include "common/macros.h"
#include "common/timer.h"

namespace qbism::server {

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port) {
  QBISM_ASSIGN_OR_RETURN(FrameSocket socket, DialTcp(host, port));
  return NetClient(std::move(socket));
}

Result<Frame> NetClient::ReadExpected(MessageType want, uint64_t request_id) {
  QBISM_ASSIGN_OR_RETURN(Frame frame, socket_.ReadFrame());
  if (frame.header.type == MessageType::kError) {
    QBISM_ASSIGN_OR_RETURN(ErrorReply error, DecodeError(frame.payload));
    last_error_reason_ = error.reason;
    return Status(error.code, std::string(ErrorReasonName(error.reason)) +
                                  ": " + error.message);
  }
  if (frame.header.type != want) {
    return Status::Corruption(std::string("expected ") + MessageTypeName(want) +
                              ", got " + MessageTypeName(frame.header.type));
  }
  if (frame.header.request_id != request_id) {
    return Status::Corruption(
        "response for request " + std::to_string(frame.header.request_id) +
        ", expected " + std::to_string(request_id));
  }
  return frame;
}

Status NetClient::Login(const std::string& tenant, const std::string& secret) {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  HelloRequest hello;
  hello.tenant = tenant;
  hello.secret = secret;
  QBISM_RETURN_NOT_OK(socket_.SendFrame(MessageType::kHello, 0, id,
                                        EncodeHello(hello)));
  QBISM_ASSIGN_OR_RETURN(Frame frame,
                         ReadExpected(MessageType::kWelcome, id));
  QBISM_ASSIGN_OR_RETURN(WelcomeReply welcome, DecodeWelcome(frame.payload));
  session_token_ = welcome.session_token;
  session_ttl_seconds_ = welcome.session_ttl_seconds;
  server_chunk_bytes_ = welcome.chunk_bytes;
  return Status::OK();
}

Status NetClient::Ping() {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  QBISM_RETURN_NOT_OK(
      socket_.SendFrame(MessageType::kPing, session_token_, id, {}));
  return ReadExpected(MessageType::kPong, id).status();
}

Result<QueryOutcome> NetClient::RunQuery(const qbism::QuerySpec& spec,
                                         double deadline_seconds) {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  WallTimer timer;
  QueryRequest query;
  query.spec = spec;
  query.deadline_seconds = deadline_seconds;
  QBISM_RETURN_NOT_OK(socket_.SendFrame(MessageType::kQuery, session_token_,
                                        id, EncodeQuery(query)));

  QueryOutcome out;
  {
    QBISM_ASSIGN_OR_RETURN(Frame frame,
                           ReadExpected(MessageType::kResultHeader, id));
    QBISM_ASSIGN_OR_RETURN(out.header, DecodeResultHeader(frame.payload));
  }
  std::vector<uint8_t> payload;
  payload.reserve(out.header.payload_bytes);
  while (payload.size() < out.header.payload_bytes) {
    QBISM_ASSIGN_OR_RETURN(Frame chunk,
                           ReadExpected(MessageType::kResultChunk, id));
    if (payload.size() + chunk.payload.size() > out.header.payload_bytes) {
      return Status::Corruption("result chunks overrun the announced " +
                                std::to_string(out.header.payload_bytes) +
                                " payload bytes");
    }
    payload.insert(payload.end(), chunk.payload.begin(), chunk.payload.end());
    ++out.chunks;
  }
  ResultEnd end;
  {
    QBISM_ASSIGN_OR_RETURN(Frame frame,
                           ReadExpected(MessageType::kResultEnd, id));
    QBISM_ASSIGN_OR_RETURN(end, DecodeResultEnd(frame.payload));
  }
  out.wire_seconds = timer.Seconds();
  out.shipped_bytes = payload.size();
  if (end.payload_bytes != payload.size() || end.chunk_count != out.chunks) {
    return Status::Corruption(
        "result trailer accounting mismatch: trailer says " +
        std::to_string(end.payload_bytes) + " bytes / " +
        std::to_string(end.chunk_count) + " chunks, received " +
        std::to_string(payload.size()) + " / " + std::to_string(out.chunks));
  }
  if (end.payload_crc != Crc32(payload)) {
    return Status::Corruption("reassembled answer payload fails its CRC");
  }
  QBISM_ASSIGN_OR_RETURN(out.data, DecodeAnswerPayload(payload));
  return out;
}

void NetClient::Bye() {
  if (socket_.valid()) {
    (void)socket_.SendFrame(MessageType::kBye, session_token_,
                            next_request_id_++, {});
  }
  socket_.Close();
}

}  // namespace qbism::server
