#include "server/client.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/macros.h"
#include "common/timer.h"

namespace qbism::server {

namespace {

/// A received piece grows this much at a time, each slice read and
/// checksummed right after it is sized, so the zero-fill that sizing
/// costs is still in cache when recv overwrites it.
constexpr size_t kReceiveSliceBytes = 64u << 10;

}  // namespace

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port) {
  QBISM_ASSIGN_OR_RETURN(FrameSocket socket, DialTcp(host, port));
  return NetClient(std::move(socket));
}

Status NetClient::Drop(Status status) {
  socket_.Close();
  return status;
}

Result<FrameHeader> NetClient::ReadReplyHeader(MessageType want,
                                               uint64_t request_id) {
  Result<FrameHeader> header = socket_.ReadHeader();
  if (!header.ok()) return Drop(header.status());
  if (header->type == MessageType::kError) {
    QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ReadVerifiedPayload(*header));
    QBISM_ASSIGN_OR_RETURN(ErrorReply error, DecodeError(payload));
    last_error_reason_ = error.reason;
    return Status(error.code, std::string(ErrorReasonName(error.reason)) +
                                  ": " + error.message);
  }
  if (header->type != want) {
    return Drop(Status::Corruption(std::string("expected ") +
                                   MessageTypeName(want) + ", got " +
                                   MessageTypeName(header->type)));
  }
  if (header->request_id != request_id) {
    return Drop(Status::Corruption(
        "response for request " + std::to_string(header->request_id) +
        ", expected " + std::to_string(request_id)));
  }
  return header;
}

Result<std::vector<uint8_t>> NetClient::ReadVerifiedPayload(
    const FrameHeader& header) {
  std::vector<uint8_t> payload(header.payload_bytes);
  Status status = socket_.ReadPayload(payload.data(), payload.size());
  if (status.ok()) status = VerifyPayload(header, payload);
  if (!status.ok()) return Drop(status);
  return payload;
}

Result<Frame> NetClient::ReadExpected(MessageType want, uint64_t request_id) {
  Frame frame;
  QBISM_ASSIGN_OR_RETURN(frame.header, ReadReplyHeader(want, request_id));
  QBISM_ASSIGN_OR_RETURN(frame.payload, ReadVerifiedPayload(frame.header));
  return frame;
}

Result<AnswerPieces> NetClient::ReceiveAnswer(const FrameHeader& header) {
  uint32_t crc = 0;
  QBISM_ASSIGN_OR_RETURN(
      AnswerPieces pieces,
      ReadAnswerPieces(header.payload_bytes,
                       [&](std::vector<uint8_t>* out, size_t size) {
                         out->reserve(size);
                         for (size_t at = 0; at < size;) {
                           const size_t slice =
                               std::min(size - at, kReceiveSliceBytes);
                           out->resize(at + slice);
                           QBISM_RETURN_NOT_OK(
                               socket_.ReadPayload(out->data() + at, slice));
                           crc = Crc32Extend(crc, out->data() + at, slice);
                           at += slice;
                         }
                         return Status::OK();
                       }));
  if (crc != header.payload_crc) {
    return Status::Corruption("payload CRC mismatch");
  }
  return pieces;
}

Status NetClient::Login(const std::string& tenant, const std::string& secret) {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  HelloRequest hello;
  hello.tenant = tenant;
  hello.secret = secret;
  QBISM_RETURN_NOT_OK(socket_.SendFrame(MessageType::kHello, 0, id,
                                        {EncodeHello(hello)}));
  QBISM_ASSIGN_OR_RETURN(Frame frame,
                         ReadExpected(MessageType::kWelcome, id));
  QBISM_ASSIGN_OR_RETURN(WelcomeReply welcome, DecodeWelcome(frame.payload));
  session_token_ = welcome.session_token;
  session_ttl_seconds_ = welcome.session_ttl_seconds;
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
                                        id, {EncodeQuery(query)}));

  QBISM_ASSIGN_OR_RETURN(FrameHeader frame,
                         ReadReplyHeader(MessageType::kResult, id));
  Result<AnswerPieces> answer = ReceiveAnswer(frame);
  if (!answer.ok()) return Drop(answer.status());
  QueryOutcome out;
  out.wire_seconds = timer.Seconds();
  QBISM_ASSIGN_OR_RETURN(out.data, DecodeAnswer(answer.MoveValue()));
  out.header.result_runs = out.data.region().RunCount();
  out.header.result_voxels = out.data.VoxelCount();
  out.header.payload_bytes = frame.payload_bytes;
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
