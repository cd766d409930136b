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

  QueryOutcome out;
  {
    QBISM_ASSIGN_OR_RETURN(Frame frame,
                           ReadExpected(MessageType::kResultHeader, id));
    QBISM_ASSIGN_OR_RETURN(out.header, DecodeResultHeader(frame.payload));
  }
  // The frame reader bounded the data frame's size before allocating it
  // and checked its CRC; the announced length is only compared.
  QBISM_ASSIGN_OR_RETURN(Frame data,
                         ReadExpected(MessageType::kResultData, id));
  if (data.payload.size() != out.header.payload_bytes) {
    return Status::Corruption(
        "result_data carries " + std::to_string(data.payload.size()) +
        " bytes, result_header announced " +
        std::to_string(out.header.payload_bytes));
  }
  {
    QBISM_ASSIGN_OR_RETURN(Frame end,
                           ReadExpected(MessageType::kResultEnd, id));
    if (!end.payload.empty()) {
      return Status::Corruption("result_end carries a payload");
    }
  }
  out.wire_seconds = timer.Seconds();
  out.shipped_bytes = data.payload.size();
  QBISM_ASSIGN_OR_RETURN(out.data, DecodeAnswerPayload(data.payload));
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
