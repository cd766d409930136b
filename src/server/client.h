#ifndef QBISM_SERVER_CLIENT_H_
#define QBISM_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/codec.h"
#include "server/socket_io.h"
#include "volume/volume.h"

namespace qbism::server {

/// What the client reads off an answer besides its voxels, all of it
/// from the one kResult frame the answer arrived in.
struct ResultHeader {
  uint64_t result_runs = 0;    // runs in the answer REGION
  uint64_t result_voxels = 0;  // voxels in the answer
  /// The kResult frame's length, whose CRC the client checked: the
  /// answer's ship bytes, as the server and its trace count them.
  uint64_t payload_bytes = 0;
};

/// One completed query as seen from the wire.
struct QueryOutcome {
  volume::DataRegion data;
  ResultHeader header;
  /// Client-observed round trip: query frame sent -> answer frame read
  /// and its CRC checked.
  double wire_seconds = 0.0;
};

/// Blocking client for the QBISM socket protocol: dial, Login, then
/// RunQuery in a loop. One connection serves one request at a time
/// (matching the closed-loop clients of the paper's experiments); open
/// several clients for concurrency. Not thread-safe.
class NetClient {
 public:
  NetClient() = default;

  /// Dials host:port. No frames are exchanged until Login.
  static Result<NetClient> Connect(const std::string& host, uint16_t port);

  /// HELLO/WELCOME: authenticates and stores the session token.
  Status Login(const std::string& tenant, const std::string& secret);

  /// Sends one query and reads its answer, one kResult frame. A peer
  /// that sends another frame type or request id, or whose lengths lie,
  /// yields Corruption. The payload is read in place, field by field,
  /// into the buffers the answer keeps (docs/NETWORK.md, "Receiving an
  /// answer"). Any failure inside a frame closes the connection, since
  /// the stream cannot resync; a kError frame returns the server's
  /// status and leaves it open.
  Result<QueryOutcome> RunQuery(const qbism::QuerySpec& spec,
                                double deadline_seconds = 0.0);

  /// Keep-alive; also refreshes the session's idle TTL server-side.
  Status Ping();

  /// Polite close: sends kBye and drops the connection.
  void Bye();
  void Close() { socket_.Close(); }

  bool connected() const { return socket_.valid(); }
  uint64_t session_token() const { return session_token_; }
  /// Server-announced idle TTL from WELCOME (0 before Login).
  double session_ttl_seconds() const { return session_ttl_seconds_; }
  /// Reason carried by the last kError frame (kNone if none yet); the
  /// returned Status only carries the StatusCode.
  ErrorReason last_error_reason() const { return last_error_reason_; }

  FrameSocket* socket() { return &socket_; }  // for fault-injection tests

 private:
  explicit NetClient(FrameSocket socket) : socket_(std::move(socket)) {}

  /// Closes the connection and returns `status`.
  Status Drop(Status status);

  /// Reads the next frame's header. A kError frame is read whole and
  /// turned into its carried Status (recording the reason); a frame of
  /// another type than `want` or for another request drops the
  /// connection, with its payload still unread.
  Result<FrameHeader> ReadReplyHeader(MessageType want, uint64_t request_id);

  /// Reads the whole payload of the frame whose header was just read
  /// and checks its CRC.
  Result<std::vector<uint8_t>> ReadVerifiedPayload(const FrameHeader& header);

  /// ReadReplyHeader, then ReadVerifiedPayload.
  Result<Frame> ReadExpected(MessageType want, uint64_t request_id);

  /// Reads the kResult payload whose header was just read, in place,
  /// through ReadAnswerPieces, taking the CRC over the pieces as they
  /// arrive and checking it before the caller decodes them. Any failure
  /// leaves the stream inside the frame; the caller drops the
  /// connection.
  Result<AnswerPieces> ReceiveAnswer(const FrameHeader& header);

  FrameSocket socket_;
  uint64_t session_token_ = 0;
  uint64_t next_request_id_ = 1;
  double session_ttl_seconds_ = 0.0;
  ErrorReason last_error_reason_ = ErrorReason::kNone;
};

}  // namespace qbism::server

#endif  // QBISM_SERVER_CLIENT_H_
