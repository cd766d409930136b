#include "server/client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <functional>
#include <thread>

#include "common/bytes.h"
#include "geometry/vec3.h"
#include "region/region.h"

namespace qbism::server {
namespace {

/// What a scripted peer sends back for one query. `request_id` is the id
/// of the query frame it read.
using Script = std::function<void(FrameSocket* peer, uint64_t request_id)>;

/// Connects a NetClient to a test-local listener that plays the server
/// and hands the client to `drive`. The peer reads each query frame the
/// client sends and answers it with the frames `script` writes, until
/// the client hangs up, so every scripted byte reaches the client
/// before any EOF.
Status DriveScriptedPeer(const Script& script,
                         const std::function<void(NetClient*)>& drive) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  FrameSocket listener(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 1) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::IOError("listen");
  }
  std::thread peer([&] {
    int conn_fd = ::accept(fd, nullptr, nullptr);
    if (conn_fd < 0) return;
    FrameSocket conn(conn_fd);
    // As the server does: small frames leave at once (and a one-byte
    // send is one segment).
    int one = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    for (;;) {  // ends when the client closes
      Result<Frame> query = conn.ReadFrame();
      if (!query.ok() || query->header.type != MessageType::kQuery) return;
      script(&conn, query->header.request_id);
    }
  });
  Status status;
  {
    auto client = NetClient::Connect("127.0.0.1", ntohs(addr.sin_port));
    if (client.ok()) {
      drive(&*client);
    } else {
      status = client.status();
    }
  }  // the client's socket closes here
  listener.ShutdownBoth();  // wakes accept if the client never dialed
  peer.join();
  return status;
}

/// One NetClient::RunQuery against a scripted peer.
Result<QueryOutcome> QueryScriptedPeer(const Script& script) {
  Result<QueryOutcome> outcome = Status::Internal("client did not connect");
  Status dialed = DriveScriptedPeer(script, [&](NetClient* client) {
    outcome = client->RunQuery(QuerySpec{});
  });
  if (!dialed.ok()) return dialed;
  return outcome;
}

/// A small valid answer and the result_header announcing it.
struct Answer {
  std::vector<uint8_t> payload;
  ResultHeader header;
};

Answer MakeAnswer() {
  region::Region reg = region::Region::FromBox(
      region::GridSpec{3, 4}, curve::CurveKind::kHilbert,
      geometry::Box3i{{1, 1, 1}, {4, 5, 6}});
  std::vector<uint8_t> values(reg.VoxelCount(), 7);
  Answer answer;
  answer.header.result_runs = reg.runs().size();
  answer.header.result_voxels = reg.VoxelCount();
  answer.payload = EncodeAnswerPayload(
                       volume::DataRegion(std::move(reg), std::move(values)))
                       .MoveValue();
  answer.header.payload_bytes = answer.payload.size();
  return answer;
}

/// Sends one frame. A send may fail once the client has already
/// rejected the answer and hung up; the outcome is checked client-side.
void Send(FrameSocket* peer, MessageType type, uint64_t request_id,
          const std::vector<uint8_t>& payload) {
  (void)peer->SendFrame(type, 0, request_id, {payload});
}

/// Sends bytes as they are, `chunk` bytes per send (so a frame can carry
/// a CRC that does not match its payload, or arrive a byte at a time).
void SendRaw(FrameSocket* peer, const std::vector<uint8_t>& bytes,
             size_t chunk) {
  for (size_t at = 0; at < bytes.size();) {
    ssize_t n = ::send(peer->fd(), bytes.data() + at,
                       std::min(chunk, bytes.size() - at), MSG_NOSIGNAL);
    if (n <= 0) return;
    at += static_cast<size_t>(n);
  }
}

/// Offsets inside an answer payload (docs/NETWORK.md): the u32 REGION
/// length sits at 4 and the REGION bytes start at kAnswerHeadBytes; the
/// u64 value count and the voxels follow them.
constexpr size_t kRegionLengthAt = 4;
size_t ValueCountAt(const std::vector<uint8_t>& payload) {
  return kAnswerHeadBytes + LoadLE32(payload.data() + kRegionLengthAt);
}

TEST(NetClientScriptedPeerTest, WellFormedAnswerDecodes) {
  Answer answer = MakeAnswer();
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    Send(peer, MessageType::kResultHeader, id,
         EncodeResultHeader(answer.header));
    Send(peer, MessageType::kResultData, id, answer.payload);
    Send(peer, MessageType::kResultEnd, id, {});
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->shipped_bytes, answer.payload.size());
  EXPECT_EQ(outcome->data.VoxelCount(), answer.header.result_voxels);
  EXPECT_EQ(outcome->data.values(),
            std::vector<uint8_t>(answer.header.result_voxels, 7));
}

// A result_header may announce any u64; the client must not size any
// buffer from it.
TEST(NetClientScriptedPeerTest, HugeAnnouncedPayloadIsCorruption) {
  ResultHeader header;
  header.payload_bytes = 1ull << 62;
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    Send(peer, MessageType::kResultHeader, id, EncodeResultHeader(header));
    Send(peer, MessageType::kResultData, id, std::vector<uint8_t>(10, 1));
    Send(peer, MessageType::kResultEnd, id, {});
  });
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
}

TEST(NetClientScriptedPeerTest, DataFrameLengthMismatchIsCorruption) {
  Answer answer = MakeAnswer();
  const uint64_t sent = answer.payload.size();
  // Announce one byte more (the data frame is short) and one byte less
  // (the data frame is long).
  for (uint64_t announced : {sent + 1, sent - 1}) {
    ResultHeader header = answer.header;
    header.payload_bytes = announced;
    auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
      Send(peer, MessageType::kResultHeader, id, EncodeResultHeader(header));
      Send(peer, MessageType::kResultData, id, answer.payload);
      Send(peer, MessageType::kResultEnd, id, {});
    });
    ASSERT_FALSE(outcome.ok()) << "announced " << announced;
    EXPECT_TRUE(outcome.status().IsCorruption())
        << "announced " << announced << ": " << outcome.status().ToString();
  }
}

TEST(NetClientScriptedPeerTest, NonEmptyResultEndIsCorruption) {
  Answer answer = MakeAnswer();
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    Send(peer, MessageType::kResultHeader, id,
         EncodeResultHeader(answer.header));
    Send(peer, MessageType::kResultData, id, answer.payload);
    Send(peer, MessageType::kResultEnd, id, std::vector<uint8_t>(16, 0));
  });
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
}

TEST(NetClientScriptedPeerTest, ResultEndBeforeDataIsCorruption) {
  Answer answer = MakeAnswer();
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    Send(peer, MessageType::kResultHeader, id,
         EncodeResultHeader(answer.header));
    Send(peer, MessageType::kResultEnd, id, {});
    Send(peer, MessageType::kResultData, id, answer.payload);
  });
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
}

TEST(NetClientScriptedPeerTest, WrongRequestIdIsCorruption) {
  // The stray id may sit on any of the answer's three frames.
  for (int stray = 0; stray < 3; ++stray) {
    Answer answer = MakeAnswer();
    auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
      Send(peer, MessageType::kResultHeader, stray == 0 ? id + 1 : id,
           EncodeResultHeader(answer.header));
      Send(peer, MessageType::kResultData, stray == 1 ? id + 1 : id,
           answer.payload);
      Send(peer, MessageType::kResultEnd, stray == 2 ? id + 1 : id, {});
    });
    ASSERT_FALSE(outcome.ok()) << "frame " << stray;
    EXPECT_TRUE(outcome.status().IsCorruption())
        << "frame " << stray << ": " << outcome.status().ToString();
  }
}

// --- The in-place answer reader ------------------------------------

// The voxels are read straight into the answer's buffer; the frame CRC
// over all four pieces must still catch a flipped voxel bit, and the
// client cannot trust the stream after it.
TEST(NetClientInPlaceTest, VoxelBitFlipIsCorruptionAndDisconnects) {
  Answer answer = MakeAnswer();
  bool connected = true;
  Result<QueryOutcome> outcome = Status::Internal("not run");
  ASSERT_TRUE(DriveScriptedPeer(
                  [&](FrameSocket* peer, uint64_t id) {
                    Send(peer, MessageType::kResultHeader, id,
                         EncodeResultHeader(answer.header));
                    std::vector<uint8_t> bad = EncodeFrame(
                        MessageType::kResultData, 0, id, answer.payload);
                    bad[bad.size() - 3] ^= 0x10;  // a voxel, not the CRC
                    SendRaw(peer, bad, bad.size());
                    Send(peer, MessageType::kResultEnd, id, {});
                  },
                  [&](NetClient* client) {
                    outcome = client->RunQuery(QuerySpec{});
                    connected = client->connected();
                  })
                  .ok());
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_NE(outcome.status().ToString().find("CRC"), std::string::npos)
      << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

// A REGION length past the end of the frame is caught from the head
// alone: the client neither sizes a buffer from it nor waits for bytes
// the frame does not hold. The peer hangs up after the data frame, so a
// reader that trusted the length would fail later, on EOF mid-frame,
// with another message.
TEST(NetClientInPlaceTest, RegionLengthOverrunIsCorruptionBeforeAnyRead) {
  Answer answer = MakeAnswer();
  std::vector<uint8_t> payload = answer.payload;
  StoreLE32(payload.data() + kRegionLengthAt, 48u << 20);
  bool connected = true;
  Result<QueryOutcome> outcome = Status::Internal("not run");
  ASSERT_TRUE(DriveScriptedPeer(
                  [&](FrameSocket* peer, uint64_t id) {
                    Send(peer, MessageType::kResultHeader, id,
                         EncodeResultHeader(answer.header));
                    Send(peer, MessageType::kResultData, id, payload);
                    peer->ShutdownBoth();
                  },
                  [&](NetClient* client) {
                    outcome = client->RunQuery(QuerySpec{});
                    connected = client->connected();
                  })
                  .ok());
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_NE(outcome.status().ToString().find("overruns"), std::string::npos)
      << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

// Two ways a value count can lie: against the bytes left in the frame
// (caught before the voxel buffer is sized, so the stream is lost), and
// against the voxels the REGION holds in a frame whose own lengths
// agree (caught by the decoder after the whole answer was read). The
// peer hangs up after a lying frame, so a reader that sized its buffer
// from the count would fail later, with another message.
TEST(NetClientInPlaceTest, ValueCountMismatchIsCorruption) {
  Answer answer = MakeAnswer();
  const size_t count_at = ValueCountAt(answer.payload);
  const uint64_t voxels = answer.header.result_voxels;

  for (uint64_t lie : {voxels + 1, voxels - 1, uint64_t{48} << 20}) {
    std::vector<uint8_t> payload = answer.payload;
    StoreLE64(payload.data() + count_at, lie);
    bool connected = true;
    Result<QueryOutcome> outcome = Status::Internal("not run");
    ASSERT_TRUE(DriveScriptedPeer(
                    [&](FrameSocket* peer, uint64_t id) {
                      Send(peer, MessageType::kResultHeader, id,
                           EncodeResultHeader(answer.header));
                      Send(peer, MessageType::kResultData, id, payload);
                      peer->ShutdownBoth();
                    },
                    [&](NetClient* client) {
                      outcome = client->RunQuery(QuerySpec{});
                      connected = client->connected();
                    })
                    .ok());
    ASSERT_FALSE(outcome.ok()) << "count " << lie;
    EXPECT_TRUE(outcome.status().IsCorruption())
        << "count " << lie << ": " << outcome.status().ToString();
    EXPECT_NE(outcome.status().ToString().find("bytes left in the payload"),
              std::string::npos)
        << "count " << lie << ": " << outcome.status().ToString();
    EXPECT_FALSE(connected) << "count " << lie;
  }

  // One voxel short and one too many, with the count and the frame
  // agreeing on it.
  for (bool extra : {false, true}) {
    std::vector<uint8_t> payload = answer.payload;
    if (extra) {
      payload.push_back(7);
    } else {
      payload.pop_back();
    }
    StoreLE64(payload.data() + count_at, extra ? voxels + 1 : voxels - 1);
    ResultHeader header = answer.header;
    header.payload_bytes = payload.size();
    auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
      Send(peer, MessageType::kResultHeader, id, EncodeResultHeader(header));
      Send(peer, MessageType::kResultData, id, payload);
      Send(peer, MessageType::kResultEnd, id, {});
    });
    ASSERT_FALSE(outcome.ok()) << "extra " << extra;
    EXPECT_TRUE(outcome.status().IsCorruption())
        << "extra " << extra << ": " << outcome.status().ToString();
    EXPECT_NE(outcome.status().ToString().find("does not match region"),
              std::string::npos)
        << "extra " << extra << ": " << outcome.status().ToString();
  }
}

// recv may hand the reader any split of the stream: the three frames of
// an answer, sent one byte per send, still decode to the same answer.
TEST(NetClientInPlaceTest, AnswerSentInOneByteWritesDecodes) {
  Answer answer = MakeAnswer();
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    std::vector<uint8_t> wire = EncodeFrame(MessageType::kResultHeader, 0, id,
                                            EncodeResultHeader(answer.header));
    std::vector<uint8_t> data =
        EncodeFrame(MessageType::kResultData, 0, id, answer.payload);
    std::vector<uint8_t> end = EncodeFrame(MessageType::kResultEnd, 0, id, {});
    wire.insert(wire.end(), data.begin(), data.end());
    wire.insert(wire.end(), end.begin(), end.end());
    SendRaw(peer, wire, 1);
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->shipped_bytes, answer.payload.size());
  auto expected = DecodeAnswerPayload(answer.payload);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(outcome->data.region(), expected->region());
  EXPECT_EQ(outcome->data.values(), expected->values());
}

// A server that bounces the query after its result_header (an error
// frame where result_data belongs) reports a status, not a broken
// stream: the client returns it with its reason and stays usable, as a
// benchmark client does after a quota bounce.
TEST(NetClientInPlaceTest, ErrorFrameInPlaceOfDataKeepsTheConnection) {
  Answer answer = MakeAnswer();
  int queries = 0;
  Result<QueryOutcome> bounced = Status::Internal("not run");
  Result<QueryOutcome> next = Status::Internal("not run");
  ErrorReason reason = ErrorReason::kNone;
  bool connected = false;
  ASSERT_TRUE(
      DriveScriptedPeer(
          [&](FrameSocket* peer, uint64_t id) {
            Send(peer, MessageType::kResultHeader, id,
                 EncodeResultHeader(answer.header));
            if (queries++ == 0) {
              ErrorReply error;
              error.code = StatusCode::kResourceExhausted;
              error.reason = ErrorReason::kQuotaRejected;
              error.message = "tenant waiting line is full";
              Send(peer, MessageType::kError, id, EncodeError(error));
              return;
            }
            Send(peer, MessageType::kResultData, id, answer.payload);
            Send(peer, MessageType::kResultEnd, id, {});
          },
          [&](NetClient* client) {
            bounced = client->RunQuery(QuerySpec{});
            reason = client->last_error_reason();
            connected = client->connected();
            next = client->RunQuery(QuerySpec{});
          })
          .ok());
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsResourceExhausted())
      << bounced.status().ToString();
  EXPECT_EQ(reason, ErrorReason::kQuotaRejected);
  EXPECT_TRUE(connected);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->data.VoxelCount(), answer.header.result_voxels);
}

}  // namespace
}  // namespace qbism::server
