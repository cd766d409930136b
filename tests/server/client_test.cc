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

/// One NetClient::RunQuery against a scripted peer. `*connected`, when
/// given, tells whether the client kept its connection afterwards.
Result<QueryOutcome> QueryScriptedPeer(const Script& script,
                                       bool* connected = nullptr) {
  Result<QueryOutcome> outcome = Status::Internal("client did not connect");
  Status dialed = DriveScriptedPeer(script, [&](NetClient* client) {
    outcome = client->RunQuery(QuerySpec{});
    if (connected != nullptr) *connected = client->connected();
  });
  if (!dialed.ok()) return dialed;
  return outcome;
}

/// A small valid answer: the payload and what the client should read
/// off it.
struct Answer {
  std::vector<uint8_t> payload;
  uint64_t runs = 0;
  uint64_t voxels = 0;
};

Answer MakeAnswer() {
  region::Region reg = region::Region::FromBox(
      region::GridSpec{3, 4}, curve::CurveKind::kHilbert,
      geometry::Box3i{{1, 1, 1}, {4, 5, 6}});
  std::vector<uint8_t> values(reg.VoxelCount(), 7);
  Answer answer;
  answer.runs = reg.RunCount();
  answer.voxels = reg.VoxelCount();
  answer.payload = EncodeAnswerPayload(
                       volume::DataRegion(std::move(reg), std::move(values)))
                       .MoveValue();
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
    Send(peer, MessageType::kResult, id, answer.payload);
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The client fills the header from the frame and the decoded answer.
  EXPECT_EQ(outcome->header.payload_bytes, answer.payload.size());
  EXPECT_EQ(outcome->header.result_runs, answer.runs);
  EXPECT_EQ(outcome->header.result_voxels, answer.voxels);
  EXPECT_EQ(outcome->data.VoxelCount(), answer.voxels);
  EXPECT_EQ(outcome->data.values(), std::vector<uint8_t>(answer.voxels, 7));
}

// A result frame may declare any u32 length; one above kMaxFramePayload
// fails at the header, before the client sizes any buffer or reads a
// payload byte (the peer sends none).
TEST(NetClientScriptedPeerTest, HugeAnnouncedPayloadIsCorruption) {
  bool connected = true;
  auto outcome = QueryScriptedPeer(
      [&](FrameSocket* peer, uint64_t id) {
        const auto header = EncodeFrameHeader(MessageType::kResult, 0, id,
                                              kMaxFramePayload + 1, 0);
        SendRaw(peer, {header.begin(), header.end()}, header.size());
      },
      &connected);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_NE(outcome.status().ToString().find("exceeds limit"),
            std::string::npos)
      << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

// Only a result or an error frame may answer a query; another type is
// refused from its header, its payload unread.
TEST(NetClientScriptedPeerTest, OtherFrameTypeInPlaceOfTheAnswerIsCorruption) {
  Answer answer = MakeAnswer();
  bool connected = true;
  auto outcome = QueryScriptedPeer(
      [&](FrameSocket* peer, uint64_t id) {
        Send(peer, MessageType::kWelcome, id, answer.payload);
      },
      &connected);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_NE(outcome.status().ToString().find("expected result, got welcome"),
            std::string::npos)
      << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

TEST(NetClientScriptedPeerTest, WrongRequestIdIsCorruption) {
  Answer answer = MakeAnswer();
  bool connected = true;
  auto outcome = QueryScriptedPeer(
      [&](FrameSocket* peer, uint64_t id) {
        Send(peer, MessageType::kResult, id + 1, answer.payload);
      },
      &connected);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

// --- The in-place answer reader ------------------------------------

// The voxels are read straight into the answer's buffer; the frame CRC
// over all four pieces must still catch a flipped voxel bit, and the
// client cannot trust the stream after it.
TEST(NetClientInPlaceTest, VoxelBitFlipIsCorruptionAndDisconnects) {
  Answer answer = MakeAnswer();
  bool connected = true;
  auto outcome = QueryScriptedPeer(
      [&](FrameSocket* peer, uint64_t id) {
        std::vector<uint8_t> bad =
            EncodeFrame(MessageType::kResult, 0, id, answer.payload);
        bad[bad.size() - 3] ^= 0x10;  // a voxel, not the CRC
        SendRaw(peer, bad, bad.size());
      },
      &connected);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCorruption()) << outcome.status().ToString();
  EXPECT_NE(outcome.status().ToString().find("CRC"), std::string::npos)
      << outcome.status().ToString();
  EXPECT_FALSE(connected);
}

// A REGION length past the end of the frame is caught from the head
// alone: the client neither sizes a buffer from it nor waits for bytes
// the frame does not hold. The peer hangs up after the frame, so a
// reader that trusted the length would fail later, on EOF mid-frame,
// with another message.
TEST(NetClientInPlaceTest, RegionLengthOverrunIsCorruptionBeforeAnyRead) {
  Answer answer = MakeAnswer();
  std::vector<uint8_t> payload = answer.payload;
  StoreLE32(payload.data() + kRegionLengthAt, 48u << 20);
  bool connected = true;
  auto outcome = QueryScriptedPeer(
      [&](FrameSocket* peer, uint64_t id) {
        Send(peer, MessageType::kResult, id, payload);
        peer->ShutdownBoth();
      },
      &connected);
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
  const uint64_t voxels = answer.voxels;

  for (uint64_t lie : {voxels + 1, voxels - 1, uint64_t{48} << 20}) {
    std::vector<uint8_t> payload = answer.payload;
    StoreLE64(payload.data() + count_at, lie);
    bool connected = true;
    auto outcome = QueryScriptedPeer(
        [&](FrameSocket* peer, uint64_t id) {
          Send(peer, MessageType::kResult, id, payload);
          peer->ShutdownBoth();
        },
        &connected);
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
    auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
      Send(peer, MessageType::kResult, id, payload);
    });
    ASSERT_FALSE(outcome.ok()) << "extra " << extra;
    EXPECT_TRUE(outcome.status().IsCorruption())
        << "extra " << extra << ": " << outcome.status().ToString();
    EXPECT_NE(outcome.status().ToString().find("does not match region"),
              std::string::npos)
        << "extra " << extra << ": " << outcome.status().ToString();
  }
}

// recv may hand the reader any split of the stream: an answer frame,
// sent one byte per send, still decodes to the same answer.
TEST(NetClientInPlaceTest, AnswerSentInOneByteWritesDecodes) {
  Answer answer = MakeAnswer();
  auto outcome = QueryScriptedPeer([&](FrameSocket* peer, uint64_t id) {
    SendRaw(peer, EncodeFrame(MessageType::kResult, 0, id, answer.payload), 1);
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->header.payload_bytes, answer.payload.size());
  auto expected = DecodeAnswerPayload(answer.payload);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(outcome->data.region(), expected->region());
  EXPECT_EQ(outcome->data.values(), expected->values());
}

// A server that bounces the query (an error frame where the answer
// belongs) reports a status, not a broken stream: the client returns it
// with its reason and stays usable, as a benchmark client does after a
// quota bounce.
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
            if (queries++ == 0) {
              ErrorReply error;
              error.code = StatusCode::kResourceExhausted;
              error.reason = ErrorReason::kQuotaRejected;
              error.message = "tenant waiting line is full";
              Send(peer, MessageType::kError, id, EncodeError(error));
              return;
            }
            Send(peer, MessageType::kResult, id, answer.payload);
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
  EXPECT_EQ(next->data.VoxelCount(), answer.voxels);
}

}  // namespace
}  // namespace qbism::server
