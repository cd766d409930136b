#include "server/client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <functional>
#include <thread>

#include "geometry/vec3.h"
#include "region/region.h"

namespace qbism::server {
namespace {

/// What a scripted peer sends back for one query. `request_id` is the id
/// of the query frame it read.
using Script = std::function<void(FrameSocket* peer, uint64_t request_id)>;

/// Runs one NetClient::RunQuery against a test-local listener that plays
/// the server: it reads the client's query frame, sends the frames
/// `script` writes, then holds the connection until the client hangs up,
/// so every scripted byte reaches the client before any EOF.
Result<QueryOutcome> QueryScriptedPeer(const Script& script) {
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
    Result<Frame> query = conn.ReadFrame();
    if (!query.ok() || query->header.type != MessageType::kQuery) return;
    script(&conn, query->header.request_id);
    (void)conn.ReadFrame();  // returns when the client closes
  });
  Result<QueryOutcome> outcome = Status::Internal("client did not connect");
  {
    auto client = NetClient::Connect("127.0.0.1", ntohs(addr.sin_port));
    if (client.ok()) outcome = client->RunQuery(QuerySpec{});
  }  // the client's socket closes here
  listener.ShutdownBoth();  // wakes accept if the client never dialed
  peer.join();
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

}  // namespace
}  // namespace qbism::server
