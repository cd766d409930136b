#include "server/socket_io.h"

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace qbism::server {
namespace {

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// Copies up to `limit` of the bytes `msg` offers onto `out`, the way a
/// stream socket with `limit` bytes of room would take them.
ssize_t TakeUpTo(const msghdr& msg, size_t limit, std::vector<uint8_t>* out) {
  size_t took = 0;
  for (size_t i = 0; i < msg.msg_iovlen && took < limit; ++i) {
    const auto* base = static_cast<const uint8_t*>(msg.msg_iov[i].iov_base);
    const size_t n = std::min(limit - took, msg.msg_iov[i].iov_len);
    out->insert(out->end(), base, base + n);
    took += n;
  }
  return static_cast<ssize_t>(took);
}

TEST(SendAllGatheredTest, ShortWritesResumeWhereverTheyEnd) {
  // Header, prefix and voxels as HandleQuery sends them; every write
  // limit below 36 ends the first write inside the header.
  const std::vector<uint8_t> header = RandomBytes(kHeaderBytes, 1);
  const std::vector<uint8_t> prefix = RandomBytes(21, 2);
  const std::vector<uint8_t> values = RandomBytes(500, 3);
  std::vector<uint8_t> whole = header;
  whole.insert(whole.end(), prefix.begin(), prefix.end());
  whole.insert(whole.end(), values.begin(), values.end());

  for (size_t limit : {1, 2, 5, 17, 35, 36, 37, 56, 57, 58, 100, 4096}) {
    std::vector<iovec> iov = {
        {const_cast<uint8_t*>(header.data()), header.size()},
        {nullptr, 0},  // an empty part is skipped
        {const_cast<uint8_t*>(prefix.data()), prefix.size()},
        {const_cast<uint8_t*>(values.data()), values.size()},
    };
    std::vector<uint8_t> wire;
    int calls = 0;
    Status status =
        SendAllGathered(iov.data(), iov.size(), [&](const msghdr& msg) {
          ++calls;
          if (calls % 3 == 0) {  // interrupted before taking anything
            errno = EINTR;
            return ssize_t{-1};
          }
          return TakeUpTo(msg, limit, &wire);
        });
    ASSERT_TRUE(status.ok()) << "limit " << limit << ": " << status.ToString();
    EXPECT_EQ(wire, whole) << "limit " << limit;
  }
}

TEST(SendAllGatheredTest, ErrorsStopTheSend) {
  std::vector<uint8_t> bytes(100, 7);
  iovec iov = {bytes.data(), bytes.size()};
  std::vector<uint8_t> wire;
  int calls = 0;
  Status status = SendAllGathered(&iov, 1, [&](const msghdr& msg) {
    if (++calls == 1) return TakeUpTo(msg, 10, &wire);
    errno = EPIPE;
    return ssize_t{-1};
  });
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(wire.size(), 10u);

  iov = {bytes.data(), bytes.size()};
  status = SendAllGathered(&iov, 1, [](const msghdr&) { return ssize_t{0}; });
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

/// A connected AF_UNIX stream pair whose sender buffers as little as
/// the kernel allows, so a large frame blocks in sendmsg until a slow
/// reader drains it; SIGUSR1 (no SA_RESTART) then interrupts a blocked
/// sendmsg, which returns the bytes it had queued: a short write.
class SlowReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    int small = 1;  // the kernel rounds up to its minimum
    ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    struct sigaction action = {};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &old_action_), 0);
  }

  void TearDown() override {
    ::sigaction(SIGUSR1, &old_action_, nullptr);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  /// Reads `size` bytes from the receiving end in small, paced chunks,
  /// interrupting `sender` between chunks.
  std::vector<uint8_t> DrainSlowly(size_t size, std::thread* sender) {
    std::vector<uint8_t> got;
    got.reserve(size);
    uint8_t chunk[1024];
    int reads = 0;
    while (got.size() < size) {
      ssize_t n = ::recv(fds_[1], chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got.insert(got.end(), chunk, chunk + n);
      if (++reads % 4 == 0) {
        ::pthread_kill(sender->native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return got;
  }

  int fds_[2] = {-1, -1};
  struct sigaction old_action_ = {};
};

TEST_F(SlowReaderTest, GatheredLoopSeesShortSendmsgAndDeliversEveryByte) {
  const std::vector<uint8_t> header = RandomBytes(kHeaderBytes, 4);
  const std::vector<uint8_t> values = RandomBytes(256 << 10, 5);
  std::atomic<int> short_writes{0};
  Status status;
  std::thread sender([&] {
    iovec iov[2] = {{const_cast<uint8_t*>(header.data()), header.size()},
                    {const_cast<uint8_t*>(values.data()), values.size()}};
    status = SendAllGathered(iov, 2, [&](const msghdr& msg) {
      size_t offered = 0;
      for (size_t i = 0; i < msg.msg_iovlen; ++i) {
        offered += msg.msg_iov[i].iov_len;
      }
      ssize_t n = ::sendmsg(fds_[0], &msg, MSG_NOSIGNAL);
      if (n >= 0 && static_cast<size_t>(n) < offered) ++short_writes;
      return n;
    });
  });
  std::vector<uint8_t> got =
      DrainSlowly(header.size() + values.size(), &sender);
  sender.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(short_writes.load(), 0);
  ASSERT_EQ(got.size(), header.size() + values.size());
  EXPECT_TRUE(std::equal(header.begin(), header.end(), got.begin()));
  EXPECT_TRUE(std::equal(values.begin(), values.end(),
                         got.begin() + kHeaderBytes));
  ::close(fds_[0]);
}

TEST_F(SlowReaderTest, SendFrameChecksumsAndSendsEveryPart) {
  // A full-study-sized answer: a short prefix and 2 MiB of voxels.
  const std::vector<uint8_t> prefix = RandomBytes(28, 6);
  const std::vector<uint8_t> values = RandomBytes(2 << 20, 7);
  FrameSocket socket(fds_[0]);
  Status status;
  std::thread sender([&] {
    status = socket.SendFrame(MessageType::kResult, 11, 22,
                              {prefix, values});
  });
  std::vector<uint8_t> got =
      DrainSlowly(kHeaderBytes + prefix.size() + values.size(), &sender);
  sender.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), kHeaderBytes + prefix.size() + values.size());

  auto header = DecodeFrameHeader(got.data(), kHeaderBytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, MessageType::kResult);
  EXPECT_EQ(header->session, 11u);
  EXPECT_EQ(header->request_id, 22u);
  std::vector<uint8_t> payload(got.begin() + kHeaderBytes, got.end());
  EXPECT_TRUE(VerifyPayload(*header, payload).ok());
  std::vector<uint8_t> want = prefix;
  want.insert(want.end(), values.begin(), values.end());
  EXPECT_TRUE(payload == want);
  EXPECT_EQ(header->payload_crc, Crc32Scalar(want.data(), want.size()));
}

}  // namespace
}  // namespace qbism::server
