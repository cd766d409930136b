#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace qbism {
namespace {

/// The size of a full-study answer payload (a 128^3 study plus its
/// answer prefix), the largest buffer the wire checksums.
constexpr size_t kFullStudyPayload = 2'097'180;

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(size);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// Checks Crc32 (the folding kernel on a host with PCLMULQDQ) against
/// Crc32Scalar over `length` bytes starting at each of the 16 offsets
/// into `buf`.
void ExpectCrc32Agrees(const std::vector<uint8_t>& buf, size_t length) {
  ASSERT_GE(buf.size(), length + 15);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* p = buf.data() + offset;
    ASSERT_EQ(Crc32(p, length), Crc32Scalar(p, length))
        << "length " << length << " offset " << offset;
  }
}

TEST(Crc32Test, IeeeCheckValue) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32Scalar(p, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(p, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Scalar(nullptr, 0), 0u);
}

TEST(Crc32Test, EveryLengthUpTo300AtEveryOffset) {
  const std::vector<uint8_t> buf = RandomBytes(300 + 16, 1);
  for (size_t length = 0; length <= 300; ++length) {
    ExpectCrc32Agrees(buf, length);
  }
}

TEST(Crc32Test, RandomLengthsUpTo70000AtEveryOffset) {
  const std::vector<uint8_t> buf = RandomBytes(70'000 + 16, 2);
  Rng rng(3);
  for (int i = 0; i < 48; ++i) {
    ExpectCrc32Agrees(buf, 1 + rng.NextBounded(70'000));
  }
  ExpectCrc32Agrees(buf, 70'000);
}

TEST(Crc32Test, FullStudyPayloadAtEveryOffset) {
  ExpectCrc32Agrees(RandomBytes(kFullStudyPayload + 16, 4),
                    kFullStudyPayload);
}

TEST(Crc32Test, UniformBytesAgree) {
  // All-zero and all-one inputs exercise the fold constants without the
  // help of random data.
  for (uint8_t fill : {uint8_t{0x00}, uint8_t{0xFF}}) {
    ExpectCrc32Agrees(std::vector<uint8_t>(4096 + 16, fill), 4096);
  }
}

TEST(Crc32Test, ExtendContinuesAFinishedCrc) {
  const std::vector<uint8_t> buf = RandomBytes(20'000, 5);
  const uint32_t whole = Crc32Scalar(buf.data(), buf.size());
  Rng rng(6);
  std::vector<size_t> splits = {0, 1, 15, 16, 63, 64, 65, buf.size() - 1,
                                buf.size()};
  for (int i = 0; i < 64; ++i) splits.push_back(rng.NextBounded(buf.size()));
  for (size_t split : splits) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32Extend(head, buf.data() + split, buf.size() - split), whole)
        << "split " << split;
  }
  // Three parts, as a gathered send checksums them.
  const size_t a = 36, b = 7000;
  uint32_t crc = Crc32(buf.data(), a);
  crc = Crc32Extend(crc, buf.data() + a, b - a);
  crc = Crc32Extend(crc, buf.data() + b, buf.size() - b);
  EXPECT_EQ(crc, whole);
}

}  // namespace
}  // namespace qbism
