#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace qbism {
namespace {

TEST(ByteCodecTest, WriterReaderRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-77);
  w.PutF64(3.25);
  w.PutString("qbism");

  ByteReader r(buf);
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU16().value(), 0x1234);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI32().value(), -77);
  EXPECT_EQ(r.GetF64().value(), 3.25);
  EXPECT_EQ(r.GetString().value(), "qbism");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodecTest, ReaderFailsCleanlyOnUnderrun) {
  std::vector<uint8_t> buf;
  ByteWriter(&buf).PutU16(7);
  ByteReader r(buf);
  EXPECT_FALSE(r.GetU32().ok());  // only 2 bytes available
  EXPECT_TRUE(r.GetU16().ok());
  EXPECT_FALSE(r.GetU8().ok());  // exhausted
}

TEST(ByteCodecTest, StringLengthCapEnforcedBeforeAllocation) {
  std::vector<uint8_t> buf;
  ByteWriter(&buf).PutU32(0x40000000u);  // length prefix claiming 1 GiB
  ByteReader r(buf);
  auto s = r.GetString(/*max_bytes=*/4096);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsCorruption());
}

TEST(ByteCodecTest, WriterLaysOutLittleEndian) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutU16(0x0102);
  w.PutU32(0x03040506u);
  w.PutU64(0x0708090A0B0C0D0Eull);
  w.PutI64(-2);
  w.PutString("ab");
  const std::vector<uint8_t> want = {
      0x02, 0x01,                                      // u16
      0x06, 0x05, 0x04, 0x03,                          // u32
      0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07,  // u64
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -2
      0x02, 0x00, 0x00, 0x00, 'a', 'b'};               // u32 length, bytes
  EXPECT_EQ(buf, want);
}

TEST(ByteCodecTest, FixedOffsetAccessorsMatchTheWriter) {
  std::vector<uint8_t> page(14, 0);
  StoreLE16(page.data(), 0xBEEF);
  StoreLE32(page.data() + 2, 0xCAFEF00Du);
  StoreLE64(page.data() + 6, 0x1122334455667788ull);
  std::vector<uint8_t> written;
  ByteWriter w(&written);
  w.PutU16(0xBEEF);
  w.PutU32(0xCAFEF00Du);
  w.PutU64(0x1122334455667788ull);
  EXPECT_EQ(page, written);
  EXPECT_EQ(LoadLE16(page.data()), 0xBEEF);
  EXPECT_EQ(LoadLE32(page.data() + 2), 0xCAFEF00Du);
  EXPECT_EQ(LoadLE64(page.data() + 6), 0x1122334455667788ull);
}

TEST(ByteCodecTest, SpanAndSkipStayInBounds) {
  const std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader r(buf);
  ASSERT_TRUE(r.Skip(1).ok());
  auto span = r.GetSpan(3);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->data(), buf.data() + 1);  // a view, not a copy
  EXPECT_EQ(span->size(), 3u);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.Skip(2).IsCorruption());
  EXPECT_FALSE(r.GetSpan(2).ok());
  EXPECT_EQ(r.remaining(), 1u);  // a failed read does not move
  EXPECT_EQ(r.GetRaw(1).value(), std::vector<uint8_t>{5});
  EXPECT_TRUE(r.AtEnd());
}

// A huge length must not wrap the bounds check: `pos + n > size` does
// for n near SIZE_MAX, so the reader compares against what is left.
TEST(ByteCodecTest, HugeLengthsNeverWrapTheBoundsCheck) {
  const std::vector<uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ByteReader r(buf);
  ASSERT_TRUE(r.Skip(4).ok());
  EXPECT_TRUE(r.Need(SIZE_MAX).IsCorruption());
  EXPECT_TRUE(r.Need(SIZE_MAX - 3).IsCorruption());
  EXPECT_TRUE(r.Skip(SIZE_MAX).IsCorruption());
  EXPECT_TRUE(r.GetSpan(SIZE_MAX - 7).status().IsCorruption());
  EXPECT_TRUE(r.Need(5).ok());
  EXPECT_EQ(r.remaining(), 5u);
}

}  // namespace
}  // namespace qbism
