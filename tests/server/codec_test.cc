#include "server/codec.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "geometry/shapes.h"
#include "region/region.h"
#include "server/protocol.h"
#include "volume/volume.h"

namespace qbism::server {
namespace {

volume::DataRegion MakeTestRegion(uint64_t seed) {
  region::GridSpec grid{3, 4};  // 16^3
  Rng rng(seed);
  geometry::Vec3i lo{static_cast<int>(rng.NextBounded(8)),
                     static_cast<int>(rng.NextBounded(8)),
                     static_cast<int>(rng.NextBounded(8))};
  geometry::Vec3i hi{lo.x + 1 + static_cast<int>(rng.NextBounded(7)),
                     lo.y + 1 + static_cast<int>(rng.NextBounded(7)),
                     lo.z + 1 + static_cast<int>(rng.NextBounded(7))};
  region::Region reg = region::Region::FromBox(
      grid, curve::CurveKind::kHilbert, geometry::Box3i{lo, hi});
  std::vector<uint8_t> values(reg.VoxelCount());
  for (auto& v : values) v = static_cast<uint8_t>(rng.NextBounded(256));
  return volume::DataRegion(std::move(reg), std::move(values));
}

TEST(CodecTest, HelloRoundTrip) {
  HelloRequest hello;
  hello.tenant = "radiology";
  hello.secret = "s3cret";
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tenant, "radiology");
  EXPECT_EQ(decoded->secret, "s3cret");
}

TEST(CodecTest, WelcomeRoundTrip) {
  WelcomeReply welcome;
  welcome.session_token = 0xFEEDFACE12345678ull;
  welcome.session_ttl_seconds = 300.5;
  auto decoded = DecodeWelcome(EncodeWelcome(welcome));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->session_token, welcome.session_token);
  EXPECT_EQ(decoded->session_ttl_seconds, welcome.session_ttl_seconds);
}

TEST(CodecTest, QueryRoundTripAllFields) {
  QueryRequest query;
  query.spec.study_id = 17;
  query.spec.atlas_name = "talairach";
  query.spec.structure_name = "left_hippocampus";
  query.spec.box = geometry::Box3i{geometry::Vec3i{1, 2, 3},
                                   geometry::Vec3i{10, 11, 12}};
  query.spec.intensity_range = {40, 200};
  query.spec.use_band_index = true;
  query.spec.allow_cached = true;  // MedicalServer's hint; not sent
  query.deadline_seconds = 2.5;
  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->spec.Describe(), query.spec.Describe());
  EXPECT_EQ(decoded->spec.use_band_index, true);
  EXPECT_EQ(decoded->spec.allow_cached, false);
  EXPECT_EQ(decoded->deadline_seconds, 2.5);
}

// The server's read ceiling is the largest query EncodeQuery can make
// from names the decoder accepts; a hello with two such names is below
// it.
TEST(CodecTest, RequestCeilingIsTheLargestQuery) {
  QueryRequest query;
  query.spec.atlas_name = std::string(kMaxNameBytes, 'a');
  query.spec.structure_name = std::string(kMaxNameBytes, 's');
  query.spec.box = geometry::Box3i{{0, 0, 0}, {1, 1, 1}};
  query.spec.intensity_range = {0, 255};
  std::vector<uint8_t> payload = EncodeQuery(query);
  EXPECT_EQ(payload.size(), kMaxRequestPayload);
  EXPECT_EQ(payload.size(), 8248u);
  EXPECT_TRUE(DecodeQuery(payload).ok());

  HelloRequest hello;
  hello.tenant = std::string(kMaxNameBytes, 't');
  hello.secret = std::string(kMaxNameBytes, 's');
  EXPECT_EQ(EncodeHello(hello).size(), 8200u);
  EXPECT_LE(EncodeHello(hello).size(), kMaxRequestPayload);

  // A name one byte over the cap is refused.
  query.spec.structure_name = std::string(kMaxNameBytes + 1, 's');
  EXPECT_TRUE(DecodeQuery(EncodeQuery(query)).status().IsCorruption());
}

TEST(CodecTest, QueryRoundTripOptionalFieldsAbsent) {
  QueryRequest query;
  query.spec.study_id = 3;
  query.spec.atlas_name = "atlas";
  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->spec.structure_name.has_value());
  EXPECT_FALSE(decoded->spec.box.has_value());
  EXPECT_FALSE(decoded->spec.intensity_range.has_value());
}

TEST(CodecTest, ErrorRoundTrip) {
  ErrorReply error;
  error.code = StatusCode::kResourceExhausted;
  error.reason = ErrorReason::kQuotaRejected;
  error.message = "tenant quota";
  auto decoded_err = DecodeError(EncodeError(error));
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_EQ(decoded_err->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded_err->reason, ErrorReason::kQuotaRejected);
  EXPECT_EQ(decoded_err->message, "tenant quota");
}

TEST(CodecTest, AnswerPayloadRoundTripPreservesRegionAndValues) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
    volume::DataRegion data = MakeTestRegion(seed);
    auto payload = EncodeAnswerPayload(data);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto back = DecodeAnswerPayload(*payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->values(), data.values());
    EXPECT_EQ(back->VoxelCount(), data.VoxelCount());
    EXPECT_EQ(back->region().runs(), data.region().runs());
  }
}

TEST(CodecTest, AnswerPayloadEmptyRegion) {
  region::GridSpec grid{3, 4};
  volume::DataRegion empty(
      region::Region(grid, curve::CurveKind::kHilbert), {});
  auto payload = EncodeAnswerPayload(empty);
  ASSERT_TRUE(payload.ok());
  auto back = DecodeAnswerPayload(*payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->VoxelCount(), 0u);
}

TEST(CodecTest, AnswerPayloadRoundTripsUnderEveryEncoding) {
  volume::DataRegion data = MakeTestRegion(5);
  for (region::RegionEncoding enc :
       {region::RegionEncoding::kNaiveRuns,
        region::RegionEncoding::kEliasDeltas,
        region::RegionEncoding::kOctants,
        region::RegionEncoding::kOblongOctants}) {
    auto payload = EncodeAnswerPayload(data, enc);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto back = DecodeAnswerPayload(*payload);
    ASSERT_TRUE(back.ok()) << region::RegionEncodingToString(enc) << ": "
                           << back.status().ToString();
    EXPECT_EQ(back->region().runs(), data.region().runs());
    EXPECT_EQ(back->values(), data.values());
  }
}

TEST(CodecTest, AnswerPayloadRejectsUnknownEncodingTag) {
  auto payload = EncodeAnswerPayload(MakeTestRegion(5));
  ASSERT_TRUE(payload.ok());
  (*payload)[3] = 0xEE;  // encoding tag byte
  auto back = DecodeAnswerPayload(*payload);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(CodecTest, AnswerPayloadShipsCachedEncodedRegionVerbatim) {
  volume::DataRegion data = MakeTestRegion(6);
  auto reference = EncodeAnswerPayload(data);
  ASSERT_TRUE(reference.ok());
  // Attach the elias payload (as an encoded-domain chain would) — the
  // shipped bytes must be identical to the re-encoding path.
  auto elias = region::EncodeRegion(data.region(),
                                    region::RegionEncoding::kEliasDeltas);
  ASSERT_TRUE(elias.ok());
  data.set_encoded_region(*elias);
  auto cached = EncodeAnswerPayload(data);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *reference);
}

TEST(CodecTest, AnswerPayloadRejectsTrailingBytes) {
  auto payload = EncodeAnswerPayload(MakeTestRegion(9));
  ASSERT_TRUE(payload.ok());
  payload->push_back(0x00);
  auto back = DecodeAnswerPayload(*payload);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

// --- Adversarial inputs -------------------------------------------------

// Every truncation of a valid answer payload must fail cleanly (the
// value bytes are a pure suffix, so no strict prefix can decode).
TEST(CodecAdversarialTest, TruncatedAnswerPayloadNeverDecodes) {
  auto payload = EncodeAnswerPayload(MakeTestRegion(7));
  ASSERT_TRUE(payload.ok());
  for (size_t n = 0; n < payload->size(); ++n) {
    std::vector<uint8_t> cut(payload->begin(),
                             payload->begin() + static_cast<ptrdiff_t>(n));
    auto back = DecodeAnswerPayload(cut);
    EXPECT_FALSE(back.ok()) << "decoded a " << n << "-byte prefix of "
                            << payload->size();
  }
}

// Seeded fuzz sweep over all frame-level attacks the reader must
// survive: truncation, bit flips anywhere (header or payload), and
// lying length prefixes. The reader may accept a mutation only if it
// left the frame semantically intact.
TEST(CodecAdversarialTest, FuzzedFramesNeverCrashTheReader) {
  Rng rng(20260808);
  HelloRequest hello;
  hello.tenant = "t";
  hello.secret = "s";
  QueryRequest query;
  query.spec.study_id = 1;
  query.spec.atlas_name = "atlas";
  std::vector<std::vector<uint8_t>> frames = {
      EncodeFrame(MessageType::kHello, 0, 1, EncodeHello(hello)),
      EncodeFrame(MessageType::kQuery, 99, 2, EncodeQuery(query)),
      EncodeFrame(MessageType::kPing, 99, 3, {}),
  };
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::vector<uint8_t> wire = frames[rng.NextBounded(frames.size())];
    switch (rng.NextBounded(3)) {
      case 0:  // truncate
        wire.resize(rng.NextBounded(wire.size() + 1));
        break;
      case 1:  // flip a random bit
        if (!wire.empty()) {
          wire[rng.NextBounded(wire.size())] ^=
              static_cast<uint8_t>(1u << rng.NextBounded(8));
        }
        break;
      default: {  // lying length prefix
        if (wire.size() >= kHeaderBytes) {
          uint32_t lie = static_cast<uint32_t>(rng.Next());
          std::memcpy(wire.data() + 28, &lie, sizeof(lie));
        }
        break;
      }
    }
    if (wire.size() < kHeaderBytes) {
      EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok());
      ++rejected;
      continue;
    }
    auto header = DecodeFrameHeader(wire.data(), wire.size());
    if (!header.ok()) {
      ++rejected;
      continue;
    }
    // Header parsed: the payload may still be short, corrupt, or
    // semantically broken. None of it may crash or accept bad bytes.
    std::vector<uint8_t> payload(
        wire.begin() + kHeaderBytes,
        wire.begin() + kHeaderBytes +
            static_cast<ptrdiff_t>(
                std::min<size_t>(wire.size() - kHeaderBytes,
                                 header->payload_bytes)));
    if (payload.size() != header->payload_bytes ||
        !VerifyPayload(*header, payload).ok()) {
      ++rejected;
      continue;
    }
    switch (header->type) {
      case MessageType::kHello: {
        auto decoded = DecodeHello(payload);
        if (decoded.ok()) ++accepted; else ++rejected;
        break;
      }
      case MessageType::kQuery: {
        auto decoded = DecodeQuery(payload);
        if (decoded.ok()) ++accepted; else ++rejected;
        break;
      }
      default:
        ++accepted;  // empty-payload types; nothing further to decode
        break;
    }
  }
  // Sanity on the sweep itself: mutations overwhelmingly get caught
  // (CRC + bounds checks), while some survivors (e.g. payload bit flip
  // repaired by... nothing — only no-op truncations at full length or
  // flips the CRC catches) still flow through.
  EXPECT_GT(rejected, 3000);
  EXPECT_GE(accepted, 0);
}

// Random byte soup thrown straight at every payload decoder.
TEST(CodecAdversarialTest, RandomPayloadsNeverCrashDecoders) {
  Rng rng(424242);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> junk(rng.NextBounded(256));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextBounded(256));
    (void)DecodeHello(junk);
    (void)DecodeWelcome(junk);
    (void)DecodeQuery(junk);
    (void)DecodeError(junk);
    (void)DecodeAnswerPayload(junk);
  }
}

}  // namespace
}  // namespace qbism::server
