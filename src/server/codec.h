#ifndef QBISM_SERVER_CODEC_H_
#define QBISM_SERVER_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "qbism/query_pipeline.h"
#include "region/encoding.h"
#include "server/protocol.h"
#include "volume/volume.h"

namespace qbism::server {

/// Message codec: the payload formats carried inside protocol frames.
/// Every Decode* goes through the bounds-checked ByteReader
/// (common/bytes.h), so a malformed payload yields a clean Corruption
/// status, never a read past the buffer. docs/NETWORK.md documents each
/// layout.

/// Longest tenant, secret, atlas or structure name a decoder accepts.
inline constexpr uint32_t kMaxNameBytes = 4096;

/// The largest request payload: a kQuery whose atlas and structure
/// names are both kMaxNameBytes long, with a box and an intensity range
/// (EncodeQuery's layout). A kHello, two names, is smaller; kPing and
/// kBye are empty. The server reads every frame under this ceiling, so
/// a peer cannot make it reserve more before it authenticates.
inline constexpr uint32_t kMaxRequestPayload =
    4 +                          // study id
    2 * (4 + kMaxNameBytes) +    // atlas and structure names
    3 +                          // structure, box and range presence
    6 * 4 + 2 * 4 +              // box corners, intensity range
    1 + 8;                       // band-index flag, deadline

/// kHello payload.
struct HelloRequest {
  std::string tenant;
  std::string secret;
};

/// kWelcome payload.
struct WelcomeReply {
  uint64_t session_token = 0;
  double session_ttl_seconds = 0.0;
};

/// kQuery payload: the QuerySpec's result-affecting fields plus the
/// request's deadline. QuerySpec::allow_cached, a hint for
/// MedicalServer's DX cache, does not travel.
struct QueryRequest {
  qbism::QuerySpec spec;
  double deadline_seconds = 0.0;
};

/// kError payload.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  ErrorReason reason = ErrorReason::kNone;
  std::string message;
};

std::vector<uint8_t> EncodeHello(const HelloRequest& hello);
Result<HelloRequest> DecodeHello(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeWelcome(const WelcomeReply& welcome);
Result<WelcomeReply> DecodeWelcome(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeQuery(const QueryRequest& query);
Result<QueryRequest> DecodeQuery(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeError(const ErrorReply& error);
Result<ErrorReply> DecodeError(const std::vector<uint8_t>& payload);

/// Serializes a DataRegion answer: the answer prefix (EncodeAnswerPrefix)
/// followed by the voxel intensities, data.values(), verbatim. This is
/// the kResult frame's payload; its size is the canonical "bytes
/// shipped" for the query. The server sends the same bytes without
/// building this buffer: the prefix, then data.values() in place.
Result<std::vector<uint8_t>> EncodeAnswerPayload(
    const volume::DataRegion& data,
    region::RegionEncoding encoding = region::RegionEncoding::kEliasDeltas);

/// The answer payload up to the voxels: grid + curve, the REGION in the
/// server's configured encoding (tagged in the payload; the default,
/// Elias-gamma deltas, is §4.2's most compact scheme, the same bytes
/// the paper would ship), and the value count. When the DataRegion
/// carries a cached elias payload (an encoded-domain chain ending at
/// extraction) and elias is the requested encoding, those bytes are
/// shipped verbatim — no re-encode.
Result<std::vector<uint8_t>> EncodeAnswerPrefix(
    const volume::DataRegion& data,
    region::RegionEncoding encoding = region::RegionEncoding::kEliasDeltas);

/// An answer payload opens with a fixed head: grid dims and bits, the
/// curve kind and the region-encoding tag (one byte each), then the u32
/// length of the REGION bytes that follow. The u64 value count and the
/// voxels come after the REGION.
inline constexpr size_t kAnswerHeadBytes = 8;

/// An answer payload split at its fields, each in its own buffer. The
/// value count between the REGION and the voxels is values.size().
struct AnswerPieces {
  std::vector<uint8_t> head;
  std::vector<uint8_t> region_bytes;
  std::vector<uint8_t> values;
};

/// Makes `*out`, which is empty, exactly the payload's next `size`
/// bytes.
using AnswerReader =
    std::function<Status(std::vector<uint8_t>* out, size_t size)>;

/// Reads an answer payload of `payload_bytes` bytes through `read`, in
/// order: the head, the REGION bytes, the value count, then the voxels
/// straight into the buffer the answer keeps. Each length is checked
/// against what is left of the payload before anything is allocated,
/// so a lying one is Corruption; nothing else is interpreted. The
/// client reads a kResult payload off its socket this way.
Result<AnswerPieces> ReadAnswerPieces(uint64_t payload_bytes,
                                      const AnswerReader& read);

/// The one answer decoder, run once the payload's CRC has been
/// checked: validates the head, decodes the REGION bytes, checks that
/// the region holds exactly values.size() voxels, and adopts the voxel
/// buffer as the DataRegion's without copying it.
Result<volume::DataRegion> DecodeAnswer(AnswerPieces pieces);

/// Inverse of EncodeAnswerPayload over a whole kResult payload in
/// memory: ReadAnswerPieces over its bytes, then DecodeAnswer.
Result<volume::DataRegion> DecodeAnswerPayload(
    const std::vector<uint8_t>& payload);

}  // namespace qbism::server

#endif  // QBISM_SERVER_CODEC_H_
