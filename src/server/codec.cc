#include "server/codec.h"

#include "common/bytes.h"
#include "common/macros.h"
#include "region/encoding.h"

namespace qbism::server {

namespace {

/// Cap on an error message decoded from the wire, enforced before any
/// allocation, so a lying length cannot balloon memory. Names are
/// capped by kMaxNameBytes; an answer's REGION and voxel lengths are
/// bounded by the payload that holds them.
constexpr uint32_t kMaxMessageBytes = 1u << 20;

}  // namespace

std::vector<uint8_t> EncodeHello(const HelloRequest& hello) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutString(hello.tenant);
  w.PutString(hello.secret);
  return out;
}

Result<HelloRequest> DecodeHello(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  HelloRequest out;
  QBISM_ASSIGN_OR_RETURN(out.tenant, r.GetString(kMaxNameBytes));
  QBISM_ASSIGN_OR_RETURN(out.secret, r.GetString(kMaxNameBytes));
  return out;
}

std::vector<uint8_t> EncodeWelcome(const WelcomeReply& welcome) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutU64(welcome.session_token);
  w.PutF64(welcome.session_ttl_seconds);
  return out;
}

Result<WelcomeReply> DecodeWelcome(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  WelcomeReply out;
  QBISM_ASSIGN_OR_RETURN(out.session_token, r.GetU64());
  QBISM_ASSIGN_OR_RETURN(out.session_ttl_seconds, r.GetF64());
  return out;
}

std::vector<uint8_t> EncodeQuery(const QueryRequest& query) {
  const qbism::QuerySpec& spec = query.spec;
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutI32(spec.study_id);
  w.PutString(spec.atlas_name);
  w.PutU8(spec.structure_name.has_value() ? 1 : 0);
  if (spec.structure_name) w.PutString(*spec.structure_name);
  w.PutU8(spec.box.has_value() ? 1 : 0);
  if (spec.box) {
    w.PutI32(spec.box->min.x);
    w.PutI32(spec.box->min.y);
    w.PutI32(spec.box->min.z);
    w.PutI32(spec.box->max.x);
    w.PutI32(spec.box->max.y);
    w.PutI32(spec.box->max.z);
  }
  w.PutU8(spec.intensity_range.has_value() ? 1 : 0);
  if (spec.intensity_range) {
    w.PutI32(spec.intensity_range->first);
    w.PutI32(spec.intensity_range->second);
  }
  w.PutU8(spec.use_band_index ? 1 : 0);
  w.PutF64(query.deadline_seconds);
  return out;
}

Result<QueryRequest> DecodeQuery(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  QueryRequest out;
  qbism::QuerySpec& spec = out.spec;
  QBISM_ASSIGN_OR_RETURN(spec.study_id, r.GetI32());
  QBISM_ASSIGN_OR_RETURN(spec.atlas_name, r.GetString(kMaxNameBytes));
  QBISM_ASSIGN_OR_RETURN(uint8_t has_structure, r.GetU8());
  if (has_structure) {
    QBISM_ASSIGN_OR_RETURN(std::string name, r.GetString(kMaxNameBytes));
    spec.structure_name = std::move(name);
  }
  QBISM_ASSIGN_OR_RETURN(uint8_t has_box, r.GetU8());
  if (has_box) {
    geometry::Box3i box;
    QBISM_ASSIGN_OR_RETURN(box.min.x, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(box.min.y, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(box.min.z, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(box.max.x, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(box.max.y, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(box.max.z, r.GetI32());
    spec.box = box;
  }
  QBISM_ASSIGN_OR_RETURN(uint8_t has_range, r.GetU8());
  if (has_range) {
    int32_t lo, hi;
    QBISM_ASSIGN_OR_RETURN(lo, r.GetI32());
    QBISM_ASSIGN_OR_RETURN(hi, r.GetI32());
    spec.intensity_range = std::make_pair(lo, hi);
  }
  QBISM_ASSIGN_OR_RETURN(uint8_t band_index, r.GetU8());
  spec.use_band_index = band_index != 0;
  QBISM_ASSIGN_OR_RETURN(out.deadline_seconds, r.GetF64());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after query payload");
  }
  return out;
}

std::vector<uint8_t> EncodeError(const ErrorReply& error) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(error.code));
  w.PutU16(static_cast<uint16_t>(error.reason));
  w.PutString(error.message);
  return out;
}

Result<ErrorReply> DecodeError(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  ErrorReply out;
  QBISM_ASSIGN_OR_RETURN(uint32_t code, r.GetU32());
  if (code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  out.code = static_cast<StatusCode>(code);
  QBISM_ASSIGN_OR_RETURN(uint16_t reason, r.GetU16());
  if (reason > static_cast<uint16_t>(ErrorReason::kQueryFailed)) {
    return Status::Corruption("unknown error reason " +
                              std::to_string(reason));
  }
  out.reason = static_cast<ErrorReason>(reason);
  QBISM_ASSIGN_OR_RETURN(out.message, r.GetString(kMaxMessageBytes));
  return out;
}

namespace {

/// The answer prefix in a buffer reserved for it plus `tail` more
/// bytes, so a caller appending the voxels allocates once.
Result<std::vector<uint8_t>> AnswerPrefix(const volume::DataRegion& data,
                                          region::RegionEncoding encoding,
                                          size_t tail) {
  const region::Region& reg = data.region();
  // A region that already exists in elias form (an encoded-domain set-op
  // chain ended here) ships those bytes instead of being re-encoded.
  const std::vector<uint8_t>* region_bytes = &data.encoded_region();
  std::vector<uint8_t> encoded;
  if (encoding != region::RegionEncoding::kEliasDeltas ||
      region_bytes->empty()) {
    QBISM_ASSIGN_OR_RETURN(encoded, region::EncodeRegion(reg, encoding));
    region_bytes = &encoded;
  }
  std::vector<uint8_t> out;
  out.reserve(kAnswerHeadBytes + region_bytes->size() + 8 + tail);
  ByteWriter w(&out);
  w.PutU8(static_cast<uint8_t>(reg.grid().dims));
  w.PutU8(static_cast<uint8_t>(reg.grid().bits));
  w.PutU8(static_cast<uint8_t>(reg.curve_kind()));
  w.PutU8(static_cast<uint8_t>(encoding));  // region encoding tag
  w.PutU32(static_cast<uint32_t>(region_bytes->size()));
  w.PutBytes(region_bytes->data(), region_bytes->size());
  w.PutU64(data.values().size());
  return out;
}

}  // namespace

Result<std::vector<uint8_t>> EncodeAnswerPayload(
    const volume::DataRegion& data, region::RegionEncoding encoding) {
  const std::vector<uint8_t>& values = data.values();
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> out,
                         AnswerPrefix(data, encoding, values.size()));
  ByteWriter(&out).PutBytes(values.data(), values.size());
  return out;
}

Result<std::vector<uint8_t>> EncodeAnswerPrefix(
    const volume::DataRegion& data, region::RegionEncoding encoding) {
  return AnswerPrefix(data, encoding, 0);
}

Result<AnswerPieces> ReadAnswerPieces(uint64_t payload_bytes,
                                      const AnswerReader& read) {
  constexpr uint64_t kCountBytes = 8;
  if (payload_bytes < kAnswerHeadBytes + kCountBytes) {
    return Status::Corruption("answer payload of " +
                              std::to_string(payload_bytes) +
                              " bytes is shorter than its fixed fields");
  }
  AnswerPieces pieces;
  QBISM_RETURN_NOT_OK(read(&pieces.head, kAnswerHeadBytes));
  uint64_t left = payload_bytes - kAnswerHeadBytes - kCountBytes;
  const uint32_t region_size = LoadLE32(pieces.head.data() + 4);
  if (region_size > left) {
    return Status::Corruption("answer region length " +
                              std::to_string(region_size) + " overruns the " +
                              std::to_string(payload_bytes) + "-byte payload");
  }
  left -= region_size;
  QBISM_RETURN_NOT_OK(read(&pieces.region_bytes, region_size));
  std::vector<uint8_t> count;
  QBISM_RETURN_NOT_OK(read(&count, kCountBytes));
  const uint64_t value_count = LoadLE64(count.data());
  if (value_count != left) {
    return Status::Corruption("answer value count " +
                              std::to_string(value_count) + " but " +
                              std::to_string(left) +
                              " bytes left in the payload");
  }
  QBISM_RETURN_NOT_OK(read(&pieces.values, static_cast<size_t>(value_count)));
  return pieces;
}

Result<volume::DataRegion> DecodeAnswer(AnswerPieces pieces) {
  if (pieces.head.size() != kAnswerHeadBytes) {
    return Status::Corruption("answer head is not 8 bytes");
  }
  const std::vector<uint8_t>& head = pieces.head;
  region::GridSpec grid;
  grid.dims = head[0];
  grid.bits = head[1];
  if (grid.dims < 2 || grid.dims > 3 || grid.bits < 1 || grid.bits > 20 ||
      grid.dims * grid.bits > 62) {
    return Status::Corruption("implausible answer grid spec");
  }
  if (head[2] > static_cast<uint8_t>(curve::CurveKind::kZ)) {
    return Status::Corruption("unknown curve kind in answer");
  }
  const auto kind = static_cast<curve::CurveKind>(head[2]);
  if (head[3] > static_cast<uint8_t>(region::RegionEncoding::kOblongOctants)) {
    return Status::Corruption("unknown region encoding in answer");
  }
  const auto encoding = static_cast<region::RegionEncoding>(head[3]);
  QBISM_ASSIGN_OR_RETURN(
      region::Region reg,
      region::DecodeRegion(grid, kind, encoding, pieces.region_bytes));
  if (pieces.values.size() != reg.VoxelCount()) {
    return Status::Corruption("answer value count does not match region");
  }
  return volume::DataRegion(std::move(reg), std::move(pieces.values));
}

Result<volume::DataRegion> DecodeAnswerPayload(
    const std::vector<uint8_t>& payload) {
  // ReadAnswerPieces asks for no byte past the payload's end.
  const uint8_t* next = payload.data();
  QBISM_ASSIGN_OR_RETURN(
      AnswerPieces pieces,
      ReadAnswerPieces(payload.size(),
                       [&](std::vector<uint8_t>* out, size_t size) {
                         out->assign(next, next + size);
                         next += size;
                         return Status::OK();
                       }));
  return DecodeAnswer(std::move(pieces));
}

}  // namespace qbism::server
