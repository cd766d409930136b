#include "qbism/spatial_extension.h"

#include <cctype>
#include <cmath>
#include <map>
#include <optional>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/trace.h"
#include "region/stats.h"
#include "sql/schema.h"

namespace qbism {

using region::EncodedRegion;
using region::Region;
using region::RegionEncoding;
using sql::UdfContext;
using sql::Value;
using storage::ByteRange;
using storage::LongFieldId;
using volume::DataRegion;
using volume::Volume;

namespace {

SpatialExtension* Ext(UdfContext& ctx) {
  QBISM_CHECK(ctx.extension_state != nullptr);
  return static_cast<SpatialExtension*>(ctx.extension_state);
}

Status CheckArity(const std::vector<Value>& args, size_t n,
                  std::string_view name) {
  if (args.size() != n) {
    return Status::InvalidArgument(std::string(name) + " expects " +
                                   std::to_string(n) + " argument(s)");
  }
  return Status::OK();
}

Value RegionValue(Region r) {
  return Value::Object(std::make_shared<Region>(std::move(r)),
                       std::string(sql::kRegionTypeName));
}

Value DataRegionValue(DataRegion dr) {
  return Value::Object(std::make_shared<DataRegion>(std::move(dr)),
                       std::string(sql::kDataRegionTypeName));
}

Value EncodedRegionValue(EncodedRegion r) {
  return Value::Object(std::make_shared<EncodedRegion>(std::move(r)),
                       std::string(sql::kEncodedRegionTypeName));
}

/// A stored REGION is one RegionEncoding tag byte, then the encoded
/// payload (a stored DATA_REGION embeds one). FrameRegion is the one
/// writer of that framing and ParseStoredRegion its one reader.
std::vector<uint8_t> FrameRegion(RegionEncoding encoding,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  bytes.reserve(payload.size() + 1);
  bytes.push_back(static_cast<uint8_t>(encoding));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

struct StoredRegion {
  RegionEncoding encoding = RegionEncoding::kNaiveRuns;
  std::vector<uint8_t> payload;
};

/// Strips a stored REGION's tag byte in place (the payload keeps the
/// buffer `framed` was read into).
Result<StoredRegion> ParseStoredRegion(Result<std::vector<uint8_t>> framed) {
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, std::move(framed));
  if (bytes.empty()) {
    return Status::Corruption("stored region is empty");
  }
  StoredRegion out;
  out.encoding = static_cast<RegionEncoding>(bytes[0]);
  bytes.erase(bytes.begin());
  out.payload = std::move(bytes);
  return out;
}

/// Chunk size for whole-volume streaming scans: 64 pages keeps the
/// working set at 256 KB while leaving sequential transfers long enough
/// that the per-chunk seek charge is noise.
constexpr uint64_t kScanChunkBytes = 64 * storage::kPageSize;

/// Shared body of intersection/regionunion/regiondifference: when both
/// operands resolve encoded (and the plan has not asked for the
/// decode-and-extract strategy via ctx.prefer_encoded_regions), merge
/// the γ-coded streams and hand the result on still encoded; otherwise
/// materialize and use the run-list operators.
Result<Value> RegionSetOpUdf(UdfContext& ctx, const std::vector<Value>& args,
                             std::string_view name, region::SetOpKind op) {
  QBISM_RETURN_NOT_OK(CheckArity(args, 2, name));
  SpatialExtension* ext = Ext(ctx);
  QBISM_ASSIGN_OR_RETURN(auto o1, ext->RegionOperandArg(args[0]));
  QBISM_ASSIGN_OR_RETURN(auto o2, ext->RegionOperandArg(args[1]));
  if (o1.encoded && o2.encoded && ctx.prefer_encoded_regions) {
    Result<EncodedRegion> out = [&]() -> Result<EncodedRegion> {
      switch (op) {
        case region::SetOpKind::kIntersect:
          return o1.encoded->IntersectWith(*o2.encoded);
        case region::SetOpKind::kUnion:
          return o1.encoded->UnionWith(*o2.encoded);
        case region::SetOpKind::kDifference:
          return o1.encoded->DifferenceWith(*o2.encoded);
      }
      return Status::InvalidArgument("unknown set operation");
    }();
    QBISM_RETURN_NOT_OK(out.status());
    return EncodedRegionValue(std::move(*out));
  }
  QBISM_ASSIGN_OR_RETURN(auto r1, ext->MaterializeOperand(o1));
  QBISM_ASSIGN_OR_RETURN(auto r2, ext->MaterializeOperand(o2));
  Result<Region> out = [&]() -> Result<Region> {
    switch (op) {
      case region::SetOpKind::kIntersect:
        return r1->IntersectWith(*r2);
      case region::SetOpKind::kUnion:
        return r1->UnionWith(*r2);
      case region::SetOpKind::kDifference:
        return r1->DifferenceWith(*r2);
    }
    return Status::InvalidArgument("unknown set operation");
  }();
  QBISM_RETURN_NOT_OK(out.status());
  return RegionValue(std::move(*out));
}

}  // namespace

std::vector<ByteRange> RunByteRanges(const Region& r) {
  // One byte per voxel, laid out in curve order: each run is one byte
  // range, and the LFM touches only the pages those ranges cover.
  std::vector<ByteRange> ranges;
  ranges.reserve(r.RunCount());
  for (const region::Run& run : r.runs()) {
    ranges.push_back(ByteRange{run.start, run.Length()});
  }
  return ranges;
}

Result<std::unique_ptr<SpatialExtension>> SpatialExtension::Install(
    sql::Database* db, SpatialConfig config) {
  std::unique_ptr<SpatialExtension> ext(new SpatialExtension(db, config));
  ext->extractor_ = std::make_unique<ParallelExtractor>(db->lfm());
  QBISM_RETURN_NOT_OK(ext->RegisterUdfs());
  db->set_extension_state(ext.get());
  db->set_udf_cost_hook(CostHook());
  return ext;
}

Result<LongFieldId> SpatialExtension::StoreRegion(const Region& r) const {
  return StoreRegionAs(r, config_.region_encoding);
}

Result<LongFieldId> SpatialExtension::StoreRegionAs(
    const Region& r, RegionEncoding encoding) const {
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         region::EncodeRegion(r, encoding));
  return db_->lfm()->Create(FrameRegion(encoding, payload));
}

Result<Region> SpatialExtension::LoadRegion(LongFieldId id) const {
  QBISM_ASSIGN_OR_RETURN(StoredRegion stored,
                         ParseStoredRegion(db_->lfm()->Read(id)));
  obs::Span decode(obs::Stage::kDecode);
  decode.AddBytes(stored.payload.size());
  return region::DecodeRegion(config_.grid, config_.curve, stored.encoding,
                              stored.payload);
}

Result<LongFieldId> SpatialExtension::StoreDataRegion(
    const DataRegion& dr) const {
  if (!(dr.region().grid() == config_.grid) ||
      dr.region().curve_kind() != config_.curve) {
    return Status::InvalidArgument(
        "StoreDataRegion: grid/curve differs from extension config");
  }
  QBISM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> region_payload,
      region::EncodeRegion(dr.region(), config_.region_encoding));
  std::vector<uint8_t> region = FrameRegion(config_.region_encoding,
                                            region_payload);
  std::vector<uint8_t> bytes;
  bytes.reserve(4 + region.size() + dr.values().size());
  ByteWriter w(&bytes);
  w.PutU32(static_cast<uint32_t>(region.size()));
  w.PutBytes(region.data(), region.size());
  w.PutBytes(dr.values().data(), dr.values().size());
  return db_->lfm()->Create(bytes);
}

Result<DataRegion> SpatialExtension::LoadDataRegion(LongFieldId id) const {
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, db_->lfm()->Read(id));
  obs::Span decode(obs::Stage::kDecode);
  decode.AddBytes(bytes.size());
  ByteReader in(bytes);
  QBISM_ASSIGN_OR_RETURN(uint32_t len, in.GetU32());
  QBISM_ASSIGN_OR_RETURN(StoredRegion stored,
                         ParseStoredRegion(in.GetRaw(len)));
  QBISM_ASSIGN_OR_RETURN(
      Region r, region::DecodeRegion(config_.grid, config_.curve,
                                     stored.encoding, stored.payload));
  if (in.remaining() != r.VoxelCount()) {
    return Status::Corruption("data-region value count mismatch");
  }
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> values,
                         in.GetRaw(in.remaining()));
  return DataRegion(std::move(r), std::move(values));
}

Result<LongFieldId> SpatialExtension::StoreVolume(const Volume& v) const {
  if (!(v.grid() == config_.grid) || v.curve_kind() != config_.curve) {
    return Status::InvalidArgument(
        "StoreVolume: volume grid/curve differs from extension config");
  }
  return db_->lfm()->Create(v.data());
}

Result<Volume> SpatialExtension::LoadVolume(LongFieldId id) const {
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, db_->lfm()->Read(id));
  return Volume::FromCurveOrderedData(config_.grid, config_.curve,
                                      std::move(bytes));
}

Result<DataRegion> SpatialExtension::ExtractFromLongField(
    LongFieldId volume_field, const Region& r) const {
  if (!(r.grid() == config_.grid) || r.curve_kind() != config_.curve) {
    return Status::InvalidArgument(
        "EXTRACT_DATA: region grid/curve differs from extension config");
  }
  QBISM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> values,
      extractor_->ExtractBytes(volume_field, RunByteRanges(r)));
  return DataRegion(r, std::move(values));
}

Status SpatialExtension::ScanVolume(
    LongFieldId volume_field, uint64_t chunk_bytes,
    const std::function<Status(uint64_t first_id, const uint8_t* values,
                               uint64_t count)>& fn) const {
  QBISM_ASSIGN_OR_RETURN(uint64_t size, db_->lfm()->Size(volume_field));
  if (size != config_.grid.NumCells()) {
    return Status::InvalidArgument(
        "ScanVolume: field size does not match the configured grid");
  }
  // Byte offsets are curve ids (one byte per voxel).
  return extractor_->ScanField(volume_field, chunk_bytes, fn);
}

Result<Region> SpatialExtension::BandRegionFromField(
    LongFieldId volume_field, uint8_t lo, uint8_t hi) const {
  region::RegionBuilder builder(config_.grid, config_.curve);
  // Track the open run across chunk boundaries so a band spanning two
  // chunks stays one run.
  uint64_t open_start = 0;
  bool open = false;
  QBISM_RETURN_NOT_OK(ScanVolume(
      volume_field, kScanChunkBytes,
      [&](uint64_t first_id, const uint8_t* values,
          uint64_t count) -> Status {
        for (uint64_t i = 0; i < count; ++i) {
          bool in_band = values[i] >= lo && values[i] <= hi;
          if (in_band && !open) {
            open = true;
            open_start = first_id + i;
          } else if (!in_band && open) {
            open = false;
            builder.AppendRun(open_start, first_id + i - 1);
          }
        }
        return Status::OK();
      }));
  if (open) builder.AppendRun(open_start, config_.grid.NumCells() - 1);
  return builder.Build();
}

Result<double> SpatialExtension::MeanIntensityFromField(
    LongFieldId volume_field) const {
  uint64_t sum = 0;
  uint64_t n = 0;
  QBISM_RETURN_NOT_OK(ScanVolume(
      volume_field, kScanChunkBytes,
      [&](uint64_t, const uint8_t* values, uint64_t count) -> Status {
        for (uint64_t i = 0; i < count; ++i) sum += values[i];
        n += count;
        return Status::OK();
      }));
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

Result<std::shared_ptr<const Region>> SpatialExtension::RegionArg(
    const Value& value) const {
  QBISM_ASSIGN_OR_RETURN(RegionOperand operand, RegionOperandArg(value));
  return MaterializeOperand(operand);
}

Result<SpatialExtension::RegionOperand> SpatialExtension::RegionOperandArg(
    const Value& value) const {
  RegionOperand out;
  if (value.kind() == Value::Kind::kObject) {
    if (value.object_type() == sql::kEncodedRegionTypeName) {
      QBISM_ASSIGN_OR_RETURN(
          out.encoded,
          value.AsObject<EncodedRegion>(sql::kEncodedRegionTypeName));
      return out;
    }
    QBISM_ASSIGN_OR_RETURN(out.decoded,
                           value.AsObject<Region>(sql::kRegionTypeName));
    return out;
  }
  QBISM_ASSIGN_OR_RETURN(LongFieldId id, value.AsLongField());
  QBISM_ASSIGN_OR_RETURN(StoredRegion stored,
                         ParseStoredRegion(db_->lfm()->Read(id)));
  if (stored.encoding == RegionEncoding::kEliasDeltas) {
    // Stored in the streamable form: stay encoded, no decode at all.
    out.encoded = std::make_shared<const EncodedRegion>(
        EncodedRegion::FromBytes(config_.grid, config_.curve,
                                 std::move(stored.payload)));
    return out;
  }
  obs::Span decode(obs::Stage::kDecode);
  decode.AddBytes(stored.payload.size());
  QBISM_ASSIGN_OR_RETURN(Region r,
                         region::DecodeRegion(config_.grid, config_.curve,
                                              stored.encoding, stored.payload));
  out.decoded = std::make_shared<const Region>(std::move(r));
  return out;
}

Result<std::shared_ptr<const Region>> SpatialExtension::MaterializeOperand(
    const RegionOperand& operand) const {
  if (operand.decoded) return operand.decoded;
  QBISM_CHECK(operand.encoded != nullptr);
  obs::Span decode(obs::Stage::kDecode);
  decode.AddBytes(operand.encoded->bytes().size());
  QBISM_ASSIGN_OR_RETURN(Region r, operand.encoded->Decode());
  return std::make_shared<const Region>(std::move(r));
}

Result<LongFieldId> SpatialExtension::StoreEncodedRegion(
    const EncodedRegion& r) const {
  return db_->lfm()->Create(
      FrameRegion(RegionEncoding::kEliasDeltas, r.bytes()));
}

Status SpatialExtension::RegisterUdfs() {
  sql::UdfRegistry* registry = db_->udfs();

  QBISM_RETURN_NOT_OK(registry->Register(
      "intersection",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        return RegionSetOpUdf(ctx, args, "intersection",
                              region::SetOpKind::kIntersect);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "regionunion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        return RegionSetOpUdf(ctx, args, "regionunion",
                              region::SetOpKind::kUnion);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "regiondifference",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        return RegionSetOpUdf(ctx, args, "regiondifference",
                              region::SetOpKind::kDifference);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "intersection_n",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        if (args.size() < 2) {
          return Status::InvalidArgument(
              "intersection_n expects at least 2 arguments");
        }
        SpatialExtension* ext = Ext(ctx);
        std::vector<SpatialExtension::RegionOperand> operands;
        operands.reserve(args.size());
        bool all_encoded = true;
        for (const Value& arg : args) {
          QBISM_ASSIGN_OR_RETURN(auto o, ext->RegionOperandArg(arg));
          all_encoded = all_encoded && o.encoded != nullptr;
          operands.push_back(std::move(o));
        }
        if (all_encoded && ctx.prefer_encoded_regions) {
          // One streaming pass over all n γ-coded operands: no
          // intermediate result is ever re-encoded or materialized.
          std::vector<const EncodedRegion*> regions;
          regions.reserve(operands.size());
          for (const auto& o : operands) regions.push_back(o.encoded.get());
          QBISM_ASSIGN_OR_RETURN(EncodedRegion out,
                                 EncodedRegion::IntersectAll(regions));
          return EncodedRegionValue(std::move(out));
        }
        QBISM_ASSIGN_OR_RETURN(auto acc, ext->MaterializeOperand(operands[0]));
        Region result = *acc;
        for (size_t i = 1; i < operands.size(); ++i) {
          QBISM_ASSIGN_OR_RETURN(auto r, ext->MaterializeOperand(operands[i]));
          QBISM_ASSIGN_OR_RETURN(result, result.IntersectWith(*r));
        }
        return RegionValue(std::move(result));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "contains",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 2, "contains"));
        QBISM_ASSIGN_OR_RETURN(auto o1, Ext(ctx)->RegionOperandArg(args[0]));
        QBISM_ASSIGN_OR_RETURN(auto o2, Ext(ctx)->RegionOperandArg(args[1]));
        if (o1.encoded && o2.encoded) {
          // Early-exit streaming CONTAINS: stops at the first b-run the
          // a-stream does not cover.
          QBISM_ASSIGN_OR_RETURN(bool contains,
                                 o1.encoded->Contains(*o2.encoded));
          return Value::Int(contains ? 1 : 0);
        }
        QBISM_ASSIGN_OR_RETURN(auto r1, Ext(ctx)->MaterializeOperand(o1));
        QBISM_ASSIGN_OR_RETURN(auto r2, Ext(ctx)->MaterializeOperand(o2));
        QBISM_ASSIGN_OR_RETURN(bool contains, r1->Contains(*r2));
        return Value::Int(contains ? 1 : 0);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "intersects",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 2, "intersects"));
        QBISM_ASSIGN_OR_RETURN(auto o1, Ext(ctx)->RegionOperandArg(args[0]));
        QBISM_ASSIGN_OR_RETURN(auto o2, Ext(ctx)->RegionOperandArg(args[1]));
        QBISM_ASSIGN_OR_RETURN(auto r1, Ext(ctx)->MaterializeOperand(o1));
        QBISM_ASSIGN_OR_RETURN(auto r2, Ext(ctx)->MaterializeOperand(o2));
        if (r1->grid() != r2->grid() ||
            r1->curve_kind() != r2->curve_kind()) {
          return Status::InvalidArgument(
              "intersects: operands on different grids or curves");
        }
        // Two-pointer run merge with early exit at the first overlap —
        // no intersection region is ever materialized. This is also the
        // exact re-check behind the cross-study spatial index's
        // candidate pruning (src/index), so its semantics must match
        // `voxelcount(intersection(r1, r2)) > 0` precisely.
        const auto& a = r1->runs();
        const auto& b = r2->runs();
        size_t i = 0, j = 0;
        bool overlap = false;
        while (i < a.size() && j < b.size()) {
          if (a[i].end < b[j].start) {
            ++i;
          } else if (b[j].end < a[i].start) {
            ++j;
          } else {
            overlap = true;
            break;
          }
        }
        return Value::Int(overlap ? 1 : 0);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "extractvoxels",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 2, "extractvoxels"));
        QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                               args[0].AsLongField());
        // Extraction is the materialization boundary: the run list is
        // needed to plan page reads. Keep the encoded payload on the
        // DATA_REGION so shipping it re-uses the bytes.
        QBISM_ASSIGN_OR_RETURN(auto o, Ext(ctx)->RegionOperandArg(args[1]));
        QBISM_ASSIGN_OR_RETURN(auto r, Ext(ctx)->MaterializeOperand(o));
        QBISM_ASSIGN_OR_RETURN(
            DataRegion dr, Ext(ctx)->ExtractFromLongField(volume_field, *r));
        if (o.encoded) dr.set_encoded_region(o.encoded->bytes());
        return DataRegionValue(std::move(dr));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "bandregion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 3, "bandregion"));
        QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                               args[0].AsLongField());
        QBISM_ASSIGN_OR_RETURN(int64_t lo, args[1].AsInt());
        QBISM_ASSIGN_OR_RETURN(int64_t hi, args[2].AsInt());
        if (lo < 0 || hi > 255 || lo > hi) {
          return Status::InvalidArgument("bandregion: bad intensity range");
        }
        // Chunked streaming scan: same pages as materializing the
        // VOLUME, but O(chunk) memory and interruptible mid-volume.
        QBISM_ASSIGN_OR_RETURN(
            Region band,
            Ext(ctx)->BandRegionFromField(volume_field,
                                          static_cast<uint8_t>(lo),
                                          static_cast<uint8_t>(hi)));
        return RegionValue(std::move(band));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "volumemean",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "volumemean"));
        QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                               args[0].AsLongField());
        QBISM_ASSIGN_OR_RETURN(double mean,
                               Ext(ctx)->MeanIntensityFromField(volume_field));
        return Value::Double(mean);
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "voxelcount",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "voxelcount"));
        QBISM_ASSIGN_OR_RETURN(auto o, Ext(ctx)->RegionOperandArg(args[0]));
        if (o.encoded) {
          // Sum of run lengths streamed off the γ-coded form.
          QBISM_ASSIGN_OR_RETURN(uint64_t n, o.encoded->VoxelCount());
          return Value::Int(static_cast<int64_t>(n));
        }
        return Value::Int(static_cast<int64_t>(o.decoded->VoxelCount()));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "runcount",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "runcount"));
        QBISM_ASSIGN_OR_RETURN(auto o, Ext(ctx)->RegionOperandArg(args[0]));
        if (o.encoded) {
          // O(1): the run count is the stream header.
          QBISM_ASSIGN_OR_RETURN(uint64_t n, o.encoded->RunCount());
          return Value::Int(static_cast<int64_t>(n));
        }
        return Value::Int(static_cast<int64_t>(o.decoded->RunCount()));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "fullregion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 0, "fullregion"));
        const SpatialConfig& config = Ext(ctx)->config();
        return RegionValue(Region::Full(config.grid, config.curve));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "boxregion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 6, "boxregion"));
        int64_t c[6];
        for (int i = 0; i < 6; ++i) {
          QBISM_ASSIGN_OR_RETURN(c[i], args[i].AsInt());
        }
        const SpatialConfig& config = Ext(ctx)->config();
        geometry::Box3i box{{static_cast<int32_t>(c[0]),
                             static_cast<int32_t>(c[1]),
                             static_cast<int32_t>(c[2])},
                            {static_cast<int32_t>(c[3]),
                             static_cast<int32_t>(c[4]),
                             static_cast<int32_t>(c[5])}};
        return RegionValue(Region::FromBox(config.grid, config.curve, box));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "mingapregion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 2, "mingapregion"));
        QBISM_ASSIGN_OR_RETURN(auto r, Ext(ctx)->RegionArg(args[0]));
        QBISM_ASSIGN_OR_RETURN(int64_t gap, args[1].AsInt());
        if (gap < 1) {
          return Status::InvalidArgument("mingapregion: gap must be >= 1");
        }
        return RegionValue(r->WithMinGap(static_cast<uint64_t>(gap)));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "minoctantregion",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 2, "minoctantregion"));
        QBISM_ASSIGN_OR_RETURN(auto r, Ext(ctx)->RegionArg(args[0]));
        QBISM_ASSIGN_OR_RETURN(int64_t g_log2, args[1].AsInt());
        if (g_log2 < 0 || g_log2 > 9) {
          return Status::InvalidArgument(
              "minoctantregion: g_log2 out of [0, 9]");
        }
        return RegionValue(r->WithMinOctant(static_cast<int>(g_log2)));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "octantcount",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "octantcount"));
        QBISM_ASSIGN_OR_RETURN(auto r, Ext(ctx)->RegionArg(args[0]));
        return Value::Int(static_cast<int64_t>(r->ToOctants().size()));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "oblongoctantcount",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "oblongoctantcount"));
        QBISM_ASSIGN_OR_RETURN(auto r, Ext(ctx)->RegionArg(args[0]));
        return Value::Int(static_cast<int64_t>(r->ToOblongOctants().size()));
      }));

  QBISM_RETURN_NOT_OK(registry->Register(
      "meanintensity",
      [](UdfContext& ctx, const std::vector<Value>& args) -> Result<Value> {
        (void)ctx;
        QBISM_RETURN_NOT_OK(CheckArity(args, 1, "meanintensity"));
        QBISM_ASSIGN_OR_RETURN(
            auto dr, args[0].AsObject<DataRegion>(sql::kDataRegionTypeName));
        return Value::Double(dr->MeanIntensity());
      }));

  return Status::OK();
}

/// --- Cost-based planner integration --------------------------------------

namespace {

namespace planner = sql::planner;

/// Cost-model constants for the spatial operators, in the planner's
/// units (1.0 ~ one value comparison). Streaming a γ-coded run through
/// a cursor is about one comparison's worth of bit twiddling; decoding
/// into a materialized run list costs the stream pass plus the list
/// build; the header charge covers the LFM payload fetch per operand.
constexpr double kRegionHeaderCost = 16.0;
constexpr double kRunStreamCost = 1.0;
constexpr double kRunMaterializeCost = 3.0;
/// Runs assumed for a region operand with no statistics.
constexpr double kDefaultRegionRuns = 512.0;
/// The seed naive encoding spends 8 bytes per run (start, length).
constexpr double kNaiveBytesPerRun = 8.0;

std::string LowerName(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return out;
}

bool IsSetOpUdfName(const std::string& lower) {
  return lower == "intersection" || lower == "regionunion" ||
         lower == "regiondifference" || lower == "intersection_n";
}

bool IsCountUdfName(const std::string& lower) {
  return lower == "voxelcount" || lower == "runcount";
}

const planner::RegionColumnStats* RegionStatsOf(
    const sql::Expr& arg, const planner::TableStats* stats) {
  if (stats == nullptr || arg.kind != sql::Expr::Kind::kColumnRef) {
    return nullptr;
  }
  auto it = stats->regions.find(arg.column);
  return it != stats->regions.end() ? &it->second : nullptr;
}

/// Estimated runs streamed when evaluating a region-valued expression:
/// column operands use their analyzed average, nested set ops are
/// bounded by the sum of their operands' runs.
double EstimatedRuns(const sql::Expr& arg, const planner::TableStats* stats) {
  if (const planner::RegionColumnStats* rs = RegionStatsOf(arg, stats)) {
    return std::max(1.0, rs->avg_runs());
  }
  if (arg.kind == sql::Expr::Kind::kFunctionCall &&
      IsSetOpUdfName(LowerName(arg.function))) {
    double total = 0.0;
    for (const sql::ExprPtr& a : arg.args) {
      total += EstimatedRuns(*a, stats);
    }
    return std::max(1.0, total);
  }
  return kDefaultRegionRuns;
}

/// Extraction-strategy vote for a spatial call: stay in the γ-coded
/// domain when the analyzed payloads are smaller than their naive
/// run-list form (the compression is paying for itself), or — lacking
/// byte statistics — when the fitted §4.2 power law is short-run
/// dominated (a > 1, where γ-coding of the many small deltas wins).
/// With no statistics at all the encoded chain is the default.
int PreferEncodedVote(const sql::Expr& call,
                      const planner::TableStats* stats) {
  double encoded_bytes = 0.0;
  double naive_bytes = 0.0;
  bool any = false;
  bool fit_short_runs = false;
  for (const sql::ExprPtr& arg : call.args) {
    if (const planner::RegionColumnStats* rs = RegionStatsOf(*arg, stats)) {
      any = true;
      encoded_bytes += rs->avg_bytes();
      naive_bytes += kNaiveBytesPerRun * rs->avg_runs();
      if (rs->fit.valid() && rs->fit.a > 1.0) fit_short_runs = true;
    }
  }
  if (!any) return 1;
  if (naive_bytes > 0.0) return encoded_bytes <= naive_bytes ? 1 : 0;
  return fit_short_runs ? 1 : 0;
}

bool IsComparisonOp(sql::Expr::BinOp op) {
  switch (op) {
    case sql::Expr::BinOp::kEq:
    case sql::Expr::BinOp::kNe:
    case sql::Expr::BinOp::kLt:
    case sql::Expr::BinOp::kLe:
    case sql::Expr::BinOp::kGt:
    case sql::Expr::BinOp::kGe:
      return true;
    default:
      return false;
  }
}

sql::Expr::BinOp MirrorCmpOp(sql::Expr::BinOp op) {
  switch (op) {
    case sql::Expr::BinOp::kLt:
      return sql::Expr::BinOp::kGt;
    case sql::Expr::BinOp::kLe:
      return sql::Expr::BinOp::kGe;
    case sql::Expr::BinOp::kGt:
      return sql::Expr::BinOp::kLt;
    case sql::Expr::BinOp::kGe:
      return sql::Expr::BinOp::kLe;
    default:
      return op;
  }
}

/// Estimate for `voxelcount(col) cmp N` / `runcount(col) cmp N` with
/// the call on the left (mirror before calling). Selectivity comes from
/// the analyzed log2 histogram of per-row counts.
std::optional<planner::ConjunctEstimate> EstimateCountComparison(
    const sql::Expr& call, sql::Expr::BinOp op, const sql::Expr& literal,
    const planner::TableStats* stats) {
  if (call.args.size() != 1) return std::nullopt;
  const sql::Value& v = literal.literal;
  if (v.kind() != sql::Value::Kind::kInt &&
      v.kind() != sql::Value::Kind::kDouble) {
    return std::nullopt;
  }
  double threshold = v.AsDouble().value();
  bool is_runs = LowerName(call.function) == "runcount";

  planner::ConjunctEstimate out;
  // runcount streams nothing (the count is the stream header);
  // voxelcount streams every run to sum the lengths.
  out.cost = kRegionHeaderCost + planner::CostParams::kCompare +
             (is_runs ? 0.0
                      : EstimatedRuns(*call.args[0], stats) * kRunStreamCost);
  out.prefer_encoded = 1;
  if (const planner::RegionColumnStats* rs =
          RegionStatsOf(*call.args[0], stats)) {
    double above = is_runs ? rs->RunCountSelectivityAbove(threshold)
                           : rs->VoxelCountSelectivityAbove(threshold);
    switch (op) {
      case sql::Expr::BinOp::kGt:
      case sql::Expr::BinOp::kGe:
        out.selectivity = above;
        break;
      case sql::Expr::BinOp::kLt:
      case sql::Expr::BinOp::kLe:
        out.selectivity = 1.0 - above;
        break;
      case sql::Expr::BinOp::kEq:
        out.selectivity =
            rs->rows > 0 ? 1.0 / static_cast<double>(rs->rows)
                         : planner::CostParams::kDefaultEqSel;
        break;
      case sql::Expr::BinOp::kNe:
        out.selectivity =
            1.0 - (rs->rows > 0 ? 1.0 / static_cast<double>(rs->rows)
                                : planner::CostParams::kDefaultEqSel);
        break;
      default:
        break;
    }
    out.selectivity = std::min(1.0, std::max(0.0, out.selectivity));
  }
  return out;
}

std::optional<planner::ConjunctEstimate> EstimateSpatialExpr(
    const sql::Expr& expr, const planner::TableStats* stats) {
  // Threshold predicates over the count operators.
  if (expr.kind == sql::Expr::Kind::kBinary && IsComparisonOp(expr.bin_op)) {
    const sql::Expr& lhs = *expr.lhs;
    const sql::Expr& rhs = *expr.rhs;
    if (lhs.kind == sql::Expr::Kind::kFunctionCall &&
        IsCountUdfName(LowerName(lhs.function)) &&
        rhs.kind == sql::Expr::Kind::kLiteral) {
      return EstimateCountComparison(lhs, expr.bin_op, rhs, stats);
    }
    if (rhs.kind == sql::Expr::Kind::kFunctionCall &&
        IsCountUdfName(LowerName(rhs.function)) &&
        lhs.kind == sql::Expr::Kind::kLiteral) {
      return EstimateCountComparison(rhs, MirrorCmpOp(expr.bin_op), lhs,
                                     stats);
    }
    return std::nullopt;
  }

  if (expr.kind != sql::Expr::Kind::kFunctionCall) return std::nullopt;
  std::string name = LowerName(expr.function);

  if (name == "contains" && expr.args.size() == 2) {
    planner::ConjunctEstimate out;
    out.cost = 2.0 * kRegionHeaderCost +
               (EstimatedRuns(*expr.args[0], stats) +
                EstimatedRuns(*expr.args[1], stats)) *
                   kRunStreamCost;
    // Containment of one arbitrary structure in another is rare; the
    // streaming check also exits at the first uncovered run.
    out.selectivity = planner::CostParams::kDefaultEqSel;
    out.prefer_encoded = PreferEncodedVote(expr, stats);
    return out;
  }

  if (name == "intersects" && expr.args.size() == 2) {
    planner::ConjunctEstimate out;
    // Early-exit run merge: bounded by streaming both run lists once.
    out.cost = 2.0 * kRegionHeaderCost +
               (EstimatedRuns(*expr.args[0], stats) +
                EstimatedRuns(*expr.args[1], stats)) *
                   kRunStreamCost;
    out.selectivity = planner::CostParams::kUnknownSel;
    out.prefer_encoded = PreferEncodedVote(expr, stats);
    return out;
  }

  if (IsSetOpUdfName(name) && expr.args.size() >= 2) {
    planner::ConjunctEstimate out;
    out.prefer_encoded = PreferEncodedVote(expr, stats);
    double runs = 0.0;
    for (const sql::ExprPtr& arg : expr.args) {
      runs += EstimatedRuns(*arg, stats);
    }
    double per_run = out.prefer_encoded == 1 ? kRunStreamCost
                                             : kRunMaterializeCost;
    out.cost = static_cast<double>(expr.args.size()) * kRegionHeaderCost +
               runs * per_run;
    return out;
  }

  if (IsCountUdfName(name) && expr.args.size() == 1) {
    planner::ConjunctEstimate out;
    bool is_runs = name == "runcount";
    out.cost = kRegionHeaderCost +
               (is_runs ? 0.0
                        : EstimatedRuns(*expr.args[0], stats) *
                              kRunStreamCost);
    out.prefer_encoded = 1;
    return out;
  }

  return std::nullopt;
}

/// Accumulates one region column's statistics during the heap scan.
struct RegionAccum {
  planner::RegionColumnStats stats;
  std::vector<uint64_t> pooled_lengths;
  std::map<int64_t, std::vector<uint64_t>> study_lengths;
};

planner::PowerLawFit ToPowerLawFit(const std::vector<uint64_t>& lengths) {
  LinearFit lf = region::FitPowerLaw(lengths);
  planner::PowerLawFit fit;
  fit.a = -lf.slope;
  fit.c = std::exp(lf.intercept);
  fit.r = lf.r;
  fit.samples = lengths.size();
  return fit;
}

}  // namespace

sql::planner::UdfCostHook SpatialExtension::CostHook() {
  return [](const sql::Expr& expr, const planner::TableStats* stats)
             -> std::optional<planner::ConjunctEstimate> {
    return EstimateSpatialExpr(expr, stats);
  };
}

Status SpatialExtension::RefreshPlannerStats() const {
  sql::Catalog* catalog = db_->catalog();
  planner::PlannerStats* stats = db_->planner_stats();
  // Scalar columns and row counts first; region stats layer on top.
  QBISM_RETURN_NOT_OK(stats->AnalyzeAll(catalog));

  const uint64_t num_cells = config_.grid.NumCells();
  for (const std::string& table : catalog->TableNames()) {
    QBISM_ASSIGN_OR_RETURN(sql::TableInfo * info, catalog->GetTable(table));
    const sql::TableSchema& schema = info->schema;
    int study_col = -1;
    {
      auto idx = schema.ColumnIndex("studyId");
      if (idx.ok() &&
          schema.columns()[idx.value()].type == sql::ColumnType::kInt) {
        study_col = static_cast<int>(idx.value());
      }
    }
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      if (schema.columns()[c].type != sql::ColumnType::kLongField) continue;
      RegionAccum acc;
      std::vector<char> needed(schema.NumColumns(), 0);
      needed[c] = 1;
      if (study_col >= 0) needed[static_cast<size_t>(study_col)] = 1;
      sql::Row row;
      QBISM_RETURN_NOT_OK(info->file->Scan(
          [&](const storage::RecordId&,
              const std::vector<uint8_t>& record) -> bool {
            if (!sql::DeserializeRowProjected(schema, record, needed, &row)
                     .ok()) {
              return true;
            }
            if (row[c].kind() != Value::Kind::kLongField) return true;
            LongFieldId id = row[c].AsLongField().value();
            // A stored VOLUME is exactly one byte per grid cell with no
            // tag: skip it by its size, without reading its pages.
            auto size = db_->lfm()->Size(id);
            if (!size.ok() || size.value() == num_cells) return true;
            auto stored = ParseStoredRegion(db_->lfm()->Read(id));
            if (!stored.ok()) return true;
            const std::vector<uint8_t>& payload = stored.value().payload;

            uint64_t runs = 0;
            uint64_t voxels = 0;
            std::vector<uint64_t> deltas;
            if (stored.value().encoding == RegionEncoding::kEliasDeltas) {
              // Stream the γ-coded form: runs, voxels, and the
              // alternating run/gap (delta) lengths, no decode.
              region::EliasRunCursor cursor;
              if (!cursor.Init(config_.grid, payload).ok()) return true;
              uint64_t prev_end = 0;
              bool first = true;
              while (!cursor.done()) {
                const region::Run& run = cursor.run();
                uint64_t gap = first ? run.start : run.start - prev_end - 1;
                if (gap > 0) deltas.push_back(gap);
                deltas.push_back(run.Length());
                voxels += run.Length();
                ++runs;
                prev_end = run.end;
                first = false;
                if (!cursor.Advance().ok()) return true;
              }
              if (runs > 0 && prev_end + 1 < num_cells) {
                deltas.push_back(num_cells - prev_end - 1);
              }
            } else {
              auto decoded =
                  region::DecodeRegion(config_.grid, config_.curve,
                                       stored.value().encoding, payload);
              if (!decoded.ok()) return true;  // not a region column value
              runs = decoded.value().RunCount();
              voxels = decoded.value().VoxelCount();
              deltas = decoded.value().DeltaLengths();
            }

            acc.stats.rows += 1;
            acc.stats.total_runs += runs;
            acc.stats.total_voxels += voxels;
            acc.stats.total_bytes += payload.size();
            acc.stats.runs_log2[planner::RegionColumnStats::BucketOf(runs)] +=
                1;
            acc.stats
                .voxels_log2[planner::RegionColumnStats::BucketOf(voxels)] +=
                1;
            acc.pooled_lengths.insert(acc.pooled_lengths.end(),
                                      deltas.begin(), deltas.end());
            if (study_col >= 0 &&
                row[static_cast<size_t>(study_col)].kind() ==
                    Value::Kind::kInt) {
              auto& v = acc.study_lengths[row[static_cast<size_t>(study_col)]
                                              .AsInt()
                                              .value()];
              v.insert(v.end(), deltas.begin(), deltas.end());
            }
            return true;
          }));
      if (acc.stats.rows == 0) continue;
      acc.stats.fit = ToPowerLawFit(acc.pooled_lengths);
      for (const auto& [study, lengths] : acc.study_lengths) {
        acc.stats.per_study[study] = ToPowerLawFit(lengths);
      }
      stats->SetRegionStats(table, schema.columns()[c].name,
                            std::move(acc.stats));
    }
  }
  return Status::OK();
}

}  // namespace qbism
