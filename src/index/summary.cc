#include "index/summary.h"

#include "common/bytes.h"
#include "common/macros.h"
#include "curve/engine.h"

namespace qbism::index {

namespace {

constexpr size_t kBandBytes = 1 + 1 + 8 + 4 + 8 + 6 * 2;  // 34

}  // namespace

void StudySummary::Serialize(std::vector<uint8_t>* out) const {
  ByteWriter w(out);
  w.PutI64(study_id);
  w.PutI64(atlas_id);
  bitmap.Serialize(out);
  w.PutU32(uint32_t(bands.size()));
  for (const BandSummary& b : bands) {
    w.PutU8(b.lo);
    w.PutU8(b.hi);
    w.PutU64(b.voxels);
    w.PutU32(b.runs);
    w.PutU64(b.signature);
    for (int d = 0; d < 3; ++d) w.PutU16(b.box.min[d]);
    for (int d = 0; d < 3; ++d) w.PutU16(b.box.max[d]);
  }
}

Result<StudySummary> StudySummary::Deserialize(const uint8_t* data,
                                               size_t size) {
  ByteReader in(data, size);
  StudySummary s;
  QBISM_ASSIGN_OR_RETURN(s.study_id, in.GetI64());
  QBISM_ASSIGN_OR_RETURN(s.atlas_id, in.GetI64());
  QBISM_ASSIGN_OR_RETURN(std::span<const uint8_t> bitmap,
                         in.GetSpan(IntensityBitmap::kSerializedSize));
  s.bitmap.Deserialize(bitmap.data());
  QBISM_ASSIGN_OR_RETURN(uint32_t count, in.GetU32());
  if (in.remaining() != size_t(count) * kBandBytes) {
    return Status::Corruption("StudySummary: band payload size mismatch");
  }
  s.bands.resize(count);
  for (BandSummary& b : s.bands) {
    QBISM_ASSIGN_OR_RETURN(b.lo, in.GetU8());
    QBISM_ASSIGN_OR_RETURN(b.hi, in.GetU8());
    QBISM_ASSIGN_OR_RETURN(b.voxels, in.GetU64());
    QBISM_ASSIGN_OR_RETURN(b.runs, in.GetU32());
    QBISM_ASSIGN_OR_RETURN(b.signature, in.GetU64());
    for (int d = 0; d < 3; ++d) {
      QBISM_ASSIGN_OR_RETURN(b.box.min[d], in.GetU16());
    }
    for (int d = 0; d < 3; ++d) {
      QBISM_ASSIGN_OR_RETURN(b.box.max[d], in.GetU16());
    }
  }
  return s;
}

uint64_t RegionSignature(const region::Region& r) {
  int id_bits = r.grid().dims * r.grid().bits;
  uint64_t sig = 0;
  if (id_bits <= 6) {
    // Tiny grids: every id lands in a distinct chunk slot.
    for (const region::Run& run : r.runs()) {
      for (uint64_t id = run.start; id <= run.end; ++id) {
        sig |= uint64_t{1} << id;
      }
    }
    return sig;
  }
  int shift = id_bits - 6;
  for (const region::Run& run : r.runs()) {
    uint64_t a = run.start >> shift;
    uint64_t b = run.end >> shift;
    if (b - a >= 63) return ~uint64_t{0};
    uint64_t mask = (b - a == 63) ? ~uint64_t{0}
                                  : (((uint64_t{1} << (b - a + 1)) - 1) << a);
    sig |= mask;
  }
  return sig;
}

BoundingBox RegionBounds(const region::Region& r) {
  BoundingBox box;
  if (r.Empty()) return box;
  const int dims = r.grid().dims;
  const int bits = r.grid().bits;
  std::vector<region::Octant> octs = r.ToOctants();
  // Decode one id per octant (its minimum curve id); the octant is a
  // cube of side g aligned to multiples of g, so rounding the decoded
  // point down to g gives the min corner without decoding more ids.
  std::vector<uint64_t> ids(octs.size());
  for (size_t i = 0; i < octs.size(); ++i) ids[i] = octs[i].id;
  std::vector<uint32_t> axes(octs.size() * size_t(dims));
  curve::CurveAxesBatch(r.curve_kind(), ids.data(), ids.size(), dims, bits,
                        axes.data());
  bool first = true;
  for (size_t i = 0; i < octs.size(); ++i) {
    uint32_t g = uint32_t{1} << (octs[i].rank / dims);
    BoundingBox ob;
    for (int d = 0; d < 3; ++d) {
      uint32_t c = d < dims ? axes[i * size_t(dims) + size_t(d)] : 0;
      uint32_t lo = d < dims ? (c / g) * g : 0;
      ob.min[d] = uint16_t(lo);
      ob.max[d] = uint16_t(d < dims ? lo + g - 1 : 0);
    }
    if (first) {
      box = ob;
      first = false;
    } else {
      box.ExpandTo(ob);
    }
  }
  return box;
}

BandSummary SummarizeBandRegion(uint8_t lo, uint8_t hi,
                                const region::Region& r) {
  BandSummary b;
  b.lo = lo;
  b.hi = hi;
  b.voxels = r.VoxelCount();
  b.runs = uint32_t(r.RunCount());
  b.signature = RegionSignature(r);
  b.box = RegionBounds(r);
  return b;
}

}  // namespace qbism::index
