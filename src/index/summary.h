#ifndef QBISM_INDEX_SUMMARY_H_
#define QBISM_INDEX_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/bitmap.h"
#include "region/region.h"

namespace qbism::index {

/// Axis-aligned voxel bounding box, inclusive on both ends. uint16
/// coordinates cover grids up to 2^16 per axis (the atlas is 128^3;
/// headroom for larger grids costs nothing at 12 bytes per box).
struct BoundingBox {
  uint16_t min[3] = {0, 0, 0};
  uint16_t max[3] = {0, 0, 0};

  bool Intersects(const BoundingBox& o) const {
    for (int d = 0; d < 3; ++d) {
      if (max[d] < o.min[d] || o.max[d] < min[d]) return false;
    }
    return true;
  }

  void ExpandTo(const BoundingBox& o) {
    for (int d = 0; d < 3; ++d) {
      if (o.min[d] < min[d]) min[d] = o.min[d];
      if (o.max[d] > max[d]) max[d] = o.max[d];
    }
  }

  /// Centroid doubled (so it stays integral): per-axis min + max.
  void Centroid2(uint32_t out[3]) const {
    for (int d = 0; d < 3; ++d) out[d] = uint32_t(min[d]) + uint32_t(max[d]);
  }

  friend bool operator==(const BoundingBox&, const BoundingBox&) = default;
};

/// One indexed band of one study: the intensity interval, cheap scalar
/// measures of the band's region, its exact bounding box, and a 64-bit
/// run signature (one bit per 1/64th chunk of the curve id space, set
/// when the region has any voxel in that chunk). Two regions whose
/// signatures AND to zero occupy disjoint curve chunks and therefore
/// cannot intersect — a one-word rejection the R-tree applies before
/// (and independently of) the bounding-box test, and ORs up its
/// internal nodes exactly like the boxes.
struct BandSummary {
  uint8_t lo = 0;
  uint8_t hi = 0;
  uint64_t voxels = 0;
  uint32_t runs = 0;
  uint64_t signature = 0;
  BoundingBox box;

  friend bool operator==(const BandSummary&, const BandSummary&) = default;
};

/// What one band must satisfy for its study to be a probe candidate:
/// its intensity interval inside [lo, hi], its voxel and run counts
/// inside the count bounds (all inclusive), and, when `spatial`, a
/// non-empty region whose box and run signature overlap the probe's.
/// One filter serves both arms of the planner hook: intersects()
/// probes set the spatial part, voxelcount()/runcount() predicates the
/// count bounds, lo/hi predicates the interval.
struct BandFilter {
  int64_t lo = 0;
  int64_t hi = 255;
  bool spatial = false;
  BoundingBox box;
  uint64_t signature = 0;
  int64_t min_voxels = 0;
  int64_t max_voxels = INT64_MAX;
  int64_t min_runs = 0;
  int64_t max_runs = INT64_MAX;

  /// No band can satisfy contradictory bounds.
  bool Empty() const {
    return lo > hi || min_voxels > max_voxels || min_runs > max_runs;
  }

  /// Whether every matching band is non-empty. Only then may a study
  /// be skipped on its intensity bitmap: empty bands set no bit.
  bool RequiresVoxels() const {
    return spatial || min_voxels > 0 || min_runs > 0;
  }

  bool Matches(const BandSummary& b) const {
    if (b.lo < lo || b.hi > hi) return false;
    int64_t voxels = int64_t(b.voxels), runs = int64_t(b.runs);
    if (voxels < min_voxels || voxels > max_voxels) return false;
    if (runs < min_runs || runs > max_runs) return false;
    return !spatial || (b.voxels > 0 && (b.signature & signature) != 0 &&
                        b.box.Intersects(box));
  }
};

/// Everything the cross-study index keeps about one study: identity,
/// the hierarchical intensity bitmap, and one BandSummary per stored
/// band region. Small (33 bytes + ~32 per band), so the full summary
/// set for 10^5 studies is a few tens of MB — it rides in the WAL as
/// one redo record per ingest and rebuilds the packed tree from memory.
struct StudySummary {
  int64_t study_id = 0;
  int64_t atlas_id = 0;
  IntensityBitmap bitmap;
  std::vector<BandSummary> bands;

  void Serialize(std::vector<uint8_t>* out) const;
  static Result<StudySummary> Deserialize(const uint8_t* data, size_t size);

  friend bool operator==(const StudySummary&, const StudySummary&) = default;
};

/// The 64-bit run signature of a region: chunk(id) = id >> (id_bits - 6)
/// where id_bits = dims * bits, computed in O(runs) by marking the chunk
/// span each run covers.
uint64_t RegionSignature(const region::Region& r);

/// Exact voxel bounding box of a region, computed from its cubic-octant
/// decomposition: each octant of 2^rank cells is an axis-aligned cube of
/// side g = 2^(rank/dims) whose min corner is its first decoded point
/// rounded down to a multiple of g; the union over octants is exact.
/// Cost is one curve decode per octant, not per voxel. Empty regions
/// yield the degenerate box {0,0,0}-{0,0,0}.
BoundingBox RegionBounds(const region::Region& r);

/// Builds the BandSummary for one stored band region.
BandSummary SummarizeBandRegion(uint8_t lo, uint8_t hi,
                                const region::Region& r);

}  // namespace qbism::index

#endif  // QBISM_INDEX_SUMMARY_H_
