#ifndef QBISM_REGION_REGION_H_
#define QBISM_REGION_REGION_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "curve/curve.h"
#include "geometry/shapes.h"
#include "geometry/vec3.h"

namespace qbism::region {

/// Describes the regular cubic grid a REGION or VOLUME lives on: `dims`
/// dimensions (3 for the medical application, 2 for the paper's worked
/// example) with 2^bits cells per axis. The paper's atlas space is a
/// 128x128x128 grid (dims=3, bits=7); ids fit 4 bytes up to 512^3.
struct GridSpec {
  int dims = 3;
  int bits = 7;

  uint64_t SideLength() const { return uint64_t{1} << bits; }
  uint64_t NumCells() const { return uint64_t{1} << (dims * bits); }
  bool ContainsPoint(const geometry::Vec3i& p) const {
    int64_t side = static_cast<int64_t>(SideLength());
    bool ok2 = p.x >= 0 && p.x < side && p.y >= 0 && p.y < side;
    if (dims == 2) return ok2 && p.z == 0;
    return ok2 && p.z >= 0 && p.z < side;
  }

  friend bool operator==(const GridSpec&, const GridSpec&) = default;
};

/// A maximal interval of consecutive curve ids inside a REGION
/// (an "h-run" or "z-run" in the paper's terminology). Inclusive bounds.
struct Run {
  uint64_t start = 0;
  uint64_t end = 0;  // inclusive

  uint64_t Length() const { return end - start + 1; }
  friend bool operator==(const Run&, const Run&) = default;
};

/// An (oblong) octant <curve-id, rank>: the 2^rank cells sharing the id's
/// prefix. A regular (cubic) octant additionally has rank divisible by
/// the dimensionality.
struct Octant {
  uint64_t id = 0;  // smallest curve id among constituent cells
  int rank = 0;     // block holds 2^rank cells

  uint64_t Length() const { return uint64_t{1} << rank; }
  friend bool operator==(const Octant&, const Octant&) = default;
};

/// REGION: the spatial extent of an arbitrarily shaped entity, stored as
/// a canonical list of runs along a space-filling curve (§3.1, §4.2).
/// Canonical form invariants (enforced on every construction path):
///   - runs sorted by start,
///   - runs disjoint and non-adjacent (a gap of >= 1 id between runs),
///   - every id within [0, grid.NumCells()).
class Region {
 public:
  /// Empty region on the given grid/curve.
  Region() = default;
  Region(GridSpec grid, curve::CurveKind kind) : grid_(grid), kind_(kind) {}

  /// Builds from an arbitrary run list (overlaps/adjacency merged,
  /// unsorted input sorted). Fails if any id is out of the grid. One
  /// pass checks the bounds and whether the list is already canonical
  /// (each start >= previous end + 2, FromCanonicalRuns' test); a
  /// canonical list, which is what RegionBuilder and the naive-runs
  /// decoder hand over, is kept as it is, with no sort and no copy.
  static Result<Region> FromRuns(GridSpec grid, curve::CurveKind kind,
                                 std::vector<Run> runs);

  /// Adopts a run list the caller guarantees is already canonical
  /// (sorted, disjoint, non-adjacent). Validated in FromRuns' one pass
  /// and rejected with InvalidArgument/OutOfRange when the guarantee
  /// does not hold, where FromRuns would merge. This is the elias
  /// decoder's entry: γ-coded delta streams decode in increasing-offset
  /// order with gaps of at least one id, so any other list is corrupt.
  static Result<Region> FromCanonicalRuns(GridSpec grid,
                                          curve::CurveKind kind,
                                          std::vector<Run> runs);

  /// Builds from unsorted voxel ids (duplicates allowed).
  static Result<Region> FromIds(GridSpec grid, curve::CurveKind kind,
                                std::vector<uint64_t> ids);

  /// Rasterizes a voxel predicate over the whole grid. O(NumCells) curve
  /// conversions; use FromShape when a bounding box is known.
  static Region FromPredicate(
      GridSpec grid, curve::CurveKind kind,
      const std::function<bool(const geometry::Vec3i&)>& inside);

  /// Rasterizes a solid shape (voxel centers tested against the shape,
  /// restricted to the shape's bounding box).
  static Region FromShape(GridSpec grid, curve::CurveKind kind,
                          const geometry::Shape& shape);

  /// All voxels in an axis-aligned box (clipped to the grid).
  static Region FromBox(GridSpec grid, curve::CurveKind kind,
                        const geometry::Box3i& box);

  /// The entire grid as one run.
  static Region Full(GridSpec grid, curve::CurveKind kind);

  const GridSpec& grid() const { return grid_; }
  curve::CurveKind curve_kind() const { return kind_; }
  const std::vector<Run>& runs() const { return runs_; }
  size_t RunCount() const { return runs_.size(); }
  bool Empty() const { return runs_.empty(); }

  /// Total number of voxels inside.
  uint64_t VoxelCount() const;

  /// Membership by curve id (binary search over runs).
  bool ContainsId(uint64_t id) const;

  /// Membership by grid point.
  bool ContainsPoint(const geometry::Vec3i& p) const;

  /// --- Spatial operators (§3.2). Operands must share grid and curve. ---

  /// INTERSECTION(r1, r2).
  Result<Region> IntersectWith(const Region& other) const;
  /// UNION(r1, r2).
  Result<Region> UnionWith(const Region& other) const;
  /// DIFFERENCE(r1, r2) = r1 minus r2.
  Result<Region> DifferenceWith(const Region& other) const;
  /// CONTAINS(r1, r2): is *this a spatial superset of other?
  Result<bool> Contains(const Region& other) const;

  /// Complement within the grid.
  Region Complement() const;

  /// Re-linearizes the same voxel set under a different curve.
  Region ConvertTo(curve::CurveKind kind) const;

  /// --- Decompositions (§4.2) ------------------------------------------

  /// Greedy maximal aligned blocks of any rank ("oblong octants").
  std::vector<Octant> ToOblongOctants() const;

  /// Greedy maximal aligned blocks with rank a multiple of dims
  /// ("regular/cubic octants").
  std::vector<Octant> ToOctants() const;

  /// --- Approximations (§4.2, "Approximate representation") -------------

  /// Merges away every gap strictly shorter than `mingap` ids, producing
  /// a superset region with fewer runs. mingap == 1 is the identity.
  Region WithMinGap(uint64_t mingap) const;

  /// Rounds the region out to aligned blocks of 2^(dims*g_log2) cells
  /// (G x G x G voxels with G = 2^g_log2): any block containing at least
  /// one inside voxel is wholly included. Produces a superset.
  Region WithMinOctant(int g_log2) const;

  /// Delta lengths: the alternating run/gap lengths along the curve over
  /// the whole grid, including any leading and trailing gaps. This is
  /// the symbol sequence whose distribution EQ 1 describes and whose
  /// entropy (EQ 2) lower-bounds compression.
  std::vector<uint64_t> DeltaLengths() const;

  /// Enumerates all inside voxels as grid points, in curve order.
  std::vector<geometry::Vec3i> ToPoints() const;

  friend bool operator==(const Region&, const Region&) = default;

 private:
  GridSpec grid_;
  curve::CurveKind kind_ = curve::CurveKind::kHilbert;
  std::vector<Run> runs_;
};

/// Run-native rasterization of an axis-aligned box, clipped to the
/// grid: canonical runs in increasing id order, produced by descending
/// the curve octree and emitting whole octants (src/curve/raster.h) —
/// cost proportional to the box surface, not its volume, and no
/// per-voxel id materialization or sort. This is what FromBox and the
/// FromShape bounding-box scan are built on.
std::vector<Run> RunsForBox(const GridSpec& grid, curve::CurveKind kind,
                            const geometry::Box3i& box);

/// Incremental canonical-region builder: feed ids or runs in
/// non-decreasing order of start (each merges into the tail where they
/// overlap or touch), so the list is canonical at every step. Used by
/// the streaming paths (banding a VOLUME, predicate scans).
class RegionBuilder {
 public:
  RegionBuilder(GridSpec grid, curve::CurveKind kind)
      : grid_(grid), kind_(kind) {}

  /// AppendRun(id, id).
  void AppendId(uint64_t id);

  /// Appends the run [start, end]. `start` must be >= the start of
  /// every run appended so far, and a smaller one aborts: merging it
  /// into the tail would drop the ids below the tail's start. A run
  /// that overlaps or touches the tail merges into it.
  void AppendRun(uint64_t start, uint64_t end);

  /// Finalizes; the builder resets to empty.
  Region Build();

 private:
  GridSpec grid_;
  curve::CurveKind kind_;
  std::vector<Run> runs_;
};

}  // namespace qbism::region

#endif  // QBISM_REGION_REGION_H_
