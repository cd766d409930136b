#include "region/region.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "curve/engine.h"
#include "curve/raster.h"

namespace qbism::region {

using geometry::Box3i;
using geometry::Vec3i;

namespace {

bool ByStart(const Run& a, const Run& b) { return a.start < b.start; }

/// The one merge step behind every canonicalizing path: appends `r`
/// to `out`, whose runs are canonical and start at or before `r`,
/// merging it into the tail when the two overlap or touch.
void AppendMerged(std::vector<Run>* out, const Run& r) {
  if (!out->empty() && r.start <= out->back().end + 1) {
    out->back().end = std::max(out->back().end, r.end);
  } else {
    out->push_back(r);
  }
}

/// Brings a run list into canonical form (sorted, disjoint,
/// non-adjacent): sorts it by start unless it already is, then merges
/// overlapping and touching runs.
std::vector<Run> Canonicalize(std::vector<Run> runs) {
  if (!std::is_sorted(runs.begin(), runs.end(), ByStart)) {
    std::sort(runs.begin(), runs.end(), ByStart);
  }
  std::vector<Run> out;
  out.reserve(runs.size());
  for (const Run& r : runs) AppendMerged(&out, r);
  return out;
}

/// One pass over a run list: fails on a run with start > end or past
/// the grid, and otherwise says whether the list is already canonical,
/// i.e. every run starts at least two ids past the previous run's end.
Result<bool> ScanRuns(const GridSpec& grid, const std::vector<Run>& runs,
                      const char* caller) {
  const uint64_t num_cells = grid.NumCells();
  uint64_t next_min = 0;  // smallest canonical start for the next run
  bool canonical = true;
  for (const Run& r : runs) {
    if (r.start > r.end) {
      return Status::InvalidArgument(std::string(caller) +
                                     ": run start > end");
    }
    if (r.end >= num_cells) {
      return Status::OutOfRange(std::string(caller) + ": run exceeds grid");
    }
    canonical &= r.start >= next_min;
    next_min = r.end + 2;  // gap of >= 1 id before the next run
  }
  return canonical;
}

uint64_t PointToId(const GridSpec& grid, curve::CurveKind kind,
                   const Vec3i& p) {
  uint32_t axes[3] = {static_cast<uint32_t>(p.x), static_cast<uint32_t>(p.y),
                      static_cast<uint32_t>(p.z)};
  if (kind == curve::CurveKind::kHilbert) {
    return curve::HilbertIndex(axes, grid.dims, grid.bits);
  }
  return curve::MortonIndex(axes, grid.dims, grid.bits);
}

/// Largest rank r such that `start` is aligned to 2^r and 2^r <= len.
int MaxAlignedRank(uint64_t start, uint64_t len) {
  int align = start == 0 ? 63 : __builtin_ctzll(start);
  int size = 63 - __builtin_clzll(len);
  return std::min(align, size);
}

/// Decode chunk size for the batch span paths: large enough to amortize
/// the per-chunk call, small enough to stay cache-resident.
constexpr size_t kSpanChunk = 4096;

/// Calls fn(id, x, y, z) for every id in [start, start + length), with
/// (x, y, z) its grid point, decoding in table-driven span chunks
/// (z == 0 on 2-D grids).
template <typename Fn>
void ForEachPointInSpan(const GridSpec& grid, curve::CurveKind kind,
                        uint64_t start, uint64_t length, Fn&& fn) {
  uint32_t axes[kSpanChunk * 3];
  const int dims = grid.dims;
  while (length > 0) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(length, kSpanChunk));
    curve::CurveAxesSpan(kind, start, n, dims, grid.bits, axes);
    const uint32_t* a = axes;
    for (size_t k = 0; k < n; ++k, a += dims) {
      fn(start + k, static_cast<int32_t>(a[0]), static_cast<int32_t>(a[1]),
         dims == 3 ? static_cast<int32_t>(a[2]) : 0);
    }
    start += n;
    length -= n;
  }
}

}  // namespace

std::vector<Run> RunsForBox(const GridSpec& grid, curve::CurveKind kind,
                            const Box3i& box) {
  int32_t side = static_cast<int32_t>(grid.SideLength());
  Box3i grid_box{{0, 0, 0}, {side - 1, side - 1, side - 1}};
  if (grid.dims == 2) grid_box.max.z = 0;
  Box3i clipped = box.ClippedTo(grid_box);
  std::vector<Run> runs;
  if (clipped.Empty()) return runs;
  const uint32_t lo[3] = {static_cast<uint32_t>(clipped.min.x),
                          static_cast<uint32_t>(clipped.min.y),
                          static_cast<uint32_t>(clipped.min.z)};
  const uint32_t hi[3] = {static_cast<uint32_t>(clipped.max.x),
                          static_cast<uint32_t>(clipped.max.y),
                          static_cast<uint32_t>(clipped.max.z)};
  std::vector<curve::IdRun> raw;
  curve::AppendRunsForBox(kind, grid.dims, grid.bits, lo, hi, &raw);
  runs.reserve(raw.size());
  for (const curve::IdRun& r : raw) runs.push_back(Run{r.start, r.end});
  return runs;
}

Result<Region> Region::FromRuns(GridSpec grid, curve::CurveKind kind,
                                std::vector<Run> runs) {
  QBISM_ASSIGN_OR_RETURN(bool canonical,
                         ScanRuns(grid, runs, "Region::FromRuns"));
  Region region(grid, kind);
  region.runs_ = canonical ? std::move(runs) : Canonicalize(std::move(runs));
  return region;
}

Result<Region> Region::FromCanonicalRuns(GridSpec grid, curve::CurveKind kind,
                                         std::vector<Run> runs) {
  QBISM_ASSIGN_OR_RETURN(bool canonical,
                         ScanRuns(grid, runs, "Region::FromCanonicalRuns"));
  if (!canonical) {
    return Status::InvalidArgument(
        "Region::FromCanonicalRuns: runs not canonical");
  }
  Region region(grid, kind);
  region.runs_ = std::move(runs);
  return region;
}

Result<Region> Region::FromIds(GridSpec grid, curve::CurveKind kind,
                               std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (!ids.empty() && ids.back() >= grid.NumCells()) {
    return Status::OutOfRange("Region::FromIds: id exceeds grid");
  }
  RegionBuilder builder(grid, kind);
  for (uint64_t id : ids) builder.AppendId(id);
  return builder.Build();
}

Region Region::FromPredicate(
    GridSpec grid, curve::CurveKind kind,
    const std::function<bool(const Vec3i&)>& inside) {
  RegionBuilder builder(grid, kind);
  ForEachPointInSpan(grid, kind, 0, grid.NumCells(),
                     [&](uint64_t id, int32_t x, int32_t y, int32_t z) {
                       if (inside(Vec3i{x, y, z})) builder.AppendId(id);
                     });
  return builder.Build();
}

Region Region::FromShape(GridSpec grid, curve::CurveKind kind,
                         const geometry::Shape& shape) {
  geometry::Box3d b = shape.Bounds();
  int64_t side = static_cast<int64_t>(grid.SideLength());
  auto clampi = [&](double v) {
    return std::clamp<int64_t>(static_cast<int64_t>(std::floor(v)), 0, side - 1);
  };
  Box3i box{{static_cast<int32_t>(clampi(b.min.x)),
             static_cast<int32_t>(clampi(b.min.y)),
             static_cast<int32_t>(clampi(b.min.z))},
            {static_cast<int32_t>(clampi(std::ceil(b.max.x))),
             static_cast<int32_t>(clampi(std::ceil(b.max.y))),
             static_cast<int32_t>(clampi(std::ceil(b.max.z)))}};
  if (grid.dims == 2) {
    box.min.z = 0;
    box.max.z = 0;
  }
  // Walk the bounding box run-natively: the octant descent hands back
  // the box's voxels already in curve order, so accepted ids feed the
  // canonical builder directly — no id vector, no sort.
  RegionBuilder builder(grid, kind);
  for (const Run& run : RunsForBox(grid, kind, box)) {
    ForEachPointInSpan(
        grid, kind, run.start, run.Length(),
        [&](uint64_t id, int32_t x, int32_t y, int32_t z) {
          // Voxel centers at half-integer offsets.
          geometry::Vec3d center{x + 0.5, y + 0.5,
                                 grid.dims == 2 ? 0.0 : z + 0.5};
          if (shape.Contains(center)) builder.AppendId(id);
        });
  }
  return builder.Build();
}

Region Region::FromBox(GridSpec grid, curve::CurveKind kind,
                       const Box3i& box) {
  // The octant descent emits the canonical run list directly.
  Region region(grid, kind);
  region.runs_ = RunsForBox(grid, kind, box);
  return region;
}

Region Region::Full(GridSpec grid, curve::CurveKind kind) {
  Region region(grid, kind);
  region.runs_.push_back(Run{0, grid.NumCells() - 1});
  return region;
}

uint64_t Region::VoxelCount() const {
  uint64_t total = 0;
  for (const Run& r : runs_) total += r.Length();
  return total;
}

bool Region::ContainsId(uint64_t id) const {
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), id,
      [](uint64_t value, const Run& r) { return value < r.start; });
  if (it == runs_.begin()) return false;
  --it;
  return id <= it->end;
}

bool Region::ContainsPoint(const Vec3i& p) const {
  if (!grid_.ContainsPoint(p)) return false;
  return ContainsId(PointToId(grid_, kind_, p));
}

namespace {

Status CheckCompatible(const Region& a, const Region& b,
                       std::string_view op) {
  if (!(a.grid() == b.grid()) || a.curve_kind() != b.curve_kind()) {
    return Status::InvalidArgument(std::string(op) +
                                   ": regions on different grids or curves");
  }
  return Status::OK();
}

}  // namespace

Result<Region> Region::IntersectWith(const Region& other) const {
  QBISM_RETURN_NOT_OK(CheckCompatible(*this, other, "INTERSECTION"));
  // Linear merge of the two sorted run lists — the "spatial join" scan
  // the paper adopts from Orenstein & Manola.
  Region out(grid_, kind_);
  size_t i = 0, j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    const Run& a = runs_[i];
    const Run& b = other.runs_[j];
    uint64_t lo = std::max(a.start, b.start);
    uint64_t hi = std::min(a.end, b.end);
    if (lo <= hi) out.runs_.push_back(Run{lo, hi});
    if (a.end < b.end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

Result<Region> Region::UnionWith(const Region& other) const {
  QBISM_RETURN_NOT_OK(CheckCompatible(*this, other, "UNION"));
  // Linear merge of the two sorted run lists: the run that starts
  // first goes next, merged into the tail when it overlaps or touches.
  Region out(grid_, kind_);
  out.runs_.reserve(runs_.size() + other.runs_.size());
  size_t i = 0, j = 0;
  while (i < runs_.size() && j < other.runs_.size()) {
    AppendMerged(&out.runs_, runs_[i].start <= other.runs_[j].start
                                 ? runs_[i++]
                                 : other.runs_[j++]);
  }
  for (; i < runs_.size(); ++i) AppendMerged(&out.runs_, runs_[i]);
  for (; j < other.runs_.size(); ++j) AppendMerged(&out.runs_, other.runs_[j]);
  return out;
}

Result<Region> Region::DifferenceWith(const Region& other) const {
  QBISM_RETURN_NOT_OK(CheckCompatible(*this, other, "DIFFERENCE"));
  Region out(grid_, kind_);
  size_t j = 0;
  for (const Run& a : runs_) {
    uint64_t cursor = a.start;
    while (j < other.runs_.size() && other.runs_[j].end < cursor) ++j;
    size_t k = j;
    while (cursor <= a.end) {
      if (k >= other.runs_.size() || other.runs_[k].start > a.end) {
        out.runs_.push_back(Run{cursor, a.end});
        break;
      }
      const Run& b = other.runs_[k];
      if (b.start > cursor) {
        out.runs_.push_back(Run{cursor, b.start - 1});
      }
      if (b.end >= a.end) break;
      cursor = b.end + 1;
      ++k;
    }
  }
  return out;
}

Result<bool> Region::Contains(const Region& other) const {
  QBISM_RETURN_NOT_OK(CheckCompatible(*this, other, "CONTAINS"));
  // Every run of `other` must be covered by a single run of *this
  // (canonical runs are maximal, so coverage cannot straddle a gap).
  for (const Run& b : other.runs_) {
    auto it = std::upper_bound(
        runs_.begin(), runs_.end(), b.start,
        [](uint64_t value, const Run& r) { return value < r.start; });
    if (it == runs_.begin()) return false;
    --it;
    if (b.start > it->end || b.end > it->end) return false;
  }
  return true;
}

Region Region::Complement() const {
  Region out(grid_, kind_);
  uint64_t cursor = 0;
  for (const Run& r : runs_) {
    if (r.start > cursor) out.runs_.push_back(Run{cursor, r.start - 1});
    cursor = r.end + 1;
  }
  uint64_t n = grid_.NumCells();
  if (cursor < n) out.runs_.push_back(Run{cursor, n - 1});
  return out;
}

Region Region::ConvertTo(curve::CurveKind kind) const {
  if (kind == kind_) return *this;
  // Batch re-linearization: span-decode each run under the source curve
  // and batch-encode under the target. The sort inside FromIds remains —
  // a run under one curve scatters under the other.
  std::vector<uint64_t> ids(static_cast<size_t>(VoxelCount()));
  uint32_t axes[kSpanChunk * 3];
  size_t cursor = 0;
  for (const Run& r : runs_) {
    uint64_t start = r.start;
    uint64_t remaining = r.Length();
    while (remaining > 0) {
      size_t n = static_cast<size_t>(std::min<uint64_t>(remaining, kSpanChunk));
      curve::CurveAxesSpan(kind_, start, n, grid_.dims, grid_.bits, axes);
      curve::CurveIndexBatch(kind, axes, n, grid_.dims, grid_.bits,
                             ids.data() + cursor);
      cursor += n;
      start += n;
      remaining -= n;
    }
  }
  auto result = FromIds(grid_, kind, std::move(ids));
  QBISM_CHECK(result.ok());
  return result.MoveValue();
}

std::vector<Octant> Region::ToOblongOctants() const {
  std::vector<Octant> out;
  for (const Run& r : runs_) {
    uint64_t start = r.start;
    uint64_t remaining = r.Length();
    while (remaining > 0) {
      int rank = MaxAlignedRank(start, remaining);
      out.push_back(Octant{start, rank});
      start += uint64_t{1} << rank;
      remaining -= uint64_t{1} << rank;
    }
  }
  return out;
}

std::vector<Octant> Region::ToOctants() const {
  std::vector<Octant> out;
  for (const Run& r : runs_) {
    uint64_t start = r.start;
    uint64_t remaining = r.Length();
    while (remaining > 0) {
      int rank = MaxAlignedRank(start, remaining);
      rank -= rank % grid_.dims;  // cubic octants: rank multiple of dims
      out.push_back(Octant{start, rank});
      start += uint64_t{1} << rank;
      remaining -= uint64_t{1} << rank;
    }
  }
  return out;
}

Region Region::WithMinGap(uint64_t mingap) const {
  Region out(grid_, kind_);
  for (const Run& r : runs_) {
    if (!out.runs_.empty() &&
        r.start - out.runs_.back().end - 1 < mingap) {
      out.runs_.back().end = r.end;
    } else {
      out.runs_.push_back(r);
    }
  }
  return out;
}

Region Region::WithMinOctant(int g_log2) const {
  QBISM_CHECK(g_log2 >= 0);
  int shift = grid_.dims * g_log2;
  uint64_t n = grid_.NumCells();
  std::vector<Run> rounded;
  rounded.reserve(runs_.size());
  for (const Run& r : runs_) {
    uint64_t lo = (r.start >> shift) << shift;
    uint64_t hi = std::min(n - 1, (((r.end >> shift) + 1) << shift) - 1);
    rounded.push_back(Run{lo, hi});
  }
  Region out(grid_, kind_);
  out.runs_ = Canonicalize(std::move(rounded));
  return out;
}

std::vector<uint64_t> Region::DeltaLengths() const {
  std::vector<uint64_t> deltas;
  uint64_t cursor = 0;
  for (const Run& r : runs_) {
    if (r.start > cursor) deltas.push_back(r.start - cursor);  // gap
    deltas.push_back(r.Length());                              // run
    cursor = r.end + 1;
  }
  uint64_t n = grid_.NumCells();
  if (cursor < n) deltas.push_back(n - cursor);  // trailing gap
  return deltas;
}

std::vector<Vec3i> Region::ToPoints() const {
  std::vector<Vec3i> points;
  points.reserve(static_cast<size_t>(VoxelCount()));
  for (const Run& r : runs_) {
    ForEachPointInSpan(grid_, kind_, r.start, r.Length(),
                       [&](uint64_t, int32_t x, int32_t y, int32_t z) {
                         points.push_back(Vec3i{x, y, z});
                       });
  }
  return points;
}

void RegionBuilder::AppendId(uint64_t id) { AppendRun(id, id); }

void RegionBuilder::AppendRun(uint64_t start, uint64_t end) {
  QBISM_CHECK(start <= end);
  QBISM_CHECK(end < grid_.NumCells());
  // A run starting before the tail's start could hold ids below it,
  // which the merge into the tail would drop.
  QBISM_CHECK(runs_.empty() || start >= runs_.back().start);
  AppendMerged(&runs_, Run{start, end});
}

Region RegionBuilder::Build() {
  auto result = Region::FromRuns(grid_, kind_, std::move(runs_));
  QBISM_CHECK(result.ok());
  runs_.clear();
  return result.MoveValue();
}

}  // namespace qbism::region
