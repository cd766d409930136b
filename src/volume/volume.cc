#include "volume/volume.h"

#include <algorithm>

#include "common/macros.h"
#include "curve/engine.h"

namespace qbism::volume {

using geometry::Vec3i;
using region::GridSpec;
using region::Region;
using region::RegionBuilder;
using region::Run;

namespace {

uint64_t PointToId(const GridSpec& grid, curve::CurveKind kind,
                   const Vec3i& p) {
  return curve::CurveId3(kind, static_cast<uint32_t>(p.x),
                         static_cast<uint32_t>(p.y),
                         static_cast<uint32_t>(p.z), grid.bits);
}

/// Whole-grid scans decode curve ids in table-driven span chunks
/// instead of one bit-serial transform per voxel: fn(id, point) for
/// every id in [0, grid.NumCells()).
constexpr size_t kSpanChunk = 4096;

template <typename Fn>
void ForEachGridPoint(const GridSpec& grid, curve::CurveKind kind, Fn&& fn) {
  uint32_t axes[kSpanChunk * 3];
  uint64_t n = grid.NumCells();
  for (uint64_t start = 0; start < n; start += kSpanChunk) {
    size_t c = static_cast<size_t>(std::min<uint64_t>(n - start, kSpanChunk));
    curve::CurveAxesSpan(kind, start, c, grid.dims, grid.bits, axes);
    const uint32_t* a = axes;
    for (size_t k = 0; k < c; ++k, a += 3) {
      fn(start + k,
         Vec3i{static_cast<int32_t>(a[0]), static_cast<int32_t>(a[1]),
               static_cast<int32_t>(a[2])});
    }
  }
}

}  // namespace

Volume Volume::FromFunction(
    GridSpec grid, curve::CurveKind kind,
    const std::function<uint8_t(const Vec3i&)>& field) {
  QBISM_CHECK(grid.dims == 3);
  Volume v;
  v.grid_ = grid;
  v.kind_ = kind;
  v.data_.resize(grid.NumCells());
  ForEachGridPoint(grid, kind, [&](uint64_t id, const Vec3i& p) {
    v.data_[id] = field(p);
  });
  return v;
}

Result<Volume> Volume::FromCurveOrderedData(GridSpec grid,
                                            curve::CurveKind kind,
                                            std::vector<uint8_t> data) {
  if (grid.dims != 3) {
    return Status::InvalidArgument("Volume requires a 3-d grid");
  }
  if (data.size() != grid.NumCells()) {
    return Status::InvalidArgument("Volume data size != grid cell count");
  }
  Volume v;
  v.grid_ = grid;
  v.kind_ = kind;
  v.data_ = std::move(data);
  return v;
}

Result<Volume> Volume::FromScanlineData(GridSpec grid, curve::CurveKind kind,
                                        const std::vector<uint8_t>& data) {
  if (grid.dims != 3) {
    return Status::InvalidArgument("Volume requires a 3-d grid");
  }
  if (data.size() != grid.NumCells()) {
    return Status::InvalidArgument("Volume data size != grid cell count");
  }
  uint64_t side = grid.SideLength();
  std::vector<uint8_t> ordered(data.size());
  ForEachGridPoint(grid, kind, [&](uint64_t id, const Vec3i& p) {
    uint64_t scanline = (static_cast<uint64_t>(p.z) * side +
                         static_cast<uint64_t>(p.y)) *
                            side +
                        static_cast<uint64_t>(p.x);
    ordered[id] = data[scanline];
  });
  return FromCurveOrderedData(grid, kind, std::move(ordered));
}

Result<uint8_t> Volume::ValueAt(const Vec3i& p) const {
  if (!grid_.ContainsPoint(p)) {
    return Status::OutOfRange("Volume::ValueAt: point outside grid");
  }
  return data_[PointToId(grid_, kind_, p)];
}

Volume Volume::ConvertTo(curve::CurveKind kind) const {
  if (kind == kind_) return *this;
  Volume v;
  v.grid_ = grid_;
  v.kind_ = kind;
  v.data_.resize(data_.size());
  // Gather: span-decode the destination order, batch-encode each chunk
  // back into the source order.
  uint32_t axes[kSpanChunk * 3];
  uint64_t src[kSpanChunk];
  uint64_t n = data_.size();
  for (uint64_t start = 0; start < n; start += kSpanChunk) {
    size_t c = static_cast<size_t>(std::min<uint64_t>(n - start, kSpanChunk));
    curve::CurveAxesSpan(kind, start, c, grid_.dims, grid_.bits, axes);
    curve::CurveIndexBatch(kind_, axes, c, grid_.dims, grid_.bits, src);
    for (size_t k = 0; k < c; ++k) v.data_[start + k] = data_[src[k]];
  }
  return v;
}

std::vector<uint8_t> Volume::ToScanline() const {
  uint64_t side = grid_.SideLength();
  std::vector<uint8_t> out(data_.size());
  ForEachGridPoint(grid_, kind_, [&](uint64_t id, const Vec3i& p) {
    uint64_t scanline = (static_cast<uint64_t>(p.z) * side +
                         static_cast<uint64_t>(p.y)) *
                            side +
                        static_cast<uint64_t>(p.x);
    out[scanline] = data_[id];
  });
  return out;
}

Result<DataRegion> Volume::Extract(const Region& r) const {
  if (!(r.grid() == grid_) || r.curve_kind() != kind_) {
    return Status::InvalidArgument(
        "EXTRACT_DATA: region grid/curve differs from volume");
  }
  std::vector<uint8_t> values;
  values.reserve(static_cast<size_t>(r.VoxelCount()));
  for (const Run& run : r.runs()) {
    // Contiguity in curve order makes each run one contiguous copy —
    // the property Hilbert clustering buys at the disk level.
    values.insert(values.end(), data_.begin() + static_cast<int64_t>(run.start),
                  data_.begin() + static_cast<int64_t>(run.end) + 1);
  }
  return DataRegion(r, std::move(values));
}

Region Volume::BandRegion(uint8_t lo, uint8_t hi) const {
  RegionBuilder builder(grid_, kind_);
  uint64_t n = data_.size();
  uint64_t run_start = 0;
  bool in_run = false;
  for (uint64_t id = 0; id < n; ++id) {
    bool inside = data_[id] >= lo && data_[id] <= hi;
    if (inside && !in_run) {
      run_start = id;
      in_run = true;
    } else if (!inside && in_run) {
      builder.AppendRun(run_start, id - 1);
      in_run = false;
    }
  }
  if (in_run) builder.AppendRun(run_start, n - 1);
  return builder.Build();
}

std::vector<Region> Volume::UniformBands(int width) const {
  QBISM_CHECK(width >= 1 && width <= 256);
  // One scan for all bands (instead of one BandRegion scan per band):
  // voxel intensity / width names the band, runs close on band change.
  std::vector<RegionBuilder> builders;
  int num_bands = (255 / width) + 1;
  builders.reserve(static_cast<size_t>(num_bands));
  for (int b = 0; b < num_bands; ++b) builders.emplace_back(grid_, kind_);
  uint64_t n = data_.size();
  if (n > 0) {
    int current = data_[0] / width;
    uint64_t run_start = 0;
    for (uint64_t id = 1; id < n; ++id) {
      int b = data_[id] / width;
      if (b != current) {
        builders[current].AppendRun(run_start, id - 1);
        current = b;
        run_start = id;
      }
    }
    builders[current].AppendRun(run_start, n - 1);
  }
  std::vector<Region> bands;
  bands.reserve(builders.size());
  for (RegionBuilder& builder : builders) bands.push_back(builder.Build());
  return bands;
}

std::array<uint64_t, 256> Volume::Histogram() const {
  std::array<uint64_t, 256> h{};
  for (uint8_t v : data_) ++h[v];
  return h;
}

DataRegion::DataRegion(Region r, std::vector<uint8_t> values)
    : region_(std::move(r)),
      values_(std::make_shared<const std::vector<uint8_t>>(
          std::move(values))) {
  QBISM_CHECK(region_.VoxelCount() == values_->size());
}

Result<uint8_t> DataRegion::ValueAt(const Vec3i& p) const {
  if (!region_.ContainsPoint(p)) {
    return Status::NotFound("DataRegion::ValueAt: point not in region");
  }
  uint64_t id = PointToId(region_.grid(), region_.curve_kind(), p);
  // Rank of id within the region: sum of lengths of runs before it.
  uint64_t rank = 0;
  for (const Run& run : region_.runs()) {
    if (id > run.end) {
      rank += run.Length();
    } else {
      rank += id - run.start;
      break;
    }
  }
  return values()[rank];
}

Volume DataRegion::ToDenseVolume(uint8_t background) const {
  std::vector<uint8_t> data(region_.grid().NumCells(), background);
  const std::vector<uint8_t>& values = this->values();
  uint64_t cursor = 0;
  for (const Run& run : region_.runs()) {
    std::copy(values.begin() + static_cast<int64_t>(cursor),
              values.begin() + static_cast<int64_t>(cursor + run.Length()),
              data.begin() + static_cast<int64_t>(run.start));
    cursor += run.Length();
  }
  auto v = Volume::FromCurveOrderedData(region_.grid(), region_.curve_kind(),
                                        std::move(data));
  QBISM_CHECK(v.ok());
  return v.MoveValue();
}

double DataRegion::MeanIntensity() const {
  const std::vector<uint8_t>& values = this->values();
  if (values.empty()) return 0.0;
  uint64_t sum = 0;
  for (uint8_t v : values) sum += v;
  return static_cast<double>(sum) / static_cast<double>(values.size());
}

uint64_t DataRegion::ApproxSizeBytes() const {
  return 4 + 8 * region_.RunCount() + values().size();
}

Result<DataRegion> AverageExtract(const std::vector<const Volume*>& volumes,
                                  const Region& r) {
  if (volumes.empty()) {
    return Status::InvalidArgument("AverageExtract: no volumes");
  }
  std::vector<uint32_t> sums(static_cast<size_t>(r.VoxelCount()), 0);
  for (const Volume* v : volumes) {
    QBISM_ASSIGN_OR_RETURN(DataRegion extracted, v->Extract(r));
    const auto& values = extracted.values();
    for (size_t i = 0; i < values.size(); ++i) sums[i] += values[i];
  }
  std::vector<uint8_t> avg(sums.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    avg[i] = static_cast<uint8_t>(sums[i] / volumes.size());
  }
  return DataRegion(r, std::move(avg));
}

}  // namespace qbism::volume
