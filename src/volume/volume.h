#ifndef QBISM_VOLUME_VOLUME_H_
#define QBISM_VOLUME_VOLUME_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "curve/curve.h"
#include "geometry/vec3.h"
#include "region/region.h"

namespace qbism::volume {

class DataRegion;

/// VOLUME: a complete 3-D scalar field sampled on a regular cubic grid,
/// stored as a linearized intensity list in an implied curve order
/// (§3.1). Per §4.1 the default order is Hilbert: neighbouring voxels
/// land close together on disk, so spatial extraction touches few pages.
class Volume {
 public:
  Volume() = default;

  /// Samples `field` at every grid point. The field returns intensities
  /// (8-bit, matching the paper's studies).
  static Volume FromFunction(
      region::GridSpec grid, curve::CurveKind kind,
      const std::function<uint8_t(const geometry::Vec3i&)>& field);

  /// Adopts data already linearized in curve order (size must equal
  /// grid.NumCells()).
  static Result<Volume> FromCurveOrderedData(region::GridSpec grid,
                                             curve::CurveKind kind,
                                             std::vector<uint8_t> data);

  /// Converts from scanline order (x fastest, then y, then z) — the
  /// layout of the Raw Volume entity — into curve order.
  static Result<Volume> FromScanlineData(region::GridSpec grid,
                                         curve::CurveKind kind,
                                         const std::vector<uint8_t>& data);

  const region::GridSpec& grid() const { return grid_; }
  curve::CurveKind curve_kind() const { return kind_; }
  /// Intensities in curve-id order.
  const std::vector<uint8_t>& data() const { return data_; }

  /// Intensity at a curve id. Precondition: id < grid().NumCells().
  uint8_t ValueAtId(uint64_t id) const { return data_[id]; }

  /// Intensity at a grid point (the "efficient random access" spatial
  /// probe of §4.1). Fails when the point is outside the grid.
  Result<uint8_t> ValueAt(const geometry::Vec3i& p) const;

  /// Re-linearizes under another curve.
  Volume ConvertTo(curve::CurveKind kind) const;

  /// Back to scanline order (for export / rendering buffers).
  std::vector<uint8_t> ToScanline() const;

  /// EXTRACT_DATA(v, r): intensities of exactly the voxels inside `r`
  /// (§3.2). The region must share this volume's grid and curve.
  Result<DataRegion> Extract(const region::Region& r) const;

  /// REGION of voxels whose intensity lies in [lo, hi] (an "intensity
  /// band", §3.3). Single linear scan in curve order.
  region::Region BandRegion(uint8_t lo, uint8_t hi) const;

  /// Uniformly spaced bands of the given width covering 0..255; the
  /// paper uses width 32, yielding 8 bands. Bands are returned in
  /// ascending intensity order; empty bands are included (empty REGION).
  std::vector<region::Region> UniformBands(int width) const;

  /// 256-bin intensity histogram.
  std::array<uint64_t, 256> Histogram() const;

 private:
  region::GridSpec grid_;
  curve::CurveKind kind_ = curve::CurveKind::kHilbert;
  std::vector<uint8_t> data_;
};

/// DATA_REGION (footnote 6): a REGION plus one intensity per region
/// voxel, in curve-id order. This is the return value of EXTRACT_DATA.
/// The voxels sit in one immutable buffer that every copy shares, so
/// copying an answer copies its run list and not its voxels.
class DataRegion {
 public:
  DataRegion() = default;
  DataRegion(region::Region r, std::vector<uint8_t> values);

  const region::Region& region() const { return region_; }
  const std::vector<uint8_t>& values() const {
    return values_ ? *values_ : kNoValues;
  }
  uint64_t VoxelCount() const { return region_.VoxelCount(); }

  /// Intensity at a grid point inside the region.
  Result<uint8_t> ValueAt(const geometry::Vec3i& p) const;

  /// Densifies into a full volume with `background` outside the region
  /// (the ImportVolume conversion the DX module performs).
  Volume ToDenseVolume(uint8_t background) const;

  /// Mean intensity over the region (0 for an empty region).
  double MeanIntensity() const;

  /// Approximate serialized size in bytes: region (naive runs) + values.
  uint64_t ApproxSizeBytes() const;

  /// Optional cache of the region's elias-deltas payload, attached when
  /// the region arrived encoded (e.g. EXTRACT_DATA on an encoded
  /// operand) so shipping the answer reuses the bytes instead of
  /// re-encoding. Empty when absent.
  void set_encoded_region(std::vector<uint8_t> payload) {
    encoded_region_ = std::move(payload);
  }
  const std::vector<uint8_t>& encoded_region() const {
    return encoded_region_;
  }

 private:
  static inline const std::vector<uint8_t> kNoValues{};

  region::Region region_;
  /// Null only for a default-constructed (empty) DataRegion.
  std::shared_ptr<const std::vector<uint8_t>> values_;
  std::vector<uint8_t> encoded_region_;
};

/// Voxel-wise average of several studies restricted to a region (the
/// §6.4 multi-study aggregation query). All volumes must share grid and
/// curve with the region.
Result<DataRegion> AverageExtract(const std::vector<const Volume*>& volumes,
                                  const region::Region& r);

}  // namespace qbism::volume

#endif  // QBISM_VOLUME_VOLUME_H_
