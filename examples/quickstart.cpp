// Quickstart: the smallest end-to-end QBISM program.
//
// Creates an extensible database, installs the spatial extension,
// stores a synthetic VOLUME and a REGION, and runs a spatial SQL query
// with the EXTRACT_DATA operator — the §3.2/§3.4 flow in ~80 lines.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/macros.h"
#include "qbism/spatial_extension.h"

using qbism::RunByteRanges;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::curve::CurveKind;
using qbism::geometry::Vec3i;
using qbism::region::GridSpec;
using qbism::region::Region;
using qbism::sql::Value;
using qbism::volume::Volume;

int main() {
  // 1. An extensible DBMS instance with the QBISM spatial extension on
  //    a 64^3 grid (the paper's atlas space is 128^3; smaller is
  //    snappier for a demo).
  qbism::sql::Database db;
  SpatialConfig config;
  config.grid = GridSpec{3, 6};
  auto ext = SpatialExtension::Install(&db, config).MoveValue();

  // 2. A table holding one scalar-field study as a VOLUME long field.
  QBISM_CHECK_OK(db.Execute("create table study (id int, data longfield)")
                     .status());

  // 3. A synthetic 3-D scalar field: a bright ball in a dim box,
  //    linearized in Hilbert order (§4.1).
  Volume volume = Volume::FromFunction(
      config.grid, CurveKind::kHilbert, [](const Vec3i& p) {
        double dx = p.x - 32.0, dy = p.y - 32.0, dz = p.z - 32.0;
        bool inside = dx * dx + dy * dy + dz * dz < 15.0 * 15.0;
        return static_cast<uint8_t>(inside ? 200 : 20);
      });
  auto volume_field = ext->StoreVolume(volume).MoveValue();
  QBISM_CHECK_OK(db.Insert("study", {Value::Int(1),
                                     Value::LongField(volume_field)}));

  // 4. A REGION of interest stored as compressed Hilbert runs, plus two
  //    spatial queries through plain SQL and the registered UDFs.
  QBISM_CHECK_OK(db.Execute("create table roi (name string, reg longfield)")
                     .status());
  Region box = Region::FromBox(config.grid, CurveKind::kHilbert,
                               {{20, 20, 20}, {43, 43, 43}});
  QBISM_CHECK_OK(db.Insert(
      "roi", {Value::String("center-box"),
              Value::LongField(ext->StoreRegion(box).MoveValue())}));

  auto result = db.Execute(
      "select voxelcount(reg), runcount(reg),"
      " meanintensity(extractvoxels(s.data, reg))"
      " from roi, study s where s.id = 1");
  QBISM_CHECK(result.ok());
  std::printf("ROI voxels:        %s\n",
              result->rows[0][0].ToString().c_str());
  std::printf("ROI hilbert runs:  %s\n",
              result->rows[0][1].ToString().c_str());
  std::printf("mean intensity:    %s\n",
              result->rows[0][2].ToString().c_str());

  // 5. A mixed query: high-intensity voxels inside the ROI, composed
  //    from bandregion() and intersection() exactly like §3.4's
  //    "complicated user query".
  auto mixed = db.Execute(
      "select voxelcount(intersection(reg, bandregion(s.data, 128, 255)))"
      " from roi, study s where s.id = 1");
  QBISM_CHECK(mixed.ok());
  std::printf("bright voxels in ROI: %s (the ball's overlap with the box)\n",
              mixed->rows[0][0].ToString().c_str());

  // 6. Early filtering in action: pages touched by the extraction
  //    versus a full-volume read.
  uint64_t roi_pages =
      db.lfm()->PlanRead(volume_field, RunByteRanges(box))->pages_touched;
  uint64_t full_pages = config.grid.NumCells() / qbism::storage::kPageSize;
  std::printf("LFM pages: ROI extraction %llu vs full study %llu\n",
              static_cast<unsigned long long>(roi_pages),
              static_cast<unsigned long long>(full_pages));
  return 0;
}
