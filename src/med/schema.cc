#include "med/schema.h"

#include "common/macros.h"

namespace qbism::med {

Status BootstrapSchema(sql::Database* db) {
  static const char* kStatements[] = {
      "create table atlas (atlasId int, atlasName string, n int,"
      " x0 double, y0 double, z0 double, dx double, dy double, dz double)",

      "create table neuralSystem (systemId int, systemName string)",

      "create table neuralStructure (structureId int, structureName string,"
      " systemId int)",

      "create table atlasStructure (atlasId int, structureId int,"
      " region longfield, mesh longfield)",

      "create table patient (patientId int, name string, age int,"
      " sex string)",

      "create table rawVolume (studyId int, patientId int, date string,"
      " modality string, nx int, ny int, nz int, data longfield)",

      "create table warpedVolume (studyId int, atlasId int, data longfield,"
      " m00 double, m01 double, m02 double,"
      " m10 double, m11 double, m12 double,"
      " m20 double, m21 double, m22 double,"
      " tx double, ty double, tz double)",

      "create table intensityBand (studyId int, atlasId int, lo int, hi int,"
      " region longfield)",

      // Key B+-trees: every per-study lookup (the §3.4 translation, the
      // spatial index's candidate studies, ingest's study lookups)
      // filters on studyId, so these turn heap scans into key probes.
      "create index rawVolumeStudy on rawVolume (studyId)",
      "create index warpedVolumeStudy on warpedVolume (studyId)",
      "create index intensityBandStudy on intensityBand (studyId)",
  };
  for (const char* sql : kStatements) {
    QBISM_ASSIGN_OR_RETURN(sql::ResultSet unused, db->Execute(sql));
    (void)unused;
  }
  return Status::OK();
}

}  // namespace qbism::med
