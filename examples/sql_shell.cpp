// SQL shell: an interactive console over the loaded medical database —
// type the paper's queries (§3.4) against the live schema, with the
// spatial UDFs available. `.plan` toggles printing each SELECT's
// EXPLAIN plan after its rows, `.tables` lists the catalog, `.quit`
// exits (EOF works too).
//
// Build & run:  ./build/examples/sql_shell
// Try:
//   select count(*) from intensityBand
//   select ns.structureName, voxelcount(ast.region) v from atlasStructure
//     ast, neuralStructure ns where ast.structureId = ns.structureId
//     order by v desc limit 5
//   select meanintensity(extractvoxels(wv.data, boxregion(30,30,30,
//     100,100,100))) from warpedVolume wv where wv.studyId = 53

#include <cstdio>
#include <iostream>
#include <string>

#include "common/macros.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/spatial_extension.h"

int main() {
  std::printf("QBISM SQL shell. Loading the medical database...\n");
  qbism::sql::Database db;
  auto ext =
      qbism::SpatialExtension::Install(&db, qbism::SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions options;
  options.num_pet_studies = 2;
  options.num_mri_studies = 0;
  options.build_meshes = false;
  QBISM_CHECK(qbism::med::PopulateDatabase(ext.get(), options).ok());
  std::printf("Loaded. PET studies 53-54; 11 atlas structures; type .help\n");

  bool show_plan = false;
  std::string line;
  while (true) {
    std::printf("qbism> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::printf(".tables  list tables\n.plan    toggle EXPLAIN "
                  "plans\n.quit    exit\nanything else is SQL\n");
      continue;
    }
    if (line == ".plan") {
      show_plan = !show_plan;
      std::printf("plans %s\n", show_plan ? "on" : "off");
      continue;
    }
    if (line == ".tables") {
      for (const std::string& name : db.catalog()->TableNames()) {
        std::printf("  %s\n", name.c_str());
      }
      continue;
    }
    qbism::WallTimer timer;
    auto result = db.Execute(line);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (!result->columns.empty()) {
      std::printf("%s", result->ToString().c_str());
      std::printf("(%zu row(s) in %.3f s)\n", result->rows.size(),
                  timer.Seconds());
    } else {
      std::printf("ok (%llu row(s) affected)\n",
                  static_cast<unsigned long long>(result->rows_affected));
    }
    if (show_plan) {
      // Only a SELECT has a plan: EXPLAIN rejects any other statement.
      auto plan = db.Execute("explain " + line);
      if (!plan.ok()) continue;
      for (const qbism::sql::Row& row : plan->rows) {
        std::printf("  plan: %s\n", row[0].AsString().value().c_str());
      }
    }
  }
  std::printf("\nbye\n");
  return 0;
}
