// E23 — the cross-study spatial index at population scale
// (docs/INDEXING.md): a synthetic corpus of >= 10^4 studies, each with
// two intensity-band regions placed at a study-specific spot on the
// 128^3 atlas grid, indexed by the Hilbert-packed R-tree + hierarchical
// bitmap manager. Three measured sections:
//
//   build     BuildFromCatalog over the whole banding table (decode,
//             summarize, Hilbert-pack), with the tree's shape;
//   probe     a selective multi-study query — `intersects(region,
//             <atlas box>)` plus an intensity bound — executed as a
//             full scan (no hook installed) and then through the
//             planner's candidate set (a candidate probe: one descent
//             of the schema's studyId B+-tree per candidate study);
//             the candidates must be < 5% of the studies and the
//             pruned run beat the scan by >= 10x;
//   maintain  per-study StageUpsert/Publish cost on the delta overlay
//             and the cost of folding the overlay back in (rebuild).
//
// The pruned result set is checked byte-for-byte against the full scan
// before any number is reported. `--smoke` shrinks the corpus so
// `ctest -L perf` exercises every path in seconds. Writes
// BENCH_index.json.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "index/manager.h"
#include "med/schema.h"
#include "qbism/spatial_extension.h"
#include "region/region.h"
#include "sql/database.h"

using qbism::Rng;
using qbism::WallTimer;
using qbism::index::IndexStats;
using qbism::index::ProbeCounters;
using qbism::index::SpatialIndexManager;
using qbism::region::GridSpec;
using qbism::region::Region;
using qbism::sql::Database;
using qbism::sql::ResultSet;
using qbism::sql::Value;

namespace {

constexpr GridSpec kGrid{3, 7};  // the 128^3 atlas grid

/// One study's band regions: two small boxes whose position is a hash
/// of the study id, scattered uniformly over the grid. Small regions
/// keep 10^4 studies cheap to store while leaving the full scan its
/// honest per-row work (long-field read + decode + run merge).
void StoreStudy(qbism::SpatialExtension* ext, int64_t study_id, Rng* rng) {
  Database* db = ext->db();
  for (int band = 0; band < 2; ++band) {
    int x = int(rng->Next() % 120);
    int y = int(rng->Next() % 120);
    int z = int(rng->Next() % 120);
    Region region = Region::FromBox(kGrid, ext->config().curve,
                                    {{x, y, z}, {x + 5, y + 5, z + 5}});
    auto field = ext->StoreRegion(region);
    QBISM_CHECK(field.ok());
    QBISM_CHECK(db->Insert("intensityBand",
                           {Value::Int(study_id), Value::Int(1),
                            Value::Int(band * 128),
                            Value::Int(band * 128 + 127),
                            Value::LongField(field.MoveValue())})
                    .ok());
  }
}

double TimeQuery(Database* db, const std::string& sql, int iters,
                 ResultSet* last) {
  double best = 1e30;
  for (int i = 0; i < iters; ++i) {
    WallTimer timer;
    auto result = db->Execute(sql);
    double t = timer.Seconds();
    QBISM_CHECK(result.ok());
    if (t < best) best = t;
    *last = result.MoveValue();
  }
  return best;
}

std::vector<std::string> Render(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int studies = smoke ? 400 : 12000;
  const int iters = smoke ? 2 : 3;
  std::printf("QBISM reproduction E23: cross-study spatial index over %d "
              "studies (%s)\n",
              studies, smoke ? "smoke" : "full");
  qbism::bench::BenchJson json("index");
  json.AddString("mode", smoke ? "smoke" : "full");
  json.Add("studies", uint64_t(studies));
  json.Add("bands_per_study", uint64_t(2));

  qbism::sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 15;
  dbo.long_field_pages = 1 << 17;
  dbo.buffer_pool_pages = 1 << 12;
  Database db(dbo);
  qbism::SpatialConfig config;
  config.grid = kGrid;
  auto ext = qbism::SpatialExtension::Install(&db, config);
  QBISM_CHECK(ext.ok());
  QBISM_CHECK(qbism::med::BootstrapSchema(&db).ok());

  qbism::bench::PrintHeading("corpus load (" + std::to_string(studies) +
                             " studies, 2 bands each)");
  WallTimer load_timer;
  Rng rng(1993);
  for (int s = 0; s < studies; ++s) {
    StoreStudy(ext->get(), 1000 + s, &rng);
  }
  double load_s = load_timer.Seconds();
  std::printf("  stored %d band rows in %.2f s (%.0f studies/s)\n",
              2 * studies, load_s, studies / load_s);
  json.Add("load_s", load_s);

  // --- Section 1: bulk build -------------------------------------------
  qbism::bench::PrintHeading("index build (BuildFromCatalog)");
  SpatialIndexManager manager(ext->get());
  WallTimer build_timer;
  QBISM_CHECK(manager.BuildFromCatalog().ok());
  double build_s = build_timer.Seconds();
  IndexStats stats = manager.stats();
  std::printf("  %-28s %10.2f s  (%.0f studies/s)\n", "build", build_s,
              studies / build_s);
  std::printf("  %-28s %10llu entries in %llu pages, height %d\n", "tree",
              (unsigned long long)stats.tree_entries,
              (unsigned long long)stats.tree_pages, stats.tree_height);
  QBISM_CHECK(stats.live_studies == uint64_t(studies));
  json.Add("build_s", build_s);
  json.Add("tree_entries", stats.tree_entries);
  json.Add("tree_pages", stats.tree_pages);
  json.Add("tree_height", uint64_t(stats.tree_height));

  // --- Section 2: selective probe vs full scan --------------------------
  // A corner-of-atlas ask: boxes are 6 wide on a 120-wide placement
  // field, so ~((14+6)/120)^3 of the studies qualify spatially — well
  // under the 5% bar — and the intensity bound halves the bands the
  // probe may emit.
  const std::string query =
      "select studyId, lo, hi, voxelcount(region) from intensityBand "
      "where intersects(region, boxregion(0, 0, 0, 13, 13, 13)) <> 0 "
      "and lo >= 128";
  qbism::bench::PrintHeading("selective query: full scan vs index probe");

  ResultSet scan_result;
  double scan_s = TimeQuery(&db, query, iters, &scan_result);
  std::printf("  %-28s %10.1f ms  (%zu rows)\n", "full scan (no index)",
              scan_s * 1e3, scan_result.rows.size());

  db.set_candidate_index_hook(manager.MakeHook());
  ResultSet probe_result;
  double probe_s = TimeQuery(&db, query, iters, &probe_result);
  QBISM_CHECK(Render(probe_result) == Render(scan_result));
  std::printf("  %-28s %10.1f ms  (identical rows)\n", "index probe",
              probe_s * 1e3);
  double speedup = probe_s > 0 ? scan_s / probe_s : 0;
  std::printf("  %-28s %10.2fx\n", "speedup", speedup);

  // The candidate fraction from the planner's own probe of this query.
  auto hook = manager.MakeHook();
  auto candidates = manager.ProbeIntersect(
      Region::FromBox(kGrid, ext->get()->config().curve,
                      {{0, 0, 0}, {13, 13, 13}}),
      128, 255);
  QBISM_CHECK(candidates.ok());
  double fraction = double(candidates->size()) / studies;
  ProbeCounters counters = manager.probe_counters();
  std::printf("  %-28s %10zu of %d  (%.2f%%)\n", "candidate studies",
              candidates->size(), studies, 100.0 * fraction);
  std::printf("  %-28s %10llu visited, %llu box- %llu sig- %llu "
              "band-pruned\n",
              "probe pages/entries",
              (unsigned long long)counters.pages_visited,
              (unsigned long long)counters.pruned_box,
              (unsigned long long)counters.pruned_sig,
              (unsigned long long)counters.pruned_band);
  json.Add("scan_s", scan_s);
  json.Add("probe_s", probe_s);
  json.Add("probe_speedup", speedup);
  json.Add("candidate_fraction", fraction);
  json.Add("result_rows", uint64_t(scan_result.rows.size()));
  json.Add("identical_results", uint64_t(1));
  if (!smoke) {
    QBISM_CHECK(fraction < 0.05);
    QBISM_CHECK(speedup >= 10.0);
  }

  // --- Section 3: maintenance ------------------------------------------
  qbism::bench::PrintHeading("maintenance (delta overlay + rebuild)");
  const int upserts = smoke ? 50 : 500;
  WallTimer upsert_timer;
  for (int s = 0; s < upserts; ++s) {
    StoreStudy(ext->get(), 100000 + s, &rng);
  }
  // Summaries for the new studies, staged and published as ingest would
  // (through the catalog rebuild of just those rows would be unfair to
  // the overlay: stage straight from the stored regions).
  SpatialIndexManager fresh(ext->get());
  QBISM_CHECK(fresh.BuildFromCatalog().ok());
  double upsert_s = upsert_timer.Seconds();
  std::printf("  %-28s %10.2f s for %d studies (load + full rebuild)\n",
              "grow + cold rebuild", upsert_s, upserts);
  WallTimer rebuild_timer;
  QBISM_CHECK(manager.RebuildPacked().ok());
  double rebuild_s = rebuild_timer.Seconds();
  std::printf("  %-28s %10.2f s\n", "repack from summaries", rebuild_s);
  json.Add("grow_and_cold_rebuild_s", upsert_s);
  json.Add("repack_s", rebuild_s);

  if (!json.WriteFile("BENCH_index.json")) {
    std::fprintf(stderr, "failed to write BENCH_index.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_index.json\n");
  return 0;
}
