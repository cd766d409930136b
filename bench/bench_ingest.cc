// E20 — online ingest and durability (docs/DURABILITY.md): the WAL
// ingest path measured end to end. Four phases:
//
//   ingest    a stream of fresh studies through QueryService::RunIngest
//             (one WAL transaction each, fsync on commit); reports
//             studies/s and logged MB/s.
//   idle      read latency baseline: reader threads run box queries
//             against committed studies with the result cache off, so
//             every read is a real extraction. Reports p50/p99.
//   busy      the same readers racing a writer that replaces a study
//             over and over (epoch-versioned swaps + periodic vacuum).
//             Readers target studies the writer never touches, so the
//             snapshot contract says no read may fail or block on the
//             writer. Reports read p50/p99 under ingest, replace
//             throughput, and vacuum reclamation.
//   recover   crash simulation: clone the LFM + WAL platters, rebuild a
//             fresh database over them, and time db.Recover() replaying
//             the log. Reports replay seconds and record counts, and
//             verifies a recovered study byte-for-byte.
//
// `--smoke` shrinks study sizes and counts so `ctest -L perf` exercises
// every phase in seconds. Writes BENCH_ingest.json.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/ingest.h"
#include "qbism/spatial_extension.h"
#include "service/query_service.h"
#include "sql/database.h"

using qbism::IngestManager;
using qbism::Rng;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::service::QueryService;
using qbism::service::ServiceOptions;
using qbism::service::ServiceRequest;

namespace {

constexpr int kGridOrder = 3;
constexpr int kGridMaxLevel = 5;

qbism::sql::DatabaseOptions WalOptions() {
  qbism::sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 11;
  dbo.long_field_pages = 1 << 12;
  dbo.buffer_pool_pages = 128;
  dbo.enable_wal = true;
  dbo.wal_pages = 1 << 13;  // the whole run's transactions fit the log
  return dbo;
}

struct World {
  qbism::sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  std::unique_ptr<IngestManager> ingest;

  World() : db(WalOptions()) {}
};

std::shared_ptr<World> BuildWorld() {
  auto world = std::make_shared<World>();
  SpatialConfig config;
  config.grid = qbism::region::GridSpec{kGridOrder, kGridMaxLevel};
  world->ext = SpatialExtension::Install(&world->db, config).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&world->db));
  // The query path joins atlas and patient rows; ingest only brings the
  // study tables, so seed the reference data the way the bulk loader
  // would.
  double side = static_cast<double>(config.grid.SideLength());
  QBISM_CHECK_OK(world->db.Insert(
      "atlas", qbism::sql::Row{qbism::sql::Value::Int(1),
                               qbism::sql::Value::String("Talairach"),
                               qbism::sql::Value::Int(
                                   static_cast<int64_t>(side)),
                               qbism::sql::Value::Double(0),
                               qbism::sql::Value::Double(0),
                               qbism::sql::Value::Double(0),
                               qbism::sql::Value::Double(200.0 / side),
                               qbism::sql::Value::Double(150.0 / side),
                               qbism::sql::Value::Double(300.0 / side)}));
  for (int patient_id = 101; patient_id <= 132; ++patient_id) {
    QBISM_CHECK_OK(world->db.Insert(
        "patient", qbism::sql::Row{qbism::sql::Value::Int(patient_id),
                                   qbism::sql::Value::String("patient"),
                                   qbism::sql::Value::Int(40),
                                   qbism::sql::Value::String("F")}));
  }
  world->ingest = std::make_unique<IngestManager>(world->ext.get());
  return world;
}

qbism::med::StudyRecord MakeRecord(int study_id, uint64_t seed, int nx, int ny,
                                   int nz) {
  Rng rng(seed);
  std::vector<uint8_t> data(static_cast<size_t>(nx) * ny * nz);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  qbism::med::StudyRecord record;
  record.study_id = study_id;
  record.patient_id = 100 + study_id;
  record.date = "1993-07-01";
  record.modality = "PET";
  record.raw =
      qbism::warp::RawVolume::Create(nx, ny, nz, std::move(data)).value();
  record.warp_seed = seed;
  record.band_width = 64;
  return record;
}

ServiceRequest BoxQuery(int study_id) {
  ServiceRequest request;
  request.spec.study_id = study_id;
  request.spec.box = qbism::geometry::Box3i{{4, 4, 4}, {27, 27, 27}};
  return request;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t at = static_cast<size_t>(p * (samples.size() - 1) + 0.5);
  return samples[std::min(at, samples.size() - 1)];
}

struct ReadStats {
  std::vector<double> latencies;  // seconds
  uint64_t failures = 0;
};

/// `readers` threads issue box queries round-robin over studies
/// [1, num_studies]; each runs at least `min_queries` and keeps going
/// until `stop` (when provided) goes true, so a read stream spans an
/// entire concurrent-writer run.
ReadStats RunReaders(QueryService* service, int readers, int num_studies,
                     int min_queries, const std::atomic<bool>* stop) {
  std::vector<ReadStats> per_thread(static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      ReadStats& mine = per_thread[static_cast<size_t>(r)];
      int issued = 0;
      while (issued < min_queries || (stop != nullptr && !stop->load())) {
        int study = 1 + (r + issued) % num_studies;
        qbism::WallTimer timer;
        auto reply = service->Execute(BoxQuery(study));
        if (reply.ok()) {
          mine.latencies.push_back(timer.Seconds());
        } else {
          ++mine.failures;
        }
        ++issued;
      }
    });
  }
  for (auto& t : threads) t.join();
  ReadStats merged;
  for (ReadStats& stats : per_thread) {
    merged.latencies.insert(merged.latencies.end(), stats.latencies.begin(),
                            stats.latencies.end());
    merged.failures += stats.failures;
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("QBISM reproduction E20: online ingest + durability (%s mode).\n",
              smoke ? "smoke" : "full");
  qbism::bench::BenchJson json("ingest");
  json.AddString("mode", smoke ? "smoke" : "full");

  const int kStudies = smoke ? 4 : 8;       // last id is the writer's victim
  const int kDimX = smoke ? 24 : 32;
  const int kDimY = smoke ? 24 : 32;
  const int kDimZ = smoke ? 12 : 16;
  const int kReaders = 2;
  const int kIdleQueries = smoke ? 24 : 150;  // per reader thread
  const int kReplaces = smoke ? 6 : 24;
  const int kVacuumEvery = 4;

  std::shared_ptr<World> world = BuildWorld();
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_entries = 0;  // every read is a real extraction
  options.cost_model.sql_compile_seconds = 0.0;
  options.ingest = world->ingest.get();
  QueryService service(world->ext.get(), options);

  // ---- Phase 1: ingest throughput ---------------------------------------
  qbism::bench::PrintHeading("Phase 1: WAL ingest throughput");
  uint64_t raw_bytes = 0;
  qbism::WallTimer ingest_timer;
  for (int id = 1; id <= kStudies; ++id) {
    qbism::med::StudyRecord record =
        MakeRecord(id, 1000 + static_cast<uint64_t>(id), kDimX, kDimY, kDimZ);
    raw_bytes += record.raw.data().size();
    QBISM_CHECK_OK(service.RunIngest(record, /*replace=*/false));
  }
  double ingest_seconds = ingest_timer.Seconds();
  uint64_t wal_bytes = world->db.wal()->stats().durable_bytes;
  std::printf(
      "%d studies (%.1f KB raw each) in %.3fs: %.1f studies/s, "
      "%.2f MB/s logged (%.1f KB WAL)\n",
      kStudies, raw_bytes / 1024.0 / kStudies, ingest_seconds,
      kStudies / ingest_seconds, wal_bytes / 1e6 / ingest_seconds,
      wal_bytes / 1024.0);
  json.Add("ingest_studies", static_cast<uint64_t>(kStudies));
  json.Add("ingest_seconds", ingest_seconds);
  json.Add("ingest_studies_per_s", kStudies / ingest_seconds);
  json.Add("ingest_wal_bytes", wal_bytes);
  json.Add("ingest_logged_mb_per_s", wal_bytes / 1e6 / ingest_seconds);

  // ---- Phase 2: idle read latency ---------------------------------------
  qbism::bench::PrintHeading("Phase 2: read latency, no ingest");
  ReadStats idle = RunReaders(&service, kReaders, kStudies, kIdleQueries,
                              /*stop=*/nullptr);
  double idle_p50 = Percentile(idle.latencies, 0.50);
  double idle_p99 = Percentile(idle.latencies, 0.99);
  std::printf("%zu reads: p50 %.2f ms, p99 %.2f ms (%llu failures)\n",
              idle.latencies.size(), 1e3 * idle_p50, 1e3 * idle_p99,
              static_cast<unsigned long long>(idle.failures));
  json.Add("read_idle_count", static_cast<uint64_t>(idle.latencies.size()));
  json.Add("read_idle_p50_ms", 1e3 * idle_p50);
  json.Add("read_idle_p99_ms", 1e3 * idle_p99);

  // ---- Phase 3: reads racing a replace stream ---------------------------
  qbism::bench::PrintHeading("Phase 3: read latency under concurrent ingest");
  // The writer hammers the last study; readers touch only the others,
  // so the snapshot contract makes every read a must-succeed.
  std::atomic<bool> writer_done{false};
  uint64_t replace_failures = 0;
  double replace_seconds = 0.0;
  std::thread writer([&] {
    qbism::WallTimer timer;
    for (int i = 0; i < kReplaces; ++i) {
      qbism::med::StudyRecord record = MakeRecord(
          kStudies, 5000 + static_cast<uint64_t>(i), kDimX, kDimY, kDimZ);
      if (!service.RunIngest(record, /*replace=*/true).ok()) {
        ++replace_failures;
      }
      if ((i + 1) % kVacuumEvery == 0) world->ingest->Vacuum();
    }
    replace_seconds = timer.Seconds();
    writer_done.store(true);
  });
  ReadStats busy = RunReaders(&service, kReaders, kStudies - 1, kIdleQueries,
                              &writer_done);
  writer.join();
  auto vacuum = world->ingest->Vacuum();
  double busy_p50 = Percentile(busy.latencies, 0.50);
  double busy_p99 = Percentile(busy.latencies, 0.99);
  std::printf("%zu reads: p50 %.2f ms, p99 %.2f ms (%llu failures)\n",
              busy.latencies.size(), 1e3 * busy_p50, 1e3 * busy_p99,
              static_cast<unsigned long long>(busy.failures));
  std::printf(
      "writer: %d replaces in %.3fs (%.1f/s, %llu failed); final vacuum "
      "freed %llu extents / %llu pages\n",
      kReplaces, replace_seconds, kReplaces / replace_seconds,
      static_cast<unsigned long long>(replace_failures),
      static_cast<unsigned long long>(vacuum.extents_freed),
      static_cast<unsigned long long>(vacuum.pages_freed));
  bool reads_ok = idle.failures == 0 && busy.failures == 0 &&
                  replace_failures == 0;
  json.Add("read_busy_count", static_cast<uint64_t>(busy.latencies.size()));
  json.Add("read_busy_p50_ms", 1e3 * busy_p50);
  json.Add("read_busy_p99_ms", 1e3 * busy_p99);
  json.Add("replaces", static_cast<uint64_t>(kReplaces));
  json.Add("replaces_per_s", kReplaces / replace_seconds);
  json.Add("vacuum_pages_freed", vacuum.pages_freed);
  json.AddString("reads_ok", reads_ok ? "true" : "false");

  // ---- Phase 4: crash recovery replay -----------------------------------
  qbism::bench::PrintHeading("Phase 4: WAL replay after a crash");
  std::vector<uint8_t> lfm_image =
      world->db.long_field_device()->CloneContents();
  std::vector<uint8_t> wal_image = world->db.wal_device()->CloneContents();
  std::shared_ptr<World> recovered = BuildWorld();
  QBISM_CHECK_OK(
      recovered->db.long_field_device()->RestoreContents(lfm_image));
  QBISM_CHECK_OK(recovered->db.wal_device()->RestoreContents(wal_image));
  qbism::WallTimer recover_timer;
  auto stats = recovered->db.Recover();
  if (!stats.ok()) {
    std::printf("recovery failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  double recover_seconds = recover_timer.Seconds();
  // Committed-implies-visible, byte for byte: study 1 never changed
  // after its ingest, so its bytes must round-trip through the crash.
  auto survivor = qbism::med::LoadRawVolume(recovered->ext.get(), 1);
  QBISM_CHECK(survivor.ok());
  bool recovered_ok =
      survivor->data() == MakeRecord(1, 1001, kDimX, kDimY, kDimZ).raw.data() &&
      recovered->db.lfm()->CheckPageAccounting().ok();
  std::printf(
      "replayed %llu records (%llu txns) in %.3f ms; study bytes %s\n",
      static_cast<unsigned long long>(stats->records_replayed),
      static_cast<unsigned long long>(stats->committed_txns),
      1e3 * recover_seconds, recovered_ok ? "intact" : "DIVERGED");
  json.Add("recovery_seconds", recover_seconds);
  json.Add("recovery_records", stats->records_replayed);
  json.Add("recovery_committed_txns", stats->committed_txns);
  json.AddString("recovered_ok", recovered_ok ? "true" : "false");

  const char* out = "BENCH_ingest.json";
  if (json.WriteFile(out)) {
    std::printf("\nWrote %s\n", out);
  } else {
    std::printf("\nWARNING: could not write %s\n", out);
  }
  if (!reads_ok || !recovered_ok) {
    std::printf("E20 FAILED: reads_ok=%d recovered_ok=%d\n", reads_ok,
                recovered_ok);
    return 1;
  }
  return 0;
}
