// E17 — vectored, parallel EXTRACT_DATA: coalesced page-extent I/O
// versus a serial read of the runs' distinct pages, across region
// shapes and worker counts. The simulated disk's service time is
// realized as wall-clock waits (DiskDevice::set_realize_scale), so the
// two levers under test —
// elevator coalescing (fewer seeks, each page once) and intra-query
// parallelism (shards overlapping their I/O waits) — are measurable in
// real time on any host, including single-core machines.
//
// Reports MB/s and per-extraction p50/p95 latency for the serial path
// and for the vectored path at 1/2/4/8 workers, plus the planner's
// coalescing ratio (pages a read per run would transfer per page
// actually read). The serial rows are built from public LFM calls: a
// gap-0 PlanRead (exactly the runs of consecutive distinct pages), one
// ReadExtents of those runs, and a copy-out per region run. A second
// table repeats the serial path and the vectored path at 1 and 4
// workers on the same device with the realize scale at 0, where a
// transfer is a memcpy and ExtractBytes reads inline whatever the pool.
// Writes BENCH_extract.json into the working directory.
//
// `--smoke` shrinks the grid and repetitions for the perf-labeled ctest.
// Besides the byte checks against the serial path and Volume::Extract,
// it exits 1 when an in-memory extraction with a pool runs any helper
// task, or when no extraction on the waiting device reaches a helper.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/task_pool.h"
#include "common/timer.h"
#include "geometry/shapes.h"
#include "qbism/parallel_extractor.h"
#include "qbism/spatial_extension.h"
#include "region/region.h"
#include "sql/database.h"
#include "volume/volume.h"

using qbism::ExtractOptions;
using qbism::ExtractorStatsSnapshot;
using qbism::ParallelExtractor;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::TaskPool;
using qbism::bench::BenchJson;
using qbism::geometry::Vec3i;
using qbism::region::GridSpec;
using qbism::region::Region;
using qbism::storage::ByteRange;
using qbism::storage::LongFieldId;
using qbism::storage::PlannedExtent;
using qbism::storage::ReadPlan;

namespace {

/// The serial rows' extraction: the distinct pages the runs touch, read
/// serially as one transfer per run of consecutive pages (a gap-0 plan,
/// no sharding) into `arena`, then each run's bytes copied out in
/// order. The arena is reused across calls: a fresh megabyte-sized
/// buffer per call would time its page faults, which the allocator
/// avoids only when it happens to recycle one.
std::vector<uint8_t> SerialExtract(qbism::storage::LongFieldManager* lfm,
                                   LongFieldId field,
                                   const std::vector<ByteRange>& ranges,
                                   uint64_t bytes,
                                   std::vector<uint8_t>* arena) {
  ReadPlan plan =
      lfm->PlanRead(field, ranges, qbism::storage::ReadPlanOptions{0})
          .MoveValue();
  arena->resize(plan.pages_read * qbism::storage::kPageSize);
  std::vector<uint8_t*> outs;  // where each extent lands in the arena
  uint8_t* next = arena->data();
  for (const PlannedExtent& e : plan.extents) {
    outs.push_back(next);
    next += e.ByteCount();
  }
  QBISM_CHECK_OK(lfm->ReadExtents(field, plan.extents, outs));
  std::vector<uint8_t> values;
  values.reserve(bytes);
  size_t e = 0;
  for (const ByteRange& r : ranges) {
    if (r.length == 0) continue;
    while (plan.extents[e].ByteOffset() + plan.extents[e].ByteCount() <=
           r.offset) {
      ++e;
    }
    const uint8_t* src = outs[e] + (r.offset - plan.extents[e].ByteOffset());
    values.insert(values.end(), src, src + r.length);
  }
  return values;
}

/// The per-run page sum: what a read-per-run execution transfers.
uint64_t PagesDemanded(const std::vector<ByteRange>& ranges) {
  uint64_t demanded = 0;
  for (const ByteRange& r : ranges) {
    if (r.length == 0) continue;
    demanded += (r.offset + r.length - 1) / qbism::storage::kPageSize -
                r.offset / qbism::storage::kPageSize + 1;
  }
  return demanded;
}

struct Shape {
  std::string name;
  Region region;
};

struct Measurement {
  std::string config;  // "serial" | "w1" | "w2" | ...
  double mbps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  uint64_t pages_read = 0;
  uint64_t pages_demanded = 0;
  double shards = 0.0;  // shard tasks per extraction; 0 for serial rows
};

double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(xs.size() - 1));
  return xs[i];
}

/// Runs `reps` timed extractions through `run`, which returns the bytes
/// moved per extraction.
Measurement Measure(const std::string& config, int reps,
                    const std::function<uint64_t()>& run) {
  run();  // warm
  Measurement m;
  m.config = config;
  uint64_t bytes = 0;
  std::vector<double> lat;
  qbism::WallTimer total;
  for (int r = 0; r < reps; ++r) {
    qbism::WallTimer t;
    bytes += run();
    lat.push_back(t.Seconds());
  }
  double wall = total.Seconds();
  m.mbps = static_cast<double>(bytes) / (1024.0 * 1024.0) / wall;
  m.p50_ms = 1e3 * Percentile(lat, 0.50);
  m.p95_ms = 1e3 * Percentile(lat, 0.95);
  return m;
}

void PrintHeader() {
  std::printf("%-12s %-7s %9s %9s %9s %9s %10s %10s %7s\n", "shape", "config",
              "MB/s", "p50(ms)", "p95(ms)", "speedup", "pages", "demanded",
              "shards");
}

void PrintRow(const std::string& shape, const Measurement& m,
              double serial_mbps) {
  std::printf("%-12s %-7s %9.1f %9.3f %9.3f %8.2fx %10llu %10llu ",
              shape.c_str(), m.config.c_str(), m.mbps, m.p50_ms, m.p95_ms,
              serial_mbps > 0.0 ? m.mbps / serial_mbps : 1.0,
              static_cast<unsigned long long>(m.pages_read),
              static_cast<unsigned long long>(m.pages_demanded));
  if (m.shards > 0.0) {
    std::printf("%7.1f\n", m.shards);
  } else {
    std::printf("%7s\n", "-");
  }
}

/// ExtractBytes at `workers` (the caller plus workers - 1 pool helpers),
/// timed over `reps` runs; adds the extractor's counters to the row and
/// its helper tasks to `*helper_tasks`.
Measurement MeasureVectored(qbism::storage::LongFieldManager* lfm,
                            LongFieldId field,
                            const std::vector<ByteRange>& ranges,
                            uint64_t bytes, int workers, int reps,
                            ExtractorStatsSnapshot* delta_out,
                            uint64_t* helper_tasks) {
  ExtractOptions options;
  options.min_parallel_pages = 1;
  ParallelExtractor extractor(lfm, options);
  std::unique_ptr<TaskPool> pool;
  if (workers > 1) {
    pool = std::make_unique<TaskPool>(workers - 1);
    extractor.set_pool(pool.get());
  }
  ExtractorStatsSnapshot before = extractor.stats();
  Measurement m = Measure("w" + std::to_string(workers), reps,
                          [&extractor, field, &ranges, bytes]() {
                            auto out = extractor.ExtractBytes(field, ranges);
                            QBISM_CHECK(out.ok());
                            return bytes;
                          });
  ExtractorStatsSnapshot delta = extractor.stats() - before;
  m.pages_read = delta.pages_read / delta.extractions;
  m.pages_demanded = delta.pages_demanded / delta.extractions;
  m.shards = static_cast<double>(delta.shard_tasks) /
             static_cast<double>(delta.extractions);
  *helper_tasks += delta.helper_tasks;
  if (delta_out != nullptr) *delta_out = delta;
  if (pool) pool->Shutdown();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf(
      "QBISM reproduction E17: vectored, parallel EXTRACT_DATA.\n");
  BenchJson json("extract");
  json.AddString("mode", smoke ? "smoke" : "full");

  // A long-field device big enough for the study volume; service time
  // realized as wall waits so coalescing and overlap show up in MB/s.
  const double kRealizeScale = smoke ? 1.0 / 500.0 : 1.0 / 100.0;
  const int kReps = smoke ? 3 : 12;
  SpatialConfig config;
  config.grid = GridSpec{3, smoke ? 5 : 7};
  qbism::sql::DatabaseOptions dbo;
  dbo.long_field_pages = 1 << (smoke ? 10 : 12);
  qbism::sql::Database db(dbo);
  auto ext = SpatialExtension::Install(&db, config).MoveValue();

  // A synthetic study volume with banded structure so an intensity band
  // yields the paper's scattered-short-run shape.
  const int n = 1 << config.grid.bits;
  qbism::volume::Volume volume = qbism::volume::Volume::FromFunction(
      config.grid, config.curve, [n](const Vec3i& p) {
        int cx = p.x - n / 2, cy = p.y - n / 2, cz = p.z - n / 2;
        return static_cast<uint8_t>(
            (cx * cx + cy * cy + cz * cz) * 255 / (3 * (n / 2) * (n / 2) + 1));
      });
  LongFieldId field = ext->StoreVolume(volume).MoveValue();
  db.lfm()->device()->set_realize_scale(kRealizeScale);

  const int lo_box = n / 4, hi_box = n - n / 4 - 1;
  std::vector<Shape> shapes;
  shapes.push_back({"full-study", Region::Full(config.grid, config.curve)});
  shapes.push_back(
      {"box", Region::FromBox(config.grid, config.curve,
                              {{lo_box, lo_box, lo_box},
                               {hi_box, hi_box, hi_box}})});
  shapes.push_back({"band-sparse", volume.BandRegion(96, 127)});
  shapes.push_back(
      {"slab", Region::FromBox(config.grid, config.curve,
                               {{0, 0, n / 2}, {n - 1, n - 1, n / 2 + 3}})});

  std::printf("grid %d^3 (%llu pages), realize scale 1/%.0f, %d reps\n\n",
              n,
              static_cast<unsigned long long>(config.grid.NumCells() /
                                              qbism::storage::kPageSize),
              1.0 / kRealizeScale, kReps);
  PrintHeader();

  double full_serial_mbps = 0.0, full_w4_mbps = 0.0;
  bool pages_bounded = true;
  uint64_t waiting_helper_tasks = 0;
  for (const Shape& shape : shapes) {
    std::vector<ByteRange> ranges = qbism::RunByteRanges(shape.region);
    uint64_t bytes = shape.region.VoxelCount();
    uint64_t demanded = PagesDemanded(ranges);

    // The serial path: each run of consecutive distinct pages is one
    // transfer, then a copy-out per region run.
    qbism::storage::IoStats io_before = db.lfm()->device()->stats();
    std::vector<uint8_t> arena;
    Measurement serial =
        Measure("serial", kReps, [&db, field, &ranges, bytes, &arena]() {
          SerialExtract(db.lfm(), field, ranges, bytes, &arena);
          return bytes;
        });
    serial.pages_read =
        (db.lfm()->device()->stats() - io_before).pages_read / (kReps + 1);
    serial.pages_demanded = demanded;
    PrintRow(shape.name, serial, serial.mbps);
    std::string prefix = shape.name + "_serial";
    json.Add(prefix + "_mbps", serial.mbps);
    json.Add(prefix + "_p50_ms", serial.p50_ms);
    json.Add(prefix + "_p95_ms", serial.p95_ms);
    if (shape.name == "full-study") full_serial_mbps = serial.mbps;

    // The vectored path at increasing worker counts (caller + helpers).
    for (int workers : {1, 2, 4, 8}) {
      ExtractorStatsSnapshot delta;
      Measurement m =
          MeasureVectored(db.lfm(), field, ranges, bytes, workers, kReps,
                          &delta, &waiting_helper_tasks);
      if (m.pages_read > m.pages_demanded) pages_bounded = false;
      PrintRow(shape.name, m, serial.mbps);
      prefix = shape.name + "_w" + std::to_string(workers);
      json.Add(prefix + "_mbps", m.mbps);
      json.Add(prefix + "_p50_ms", m.p50_ms);
      json.Add(prefix + "_p95_ms", m.p95_ms);
      json.Add(prefix + "_speedup", m.mbps / serial.mbps);
      if (workers == 4) {
        json.Add(shape.name + "_coalescing_ratio",
                 delta.CoalescingRatio());
        json.Add(shape.name + "_parallel_efficiency",
                 delta.ParallelEfficiency());
        if (shape.name == "full-study") full_w4_mbps = m.mbps;
      }
    }

    // Differential check once per shape: the vectored bytes must equal
    // the serial path's bytes and the in-memory extraction.
    {
      ParallelExtractor extractor(db.lfm());
      auto vec = extractor.ExtractBytes(field, ranges).MoveValue();
      QBISM_CHECK(vec == SerialExtract(db.lfm(), field, ranges, bytes, &arena));
      QBISM_CHECK(vec == volume.Extract(shape.region).MoveValue().values());
    }
    std::printf("\n");
  }

  // The same shapes on the in-memory device: a transfer is a memcpy, so
  // ExtractBytes reads inline (one shard) with or without a pool.
  db.lfm()->device()->set_realize_scale(0.0);
  const int kMemReps = smoke ? 20 : 400;
  std::printf("in memory (realize scale 0), %d reps\n\n", kMemReps);
  PrintHeader();
  uint64_t memory_helper_tasks = 0;
  for (const Shape& shape : shapes) {
    std::vector<ByteRange> ranges = qbism::RunByteRanges(shape.region);
    uint64_t bytes = shape.region.VoxelCount();
    std::vector<uint8_t> arena;
    qbism::storage::IoStats io_before = db.lfm()->device()->stats();
    Measurement serial =
        Measure("serial", kMemReps, [&db, field, &ranges, bytes, &arena]() {
          SerialExtract(db.lfm(), field, ranges, bytes, &arena);
          return bytes;
        });
    serial.pages_read =
        (db.lfm()->device()->stats() - io_before).pages_read / (kMemReps + 1);
    serial.pages_demanded = PagesDemanded(ranges);
    PrintRow(shape.name, serial, serial.mbps);
    std::string prefix = shape.name + "_mem_serial";
    json.Add(prefix + "_mbps", serial.mbps);
    json.Add(prefix + "_p50_ms", serial.p50_ms);
    for (int workers : {1, 4}) {
      Measurement m =
          MeasureVectored(db.lfm(), field, ranges, bytes, workers, kMemReps,
                          nullptr, &memory_helper_tasks);
      PrintRow(shape.name, m, serial.mbps);
      prefix = shape.name + "_mem_w" + std::to_string(workers);
      json.Add(prefix + "_mbps", m.mbps);
      json.Add(prefix + "_p50_ms", m.p50_ms);
      json.Add(prefix + "_shards", m.shards);
    }
    std::printf("\n");
  }

  double speedup_4w =
      full_serial_mbps > 0.0 ? full_w4_mbps / full_serial_mbps : 0.0;
  std::printf("full-study vectored @4 workers vs serial path: %.2fx\n",
              speedup_4w);
  std::printf("planner pages-read <= per-run demand everywhere: %s\n",
              pages_bounded ? "yes" : "NO");
  std::printf("helper tasks: %llu on the waiting device, %llu in memory\n",
              static_cast<unsigned long long>(waiting_helper_tasks),
              static_cast<unsigned long long>(memory_helper_tasks));
  json.Add("full_study_speedup_4w", speedup_4w);
  json.Add("pages_bounded", pages_bounded ? uint64_t{1} : uint64_t{0});
  json.Add("waiting_helper_tasks", waiting_helper_tasks);
  json.Add("memory_helper_tasks", memory_helper_tasks);

  const char* out = "BENCH_extract.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("failed to write %s\n", out);
    return 1;
  }
  // Fan out only where a transfer waits: in memory no helper runs, and
  // on the waiting device some extraction reaches one.
  if (memory_helper_tasks != 0) {
    std::printf("FAIL: an in-memory extraction ran helper tasks\n");
    return 1;
  }
  if (waiting_helper_tasks == 0) {
    std::printf("FAIL: no extraction on the waiting device reached a helper\n");
    return 1;
  }
  return 0;
}
