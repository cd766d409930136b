// E14 — concurrent query service throughput: closed-loop load
// generator over the mixed §6.1 workload (entire studies, rectangular
// solids, atlas structures, stored bands), sweeping the service's
// execution slots (`num_workers`) over {1, 2, 4, 8} with the shared
// result cache off and on. Each client thread runs its requests itself
// once the service admits it. Reports QPS and end-to-end latency
// percentiles per configuration, a scaling summary (QPS vs 1 slot), and
// one JSON line per configuration for harnesses.
//
// Every configuration replays the same deterministic request stream
// (same workload seed), so rows differ only in service configuration.
//
// `--smoke` runs only the cache-off 1- and 4-slot arms over 128
// requests and exits non-zero when 1 -> 4 slots scales QPS by less
// than 2.5x (the full run gives ~3.6x on a 4-core host), so
// `ctest -L perf` catches a serving path that stops overlapping work.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "service/query_service.h"
#include "service/workload.h"

using qbism::QuerySpec;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::service::MetricsSnapshot;
using qbism::service::QueryService;
using qbism::service::ResultCacheStats;
using qbism::service::ServiceOptions;
using qbism::service::ServiceRequest;
using qbism::service::WorkloadGenerator;
using qbism::service::WorkloadMix;

namespace {

constexpr int kRequestsPerConfig = 512;
constexpr int kSmokeRequests = 128;
constexpr double kSmokeMinScaling = 2.5;  // 1 -> 4 slots, cache off
constexpr uint64_t kWorkloadSeed = 42;
// Realize the deterministic 1993 I/O + network cost model as wall-clock
// waits at 1/500 scale, so the pool's ability to overlap those waits —
// the point of a multi-threaded front end — is measurable on any host,
// including single-core CI machines where pure CPU cannot scale.
constexpr double kIoWaitScale = 1.0 / 500.0;

struct ConfigResult {
  int workers = 0;
  bool cache = false;
  double wall_seconds = 0.0;
  double qps = 0.0;
  MetricsSnapshot metrics;
  ResultCacheStats cache_stats;
};

/// Runs one configuration: `2 * workers` closed-loop clients (enough to
/// keep every slot busy; the surplus waits in the tenant's line, well
/// under its 64 waiting places) replaying a static partition of the
/// request stream.
ConfigResult RunConfig(SpatialExtension* ext,
                       const std::vector<QuerySpec>& specs, int workers,
                       bool cache) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_entries = cache ? 128 : 0;
  options.io_wait_scale = kIoWaitScale;
  QueryService service(ext, options);

  int clients = 2 * workers;
  std::vector<std::thread> threads;
  qbism::WallTimer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&service, &specs, c, clients] {
      for (size_t i = static_cast<size_t>(c); i < specs.size();
           i += static_cast<size_t>(clients)) {
        ServiceRequest request;
        request.spec = specs[i];
        auto reply = service.Execute(request);
        QBISM_CHECK(reply.ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ConfigResult out;
  out.workers = workers;
  out.cache = cache;
  out.wall_seconds = wall.Seconds();
  out.qps = static_cast<double>(specs.size()) / out.wall_seconds;
  out.metrics = service.metrics();
  out.cache_stats = service.cache_stats();
  service.Shutdown();
  return out;
}

void PrintRow(const ConfigResult& r) {
  double hit_rate =
      r.metrics.cache_hits + r.metrics.cache_misses == 0
          ? 0.0
          : static_cast<double>(r.metrics.cache_hits) /
                static_cast<double>(r.metrics.cache_hits +
                                    r.metrics.cache_misses);
  std::printf("%7d %6s %9.2f %8.1f %9.2f %9.2f %9.2f %9.2f %7.0f%%\n",
              r.workers, r.cache ? "on" : "off", r.wall_seconds, r.qps,
              1e3 * r.metrics.latency.p50, 1e3 * r.metrics.latency.p95,
              1e3 * r.metrics.latency.p99,
              1e3 * r.metrics.queue_wait.p95, 100.0 * hit_rate);
}

void PrintJson(const ConfigResult& r, int requests) {
  std::printf(
      "JSON {\"experiment\":\"service_throughput\",\"workers\":%d,"
      "\"cache\":%s,\"requests\":%d,\"wall_seconds\":%.4f,\"qps\":%.2f,"
      "\"cache_entries\":%llu,\"cache_evictions\":%llu,\"metrics\":%s}\n",
      r.workers, r.cache ? "true" : "false", requests,
      r.wall_seconds, r.qps,
      static_cast<unsigned long long>(r.cache_stats.entries),
      static_cast<unsigned long long>(r.cache_stats.evictions),
      r.metrics.ToJson().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int requests = smoke ? kSmokeRequests : kRequestsPerConfig;
  std::printf(
      "QBISM reproduction E14: concurrent query service throughput (%s "
      "mode).\n",
      smoke ? "smoke" : "full");
  std::printf("Loading database (3 PET studies, atlas, bands)...\n");

  qbism::sql::Database db;
  auto ext = SpatialExtension::Install(&db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 3;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(ext.get(), load);
  QBISM_CHECK(dataset.ok());

  auto gen = WorkloadGenerator::Create(ext.get(), dataset->pet_study_ids,
                                       dataset->structure_names,
                                       WorkloadMix{}, kWorkloadSeed)
                 .MoveValue();
  std::vector<QuerySpec> specs;
  specs.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) specs.push_back(gen.Next());
  std::printf(
      "Workload: %d requests (mixed full-study/box/structure/band), "
      "%llu distinct specs possible.\n\n",
      requests,
      static_cast<unsigned long long>(gen.DistinctSpecs()));

  std::printf("%7s %6s %9s %8s %9s %9s %9s %9s %8s\n", "workers", "cache",
              "wall(s)", "QPS", "p50(ms)", "p95(ms)", "p99(ms)",
              "qw95(ms)", "hits");
  std::vector<ConfigResult> results;
  if (smoke) {
    for (int workers : {1, 4}) {
      results.push_back(RunConfig(ext.get(), specs, workers, false));
      PrintRow(results.back());
    }
    double scaling = results[1].qps / results[0].qps;
    uint64_t rejected =
        results[0].metrics.quota_rejected + results[1].metrics.quota_rejected;
    bool ok = scaling >= kSmokeMinScaling && rejected == 0;
    std::printf(
        "\n1 -> 4 workers (cache off): %.2fx QPS (floor %.1fx), %llu "
        "rejected -> %s\n",
        scaling, kSmokeMinScaling, static_cast<unsigned long long>(rejected),
        ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }
  for (bool cache : {false, true}) {
    for (int workers : {1, 2, 4, 8}) {
      results.push_back(RunConfig(ext.get(), specs, workers, cache));
      PrintRow(results.back());
    }
  }

  // Scaling summary: QPS relative to the 1-worker arm of the same
  // cache setting.
  std::printf("\nScaling (QPS vs 1 worker):\n");
  for (bool cache : {false, true}) {
    double base = 0.0;
    for (const ConfigResult& r : results) {
      if (r.cache != cache) continue;
      if (r.workers == 1) base = r.qps;
      std::printf("  cache %-3s %d workers: %5.2fx\n", cache ? "on" : "off",
                  r.workers, r.qps / base);
    }
  }
  double off4 = 0.0, off1 = 0.0, on4 = 0.0;
  for (const ConfigResult& r : results) {
    if (!r.cache && r.workers == 1) off1 = r.qps;
    if (!r.cache && r.workers == 4) off4 = r.qps;
    if (r.cache && r.workers == 4) on4 = r.qps;
  }
  std::printf("\n1 -> 4 workers (cache off): %.2fx QPS\n", off4 / off1);
  std::printf("cache on vs off at 4 workers: %.2fx QPS\n\n", on4 / off4);

  for (const ConfigResult& r : results) PrintJson(r, requests);
  return 0;
}
