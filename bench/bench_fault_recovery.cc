// E15 — query-service fault recovery: closed-loop load over the mixed
// §6.1 workload while the long-field device fails each page transfer
// independently with probability p (FaultPlan::FailRandom, transient).
// Sweeps p in {0, 0.5%, 2%, 8%} with worker retries disabled and
// enabled, reporting QPS, latency percentiles, the client-visible
// failure fraction, and the retry/giveup counters — the degradation
// curve that shows capped-backoff retries absorbing transient faults.
//
// Every configuration replays the same deterministic request stream and
// a per-rate deterministic fault stream, so rows differ only in fault
// rate and retry policy.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "storage/fault_plan.h"

using qbism::QuerySpec;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::service::MetricsSnapshot;
using qbism::service::QueryService;
using qbism::service::ServiceOptions;
using qbism::service::ServiceRequest;
using qbism::service::WorkloadGenerator;
using qbism::service::WorkloadMix;
using qbism::storage::FaultPlan;
using qbism::storage::FaultStats;

namespace {

constexpr int kRequestsPerConfig = 256;
constexpr int kWorkers = 4;
constexpr uint64_t kWorkloadSeed = 42;
constexpr uint64_t kFaultSeedBase = 1993;
// Same wall-clock realization of the modeled I/O waits as E14, so the
// latency columns are comparable across the two experiments.
constexpr double kIoWaitScale = 1.0 / 500.0;

constexpr double kFaultRates[] = {0.0, 0.005, 0.02, 0.08};

struct ConfigResult {
  double fault_rate = 0.0;
  int max_retries = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  uint64_t client_ok = 0;
  uint64_t client_failed = 0;
  MetricsSnapshot metrics;
  FaultStats device;  // transfer/fault deltas on the long-field device
};

/// Runs one configuration: install the fault plan, replay the request
/// stream through `2 * kWorkers` closed-loop clients that tolerate
/// failures (a real client sees an error reply, not a crash), then
/// clear the plan.
ConfigResult RunConfig(qbism::sql::Database* db, SpatialExtension* ext,
                       const std::vector<QuerySpec>& specs, double fault_rate,
                       int max_retries, uint64_t fault_seed) {
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.cache_entries = 0;  // every request really performs I/O
  options.io_wait_scale = kIoWaitScale;
  options.max_retries = max_retries;
  QueryService service(ext, options);

  FaultStats before = db->long_field_device()->fault_stats();
  if (fault_rate > 0.0) {
    db->long_field_device()->InstallFaultPlan(
        FaultPlan::FailRandom(fault_rate, fault_seed));
  }

  std::vector<uint64_t> ok(2 * kWorkers, 0), failed(2 * kWorkers, 0);
  std::vector<std::thread> threads;
  qbism::WallTimer wall;
  for (int c = 0; c < 2 * kWorkers; ++c) {
    threads.emplace_back([&service, &specs, &ok, &failed, c] {
      for (size_t i = static_cast<size_t>(c); i < specs.size();
           i += static_cast<size_t>(2 * kWorkers)) {
        ServiceRequest request;
        request.spec = specs[i];
        if (service.Execute(request).ok()) {
          ++ok[c];
        } else {
          ++failed[c];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  ConfigResult out;
  out.fault_rate = fault_rate;
  out.max_retries = max_retries;
  out.wall_seconds = wall.Seconds();
  out.qps = static_cast<double>(specs.size()) / out.wall_seconds;
  for (uint64_t n : ok) out.client_ok += n;
  for (uint64_t n : failed) out.client_failed += n;
  out.metrics = service.metrics();
  db->long_field_device()->ClearFault();
  out.device = db->long_field_device()->fault_stats() - before;
  service.Shutdown();
  return out;
}

void PrintRow(const ConfigResult& r) {
  std::printf(
      "%7.1f%% %7d %9.2f %8.1f %9.2f %9.2f %7llu %7llu %8llu %8llu %6.1f%%\n",
      100.0 * r.fault_rate, r.max_retries, r.wall_seconds, r.qps,
      1e3 * r.metrics.latency.p50, 1e3 * r.metrics.latency.p95,
      static_cast<unsigned long long>(r.metrics.retries),
      static_cast<unsigned long long>(r.metrics.giveups),
      static_cast<unsigned long long>(r.device.faults_injected),
      static_cast<unsigned long long>(r.client_failed),
      100.0 * static_cast<double>(r.client_failed) /
          static_cast<double>(kRequestsPerConfig));
}

void PrintJson(const ConfigResult& r) {
  std::printf(
      "JSON {\"experiment\":\"fault_recovery\",\"fault_rate\":%.4f,"
      "\"max_retries\":%d,\"requests\":%d,\"wall_seconds\":%.4f,"
      "\"qps\":%.2f,\"client_ok\":%llu,\"client_failed\":%llu,"
      "\"device_transfers\":%llu,\"device_faults\":%llu,\"metrics\":%s}\n",
      r.fault_rate, r.max_retries, kRequestsPerConfig, r.wall_seconds, r.qps,
      static_cast<unsigned long long>(r.client_ok),
      static_cast<unsigned long long>(r.client_failed),
      static_cast<unsigned long long>(r.device.transfers),
      static_cast<unsigned long long>(r.device.faults_injected),
      r.metrics.ToJson().c_str());
}

}  // namespace

int main() {
  std::printf("QBISM reproduction E15: query-service fault recovery.\n");
  std::printf("Loading database (2 PET studies, atlas, bands)...\n");

  qbism::sql::Database db;
  auto ext = SpatialExtension::Install(&db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 2;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(ext.get(), load);
  QBISM_CHECK(dataset.ok());

  auto gen = WorkloadGenerator::Create(ext.get(), dataset->pet_study_ids,
                                       dataset->structure_names,
                                       WorkloadMix{}, kWorkloadSeed)
                 .MoveValue();
  std::vector<QuerySpec> specs;
  specs.reserve(kRequestsPerConfig);
  for (int i = 0; i < kRequestsPerConfig; ++i) specs.push_back(gen.Next());
  std::printf(
      "Workload: %d requests (mixed full-study/box/structure/band), "
      "%d workers, result cache off, transient faults on the long-field "
      "device.\n\n",
      kRequestsPerConfig, kWorkers);

  std::printf("%8s %7s %9s %8s %9s %9s %7s %7s %8s %8s %7s\n", "faults",
              "retries", "wall(s)", "QPS", "p50(ms)", "p95(ms)", "retry",
              "giveup", "injected", "cfail", "fail%");
  std::vector<ConfigResult> results;
  int config = 0;
  for (int max_retries : {0, 2}) {
    for (double rate : kFaultRates) {
      results.push_back(RunConfig(&db, ext.get(), specs, rate, max_retries,
                                  kFaultSeedBase + config));
      PrintRow(results.back());
      ++config;
    }
  }

  // Degradation summary: each arm's throughput and client-visible
  // failure fraction relative to its own fault-free baseline.
  std::printf("\nDegradation vs fault-free baseline:\n");
  for (int max_retries : {0, 2}) {
    double base_qps = 0.0;
    for (const ConfigResult& r : results) {
      if (r.max_retries != max_retries) continue;
      if (r.fault_rate == 0.0) base_qps = r.qps;
      std::printf(
          "  retries=%d p=%4.1f%%: %5.1f%% QPS, %5.1f%% of requests failed\n",
          max_retries, 100.0 * r.fault_rate, 100.0 * r.qps / base_qps,
          100.0 * static_cast<double>(r.client_failed) /
              static_cast<double>(kRequestsPerConfig));
    }
  }
  std::printf("\n");

  for (const ConfigResult& r : results) PrintJson(r);
  return 0;
}
