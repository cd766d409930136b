// E19 — real-socket front end under load: the QBISM wire protocol
// (src/server) driven by a sockets-based load generator. Three phases:
//
//   scale     holds >= 1000 concurrent authenticated TCP connections
//             against one server (thread-per-connection, connection
//             cap above the fleet) and proves they are all live.
//   fairness  one greedy tenant (many closed-loop connections, zero
//             think time) against two victim tenants; per-tenant p99
//             from the server's wire accounting, compared against a
//             victim-alone baseline. The documented bound (see
//             docs/NETWORK.md): victim p99 under attack stays within
//             4x its solo p99, and the greedy surplus bounces as
//             quota_rejected instead of queueing unboundedly.
//   trace     a traced run; verifies every wire request produced one
//             request -> {accept, decode, query -> {queue, ...}, ship}
//             trace and that traced ship bytes == server ship stats ==
//             client receipts (the codec's accounting, end to end).
//
// `--smoke` shrinks the fleet and request counts so `ctest -L perf`
// exercises every phase in seconds. Writes BENCH_net.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "service/workload.h"

using qbism::QuerySpec;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::server::ErrorReason;
using qbism::server::NetClient;
using qbism::server::QbismServer;
using qbism::server::ServerOptions;
using qbism::server::ServerStats;
using qbism::server::TenantConfig;
using qbism::server::TenantWireStats;
using qbism::service::WorkloadGenerator;
using qbism::service::WorkloadMix;

namespace obs = qbism::obs;

namespace {

constexpr uint64_t kWorkloadSeed = 2026;
// Realize the modeled 1993 I/O waits at 1/500 scale so queries take
// milliseconds, not microseconds — fairness and queueing need work
// that lasts long enough to contend (same scale as E14).
constexpr double kIoWaitScale = 1.0 / 500.0;

TenantConfig Tenant(const std::string& name, double weight, int max_waiting) {
  TenantConfig t;
  t.name = name;
  t.secret = name + "-secret";
  t.weight = weight;
  t.max_waiting = max_waiting;
  t.max_sessions = 1 << 16;
  return t;
}

struct LoadedDb {
  qbism::sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  std::vector<int> study_ids;
  std::vector<std::string> structures;
};

void LoadDatabase(LoadedDb* out) {
  out->ext =
      SpatialExtension::Install(&out->db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&out->db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 3;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(out->ext.get(), load);
  QBISM_CHECK(dataset.ok());
  out->study_ids = dataset->pet_study_ids;
  out->structures = dataset->structure_names;
}

std::vector<QuerySpec> MakeSpecs(LoadedDb* db, int n, uint64_t seed) {
  auto gen = WorkloadGenerator::Create(db->ext.get(), db->study_ids,
                                       db->structures, WorkloadMix{}, seed)
                 .MoveValue();
  std::vector<QuerySpec> specs;
  specs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) specs.push_back(gen.Next());
  return specs;
}

// --- Phase 1: connection scale -----------------------------------------

struct ScaleResult {
  int target_connections = 0;
  int connected = 0;
  int logged_in = 0;
  int pings_ok = 0;
  int queries_ok = 0;
  double connect_seconds = 0.0;
  double ping_sweep_seconds = 0.0;
  uint64_t peak_connections = 0;
};

/// Drivers open `per_driver` sockets each and keep them all open; the
/// client fleet is held by a bounded driver pool, not one thread per
/// connection on the client side (the server side is the one under
/// test). Every connection authenticates, answers a ping sweep, and a
/// subset runs a real query.
ScaleResult RunScalePhase(LoadedDb* db, int target, int drivers) {
  ServerOptions options;
  options.tenants = {Tenant("fleet", 1.0, 1 << 20)};
  options.max_connections = target + 64;
  options.listen_backlog = 1024;
  options.service.num_workers = 4;
  options.service.io_wait_scale = 0.0;  // scale phase measures the wire
  options.service.cost_model.sql_compile_seconds = 0.0;
  QbismServer server(db->ext.get(), options);
  QBISM_CHECK_OK(server.Start());

  ScaleResult out;
  out.target_connections = target;
  int per_driver = (target + drivers - 1) / drivers;
  std::vector<std::vector<NetClient>> fleets(
      static_cast<size_t>(drivers));
  std::atomic<int> connected{0}, logged_in{0};

  qbism::WallTimer connect_timer;
  {
    std::vector<std::thread> pool;
    for (int d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        auto& fleet = fleets[static_cast<size_t>(d)];
        int want = std::min(per_driver, target - d * per_driver);
        for (int i = 0; i < want; ++i) {
          auto client = NetClient::Connect("127.0.0.1", server.port());
          if (!client.ok()) continue;
          connected.fetch_add(1);
          if (client->Login("fleet", "fleet-secret").ok()) {
            logged_in.fetch_add(1);
            fleet.push_back(client.MoveValue());
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  out.connect_seconds = connect_timer.Seconds();
  out.connected = connected.load();
  out.logged_in = logged_in.load();
  out.peak_connections = server.stats().peak_connections;

  // Liveness sweep: every held connection answers a ping while all the
  // others stay open.
  std::atomic<int> pings{0};
  qbism::WallTimer ping_timer;
  {
    std::vector<std::thread> pool;
    for (int d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        for (auto& client : fleets[static_cast<size_t>(d)]) {
          if (client.Ping().ok()) pings.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  out.ping_sweep_seconds = ping_timer.Seconds();
  out.pings_ok = pings.load();

  // A query on a spread of the held connections exercises the full
  // request path while the rest of the fleet idles on the server.
  std::vector<QuerySpec> specs = MakeSpecs(db, 32, kWorkloadSeed);
  std::atomic<int> queries{0};
  {
    std::vector<std::thread> pool;
    for (int d = 0; d < drivers; ++d) {
      pool.emplace_back([&, d] {
        auto& fleet = fleets[static_cast<size_t>(d)];
        for (size_t i = 0; i < fleet.size(); i += 16) {
          if (fleet[i]
                  .RunQuery(specs[(static_cast<size_t>(d) + i) %
                                  specs.size()])
                  .ok()) {
            queries.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  out.queries_ok = queries.load();

  for (auto& fleet : fleets) {
    for (auto& client : fleet) client.Bye();
  }
  server.Shutdown();
  return out;
}

// --- Phase 2: multi-tenant fairness ------------------------------------

struct TenantLoadSpec {
  std::string name;
  int connections = 0;
  int queries_per_connection = 0;
};

struct FairnessResult {
  std::map<std::string, TenantWireStats> tenants;
  uint64_t quota_rejected = 0;
  double wall_seconds = 0.0;
};

/// Closed-loop load: each tenant runs `connections` concurrent
/// connections, each issuing `queries_per_connection` queries with zero
/// think time. Quota bounces are counted and retried after a short
/// backoff (the protocol's contract: surplus must bounce, not starve).
FairnessResult RunTenantLoad(LoadedDb* db, QbismServer* server,
                             const std::vector<TenantLoadSpec>& tenants) {
  std::vector<QuerySpec> specs = MakeSpecs(db, 64, kWorkloadSeed + 1);
  std::vector<std::thread> threads;
  qbism::WallTimer wall;
  for (const TenantLoadSpec& tenant : tenants) {
    for (int c = 0; c < tenant.connections; ++c) {
      threads.emplace_back([&, tenant, c] {
        auto client = NetClient::Connect("127.0.0.1", server->port());
        if (!client.ok()) return;
        if (!client->Login(tenant.name, tenant.name + "-secret").ok()) return;
        size_t at = static_cast<size_t>(c);
        for (int q = 0; q < tenant.queries_per_connection;) {
          auto outcome = client->RunQuery(specs[at++ % specs.size()]);
          if (outcome.ok()) {
            ++q;
          } else if (client->last_error_reason() ==
                     ErrorReason::kQuotaRejected) {
            // Quota bounce: back off and retry; the query still counts
            // only when it completes.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else {
            return;  // connection severed or query failed
          }
        }
        client->Bye();
      });
    }
  }
  for (auto& t : threads) t.join();

  FairnessResult out;
  out.wall_seconds = wall.Seconds();
  for (size_t i = 0; i < tenants.size(); ++i) {
    int index = server->auth()->FindTenant(tenants[i].name);
    TenantWireStats wire = server->tenant_stats(index);
    out.quota_rejected += wire.admission.rejected_quota;
    out.tenants[tenants[i].name] = std::move(wire);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("QBISM reproduction E19: real-socket front end (%s mode).\n",
              smoke ? "smoke" : "full");
  qbism::bench::BenchJson json("net");
  json.AddString("mode", smoke ? "smoke" : "full");

  std::printf("Loading database (3 PET studies, atlas, bands)...\n");
  LoadedDb db;
  LoadDatabase(&db);

  // ---- Phase 1: connection scale --------------------------------------
  const int kTargetConnections = smoke ? 64 : 1100;
  const int kDrivers = smoke ? 8 : 32;
  qbism::bench::PrintHeading("Phase 1: connection scale");
  ScaleResult scale = RunScalePhase(&db, kTargetConnections, kDrivers);
  std::printf(
      "connections: %d/%d connected, %d authenticated in %.2fs "
      "(server peak %llu)\n",
      scale.connected, scale.target_connections, scale.logged_in,
      scale.connect_seconds,
      static_cast<unsigned long long>(scale.peak_connections));
  std::printf("liveness: %d/%d pings answered in %.2fs; %d spot queries ok\n",
              scale.pings_ok, scale.logged_in, scale.ping_sweep_seconds,
              scale.queries_ok);
  bool scale_ok = scale.logged_in == scale.target_connections &&
                  scale.pings_ok == scale.logged_in &&
                  scale.peak_connections >=
                      static_cast<uint64_t>(scale.target_connections);
  json.Add("scale_target", static_cast<uint64_t>(kTargetConnections));
  json.Add("scale_authenticated", static_cast<uint64_t>(scale.logged_in));
  json.Add("scale_peak_connections", scale.peak_connections);
  json.Add("scale_pings_ok", static_cast<uint64_t>(scale.pings_ok));
  json.Add("scale_connect_seconds", scale.connect_seconds);
  json.Add("scale_ping_sweep_seconds", scale.ping_sweep_seconds);
  json.AddString("scale_ok", scale_ok ? "true" : "false");

  // ---- Phase 2: fairness ----------------------------------------------
  qbism::bench::PrintHeading("Phase 2: multi-tenant fair share");
  // greedy gets half the weight mass; victims share the rest. The
  // greedy fleet is 8x oversubscribed against its slot cap.
  const int kGreedyConnections = smoke ? 8 : 32;
  const int kVictimConnections = 2;
  const int kGreedyQueries = smoke ? 4 : 24;
  const int kVictimQueries = smoke ? 6 : 48;

  auto fairness_options = [&] {
    ServerOptions options;
    options.tenants = {Tenant("greedy", 2.0, /*max_waiting=*/8),
                       Tenant("victim-a", 1.0, /*max_waiting=*/64),
                       Tenant("victim-b", 1.0, /*max_waiting=*/64)};
    options.max_connections = 256;
    options.service.num_workers = 8;
    options.service.cache_entries = 0;  // every query does real work
    options.service.io_wait_scale = kIoWaitScale;
    options.service.cost_model.sql_compile_seconds = 0.0;
    return options;
  };

  // Baseline: the victims alone on an identical server.
  double solo_p99 = 0.0;
  {
    QbismServer server(db.ext.get(), fairness_options());
    QBISM_CHECK_OK(server.Start());
    FairnessResult solo = RunTenantLoad(
        &db, &server,
        {{"victim-a", kVictimConnections, kVictimQueries},
         {"victim-b", kVictimConnections, kVictimQueries}});
    solo_p99 = std::max(solo.tenants["victim-a"].latency.p99,
                        solo.tenants["victim-b"].latency.p99);
    std::printf("victims alone:  p99 %.1f ms (%.2fs wall)\n", 1e3 * solo_p99,
                solo.wall_seconds);
    server.Shutdown();
  }

  // Attack: the greedy fleet saturates its cap; victims repeat the
  // exact same load.
  double attacked_p99 = 0.0;
  {
    QbismServer server(db.ext.get(), fairness_options());
    QBISM_CHECK_OK(server.Start());
    FairnessResult attacked = RunTenantLoad(
        &db, &server,
        {{"greedy", kGreedyConnections, kGreedyQueries},
         {"victim-a", kVictimConnections, kVictimQueries},
         {"victim-b", kVictimConnections, kVictimQueries}});
    const TenantWireStats& greedy = attacked.tenants["greedy"];
    const TenantWireStats& va = attacked.tenants["victim-a"];
    const TenantWireStats& vb = attacked.tenants["victim-b"];
    attacked_p99 = std::max(va.latency.p99, vb.latency.p99);
    std::printf(
        "under attack:   victim p99 %.1f ms | greedy ok %llu "
        "(cap %d, waited %llu, quota bounces %llu)\n",
        1e3 * attacked_p99,
        static_cast<unsigned long long>(greedy.queries_ok),
        greedy.admission.slot_cap,
        static_cast<unsigned long long>(greedy.admission.waited),
        static_cast<unsigned long long>(greedy.admission.rejected_quota));
    bool victims_complete =
        va.queries_ok ==
            static_cast<uint64_t>(kVictimConnections * kVictimQueries) &&
        vb.queries_ok ==
            static_cast<uint64_t>(kVictimConnections * kVictimQueries);
    double ratio = solo_p99 > 0.0 ? attacked_p99 / solo_p99 : 0.0;
    // The documented fair-share bound (docs/NETWORK.md): victims keep
    // completing, and their p99 stays within 4x of the solo baseline.
    bool fair = victims_complete && ratio <= 4.0;
    std::printf(
        "fair-share bound: p99 ratio %.2fx (bound 4x), victims "
        "complete: %s -> %s\n",
        ratio, victims_complete ? "yes" : "no", fair ? "OK" : "VIOLATED");
    json.Add("fairness_solo_p99_ms", 1e3 * solo_p99);
    json.Add("fairness_attacked_p99_ms", 1e3 * attacked_p99);
    json.Add("fairness_p99_ratio", ratio);
    json.Add("fairness_greedy_ok", greedy.queries_ok);
    json.Add("fairness_greedy_waited", greedy.admission.waited);
    json.Add("fairness_greedy_quota_rejected",
             greedy.admission.rejected_quota);
    json.Add("fairness_victim_ok", va.queries_ok + vb.queries_ok);
    json.AddString("fairness_ok", fair ? "true" : "false");
    server.Shutdown();
  }

  // ---- Phase 3: end-to-end traces -------------------------------------
  qbism::bench::PrintHeading("Phase 3: wire traces and ship accounting");
  const int kTracedQueries = smoke ? 8 : 64;
  obs::Tracer tracer;
  uint64_t client_bytes = 0;
  uint64_t server_ship_bytes = 0;
  {
    ServerOptions options;
    options.tenants = {Tenant("traced", 1.0, 64)};
    options.service.num_workers = 2;
    options.service.cache_entries = 0;
    options.service.cost_model.sql_compile_seconds = 0.0;
    options.service.tracer = &tracer;
    QbismServer server(db.ext.get(), options);
    QBISM_CHECK_OK(server.Start());
    auto client = NetClient::Connect("127.0.0.1", server.port());
    QBISM_CHECK(client.ok());
    QBISM_CHECK_OK(client->Login("traced", "traced-secret"));
    std::vector<QuerySpec> specs =
        MakeSpecs(&db, kTracedQueries, kWorkloadSeed + 2);
    for (const QuerySpec& spec : specs) {
      auto outcome = client->RunQuery(spec);
      QBISM_CHECK(outcome.ok());
      client_bytes += outcome->header.payload_bytes;
    }
    client->Bye();
    server_ship_bytes = server.stats().ship_bytes;
    server.Shutdown();
  }
  // Every wire request must have become one complete trace.
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  int complete_traces = 0;
  uint64_t traced_ship_bytes = 0;
  for (const auto& span : spans) {
    if (span.stage != obs::Stage::kRequest) continue;
    // The request's children: accept, decode, query and ship, once each;
    // the admission wait is the query's kQueueWait child.
    std::multiset<obs::Stage> children;
    uint64_t query_span = 0, ship_bytes = 0;
    for (const auto& child : spans) {
      if (child.trace_id != span.trace_id ||
          child.parent_id != span.span_id) {
        continue;
      }
      children.insert(child.stage);
      if (child.stage == obs::Stage::kQuery) query_span = child.span_id;
      if (child.stage == obs::Stage::kShip) ship_bytes = child.bytes;
    }
    bool queue = false;
    for (const auto& child : spans) {
      if (child.trace_id == span.trace_id && child.parent_id == query_span &&
          child.stage == obs::Stage::kQueueWait) {
        queue = true;
      }
    }
    traced_ship_bytes += ship_bytes;
    if (queue && children == std::multiset<obs::Stage>{
                                 obs::Stage::kAccept, obs::Stage::kDecode,
                                 obs::Stage::kQuery, obs::Stage::kShip}) {
      ++complete_traces;
    }
  }
  bool traces_ok = complete_traces == kTracedQueries &&
                   traced_ship_bytes == client_bytes &&
                   server_ship_bytes == client_bytes;
  std::printf(
      "traces: %d/%d complete (request -> accept, decode, query{queue}, "
      "ship)\n",
      complete_traces, kTracedQueries);
  std::printf(
      "ship accounting: traced %llu B == server %llu B == client %llu B "
      "-> %s\n",
      static_cast<unsigned long long>(traced_ship_bytes),
      static_cast<unsigned long long>(server_ship_bytes),
      static_cast<unsigned long long>(client_bytes),
      traces_ok ? "OK" : "MISMATCH");
  json.Add("trace_requests", static_cast<uint64_t>(kTracedQueries));
  json.Add("trace_complete", static_cast<uint64_t>(complete_traces));
  json.Add("trace_ship_bytes", traced_ship_bytes);
  json.Add("server_ship_bytes", server_ship_bytes);
  json.Add("client_ship_bytes", client_bytes);
  json.AddString("trace_ok", traces_ok ? "true" : "false");

  const char* out = "BENCH_net.json";
  if (json.WriteFile(out)) {
    std::printf("\nWrote %s\n", out);
  } else {
    std::printf("\nWARNING: could not write %s\n", out);
  }
  bool ok = scale_ok && traces_ok;
  if (!ok) {
    std::printf("E19 FAILED: scale_ok=%d traces_ok=%d\n", scale_ok,
                traces_ok);
    return 1;
  }
  return 0;
}
