// The socket workloads: clinic_cold, clinic_hot and ingest_mixed. Each
// loads a database, starts a QbismServer with all modeled waits off,
// and drives it with closed-loop NetClient connections (one request in
// flight per connection: a QBISM user reviews one answer in the DX loop
// before asking the next, §5.2). Every wire answer is checked against a
// fingerprint computed in-process before timing starts.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/macros.h"
#include "common/rng.h"
#include "index/manager.h"
#include "med/loader.h"
#include "med/phantom.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "qbism/ingest.h"
#include "qbism/spatial_extension.h"
#include "server/client.h"
#include "server/codec.h"
#include "server/server.h"
#include "service/workload.h"
#include "warp/warp.h"

namespace qbism::e2e {
namespace {

using server::NetClient;
using server::QbismServer;
using server::ServerOptions;
using Clock = std::chrono::steady_clock;

constexpr int kClinicClients = 4;  // never more than the host's 4 cores
constexpr int kIngestReaders = 3;
constexpr size_t kHotSetSize = 64;  // fits the 128-entry result cache
constexpr int kVacuumEvery = 4;     // writer commits between vacuums
constexpr int kWriterStudy = 200;
constexpr int kWriterRecords = 4;   // distinct full-size PET scans cycled
// Requests each connection may issue per measured second before its
// stream wraps (cold runs ~90/s per connection on a 4-core host).
constexpr double kStreamPerClientSecond = 130.0;
// Traced run: untraced/traced segment pairs, and replay samples taken
// per class from each traced segment.
constexpr int kTracePairs = 4;
constexpr int kSamplesPerClass = 3;
const char* const kTenant = "clinic";

using RefMap = std::unordered_map<std::string, Fingerprint>;

ServerOptions MakeServerOptions(size_t cache_entries, IngestManager* ingest,
                                obs::Tracer* tracer) {
  ServerOptions options;
  server::TenantConfig tenant;
  tenant.name = kTenant;
  tenant.secret = std::string(kTenant) + "-secret";
  options.tenants = {tenant};
  options.service.cache_entries = cache_entries;
  // All modeled waits off: no realized I/O sleeps, no modeled compile
  // charge, no egress shaping (ServerOptions default).
  options.service.io_wait_scale = 0.0;
  options.service.cost_model.sql_compile_seconds = 0.0;
  options.service.ingest = ingest;
  options.service.tracer = tracer;
  return options;
}

struct ClientSlot {
  NetClient client;
  std::vector<QuerySpec> stream;
  size_t next = 0;
};

/// A loaded database behind a running server, with logged-in clients.
/// Members are destroyed in reverse order: clients hang up, the server
/// drains, then the ingest/index helpers and the database go.
struct World {
  sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  med::LoadedDataset dataset;
  std::unique_ptr<IngestManager> ingest;
  std::unique_ptr<index::SpatialIndexManager> index;
  obs::Tracer tracer;
  std::unique_ptr<QbismServer> server;
  std::vector<ClientSlot> clients;

  explicit World(const sql::DatabaseOptions& options) : db(options) {}
};

/// Splits `stream` into `clients` contiguous per-connection streams.
std::vector<std::vector<QuerySpec>> SplitStream(
    const std::vector<QuerySpec>& stream, int clients) {
  std::vector<std::vector<QuerySpec>> out(static_cast<size_t>(clients));
  size_t per = stream.size() / static_cast<size_t>(clients);
  for (int c = 0; c < clients; ++c) {
    auto first = stream.begin() + static_cast<long>(per * c);
    out[static_cast<size_t>(c)].assign(first, first + static_cast<long>(per));
  }
  return out;
}

/// The clinic mix (service::WorkloadMix defaults: 15% full study, 20%
/// box, 35% structure, 30% band), drawn from WorkloadGenerator and laid
/// out in shuffled blocks of 20 with exact class counts (3/4/7/6), so
/// the class shares, and with them the work per request, do not drift
/// between seeds.
std::vector<QuerySpec> ClinicStream(World* w, const std::vector<int>& studies,
                                    uint64_t seed, size_t length) {
  auto gen = service::WorkloadGenerator::Create(
      w->ext.get(), studies, w->dataset.structure_names,
      service::WorkloadMix{}, seed);
  QBISM_CHECK(gen.ok());
  static constexpr int kBlock[] = {3, 4, 7, 6};  // full, box, structure, band
  std::vector<std::vector<QuerySpec>> buckets(4);
  size_t blocks = (length + 19) / 20;
  auto filled = [&] {
    for (int c = 0; c < 4; ++c) {
      if (buckets[c].size() < blocks * kBlock[c]) return false;
    }
    return true;
  };
  while (!filled()) {
    QuerySpec spec = gen->Next();
    buckets[static_cast<int>(ClassOf(spec))].push_back(spec);
  }
  Rng rng(seed ^ 0x5eedb10c);
  std::vector<QuerySpec> stream;
  std::vector<size_t> taken(4, 0);
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<int> block;
    for (int c = 0; c < 4; ++c) block.insert(block.end(), kBlock[c], c);
    Shuffle(&block, &rng);
    for (int c : block) stream.push_back(buckets[c][taken[c]++]);
  }
  stream.resize(length);
  return stream;
}

/// clinic_hot: a recurring set of at most 64 specs whose total work does
/// not depend on the seed: every PET study in full, every stored band of
/// every PET study, and every atlas structure once (a structure extracts
/// the same voxels from any study, so the seed may pick which). Sent as
/// back-to-back shuffled passes over the set.
std::vector<QuerySpec> HotStream(World* w, uint64_t seed, size_t length,
                                 std::vector<QuerySpec>* set) {
  Rng rng(seed ^ 0x407);
  const std::vector<int>& pets = w->dataset.pet_study_ids;
  for (int study : pets) {
    QuerySpec full;
    full.study_id = study;
    set->push_back(full);
    auto bands = w->db.Execute(
        "select lo, hi from intensityBand where studyId = " +
        std::to_string(study) + " order by lo");
    QBISM_CHECK(bands.ok());
    for (const auto& row : bands->rows) {
      QuerySpec band;
      band.study_id = study;
      band.intensity_range = {static_cast<int>(row[0].AsInt().value()),
                              static_cast<int>(row[1].AsInt().value())};
      set->push_back(band);
    }
  }
  for (const std::string& name : w->dataset.structure_names) {
    QuerySpec structure;
    structure.study_id = pets[rng.NextBounded(pets.size())];
    structure.structure_name = name;
    set->push_back(structure);
  }
  QBISM_CHECK(set->size() <= kHotSetSize);
  std::vector<QuerySpec> stream;
  std::vector<QuerySpec> pass = *set;
  while (stream.size() < length) {
    Shuffle(&pass, &rng);
    stream.insert(stream.end(), pass.begin(), pass.end());
  }
  stream.resize(length);
  return stream;
}

void ConnectClients(World* w, const std::vector<std::vector<QuerySpec>>& streams) {
  for (const auto& stream : streams) {
    auto client = NetClient::Connect("127.0.0.1", w->server->port());
    QBISM_CHECK(client.ok());
    QBISM_CHECK_OK(client->Login(kTenant, std::string(kTenant) + "-secret"));
    ClientSlot slot;
    slot.client = client.MoveValue();
    slot.stream = stream;
    w->clients.push_back(std::move(slot));
  }
}

/// In-process reference answers for every distinct spec, computed on
/// `threads` private MedicalServers before any timing starts.
RefMap ComputeReferences(SpatialExtension* ext,
                         const std::vector<ClientSlot>& clients, int threads) {
  std::vector<QuerySpec> distinct;
  std::set<std::string> seen;
  for (const ClientSlot& slot : clients) {
    for (const QuerySpec& spec : slot.stream) {
      if (seen.insert(spec.Describe()).second) distinct.push_back(spec);
    }
  }
  std::vector<Fingerprint> prints(distinct.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      MedicalServer ms(ext, net::NetworkCostModel{}, NoModeledCosts());
      for (size_t i; (i = next.fetch_add(1)) < distinct.size();) {
        auto result = ms.RunStudyQuery(distinct[i], /*render=*/false);
        if (!result.ok()) {
          ok = false;
          continue;
        }
        prints[i] = ReferenceFingerprint(result->data,
                                         ext->config().region_encoding);
        ms.dx()->FlushCache();
      }
    });
  }
  for (auto& t : pool) t.join();
  QBISM_CHECK(ok.load());
  RefMap refs;
  for (size_t i = 0; i < distinct.size(); ++i) {
    refs[distinct[i].Describe()] = prints[i];
  }
  return refs;
}

/// One completed (or failed) wire request of a load phase.
struct Completed {
  WireClass cls = WireClass::kFull;
  double seconds = 0.0;
  bool ok = false;
  const QuerySpec* spec = nullptr;
};

struct PhaseStats {
  std::vector<Completed> done;
  Accounting accounting;
  double wall = 0.0;
};

/// Every client runs closed-loop until `seconds` have passed; a request
/// in flight at the deadline completes and counts.
PhaseStats RunWirePhase(std::vector<ClientSlot>* clients, double seconds,
                        const RefMap& refs, RunResult* out) {
  std::vector<PhaseStats> per(clients->size());
  std::mutex note_mu;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      ClientSlot& slot = (*clients)[c];
      PhaseStats& mine = per[c];
      while (Clock::now() < deadline && slot.client.connected()) {
        const QuerySpec& spec = slot.stream[slot.next++ % slot.stream.size()];
        auto t0 = Clock::now();
        auto outcome = slot.client.RunQuery(spec);
        double dt = Since(t0);
        Completed done{ClassOf(spec), dt, false, &spec};
        if (outcome.ok()) {
          Fingerprint got =
              FingerprintOf(outcome->data, outcome->header.payload_bytes);
          auto ref = refs.find(spec.Describe());
          if (ref != refs.end() && ref->second == got) {
            done.ok = true;
            ++mine.accounting.ok;
          } else {
            ++mine.accounting.wrong;
            std::lock_guard<std::mutex> lock(note_mu);
            out->Fail("wrong wire answer for " + spec.Describe() + ": got " +
                      Describe(got) + ", want " +
                      (ref == refs.end() ? "no reference"
                                         : Describe(ref->second)));
          }
        } else {
          auto reason = slot.client.last_error_reason();
          if (reason == server::ErrorReason::kQuotaRejected ||
              reason == server::ErrorReason::kServerBusy) {
            ++mine.accounting.refused;
          } else {
            ++mine.accounting.failed;
          }
        }
        mine.done.push_back(done);
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseStats merged;
  merged.wall = Since(start);
  for (PhaseStats& p : per) {
    merged.accounting += p.accounting;
    merged.done.insert(merged.done.end(), p.done.begin(), p.done.end());
  }
  return merged;
}

/// qps and the pooled tail over `phases`. An error counts as missing
/// any latency limit, so it enters the tail at its phase's wall time.
void ReportTail(const std::vector<PhaseStats>& phases, RunResult* out) {
  std::vector<double> ms;
  double wall = 0.0;
  uint64_t ok = 0;
  for (const PhaseStats& p : phases) {
    for (const Completed& c : p.done) {
      ms.push_back(1e3 * (c.ok ? c.seconds : p.wall));
    }
    wall += p.wall;
    ok += p.accounting.ok;
  }
  ReportThroughput(std::move(ms), ok, wall, out);
}

void ReportClassMedians(const std::vector<PhaseStats>& phases,
                        RunResult* out) {
  std::vector<std::vector<double>> by_class(4);
  for (const PhaseStats& p : phases) {
    for (const Completed& c : p.done) {
      if (c.ok) by_class[static_cast<int>(c.cls)].push_back(1e3 * c.seconds);
    }
  }
  for (int c = 0; c < 4; ++c) {
    ReportClassMedian(std::string("class.") +
                          WireClassName(static_cast<WireClass>(c)) + "_p50_ms",
                      std::move(by_class[c]), out);
  }
}

/// Server/service/storage counters read from outside before and after
/// the load; per-layer ratios are their deltas.
struct Counters {
  server::ServerStats server;
  server::TenantWireStats tenant;
  service::MetricsSnapshot service;
  storage::IoStats lfm;
  storage::IoStats rel;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  storage::WriteAheadLog::Stats wal;
};

Counters ReadCounters(World* w) {
  Counters c;
  c.server = w->server->stats();
  c.tenant = w->server->tenant_stats(0);
  c.service = w->server->metrics();
  c.lfm = w->db.long_field_device()->stats();
  c.rel = w->db.relational_device()->stats();
  c.pool_hits = w->db.buffer_pool()->hits();
  c.pool_misses = w->db.buffer_pool()->misses();
  c.plan_hits = w->db.plan_cache()->hits();
  c.plan_misses = w->db.plan_cache()->misses();
  if (w->db.wal() != nullptr) c.wal = w->db.wal()->stats();
  return c;
}

void ReportCounterDeltas(const Counters& a, const Counters& b,
                         RunResult* out) {
  double queries = static_cast<double>(b.server.queries_ok - a.server.queries_ok);
  MetricSet& m = out->metrics;
  m.Set("server.ship_bytes_per_query",
        Ratio(double(b.server.ship_bytes - a.server.ship_bytes), queries));
  m.Set("server.frames_per_query",
        Ratio(double(b.server.frames_written - a.server.frames_written),
              queries));
  m.Set("server.admission_waited",
        Ratio(double(b.tenant.admission.waited - a.tenant.admission.waited),
              double(b.tenant.admission.admitted - a.tenant.admission.admitted)));
  double completed = double(b.service.completed - a.service.completed);
  m.Set("service.queue_wait_ms",
        1e3 * Ratio(b.service.queue_wait_seconds - a.service.queue_wait_seconds,
                    completed));
  double hits = double(b.service.cache_hits - a.service.cache_hits);
  double misses = double(b.service.cache_misses - a.service.cache_misses);
  m.Set("service.cache_hit_ratio", Ratio(hits, hits + misses));
  m.Set("qbism.extract_coalescing_ratio", b.service.extract_coalescing_ratio);
  m.Set("qbism.extract_parallel_efficiency",
        b.service.extract_parallel_efficiency);
  double plan_hits = double(b.plan_hits - a.plan_hits);
  double plan_misses = double(b.plan_misses - a.plan_misses);
  m.Set("sql.plan_cache_hit_ratio", Ratio(plan_hits, plan_hits + plan_misses));
  m.Set("storage.lfm_pages_per_query",
        Ratio(double(b.lfm.pages_read - a.lfm.pages_read), queries));
  m.Set("storage.rel_pages_per_query",
        Ratio(double(b.rel.pages_read - a.rel.pages_read), queries));
  double pool_hits = double(b.pool_hits - a.pool_hits);
  double pool_misses = double(b.pool_misses - a.pool_misses);
  m.Set("storage.bufferpool_hit_ratio",
        Ratio(pool_hits, pool_hits + pool_misses));
}

// --- ingest writer ------------------------------------------------------

med::StudyRecord WriterRecord(uint64_t seed, int k) {
  med::StudyRecord record;
  record.study_id = kWriterStudy;
  record.patient_id = 1;
  record.date = "1993-08-01";
  record.modality = "PET";
  record.warp_seed = seed * 31 + static_cast<uint64_t>(k);
  record.raw = med::GeneratePetStudy(record.warp_seed);
  return record;
}

struct WriterStats {
  std::vector<double> commit_ms;
  std::vector<double> vacuum_ms;
  uint64_t vacuum_pages = 0;
  uint64_t user_bytes = 0;
  uint64_t failures = 0;
  int last_committed = -1;  // index into the record list
  double wall = 0.0;
};

/// The ingest_mixed writer: replaces the writer study closed-loop
/// through QueryService::RunIngest, vacuuming every few commits, until
/// `stop` is set.
class Writer {
 public:
  Writer(World* w, const std::vector<med::StudyRecord>* records,
         WriterStats* stats)
      : thread_([this, w, records, stats] { Loop(w, records, stats); }) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop(World* w, const std::vector<med::StudyRecord>* records,
            WriterStats* stats) {
    auto start = Clock::now();
    int commits = 0;
    for (int i = 0; !stop_.load(); ++i) {
      int k = i % static_cast<int>(records->size());
      const med::StudyRecord& record = (*records)[static_cast<size_t>(k)];
      auto t0 = Clock::now();
      Status st = w->server->service()->RunIngest(record, /*replace=*/true);
      double dt = Since(t0);
      if (!st.ok()) {
        ++stats->failures;
        continue;
      }
      stats->commit_ms.push_back(1e3 * dt);
      stats->user_bytes += record.raw.data().size();
      stats->last_committed = k;
      if (++commits % kVacuumEvery == 0) {
        auto v0 = Clock::now();
        auto vacuum = w->ingest->Vacuum();
        stats->vacuum_ms.push_back(1e3 * Since(v0));
        stats->vacuum_pages += vacuum.pages_freed;
      }
    }
    stats->wall = Since(start);
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after stop_ exists
};

// --- worlds ---------------------------------------------------------------

struct Plan {
  bool hot = false;
  uint64_t seed = 1;
  size_t stream_length = 0;  // total across connections
  bool trace = false;
};

std::unique_ptr<World> BuildClinicWorld(const Plan& plan) {
  auto w = std::make_unique<World>(sql::DatabaseOptions{});
  w->ext = SpatialExtension::Install(&w->db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(med::BootstrapSchema(&w->db));
  auto dataset = med::PopulateDatabase(w->ext.get(), med::LoadOptions{});
  QBISM_CHECK(dataset.ok());
  w->dataset = dataset.MoveValue();
  std::vector<int> studies = w->dataset.pet_study_ids;
  studies.insert(studies.end(), w->dataset.mri_study_ids.begin(),
                 w->dataset.mri_study_ids.end());
  std::vector<QuerySpec> stream;
  std::vector<QuerySpec> hot_set;
  if (plan.hot) {
    stream = HotStream(w.get(), plan.seed, plan.stream_length, &hot_set);
  } else {
    stream = ClinicStream(w.get(), studies, plan.seed, plan.stream_length);
  }
  // clinic_cold runs with the result cache off: its 8 full-study specs
  // would otherwise recur within the cache's reach and hit, and cold is
  // the workload that must run the whole path on every request (the
  // cache is what clinic_hot measures). Every other size is the default.
  size_t cache = plan.hot ? ServerOptions{}.service.cache_entries : 0;
  w->server = std::make_unique<QbismServer>(
      w->ext.get(),
      MakeServerOptions(cache, nullptr, plan.trace ? &w->tracer : nullptr));
  w->tracer.set_enabled(false);
  QBISM_CHECK_OK(w->server->Start());
  ConnectClients(w.get(), SplitStream(stream, kClinicClients));
  // clinic_hot: one untimed pass fills the result cache.
  for (const QuerySpec& spec : hot_set) {
    QBISM_CHECK(w->clients[0].client.RunQuery(spec).ok());
  }
  return w;
}

std::unique_ptr<World> BuildIngestWorld(const Plan& plan,
                                        const med::StudyRecord& first) {
  sql::DatabaseOptions dbo;
  dbo.enable_wal = true;
  auto w = std::make_unique<World>(dbo);
  w->ext = SpatialExtension::Install(&w->db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(med::BootstrapSchema(&w->db));
  med::LoadOptions load;
  load.num_mri_studies = 0;  // keeps the log small; readers use the PETs
  auto dataset = med::PopulateDatabase(w->ext.get(), load);
  QBISM_CHECK(dataset.ok());
  w->dataset = dataset.MoveValue();
  w->ingest = std::make_unique<IngestManager>(w->ext.get());
  w->index = std::make_unique<index::SpatialIndexManager>(w->ext.get());
  QBISM_CHECK_OK(w->index->BuildFromCatalog());
  w->ingest->set_index_manager(w->index.get());
  QBISM_CHECK_OK(w->ingest->IngestStudy(first));
  std::vector<QuerySpec> stream = ClinicStream(
      w.get(), w->dataset.pet_study_ids, plan.seed, plan.stream_length);
  w->server = std::make_unique<QbismServer>(
      w->ext.get(),
      MakeServerOptions(ServerOptions{}.service.cache_entries,
                        w->ingest.get(), plan.trace ? &w->tracer : nullptr));
  w->tracer.set_enabled(false);
  QBISM_CHECK_OK(w->server->Start());
  ConnectClients(w.get(), SplitStream(stream, kIngestReaders));
  return w;
}

// --- traced replay --------------------------------------------------------

struct Sample : ReplayedRequest {
  QuerySpec spec;
};

/// Where a spec's operand region and volume live, resolved once.
struct StudyCatalog {
  std::map<int, storage::LongFieldId> volume;                 // study
  std::map<std::string, storage::LongFieldId> structure;      // name
  std::map<std::pair<int, int>, storage::LongFieldId> band;   // study, lo
};

StudyCatalog ReadCatalog(World* w) {
  StudyCatalog c;
  auto vols = w->db.Execute("select studyId, data from warpedVolume");
  QBISM_CHECK(vols.ok());
  for (const auto& row : vols->rows) {
    c.volume[static_cast<int>(row[0].AsInt().value())] =
        row[1].AsLongField().value();
  }
  auto structs = w->db.Execute(
      "select ns.structureName, ast.region from atlasStructure ast, "
      "neuralStructure ns where ast.structureId = ns.structureId");
  QBISM_CHECK(structs.ok());
  for (const auto& row : structs->rows) {
    c.structure[row[0].AsString().value()] = row[1].AsLongField().value();
  }
  auto bands = w->db.Execute("select studyId, lo, region from intensityBand");
  QBISM_CHECK(bands.ok());
  for (const auto& row : bands->rows) {
    c.band[{static_cast<int>(row[0].AsInt().value()),
            static_cast<int>(row[1].AsInt().value())}] =
        row[2].AsLongField().value();
  }
  return c;
}

/// Replays one sampled request through successively deeper public entry
/// points and records the span tree (see spans.h). `hit_path` replays a
/// cache hit: the tree stops at the service.
void ReplayWire(World* w, NetClient* client, const StudyCatalog& catalog,
                const Sample& sample, uint64_t trace, bool hit_path,
                const RefMap& refs, RunResult* out) {
  SpanLog& log = out->spans;
  const QuerySpec& spec = sample.spec;
  sql::Database* db = &w->db;
  SpatialExtension* ext = w->ext.get();

  Result<server::QueryOutcome> outcome = Status::Internal("not run");
  double t_wire = TimeCall([&] { outcome = client->RunQuery(spec); });
  if (!outcome.ok() ||
      !(FingerprintOf(outcome->data, outcome->header.payload_bytes) ==
        refs.at(spec.Describe()))) {
    out->Fail("replayed wire answer differs for " + spec.Describe());
    return;
  }
  int root = log.Add(trace, -1, "server", t_wire);

  service::ServiceRequest request;
  request.spec = spec;
  Result<service::ServiceReply> reply = Status::Internal("not run");
  double t_exec =
      TimeCall([&] { reply = w->server->service()->Execute(request); });
  QBISM_CHECK(reply.ok());
  int svc = log.Add(trace, root, hit_path ? "service.hit" : "service", t_exec);
  const volume::DataRegion& answer = reply->result.data;

  // Side measurements: the answer codec and the DX import on this answer.
  std::vector<uint8_t> payload;
  log.Add(trace, root, "server.encode", TimeCall([&] {
            payload = server::EncodeAnswerPayload(
                          answer, ext->config().region_encoding)
                          .MoveValue();
          }), true);
  log.Add(trace, root, "server.decode", TimeCall([&] {
            QBISM_CHECK(server::DecodeAnswerPayload(payload).ok());
          }), true);
  viz::DxExecutive dx;
  log.Add(trace, svc, "viz.import",
          TimeCall([&] { (void)dx.ImportVolume(answer); }), true);
  if (hit_path) return;

  MedicalServer ms(ext, net::NetworkCostModel{}, NoModeledCosts());
  Result<StudyQueryResult> study = Status::Internal("not run");
  double t_study =
      TimeCall([&] { study = ms.RunStudyQuery(spec, /*render=*/false); });
  QBISM_CHECK(study.ok());
  int q = log.Add(trace, svc, "qbism", t_study);
  log.Add(trace, q, "sql.info", TimeCall([&] {
            QBISM_CHECK(db->Execute(study->info_sql).ok());
          }));
  int data = log.Add(trace, q, "sql.data", TimeCall([&] {
                       QBISM_CHECK(db->Execute(study->data_sql).ok());
                     }));

  // The operand region the data query extracts, built outside the
  // timed calls (its LoadRegion is itself a side measurement).
  const region::GridSpec grid = ext->config().grid;
  const curve::CurveKind curve = ext->config().curve;
  region::Region operand = region::Region::Full(grid, curve);
  std::optional<storage::LongFieldId> region_field;
  if (spec.structure_name) region_field = catalog.structure.at(*spec.structure_name);
  if (spec.intensity_range) {
    region_field = catalog.band.at({spec.study_id, spec.intensity_range->first});
  }
  if (region_field) {
    Result<region::Region> loaded = Status::Internal("not run");
    log.Add(trace, data, "region.load",
            TimeCall([&] { loaded = ext->LoadRegion(*region_field); }), true);
    QBISM_CHECK(loaded.ok());
    operand = loaded.MoveValue();
  }
  if (spec.box) operand = region::Region::FromBox(grid, curve, *spec.box);
  storage::LongFieldId volume = catalog.volume.at(spec.study_id);
  int extract = log.Add(trace, data, "qbism.extract", TimeCall([&] {
                          QBISM_CHECK(
                              ext->ExtractFromLongField(volume, operand).ok());
                        }));
  std::vector<storage::ByteRange> ranges = RunByteRanges(operand);
  log.Add(trace, extract, "storage.plan_read", TimeCall([&] {
            QBISM_CHECK(db->lfm()->PlanRead(volume, ranges).ok());
          }));
}

/// First kSamplesPerClass completed requests of each class per segment.
void TakeSamples(const PhaseStats& phase, int segment,
                 std::vector<Sample>* samples) {
  std::vector<int> taken(4, 0);
  for (const Completed& c : phase.done) {
    int k = static_cast<int>(c.cls);
    if (!c.ok || taken[k] >= kSamplesPerClass) continue;
    ++taken[k];
    Sample sample;
    sample.spec = *c.spec;
    sample.loaded_seconds = c.seconds;
    sample.segment = segment;
    samples->push_back(std::move(sample));
  }
}

/// Per-layer times from the replayed span trees, plus coverage: the
/// layer self times of each traced segment's samples over those
/// requests' latency under load (median and quartile spread).
void ReportReplay(const std::vector<Sample>& samples, int segments,
                  RunResult* out) {
  auto self = out->spans.SelfMs();
  auto dur = out->spans.DurationsMs();
  SetMedian(out, "server.wire_self_ms", self["server"]);
  SetMedian(out, "server.encode_answer_ms", dur["server.encode"]);
  SetMedian(out, "server.decode_answer_ms", dur["server.decode"]);
  SetMedian(out, "service.self_ms",
            self[self.count("service") ? "service" : "service.hit"]);
  SetMedian(out, "service.cache_hit_ms", dur["service.hit"]);
  SetMedian(out, "qbism.self_ms", self["qbism"]);
  SetMedian(out, "qbism.extract_ms", dur["qbism.extract"]);
  SetMedian(out, "viz.import_ms", dur["viz.import"]);
  SetMedian(out, "sql.info_ms", dur["sql.info"]);
  SetMedian(out, "sql.data_self_ms", self["sql.data"]);
  SetMedian(out, "region.load_ms", dur["region.load"]);
  SetMedian(out, "storage.plan_read_ms", dur["storage.plan_read"]);

  ReportCoverage({samples.begin(), samples.end()}, segments, out);
}

/// The traced run's load: kTracePairs interleaved untraced/traced
/// segments (alternating which goes first). Returns every phase; the
/// untraced ones carry the class medians, the traced ones the samples.
std::vector<PhaseStats> RunInterleaved(World* w, double seconds,
                                       const RefMap& refs,
                                       std::vector<PhaseStats>* untraced,
                                       std::vector<Sample>* samples,
                                       RunResult* out) {
  double segment = seconds / (2.0 * kTracePairs);
  std::vector<PhaseStats> all;
  std::vector<double> overhead;
  int traced_index = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double qps[2] = {0, 0};
    for (int half = 0; half < 2; ++half) {
      bool traced = (pair % 2 == 0) ? half == 1 : half == 0;
      w->tracer.set_enabled(traced);
      PhaseStats phase = RunWirePhase(&w->clients, segment, refs, out);
      w->tracer.set_enabled(false);
      qps[traced ? 1 : 0] = Ratio(double(phase.accounting.ok), phase.wall);
      if (traced) {
        TakeSamples(phase, traced_index++, samples);
      } else {
        untraced->push_back(phase);
      }
      all.push_back(std::move(phase));
    }
    overhead.push_back(100.0 * Ratio(qps[0] - qps[1], qps[0]));
  }
  ReportQuartiles("trace.overhead_pct", "trace.overhead_spread_pct",
                  overhead, out);
  return all;
}

void NoteTracerStages(World* w, RunResult* out) {
  for (const obs::StageSummary& s : w->tracer.StageSummaries()) {
    if (s.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "obs::Tracer %-12s count %8llu  total %9.1f ms",
                  obs::StageName(s.stage),
                  static_cast<unsigned long long>(s.count),
                  1e3 * s.total_seconds);
    out->notes.push_back(line);
  }
}

size_t StreamLength(const RunOptions& options, int clients) {
  return static_cast<size_t>(kStreamPerClientSecond * options.seconds) *
         static_cast<size_t>(clients);
}

}  // namespace

RunResult RunClinic(const RunOptions& options, bool hot) {
  RunResult out;
  Plan plan;
  plan.hot = hot;
  plan.seed = options.seed;
  plan.trace = options.trace;
  plan.stream_length = StreamLength(options, kClinicClients);
  std::vector<double> setup;
  auto world = SetUpRepeatedly<World>(
      !options.trace, [&] { return BuildClinicWorld(plan); }, &setup);
  out.metrics.Set("setup_s", Median(setup));
  RefMap refs = ComputeReferences(world->ext.get(), world->clients,
                                  kClinicClients);
  out.extra["distinct_specs"] = static_cast<double>(refs.size());

  if (!options.trace) {
    PhaseStats phase = RunWirePhase(&world->clients, options.seconds, refs, &out);
    out.accounting = phase.accounting;
    ReportTail({phase}, &out);
    ReportClassMedians({phase}, &out);
    out.metrics.Set("peak_rss_mb", PeakRssMb());
    return out;
  }

  Counters before = ReadCounters(world.get());
  std::vector<PhaseStats> untraced;
  std::vector<Sample> samples;
  std::vector<PhaseStats> all = RunInterleaved(world.get(), options.seconds,
                                               refs, &untraced, &samples, &out);
  Counters after = ReadCounters(world.get());
  for (const PhaseStats& p : all) out.accounting += p.accounting;
  ReportCounterDeltas(before, after, &out);
  ReportClassMedians(untraced, &out);
  out.metrics.Set("class.error_rate", out.accounting.ErrorRate());
  NoteTracerStages(world.get(), &out);

  // Replay on the same server: the hit path for clinic_hot (its cache
  // is warm), the whole path for clinic_cold (its cache is off).
  StudyCatalog catalog = ReadCatalog(world.get());
  world->clients.clear();
  auto client = NetClient::Connect("127.0.0.1", world->server->port());
  QBISM_CHECK(client.ok());
  QBISM_CHECK_OK(client->Login(kTenant, std::string(kTenant) + "-secret"));
  for (size_t i = 0; i < samples.size(); ++i) {
    ReplayWire(world.get(), &*client, catalog, samples[i], i, hot, refs, &out);
  }
  ReportReplay(samples, kTracePairs, &out);
  return out;
}

RunResult RunIngestMixed(const RunOptions& options) {
  RunResult out;
  Plan plan;
  plan.seed = options.seed;
  plan.trace = options.trace;
  plan.stream_length = StreamLength(options, kIngestReaders);
  // The writer's records are generated from the seed before any timing.
  std::vector<med::StudyRecord> records;
  for (int k = 0; k < kWriterRecords; ++k) {
    records.push_back(WriterRecord(options.seed, k));
  }
  med::StudyRecord first = WriterRecord(options.seed, kWriterRecords);
  std::vector<double> setup;
  auto world = SetUpRepeatedly<World>(
      !options.trace, [&] { return BuildIngestWorld(plan, first); }, &setup);
  out.metrics.Set("setup_s", Median(setup));
  RefMap refs = ComputeReferences(world->ext.get(), world->clients,
                                  kClinicClients);

  Counters before = ReadCounters(world.get());
  WriterStats writer_stats;
  std::vector<PhaseStats> phases;
  std::vector<PhaseStats> untraced;
  std::vector<Sample> samples;
  {
    Writer writer(world.get(), &records, &writer_stats);
    if (!options.trace) {
      phases.push_back(
          RunWirePhase(&world->clients, options.seconds, refs, &out));
    } else {
      phases = RunInterleaved(world.get(), options.seconds, refs, &untraced,
                              &samples, &out);
    }
    writer.Stop();
  }
  Counters after = ReadCounters(world.get());
  for (const PhaseStats& p : phases) out.accounting += p.accounting;
  out.accounting.ok += writer_stats.commit_ms.size();
  out.accounting.failed += writer_stats.failures;

  // The replaced study must serve its last committed version, and no
  // page may have leaked through the replace/vacuum churn.
  if (writer_stats.last_committed >= 0) {
    const med::StudyRecord& last =
        records[static_cast<size_t>(writer_stats.last_committed)];
    volume::Volume expected = warp::WarpToAtlas(
        last.raw,
        med::StudyWarp(last.warp_seed, last.raw.nx(), last.raw.ny(),
                       last.raw.nz()),
        world->ext->config().grid, world->ext->config().curve);
    service::ServiceRequest request;
    request.spec.study_id = kWriterStudy;
    auto reply = world->server->service()->Execute(request);
    if (!reply.ok() || reply->result.data.values() != expected.data()) {
      out.Fail("study " + std::to_string(kWriterStudy) +
               " does not serve its last committed version");
    }
  } else {
    out.Fail("the writer committed nothing");
  }
  if (!world->db.lfm()->CheckPageAccounting().ok()) {
    out.Fail("LFM page accounting check failed after ingest");
  }

  size_t commits = writer_stats.commit_ms.size();
  double commit_p50 = Median(writer_stats.commit_ms);
  double commits_per_s = Ratio(double(commits), writer_stats.wall);
  char line[200];
  std::snprintf(line, sizeof(line),
                "writer: %zu commits (%.2f/s), commit p50 %.1f ms, %llu "
                "failed; WAL %.1f MB used",
                commits, commits_per_s, commit_p50,
                static_cast<unsigned long long>(writer_stats.failures),
                after.wal.appended_bytes / 1e6);
  out.notes.push_back(line);

  if (!options.trace) {
    ReportTail(phases, &out);
    ReportClassMedians(phases, &out);
    out.metrics.Set("peak_rss_mb", PeakRssMb());
    return out;
  }

  ReportCounterDeltas(before, after, &out);
  ReportClassMedians(untraced, &out);
  MetricSet& m = out.metrics;
  m.Set("class.commit_p50_ms", commit_p50);
  m.Set("class.commits_per_s", commits_per_s);
  m.Set("class.error_rate", out.accounting.ErrorRate());
  double dc = static_cast<double>(commits);
  m.Set("service.cache_invalidations_per_commit",
        Ratio(double(after.service.cache_invalidations -
                     before.service.cache_invalidations),
              dc));
  m.Set("storage.wal_bytes_per_commit",
        Ratio(double(after.wal.durable_bytes - before.wal.durable_bytes), dc));
  m.Set("storage.wal_syncs_per_commit",
        Ratio(double(after.wal.syncs - before.wal.syncs), dc));
  m.Set("storage.wal_bytes_per_user_byte",
        Ratio(double(after.wal.durable_bytes - before.wal.durable_bytes),
              double(writer_stats.user_bytes)));
  SetMedian(&out, "storage.vacuum_ms", writer_stats.vacuum_ms);
  m.Set("storage.vacuum_pages_freed_per_commit",
        Ratio(double(writer_stats.vacuum_pages), dc));
  NoteTracerStages(world.get(), &out);

  // Read replay on a cache-off server (as clinic_cold), then the write
  // path: RunIngest -> ReplaceStudy -> StoreStudyRecord into a database
  // without a WAL (the gap is the durability cost) -> WarpToAtlas.
  StudyCatalog catalog = ReadCatalog(world.get());
  world->clients.clear();
  world->server.reset();
  world->server = std::make_unique<QbismServer>(
      world->ext.get(), MakeServerOptions(0, world->ingest.get(), nullptr));
  QBISM_CHECK_OK(world->server->Start());
  auto client = NetClient::Connect("127.0.0.1", world->server->port());
  QBISM_CHECK(client.ok());
  QBISM_CHECK_OK(client->Login(kTenant, std::string(kTenant) + "-secret"));
  for (size_t i = 0; i < samples.size(); ++i) {
    ReplayWire(world.get(), &*client, catalog, samples[i], i, false, refs,
               &out);
  }
  ReportReplay(samples, kTracePairs, &out);

  sql::Database plain;
  auto plain_ext = SpatialExtension::Install(&plain, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(med::BootstrapSchema(&plain));
  std::vector<double> ingest_ms, store_ms, warp_ms;
  for (int k = 0; k < 2; ++k) {
    uint64_t trace = samples.size() + static_cast<uint64_t>(k);
    med::StudyRecord record = records[static_cast<size_t>(k)];
    double t_run = TimeCall([&] {
      QBISM_CHECK_OK(world->server->service()->RunIngest(record, true));
    });
    int svc = out.spans.Add(trace, -1, "service.ingest", t_run);
    double t_replace =
        TimeCall([&] { QBISM_CHECK_OK(world->ingest->ReplaceStudy(record)); });
    int rep = out.spans.Add(trace, svc, "qbism.ingest", t_replace);
    record.study_id = 1000 + k;
    double t_store = TimeCall(
        [&] { QBISM_CHECK_OK(med::StoreStudyRecord(plain_ext.get(), record)); });
    int store = out.spans.Add(trace, rep, "qbism.store_study", t_store);
    double t_warp = TimeCall([&] {
      (void)warp::WarpToAtlas(
          record.raw,
          med::StudyWarp(record.warp_seed, record.raw.nx(), record.raw.ny(),
                         record.raw.nz()),
          world->ext->config().grid, world->ext->config().curve);
    });
    out.spans.Add(trace, store, "warp", t_warp);
    ingest_ms.push_back(1e3 * t_replace);
    store_ms.push_back(1e3 * t_store);
    warp_ms.push_back(1e3 * t_warp);
  }
  SetMedian(&out, "qbism.ingest_ms", ingest_ms);
  SetMedian(&out, "qbism.store_study_ms", store_ms);
  SetMedian(&out, "warp.warp_ms", warp_ms);
  return out;
}

}  // namespace qbism::e2e
