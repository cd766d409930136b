// The population workload: in-process SQL over >= 10^4 E23-shaped
// studies next to the PET corpus, with planner statistics analyzed and
// the cross-study spatial index installed as the planner's candidate
// hook. Four closed-loop threads call Database::Execute and
// MedicalServer::ConsistentBandRegion directly (the wire carries no SQL
// yet). Every statement's answer is checked against the same statement
// run without the index hook, computed before timing starts.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/macros.h"
#include "common/rng.h"
#include "index/manager.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/spatial_extension.h"
#include "region/encoded_ops.h"

namespace qbism::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;
constexpr int kPopulationStudies = 10000;
constexpr int kFirstPopulationStudy = 1000;
constexpr int kProbeShapes = 128;
// Shuffled blocks of 20 statements: 12 probes, 1 scan, 7 intersections.
// One scan reads every band's long field (~20k pages); more of them and
// four threads mostly contend on the device, not on the planner.
constexpr int kBlock[] = {12, 1, 7};
constexpr int kTracePairs = 4;
constexpr int kSamplesPerClass = 3;

enum Kind { kProbe = 0, kScan = 1, kIntersect = 2 };
const char* const kKindName[] = {"probe", "scan", "intersect"};

struct Statement {
  Kind kind = kProbe;
  std::string sql;                  // probe / scan
  geometry::Box3i box;              // probe: the boxregion() argument
  std::vector<int> studies;         // intersect
  int lo = 0, hi = 0;               // intersect band
  std::string Key() const {
    if (kind != kIntersect) return sql;
    std::string key = "intersect";
    for (int s : studies) {
      key += ' ';
      key += std::to_string(s);
    }
    key += " band ";
    key += std::to_string(lo);
    key += '-';
    key += std::to_string(hi);
    return key;
  }
};

struct PopWorld {
  sql::Database db;
  std::unique_ptr<SpatialExtension> ext;
  med::LoadedDataset dataset;
  std::unique_ptr<index::SpatialIndexManager> index;
  std::map<int64_t, int> rows_per_study;
  std::vector<std::pair<int, int>> shared_bands;  // stored for every PET

  explicit PopWorld(const sql::DatabaseOptions& options) : db(options) {}
};

sql::DatabaseOptions PopulationDbOptions() {
  sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 15;
  dbo.long_field_pages = 1 << 16;
  dbo.buffer_pool_pages = 1 << 12;
  return dbo;
}

/// One E23-shaped study: two small band boxes at a study-specific spot.
void StoreSmallStudy(SpatialExtension* ext, int64_t study_id, Rng* rng) {
  for (int band = 0; band < 2; ++band) {
    int x = static_cast<int>(rng->Next() % 120);
    int y = static_cast<int>(rng->Next() % 120);
    int z = static_cast<int>(rng->Next() % 120);
    region::Region r = region::Region::FromBox(
        ext->config().grid, ext->config().curve,
        {{x, y, z}, {x + 5, y + 5, z + 5}});
    auto field = ext->StoreRegion(r);
    QBISM_CHECK(field.ok());
    QBISM_CHECK_OK(ext->db()->Insert(
        "intensityBand",
        {sql::Value::Int(study_id), sql::Value::Int(1),
         sql::Value::Int(band * 128), sql::Value::Int(band * 128 + 127),
         sql::Value::LongField(field.MoveValue())}));
  }
}

std::unique_ptr<PopWorld> BuildPopulation() {
  auto w = std::make_unique<PopWorld>(PopulationDbOptions());
  SpatialConfig config;
  // Elias-deltas on disk, so set operators run in the encoded domain.
  config.region_encoding = region::RegionEncoding::kEliasDeltas;
  w->ext = SpatialExtension::Install(&w->db, config).MoveValue();
  QBISM_CHECK_OK(med::BootstrapSchema(&w->db));
  med::LoadOptions load;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  load.store_raw_volumes = false;
  auto dataset = med::PopulateDatabase(w->ext.get(), load);
  QBISM_CHECK(dataset.ok());
  w->dataset = dataset.MoveValue();
  Rng rng(1993);  // the corpus is fixed; the seed picks the statements
  for (int s = 0; s < kPopulationStudies; ++s) {
    StoreSmallStudy(w->ext.get(), kFirstPopulationStudy + s, &rng);
  }
  QBISM_CHECK_OK(w->ext->RefreshPlannerStats());
  w->index = std::make_unique<index::SpatialIndexManager>(w->ext.get());
  QBISM_CHECK_OK(w->index->BuildFromCatalog());
  w->db.set_candidate_index_hook(w->index->MakeHook());

  auto rows = w->db.Execute("select studyId, lo, hi from intensityBand");
  QBISM_CHECK(rows.ok());
  std::map<std::pair<int, int>, int> band_studies;
  std::set<int> pets(w->dataset.pet_study_ids.begin(),
                     w->dataset.pet_study_ids.end());
  for (const auto& row : rows->rows) {
    int64_t study = row[0].AsInt().value();
    ++w->rows_per_study[study];
    if (pets.count(static_cast<int>(study))) {
      ++band_studies[{static_cast<int>(row[1].AsInt().value()),
                      static_cast<int>(row[2].AsInt().value())}];
    }
  }
  for (const auto& [band, count] : band_studies) {
    if (count == static_cast<int>(pets.size())) w->shared_bands.push_back(band);
  }
  QBISM_CHECK(!w->shared_bands.empty());
  return w;
}

/// The statement shapes: selective index probes at seeded spots (many,
/// so their mean cost hardly varies between seeds), unprunable scans,
/// and Table-4 n-way band intersections over the PETs.
std::vector<Statement> MakeShapes(PopWorld* w, uint64_t seed, Kind kind) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(kind));
  std::vector<Statement> shapes;
  if (kind == kProbe) {
    for (int i = 0; i < kProbeShapes; ++i) {
      Statement s;
      s.kind = kProbe;
      int x = static_cast<int>(rng.NextBounded(115));
      int y = static_cast<int>(rng.NextBounded(115));
      int z = static_cast<int>(rng.NextBounded(115));
      s.box = {{x, y, z}, {x + 13, y + 13, z + 13}};
      s.sql = "select studyId, lo, hi, voxelcount(region) from intensityBand "
              "where intersects(region, boxregion(" +
              std::to_string(x) + ", " + std::to_string(y) + ", " +
              std::to_string(z) + ", " + std::to_string(x + 13) + ", " +
              std::to_string(y + 13) + ", " + std::to_string(z + 13) +
              ")) <> 0 and lo >= 128";
      shapes.push_back(s);
    }
  } else if (kind == kScan) {
    for (int threshold : {1000, 2000, 5000, 10000}) {
      Statement s;
      s.kind = kScan;
      s.sql = "select studyId, lo, runcount(region) from intensityBand "
              "where voxelcount(region) > " +
              std::to_string(threshold);
      shapes.push_back(s);
    }
  } else {
    // Every subset of two or more PET studies with every shared band, so
    // the intersection work does not depend on the seed at all.
    const std::vector<int>& pets = w->dataset.pet_study_ids;
    for (uint32_t mask = 0; mask < (1u << pets.size()); ++mask) {
      if (std::popcount(mask) < 2) continue;
      for (const auto& band : w->shared_bands) {
        Statement s;
        s.kind = kIntersect;
        for (size_t k = 0; k < pets.size(); ++k) {
          if (mask & (1u << k)) s.studies.push_back(pets[k]);
        }
        s.lo = band.first;
        s.hi = band.second;
        shapes.push_back(s);
      }
    }
  }
  return shapes;
}

/// Per-thread statement streams in shuffled blocks of exact class counts.
std::vector<std::vector<Statement>> MakeStreams(PopWorld* w, uint64_t seed,
                                                size_t per_thread) {
  std::vector<std::vector<Statement>> shapes = {
      MakeShapes(w, seed, kProbe), MakeShapes(w, seed, kScan),
      MakeShapes(w, seed, kIntersect)};
  Rng rng(seed ^ 0x90907);
  std::vector<std::vector<Statement>> streams(kThreads);
  for (auto& stream : streams) {
    while (stream.size() < per_thread) {
      std::vector<int> block;
      for (int k = 0; k < 3; ++k) block.insert(block.end(), kBlock[k], k);
      Shuffle(&block, &rng);
      for (int k : block) {
        const auto& pool = shapes[static_cast<size_t>(k)];
        stream.push_back(pool[rng.NextBounded(pool.size())]);
      }
    }
  }
  return streams;
}

/// Row-order-insensitive digest of a result set.
uint64_t RowsDigest(const sql::ResultSet& rs) {
  std::vector<std::string> lines;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = lines.size();
  for (const auto& line : lines) h = HashBytes(line.data(), line.size(), h);
  return h;
}

uint64_t RegionDigest(const region::Region& r) {
  return HashBytes(r.runs().data(), r.runs().size() * sizeof(r.runs()[0]),
                   r.VoxelCount());
}

/// Runs one statement; returns its answer digest.
Result<uint64_t> RunStatement(PopWorld* w, MedicalServer* ms,
                              const Statement& s) {
  if (s.kind == kIntersect) {
    QBISM_ASSIGN_OR_RETURN(MultiStudyResult r,
                           ms->ConsistentBandRegion(s.studies, s.lo, s.hi));
    return RegionDigest(r.region);
  }
  QBISM_ASSIGN_OR_RETURN(sql::ResultSet rs, w->db.Execute(s.sql));
  return RowsDigest(rs);
}

/// Band region field of (study, lo).
storage::LongFieldId BandField(PopWorld* w, int study, int lo) {
  auto rs = w->db.Execute("select region from intensityBand where studyId = " +
                          std::to_string(study) + " and lo = " +
                          std::to_string(lo));
  QBISM_CHECK(rs.ok() && !rs->rows.empty());
  return rs->rows.front().front().AsLongField().value();
}

/// Reference answers, computed before timing. Probes and scans run
/// with the index hook removed (a full scan); intersections are
/// recomputed by decoding every band and intersecting the run lists.
std::map<std::string, uint64_t> ComputeReferences(
    PopWorld* w, const std::vector<std::vector<Statement>>& streams) {
  std::map<std::string, const Statement*> distinct;
  for (const auto& stream : streams) {
    for (const Statement& s : stream) distinct.emplace(s.Key(), &s);
  }
  std::vector<const Statement*> todo;
  for (const auto& [key, s] : distinct) todo.push_back(s);
  std::vector<uint64_t> digests(todo.size());
  w->db.set_candidate_index_hook(nullptr);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        const Statement* s = todo[i];
        if (s->kind == kIntersect) {
          std::optional<region::Region> acc;
          for (int study : s->studies) {
            auto r = w->ext->LoadRegion(BandField(w, study, s->lo));
            QBISM_CHECK(r.ok());
            acc = acc ? acc->IntersectWith(*r).MoveValue() : r.MoveValue();
          }
          digests[i] = RegionDigest(*acc);
        } else {
          auto rs = w->db.Execute(s->sql);
          QBISM_CHECK(rs.ok());
          digests[i] = RowsDigest(*rs);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  std::map<std::string, uint64_t> refs;
  for (size_t i = 0; i < todo.size(); ++i) refs[todo[i]->Key()] = digests[i];
  w->db.set_candidate_index_hook(w->index->MakeHook());
  return refs;
}

struct Done {
  Kind kind = kProbe;
  double seconds = 0.0;
  bool ok = false;
  const Statement* statement = nullptr;
};

struct Phase {
  std::vector<Done> done;
  Accounting accounting;
  double wall = 0.0;
};

Phase RunPhase(PopWorld* w, const std::vector<std::vector<Statement>>& streams,
               std::vector<size_t>* cursors, double seconds,
               const std::map<std::string, uint64_t>& refs, RunResult* out) {
  std::vector<Phase> per(kThreads);
  std::mutex note_mu;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MedicalServer ms(w->ext.get(), net::NetworkCostModel{},
                       NoModeledCosts());
      const auto& stream = streams[static_cast<size_t>(t)];
      size_t& cursor = (*cursors)[static_cast<size_t>(t)];
      Phase& mine = per[static_cast<size_t>(t)];
      while (Clock::now() < deadline) {
        const Statement& s = stream[cursor++ % stream.size()];
        auto t0 = Clock::now();
        Result<uint64_t> digest = RunStatement(w, &ms, s);
        Done done{s.kind, Since(t0), false, &s};
        if (!digest.ok()) {
          ++mine.accounting.failed;
        } else if (*digest != refs.at(s.Key())) {
          ++mine.accounting.wrong;
          std::lock_guard<std::mutex> lock(note_mu);
          out->Fail("indexed answer differs from the scan for: " + s.Key());
        } else {
          done.ok = true;
          ++mine.accounting.ok;
        }
        mine.done.push_back(done);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase merged;
  merged.wall = Since(start);
  for (Phase& p : per) {
    merged.accounting += p.accounting;
    merged.done.insert(merged.done.end(), p.done.begin(), p.done.end());
  }
  return merged;
}

void ReportLoad(const std::vector<Phase>& phases, bool tail, RunResult* out) {
  std::vector<double> all_ms;
  std::vector<std::vector<double>> by_kind(3);
  double wall = 0.0;
  uint64_t ok = 0;
  for (const Phase& p : phases) {
    wall += p.wall;
    ok += p.accounting.ok;
    for (const Done& d : p.done) {
      all_ms.push_back(1e3 * (d.ok ? d.seconds : p.wall));
      if (d.ok) by_kind[d.kind].push_back(1e3 * d.seconds);
    }
  }
  for (int k = 0; k < 3; ++k) {
    ReportClassMedian(std::string("class.") + kKindName[k] + "_p50_ms",
                      std::move(by_kind[k]), out);
  }
  if (tail) ReportThroughput(std::move(all_ms), ok, wall, out);
}

struct Sample : ReplayedRequest {
  const Statement* statement = nullptr;
};

struct ReplayTotals {
  double examined_rows = 0.0;
  double returned_rows = 0.0;
  std::vector<double> pages_per_probe;
  std::vector<double> candidate_fraction;
  std::vector<double> useful_ratio;
};

/// Replays one statement through successively deeper public entry
/// points and records its span tree.
void Replay(PopWorld* w, MedicalServer* ms, const Sample& sample,
            uint64_t trace, ReplayTotals* totals, RunResult* out) {
  SpanLog& log = out->spans;
  const Statement& s = *sample.statement;
  double table_rows = 0.0;
  for (const auto& [study, n] : w->rows_per_study) table_rows += n;

  if (s.kind == kIntersect) {
    Result<MultiStudyResult> multi = Status::Internal("not run");
    int root = log.Add(trace, -1, "qbism.consistent_band", TimeCall([&] {
                         multi = ms->ConsistentBandRegion(s.studies, s.lo,
                                                          s.hi);
                       }));
    QBISM_CHECK(multi.ok());
    int sql = log.Add(trace, root, "sql", TimeCall([&] {
                        QBISM_CHECK(w->db.Execute(multi->sql).ok());
                      }));
    std::vector<region::EncodedRegion> operands;
    for (int study : s.studies) {
      Result<region::Region> r = Status::Internal("not run");
      storage::LongFieldId field = BandField(w, study, s.lo);
      log.Add(trace, sql, "region.load",
              TimeCall([&] { r = w->ext->LoadRegion(field); }), true);
      QBISM_CHECK(r.ok());
      operands.push_back(region::EncodedRegion::FromRegion(*r).MoveValue());
    }
    std::vector<const region::EncodedRegion*> ptrs;
    for (const auto& e : operands) ptrs.push_back(&e);
    log.Add(trace, sql, "region.intersect_n", TimeCall([&] {
              QBISM_CHECK(region::EncodedRegion::IntersectAll(ptrs).ok());
            }));
    return;
  }

  Result<sql::ResultSet> rs = Status::Internal("not run");
  int root = log.Add(trace, -1, "sql",
                     TimeCall([&] { rs = w->db.Execute(s.sql); }));
  QBISM_CHECK(rs.ok());
  log.Add(trace, root, "sql.explain", TimeCall([&] {
            QBISM_CHECK(w->db.Execute("explain " + s.sql).ok());
          }), true);
  totals->returned_rows += static_cast<double>(rs->rows.size());
  if (s.kind == kScan) {
    totals->examined_rows += table_rows;
    return;
  }
  region::Region probe = region::Region::FromBox(
      w->ext->config().grid, w->ext->config().curve, s.box);
  index::ProbeCounters before = w->index->probe_counters();
  Result<std::vector<int64_t>> candidates = Status::Internal("not run");
  log.Add(trace, root, "index.probe", TimeCall([&] {
            candidates = w->index->ProbeIntersect(probe, 128, 255);
          }));
  QBISM_CHECK(candidates.ok());
  index::ProbeCounters after = w->index->probe_counters();
  totals->pages_per_probe.push_back(
      static_cast<double>(after.pages_visited - before.pages_visited));
  double live = static_cast<double>(w->index->stats().live_studies);
  totals->candidate_fraction.push_back(candidates->size() / live);
  std::set<int64_t> result_studies;
  for (const auto& row : rs->rows) result_studies.insert(row[0].AsInt().value());
  if (!candidates->empty()) {
    totals->useful_ratio.push_back(static_cast<double>(result_studies.size()) /
                                   static_cast<double>(candidates->size()));
  }
  for (int64_t study : *candidates) {
    totals->examined_rows += w->rows_per_study[study];
  }
}

}  // namespace

RunResult RunPopulation(const RunOptions& options) {
  RunResult out;
  std::vector<double> setup;
  auto world = SetUpRepeatedly<PopWorld>(!options.trace, BuildPopulation,
                                         &setup);
  out.metrics.Set("setup_s", Median(setup));
  // ~300 statements per thread-second at most; the stream wraps after.
  size_t per_thread = static_cast<size_t>(400.0 * options.seconds);
  auto streams = MakeStreams(world.get(), options.seed, per_thread);
  auto refs = ComputeReferences(world.get(), streams);
  std::vector<size_t> cursors(kThreads, 0);
  PopWorld* w = world.get();

  if (!options.trace) {
    Phase phase = RunPhase(w, streams, &cursors, options.seconds, refs, &out);
    out.accounting = phase.accounting;
    ReportLoad({phase}, /*tail=*/true, &out);
    out.metrics.Set("peak_rss_mb", PeakRssMb());
    return out;
  }

  storage::IoStats lfm0 = w->db.long_field_device()->stats();
  storage::IoStats rel0 = w->db.relational_device()->stats();
  uint64_t pool_h0 = w->db.buffer_pool()->hits();
  uint64_t pool_m0 = w->db.buffer_pool()->misses();
  uint64_t plan_h0 = w->db.plan_cache()->hits();
  uint64_t plan_m0 = w->db.plan_cache()->misses();

  // Interleaved untraced/traced segments. The traced half records one
  // span per statement in the benchmark's memory; the difference in
  // throughput is the tracing overhead.
  double segment = options.seconds / (2.0 * kTracePairs);
  std::vector<Phase> untraced;
  std::vector<Sample> samples;
  std::vector<double> overhead;
  int traced_index = 0;
  uint64_t statements = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double qps[2] = {0, 0};
    for (int half = 0; half < 2; ++half) {
      bool traced = (pair % 2 == 0) ? half == 1 : half == 0;
      Phase phase = RunPhase(w, streams, &cursors, segment, refs, &out);
      out.accounting += phase.accounting;
      statements += phase.accounting.ok;
      qps[traced ? 1 : 0] = Ratio(double(phase.accounting.ok), phase.wall);
      if (traced) {
        std::vector<int> taken(3, 0);
        for (const Done& d : phase.done) {
          if (!d.ok || taken[d.kind] >= kSamplesPerClass) continue;
          ++taken[d.kind];
          Sample sample;
          sample.statement = d.statement;
          sample.loaded_seconds = d.seconds;
          sample.segment = traced_index;
          samples.push_back(sample);
        }
        ++traced_index;
      } else {
        untraced.push_back(std::move(phase));
      }
    }
    overhead.push_back(100.0 * Ratio(qps[0] - qps[1], qps[0]));
  }
  ReportLoad(untraced, /*tail=*/false, &out);
  ReportQuartiles("trace.overhead_pct", "trace.overhead_spread_pct", overhead,
                  &out);
  out.metrics.Set("class.error_rate", out.accounting.ErrorRate());

  double n = static_cast<double>(statements);
  out.metrics.Set(
      "storage.lfm_pages_per_query",
      Ratio(double(w->db.long_field_device()->stats().pages_read -
                   lfm0.pages_read),
            n));
  out.metrics.Set(
      "storage.rel_pages_per_query",
      Ratio(double(w->db.relational_device()->stats().pages_read -
                   rel0.pages_read),
            n));
  double ph = double(w->db.buffer_pool()->hits() - pool_h0);
  double pm = double(w->db.buffer_pool()->misses() - pool_m0);
  out.metrics.Set("storage.bufferpool_hit_ratio", Ratio(ph, ph + pm));
  double qh = double(w->db.plan_cache()->hits() - plan_h0);
  double qm = double(w->db.plan_cache()->misses() - plan_m0);
  out.metrics.Set("sql.plan_cache_hit_ratio", Ratio(qh, qh + qm));

  MedicalServer ms(w->ext.get(), net::NetworkCostModel{}, NoModeledCosts());
  ReplayTotals totals;
  for (size_t i = 0; i < samples.size(); ++i) {
    Replay(w, &ms, samples[i], i, &totals, &out);
  }
  auto dur = out.spans.DurationsMs();
  SetMedian(&out, "sql.explain_ms", dur["sql.explain"]);
  SetMedian(&out, "index.probe_ms", dur["index.probe"]);
  SetMedian(&out, "region.load_ms", dur["region.load"]);
  SetMedian(&out, "region.intersect_n_ms", dur["region.intersect_n"]);
  SetMedian(&out, "qbism.consistent_band_ms", dur["qbism.consistent_band"]);
  SetMedian(&out, "index.pages_per_probe", totals.pages_per_probe);
  SetMedian(&out, "index.candidate_fraction", totals.candidate_fraction);
  SetMedian(&out, "index.useful_ratio", totals.useful_ratio);
  out.metrics.Set("sql.rows_examined_per_row",
                  Ratio(totals.examined_rows, totals.returned_rows));

  ReportCoverage({samples.begin(), samples.end()}, kTracePairs, &out);
  return out;
}

}  // namespace qbism::e2e
