#include "index/manager.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

#include "common/bytes.h"
#include "common/macros.h"
#include "geometry/vec3.h"
#include "obs/trace.h"
#include "storage/epoch.h"

namespace qbism::index {

namespace {

/// The indexed banding table and its columns (med/schema.h).
constexpr char kTable[] = "intensityBand";
constexpr char kStudyColumn[] = "studyId";
constexpr char kAtlasColumn[] = "atlasId";
constexpr char kLoColumn[] = "lo";
constexpr char kHiColumn[] = "hi";
constexpr char kRegionColumn[] = "region";

bool LowerEq(const std::string& a, const char* b) {
  size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

/// `e` as an int literal, when it is one.
std::optional<int64_t> AsIntLiteral(const sql::Expr& e) {
  if (e.kind != sql::Expr::Kind::kLiteral) return std::nullopt;
  if (e.literal.kind() != sql::Value::Kind::kInt) return std::nullopt;
  auto v = e.literal.AsInt();
  if (!v.ok()) return std::nullopt;
  return *v;
}

bool IsColumnRef(const sql::Expr& e, const std::string& alias,
                 const char* column) {
  return e.kind == sql::Expr::Kind::kColumnRef && e.column == column &&
         (e.table.empty() || e.table == alias);
}

const sql::Expr* AsIntersectsCall(const sql::Expr& e) {
  if (e.kind == sql::Expr::Kind::kFunctionCall &&
      LowerEq(e.function, "intersects") && e.args.size() == 2) {
    return &e;
  }
  return nullptr;
}

using BinOp = sql::Expr::BinOp;

/// `op` with its operands swapped (a < b  <=>  b > a).
BinOp Mirror(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

/// A comparison conjunct as (lhs OP int literal), mirrored so that the
/// literal is on the right; null when neither side is an int literal.
struct LiteralCompare {
  const sql::Expr* lhs = nullptr;
  BinOp op = BinOp::kEq;
  int64_t value = 0;
};
std::optional<LiteralCompare> AsLiteralCompare(const sql::Expr& c) {
  if (c.kind != sql::Expr::Kind::kBinary || !c.lhs || !c.rhs) {
    return std::nullopt;
  }
  if (std::optional<int64_t> v = AsIntLiteral(*c.rhs)) {
    return LiteralCompare{c.lhs.get(), c.bin_op, *v};
  }
  if (std::optional<int64_t> v = AsIntLiteral(*c.lhs)) {
    return LiteralCompare{c.rhs.get(), Mirror(c.bin_op), *v};
  }
  return std::nullopt;
}

/// Narrows [*min, *max] to the integers satisfying `x OP v`; false for
/// an operator no interval expresses (<>). Saturating: `x > INT64_MAX`
/// leaves min at INT64_MAX, which no count reaches.
bool NarrowBounds(BinOp op, int64_t v, int64_t* min, int64_t* max) {
  switch (op) {
    case BinOp::kEq:
      *min = std::max(*min, v);
      *max = std::min(*max, v);
      return true;
    case BinOp::kGt:
      *min = std::max(*min, v == INT64_MAX ? v : v + 1);
      return true;
    case BinOp::kGe:
      *min = std::max(*min, v);
      return true;
    case BinOp::kLt:
      *max = std::min(*max, v == INT64_MIN ? v : v - 1);
      return true;
    case BinOp::kLe:
      *max = std::min(*max, v);
      return true;
    default:
      return false;
  }
}

/// Folds `voxelcount(<region column>) OP k` or `runcount(<region
/// column>) OP k` into the filter's count bounds. Every band a
/// qualifying row holds satisfies them: the summary keeps the region's
/// exact counts.
bool NarrowCounts(const sql::Expr& c, const std::string& alias,
                  BandFilter* filter) {
  std::optional<LiteralCompare> cmp = AsLiteralCompare(c);
  if (!cmp) return false;
  const sql::Expr& call = *cmp->lhs;
  if (call.kind != sql::Expr::Kind::kFunctionCall || call.args.size() != 1 ||
      !IsColumnRef(*call.args[0], alias, kRegionColumn)) {
    return false;
  }
  if (LowerEq(call.function, "voxelcount")) {
    return NarrowBounds(cmp->op, cmp->value, &filter->min_voxels,
                        &filter->max_voxels);
  }
  if (LowerEq(call.function, "runcount")) {
    return NarrowBounds(cmp->op, cmp->value, &filter->min_runs,
                        &filter->max_runs);
  }
  return false;
}

/// Band-interval bounds: only the lower bound of `lo` and the upper
/// bound of `hi` narrow the interval a band must lie inside; any other
/// comparison leaves it as it is.
void NarrowInterval(const sql::Expr& c, const std::string& alias,
                    BandFilter* filter) {
  std::optional<LiteralCompare> cmp = AsLiteralCompare(c);
  if (!cmp) return;
  int64_t ignored_max = INT64_MAX, ignored_min = INT64_MIN;
  if (IsColumnRef(*cmp->lhs, alias, kLoColumn)) {
    NarrowBounds(cmp->op, cmp->value, &filter->lo, &ignored_max);
  } else if (IsColumnRef(*cmp->lhs, alias, kHiColumn)) {
    NarrowBounds(cmp->op, cmp->value, &ignored_min, &filter->hi);
  }
}

/// The constant region an `intersects(<region column>, <constant>)`
/// call probes with: fullregion() or boxregion() of int literals, which
/// the hook evaluates without touching storage.
std::optional<region::Region> ConstantProbeRegion(const sql::Expr& call,
                                                  const std::string& alias,
                                                  const region::GridSpec& grid,
                                                  curve::CurveKind kind) {
  const sql::Expr* col = call.args[0].get();
  const sql::Expr* arg = call.args[1].get();
  if (!IsColumnRef(*col, alias, kRegionColumn)) {
    std::swap(col, arg);  // intersects is symmetric
  }
  if (!IsColumnRef(*col, alias, kRegionColumn)) return std::nullopt;
  if (arg->kind != sql::Expr::Kind::kFunctionCall) return std::nullopt;
  if (LowerEq(arg->function, "fullregion") && arg->args.empty()) {
    return region::Region::Full(grid, kind);
  }
  if (!LowerEq(arg->function, "boxregion") || arg->args.size() != 6) {
    return std::nullopt;
  }
  int64_t v[6];
  for (int i = 0; i < 6; ++i) {
    std::optional<int64_t> lit = AsIntLiteral(*arg->args[i]);
    if (!lit) return std::nullopt;
    v[i] = *lit;
  }
  geometry::Box3i b{{int(v[0]), int(v[1]), int(v[2])},
                    {int(v[3]), int(v[4]), int(v[5])}};
  return region::Region::FromBox(grid, kind, b);
}

/// A conjunct that *requires* intersects(...) to be true: the bare call
/// (truthy), or a comparison against an int literal that can only hold
/// when the call returns non-zero. Anything else — including negated
/// forms — yields null and the hook stays out of the query's way.
const sql::Expr* ExtractRequiredIntersects(const sql::Expr& c) {
  if (const sql::Expr* f = AsIntersectsCall(c)) return f;
  std::optional<LiteralCompare> cmp = AsLiteralCompare(c);
  if (!cmp) return nullptr;
  const sql::Expr* call = AsIntersectsCall(*cmp->lhs);
  if (!call) return nullptr;
  int64_t v = cmp->value;
  switch (cmp->op) {
    case BinOp::kEq: return v != 0 ? call : nullptr;   // call = 1
    case BinOp::kNe: return v == 0 ? call : nullptr;   // call <> 0
    case BinOp::kGt: return v >= 0 ? call : nullptr;   // call > 0
    case BinOp::kGe: return v >= 1 ? call : nullptr;   // call >= 1
    default: return nullptr;
  }
}

}  // namespace

SpatialIndexManager::SpatialIndexManager(SpatialExtension* ext)
    : ext_(ext) {}

uint64_t SpatialIndexManager::CurrentEpoch() const {
  storage::EpochManager* epochs = ext_->db()->epochs();
  return epochs ? epochs->current() : 0;
}

void SpatialIndexManager::BumpPlanVersion() {
  ext_->db()->BumpIndexVersion();
}

Status SpatialIndexManager::BuildFromCatalog() {
  obs::Span span(obs::Stage::kIndexBuild);
  span.SetLabel("catalog");
  std::string sql = std::string("select ") + kStudyColumn + ", " +
                    kAtlasColumn + ", " + kLoColumn + ", " + kHiColumn +
                    ", " + kRegionColumn + " from " + kTable;
  QBISM_ASSIGN_OR_RETURN(sql::ResultSet rs, ext_->db()->Execute(sql));
  std::map<int64_t, StudySummary> summaries;
  for (const sql::Row& row : rs.rows) {
    if (row.size() != 5) {
      return Status::Internal("index build: unexpected row shape");
    }
    QBISM_ASSIGN_OR_RETURN(int64_t study_id, row[0].AsInt());
    QBISM_ASSIGN_OR_RETURN(int64_t atlas_id, row[1].AsInt());
    QBISM_ASSIGN_OR_RETURN(int64_t lo, row[2].AsInt());
    QBISM_ASSIGN_OR_RETURN(int64_t hi, row[3].AsInt());
    if (lo < 0 || hi > 255 || lo > hi) {
      return Status::Corruption("index build: bad band interval");
    }
    if (row[4].is_null()) continue;
    QBISM_ASSIGN_OR_RETURN(storage::LongFieldId field, row[4].AsLongField());
    QBISM_ASSIGN_OR_RETURN(region::Region r, ext_->LoadRegion(field));
    StudySummary& s = summaries[study_id];
    s.study_id = study_id;
    s.atlas_id = atlas_id;
    BandSummary band =
        SummarizeBandRegion(uint8_t(lo), uint8_t(hi), r);
    if (band.voxels > 0) s.bitmap.SetRange(band.lo, band.hi);
    s.bands.push_back(band);
  }

  std::lock_guard<std::mutex> lock(mu_);
  versions_.clear();
  delta_.clear();
  for (auto& [id, summary] : summaries) {
    versions_[id].push_back(
        Version{std::make_shared<const StudySummary>(std::move(summary)), 0});
  }
  QBISM_RETURN_NOT_OK(RebuildPackedLocked());
  authoritative_ = true;
  BumpPlanVersion();
  return Status::OK();
}

Status SpatialIndexManager::RebuildPacked() {
  std::lock_guard<std::mutex> lock(mu_);
  QBISM_RETURN_NOT_OK(RebuildPackedLocked());
  BumpPlanVersion();
  return Status::OK();
}

Status SpatialIndexManager::RebuildPackedLocked() {
  obs::Span span(obs::Stage::kIndexBuild);
  span.SetLabel("pack");
  std::vector<HilbertRTree::Entry> entries;
  for (const auto& [id, vers] : versions_) {
    for (const Version& v : vers) {
      for (const BandSummary& b : v.summary->bands) {
        if (b.voxels == 0) continue;  // empty bands can't intersect
        HilbertRTree::Entry e;
        e.study_id = id;
        e.lo = b.lo;
        e.hi = b.hi;
        e.signature = b.signature;
        e.box = b.box;
        entries.push_back(e);
      }
    }
  }
  sql::Database* db = ext_->db();
  QBISM_ASSIGN_OR_RETURN(
      HilbertRTree tree,
      HilbertRTree::BulkLoad(db->buffer_pool(), db->page_allocator(),
                             ext_->config().grid, ext_->config().curve,
                             std::move(entries)));
  span.AddPages(tree.page_count());
  tree_ = std::make_shared<const HilbertRTree>(std::move(tree));
  delta_.clear();
  ++stats_.rebuilds;
  stats_.tree_entries = tree_->leaf_entries();
  stats_.tree_pages = tree_->page_count();
  stats_.tree_height = tree_->height();
  return Status::OK();
}

Status SpatialIndexManager::ApplyRecovered(
    const std::vector<storage::WalRecord>& records) {
  obs::Span span(obs::Stage::kIndexBuild);
  span.SetLabel("recover");
  std::lock_guard<std::mutex> lock(mu_);
  versions_.clear();
  delta_.clear();
  for (const storage::WalRecord& rec : records) {
    if (rec.type == storage::WalRecordType::kIndexUpsert) {
      QBISM_ASSIGN_OR_RETURN(
          StudySummary s,
          StudySummary::Deserialize(rec.payload.data(), rec.payload.size()));
      // Last-wins: a later record for the same study replaces earlier
      // state entirely (ingest logs the full summary, not a delta).
      versions_[s.study_id].clear();
      versions_[s.study_id].push_back(
          Version{std::make_shared<const StudySummary>(std::move(s)), 0});
    } else if (rec.type == storage::WalRecordType::kIndexRemove) {
      if (rec.payload.size() != 8) {
        return Status::Corruption("kIndexRemove: bad payload");
      }
      versions_.erase(int64_t(LoadLE64(rec.payload.data())));
    }
  }
  QBISM_RETURN_NOT_OK(RebuildPackedLocked());
  authoritative_ = true;
  BumpPlanVersion();
  return Status::OK();
}

Status SpatialIndexManager::StageUpsert(StudySummary summary) {
  std::vector<uint8_t> payload;
  summary.Serialize(&payload);
  QBISM_RETURN_NOT_OK(ext_->db()->LogExtensionRecord(
      storage::WalRecordType::kIndexUpsert, payload));
  std::lock_guard<std::mutex> lock(mu_);
  staged_upserts_.push_back(std::move(summary));
  return Status::OK();
}

Status SpatialIndexManager::StageRemove(int64_t study_id) {
  std::vector<uint8_t> payload(8);
  StoreLE64(payload.data(), uint64_t(study_id));
  QBISM_RETURN_NOT_OK(ext_->db()->LogExtensionRecord(
      storage::WalRecordType::kIndexRemove, payload));
  std::lock_guard<std::mutex> lock(mu_);
  staged_removes_.push_back(study_id);
  return Status::OK();
}

void SpatialIndexManager::PublishStaged() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t id : staged_removes_) RemoveLocked(id);
  for (StudySummary& s : staged_upserts_) {
    UpsertLocked(std::make_shared<const StudySummary>(std::move(s)));
  }
  staged_upserts_.clear();
  staged_removes_.clear();
  ++stats_.publishes;
  BumpPlanVersion();
}

void SpatialIndexManager::DropStaged() {
  std::lock_guard<std::mutex> lock(mu_);
  staged_upserts_.clear();
  staged_removes_.clear();
}

void SpatialIndexManager::UpsertLocked(
    std::shared_ptr<const StudySummary> summary) {
  int64_t id = summary->study_id;
  std::vector<Version>& vers = versions_[id];
  uint64_t epoch = CurrentEpoch();
  if (epoch == 0) {
    vers.clear();  // no epoch machinery: no pinned readers to protect
  } else {
    for (Version& v : vers) {
      if (v.died == 0) v.died = epoch;
    }
  }
  vers.push_back(Version{std::move(summary), 0});
  delta_.insert(id);
}

void SpatialIndexManager::RemoveLocked(int64_t study_id) {
  auto it = versions_.find(study_id);
  if (it == versions_.end()) return;
  uint64_t epoch = CurrentEpoch();
  if (epoch == 0) {
    versions_.erase(it);
    delta_.erase(study_id);
    return;
  }
  for (Version& v : it->second) {
    if (v.died == 0) v.died = epoch;
  }
  delta_.insert(study_id);  // keep the study probe-visible until vacuum
}

void SpatialIndexManager::Vacuum() {
  storage::EpochManager* epochs = ext_->db()->epochs();
  uint64_t horizon = epochs ? epochs->MinActiveReader() : ~uint64_t{0};
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = versions_.begin(); it != versions_.end();) {
    std::vector<Version>& vers = it->second;
    size_t before = vers.size();
    vers.erase(std::remove_if(vers.begin(), vers.end(),
                              [&](const Version& v) {
                                return v.died != 0 && v.died <= horizon;
                              }),
               vers.end());
    stats_.vacuumed_versions += before - vers.size();
    if (vers.empty()) {
      delta_.erase(it->first);
      it = versions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SpatialIndexManager::StudyMatches(const std::vector<Version>& versions,
                                       const BandFilter& filter) {
  for (const Version& v : versions) {
    // Hierarchical bitmap first: no intensity in the asked range means
    // every in-range band of this version is empty.
    if (filter.RequiresVoxels() &&
        !v.summary->bitmap.AnyInRange(uint8_t(filter.lo),
                                      uint8_t(filter.hi))) {
      continue;
    }
    for (const BandSummary& b : v.summary->bands) {
      if (filter.Matches(b)) return true;
    }
  }
  return false;
}

Result<std::vector<int64_t>> SpatialIndexManager::Probe(
    const BandFilter& asked) const {
  obs::Span span(obs::Stage::kIndexProbe);
  std::vector<int64_t> out;
  // Every band lies in the intensity domain, so clamping the interval
  // to it loses nothing and lets the tree and bitmaps take it as bytes.
  BandFilter filter = asked;
  filter.lo = std::max<int64_t>(filter.lo, 0);
  filter.hi = std::min<int64_t>(filter.hi, 255);
  if (filter.Empty()) return out;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.probes;
  if (!filter.spatial) {
    for (const auto& [id, vers] : versions_) {
      if (StudyMatches(vers, filter)) out.push_back(id);
    }
    return out;
  }
  std::set<int64_t> candidates;
  uint64_t pages_before = probe_counters_.pages_visited;
  if (tree_ && !tree_->empty()) {
    QBISM_RETURN_NOT_OK(tree_->Probe(
        filter.box, filter.signature, uint8_t(filter.lo), uint8_t(filter.hi),
        [&](int64_t id) { candidates.insert(id); }, &probe_counters_));
  }
  for (int64_t id : delta_) candidates.insert(id);
  for (int64_t id : candidates) {
    auto it = versions_.find(id);
    if (it != versions_.end() && StudyMatches(it->second, filter)) {
      out.push_back(id);
    }
  }
  span.AddPages(probe_counters_.pages_visited - pages_before);
  return out;
}

Result<std::vector<int64_t>> SpatialIndexManager::ProbeIntersect(
    const region::Region& probe, uint8_t band_lo, uint8_t band_hi) const {
  if (probe.Empty()) return std::vector<int64_t>{};
  BandFilter filter;
  filter.lo = band_lo;
  filter.hi = band_hi;
  filter.spatial = true;
  filter.box = RegionBounds(probe);
  filter.signature = RegionSignature(probe);
  return Probe(filter);
}

bool SpatialIndexManager::authoritative() const {
  std::lock_guard<std::mutex> lock(mu_);
  return authoritative_;
}

sql::planner::CandidateIndexHook SpatialIndexManager::MakeHook() {
  return [this](const std::string& table, const std::string& alias,
                const std::vector<const sql::Expr*>& conjuncts)
             -> std::optional<sql::planner::CandidateSet> {
    if (table != kTable || !authoritative()) return std::nullopt;

    // Sound pruning needs a conjunct every qualifying band's summary
    // answers: one requiring an intersects() against the region column
    // with a constant region operand, or a count bound. lo/hi bounds
    // alone are not enough: rows with empty regions still satisfy
    // plain intensity-range predicates.
    BandFilter filter;
    std::optional<region::Region> probe;
    bool counted = false;
    for (const sql::Expr* c : conjuncts) {
      if (!probe) {
        if (const sql::Expr* call = ExtractRequiredIntersects(*c)) {
          probe = ConstantProbeRegion(*call, alias, ext_->config().grid,
                                      ext_->config().curve);
          if (probe) continue;
        }
      }
      if (NarrowCounts(*c, alias, &filter)) {
        counted = true;
        continue;
      }
      NarrowInterval(*c, alias, &filter);
    }
    if (!probe && !counted) return std::nullopt;
    if (probe) {
      // An empty probe's signature is 0, which no band matches.
      filter.spatial = true;
      filter.box = RegionBounds(*probe);
      filter.signature = RegionSignature(*probe);
    }

    auto keys = Probe(filter);
    if (!keys.ok()) return std::nullopt;
    sql::planner::CandidateSet set;
    set.column = kStudyColumn;
    set.keys = std::move(*keys);
    set.source = probe ? "rtree+bitmap" : "band summaries";
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t live = 0;
      for (const auto& [id, vers] : versions_) {
        for (const Version& v : vers) {
          if (v.died == 0) {
            ++live;
            break;
          }
        }
      }
      set.population = double(live);
    }
    return set;
  };
}

IndexStats SpatialIndexManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IndexStats s = stats_;
  s.live_studies = 0;
  s.live_bands = 0;
  s.dead_versions = 0;
  for (const auto& [id, vers] : versions_) {
    bool live = false;
    for (const Version& v : vers) {
      if (v.died == 0) {
        live = true;
        s.live_bands += v.summary->bands.size();
      } else {
        ++s.dead_versions;
      }
    }
    if (live) ++s.live_studies;
  }
  s.delta_studies = delta_.size();
  return s;
}

ProbeCounters SpatialIndexManager::probe_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probe_counters_;
}

}  // namespace qbism::index
