#ifndef QBISM_INDEX_MANAGER_H_
#define QBISM_INDEX_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "index/rtree.h"
#include "index/summary.h"
#include "qbism/spatial_extension.h"
#include "sql/planner/cost.h"
#include "storage/wal.h"

namespace qbism::index {

/// Index-wide counters (see also ProbeCounters for traversal detail).
struct IndexStats {
  uint64_t live_studies = 0;    // studies with a live summary
  uint64_t live_bands = 0;      // bands across live summaries
  uint64_t dead_versions = 0;   // replaced summaries awaiting vacuum
  uint64_t delta_studies = 0;   // studies not yet in the packed tree
  uint64_t tree_entries = 0;    // leaf entries in the packed tree
  uint64_t tree_pages = 0;
  int tree_height = 0;
  uint64_t probes = 0;
  uint64_t rebuilds = 0;
  uint64_t publishes = 0;
  uint64_t vacuumed_versions = 0;
};

/// The cross-study spatial index (ROADMAP item 3, docs/INDEXING.md) over
/// the paper schema's banding table (med/schema.h),
/// intensityBand(studyId, atlasId, lo, hi, region): per-study summaries
/// (hierarchical intensity bitmap + per-band bounding box / run
/// signature / voxel and run counts), a disk-resident Hilbert-packed
/// R-tree over the band entries for spatial pruning, and a planner hook
/// that turns "intersects(region, <constant region>)" and
/// "voxelcount(region) > k"-style predicates into candidate study-id
/// sets so multi-study SQL touches only studies that can qualify.
///
/// Consistency model. The packed tree is immutable; studies ingested or
/// replaced after the last pack live in a delta overlay (`delta_`) that
/// probes check linearly. Every candidate the tree or overlay emits is
/// re-verified against the current summary versions, and the SQL-level
/// predicate re-checks every surviving row, so a probe result is always
/// a superset of the truth and the query result is byte-identical to a
/// full scan. Replaced summaries are retired with the epoch at which
/// they died (never removed in place) so probes stay a superset for
/// pinned readers of older epochs; Vacuum() drops versions no active
/// reader can see, mirroring the LFM's epoch vacuum.
///
/// Durability. StageUpsert serializes the study's summary as a
/// kIndexUpsert redo record into the ingest transaction, so the index
/// maintenance commits (and recovers) atomically with the study's rows
/// and long fields: Database::Recover hands the committed records back
/// and ApplyRecovered replays them last-wins. BuildFromCatalog is the
/// from-scratch fallback (and the path for databases ingested before
/// the index existed); both produce the same candidate sets.
///
/// Thread safety: all public methods are safe to call concurrently; a
/// single mutex serializes probes, publishes, and rebuilds (probe work
/// per query is microseconds against 10^4 studies, so the serialization
/// is not a bottleneck — revisit with a shared_mutex if it becomes one).
class SpatialIndexManager {
 public:
  /// `ext` must outlive this manager.
  explicit SpatialIndexManager(SpatialExtension* ext);

  /// --- Build paths ------------------------------------------------------

  /// Scans the banding table through SQL, decodes every band region,
  /// summarizes, and packs the tree. Marks the manager authoritative.
  Status BuildFromCatalog();

  /// Repacks the R-tree from every unvacuumed summary version and
  /// clears the delta overlay. Pages for the old tree are not freed
  /// (the shared PageAllocator never frees); see docs/INDEXING.md.
  Status RebuildPacked();

  /// Replays committed kIndexUpsert/kIndexRemove records (last-wins per
  /// study), then packs the tree. Marks the manager authoritative.
  Status ApplyRecovered(const std::vector<storage::WalRecord>& records);

  /// --- Transactional maintenance (ingest path) --------------------------

  /// Stages a study summary inside the current ingest transaction and
  /// logs it as a kIndexUpsert redo record (joining the LFM's open
  /// transaction). Visible to probes only after PublishStaged.
  Status StageUpsert(StudySummary summary);

  /// Stages a study removal (kIndexRemove record).
  Status StageRemove(int64_t study_id);

  /// Applies the staged operations after the transaction committed:
  /// old versions retire at the current epoch, new summaries go live in
  /// the delta overlay. Bumps the database's index version so cached
  /// plans embedding candidate sets are invalidated.
  void PublishStaged();

  /// Discards staged operations after an abort.
  void DropStaged();

  /// Drops retired versions no active reader can see (the epoch
  /// manager's MinActiveReader horizon).
  void Vacuum();

  /// --- Probing ----------------------------------------------------------

  /// Sorted ids of every study with a band `filter` matches in any
  /// unvacuumed summary version. A spatial filter takes its candidates
  /// from the R-tree descent (box + run-signature pruning) unioned with
  /// the delta overlay; a count-only filter visits every study, since
  /// empty bands, which the tree leaves out, may satisfy it. Either way
  /// each candidate is verified against its summaries (hierarchical
  /// bitmap range test when the filter excludes empty bands, then the
  /// exact band test).
  Result<std::vector<int64_t>> Probe(const BandFilter& filter) const;

  /// Probe for the bands within [band_lo, band_hi] whose region may
  /// intersect `probe`.
  Result<std::vector<int64_t>> ProbeIntersect(const region::Region& probe,
                                              uint8_t band_lo,
                                              uint8_t band_hi) const;

  /// True once BuildFromCatalog or ApplyRecovered succeeded: only then
  /// do probes authoritatively cover the table and may the planner
  /// prune scans by candidate sets.
  bool authoritative() const;

  /// The planner hook: recognizes, on the banding table, a conjunct
  /// requiring `intersects(<region column>, <constant region
  /// expression>)` and `voxelcount(<region column>) OP k` /
  /// `runcount(<region column>) OP k` conjuncts (OP one of < <= = >= >,
  /// the literal on either side), plus lo/hi bounds narrowing the band
  /// interval, folds them into one BandFilter and answers with the
  /// candidate study-id set (EXPLAIN source "rtree+bitmap" when an
  /// intersects() is present, else "band summaries"). Register on the
  /// database with Database::set_candidate_index_hook. The returned
  /// callable captures `this`.
  sql::planner::CandidateIndexHook MakeHook();

  IndexStats stats() const;
  ProbeCounters probe_counters() const;

 private:
  struct Version {
    std::shared_ptr<const StudySummary> summary;
    uint64_t died = 0;  // epoch at retirement; 0 = live
  };

  /// Exact test of one study's versions against a filter, under mu_.
  static bool StudyMatches(const std::vector<Version>& versions,
                           const BandFilter& filter);
  Status RebuildPackedLocked();
  void UpsertLocked(std::shared_ptr<const StudySummary> summary);
  void RemoveLocked(int64_t study_id);
  uint64_t CurrentEpoch() const;
  void BumpPlanVersion();

  SpatialExtension* ext_;

  mutable std::mutex mu_;
  bool authoritative_ = false;
  std::map<int64_t, std::vector<Version>> versions_;
  std::set<int64_t> delta_;  // studies changed since the last pack
  std::shared_ptr<const HilbertRTree> tree_;
  std::vector<StudySummary> staged_upserts_;
  std::vector<int64_t> staged_removes_;
  mutable ProbeCounters probe_counters_;
  mutable IndexStats stats_;
};

}  // namespace qbism::index

#endif  // QBISM_INDEX_MANAGER_H_
