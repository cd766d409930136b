#ifndef QBISM_QBISM_INGEST_H_
#define QBISM_QBISM_INGEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>

#include "common/result.h"
#include "med/loader.h"
#include "qbism/spatial_extension.h"
#include "storage/long_field.h"

namespace qbism::index {
class SpatialIndexManager;
}  // namespace qbism::index

namespace qbism {

/// Online study ingest over a WAL-enabled database (docs/DURABILITY.md):
/// each IngestStudy/ReplaceStudy runs as one WAL transaction — every
/// long field and catalog row is logged, the fsync-on-commit makes the
/// study durable atomically, and the versioned LFM publishes it as a
/// new epoch so concurrent readers never block and never see a partial
/// study. Replaced extents are retired, not freed; Vacuum() reclaims
/// them once the last reader that could see them drains.
///
/// Writers are serialized internally (one ingest at a time); readers
/// are gated only by IsVisible, which the query service checks before
/// its cache probe. A study is invisible while its transaction is in
/// flight and, after a failed *replace*, stays quarantined — its
/// durable state (the pre-replace study, which recovery would restore)
/// no longer matches the in-memory catalog, so serving it would be a
/// lie. A failed fresh ingest cleans up and leaves no trace.
class IngestManager {
 public:
  struct Stats {
    uint64_t ingests = 0;   // committed fresh ingests
    uint64_t replaces = 0;  // committed replacements
    uint64_t failures = 0;  // aborted/failed transactions
    uint64_t quarantined = 0;  // studies offline after a failed replace
    uint64_t vacuum_extents_freed = 0;
    uint64_t vacuum_pages_freed = 0;
  };

  /// Called after each committed ingest with the study id, outside the
  /// writer lock. The query service hooks cache invalidation here.
  using CommitListener = std::function<void(int study_id)>;

  /// `ext` must be installed over a database opened with enable_wal.
  explicit IngestManager(SpatialExtension* ext) : ext_(ext) {}

  IngestManager(const IngestManager&) = delete;
  IngestManager& operator=(const IngestManager&) = delete;

  /// Ingests a new study; AlreadyExists when the study id is present.
  Status IngestStudy(const med::StudyRecord& record);

  /// Replaces an existing study (or ingests it fresh when absent): the
  /// old rows are deleted and its long fields dropped in the same
  /// transaction that stores the new data, so the swap commits — and
  /// recovers — atomically.
  Status ReplaceStudy(const med::StudyRecord& record);

  /// False while the study's transaction is in flight or the study is
  /// quarantined by a failed replace. Studies this manager never
  /// touched are visible (the normal query path decides their fate).
  bool IsVisible(int study_id) const;

  /// Monotonic count of committed ingests of this study. A cache
  /// filler samples it before computing and fills only if it is
  /// unchanged after — closing the race where an ingest commits (and
  /// invalidates) between a query's execution and its cache insert.
  uint64_t CommitVersion(int study_id) const;

  /// Reclaims retired extents, and the attached index's retired
  /// summary versions, that no active reader can see.
  storage::LongFieldManager::VacuumStats Vacuum();

  /// Registers a commit listener; returns a token for removal.
  uint64_t AddCommitListener(CommitListener listener);
  void RemoveCommitListener(uint64_t token);

  /// Attaches the cross-study spatial index (docs/INDEXING.md): each
  /// ingest transaction then logs a kIndexUpsert record with the
  /// study's summary and publishes it to the in-memory index only
  /// after the transaction commits (staged/dropped with the txn, so
  /// the index is never ahead of the durable state). Null detaches.
  void set_index_manager(index::SpatialIndexManager* manager) {
    index_ = manager;
  }

  Stats stats() const;

 private:
  /// The transactional body, writer lock held.
  Status RunLocked(const med::StudyRecord& record, bool replace);
  /// Unlogged in-memory cleanup of a study's rows after an abort.
  void ScrubRows(int study_id);
  void NotifyCommitted(int study_id);

  SpatialExtension* ext_;
  /// Spatial index maintained transactionally with each ingest; only
  /// touched under the writer lock. Null when no index is attached.
  index::SpatialIndexManager* index_ = nullptr;
  /// Serializes ingest transactions end to end. Readers never take it.
  std::mutex writer_mu_;
  mutable std::mutex state_mu_;  // guards everything below
  std::set<int> offline_;
  std::map<int, uint64_t> commit_versions_;
  std::map<uint64_t, CommitListener> listeners_;
  uint64_t next_listener_token_ = 1;
  Stats stats_;
};

}  // namespace qbism

#endif  // QBISM_QBISM_INGEST_H_
