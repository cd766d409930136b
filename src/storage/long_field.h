#ifndef QBISM_STORAGE_LONG_FIELD_H_
#define QBISM_STORAGE_LONG_FIELD_H_

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buddy_allocator.h"
#include "storage/disk_device.h"
#include "storage/epoch.h"
#include "storage/wal.h"

namespace qbism::storage {

/// Handle to a long field; value 0 is reserved as "null".
struct LongFieldId {
  uint64_t value = 0;
  bool IsNull() const { return value == 0; }
  friend bool operator==(const LongFieldId&, const LongFieldId&) = default;
};

/// A byte range within a long field.
struct ByteRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Knobs for the read planner.
struct ReadPlanOptions {
  /// Extents whose page gap is at most this many pages are merged into
  /// one physical transfer, reading the gap pages to save an arm
  /// movement ("gap fill"). 0 merges only overlapping/adjacent pages.
  /// On the modeled device a seek costs 6 page transfers, so small gap
  /// fills are almost always a win for Hilbert-clustered runs.
  uint64_t gap_fill_pages = 1;
};

/// One physical extent of a read plan: consecutive field-relative pages
/// fetched as a single sequential transfer.
struct PlannedExtent {
  uint64_t first_page = 0;
  uint64_t page_count = 0;

  uint64_t ByteOffset() const { return first_page * kPageSize; }
  uint64_t ByteCount() const { return page_count * kPageSize; }
  friend bool operator==(const PlannedExtent&, const PlannedExtent&) = default;
};

/// The physical shape of a planned multi-range read: the minimal set of
/// page extents (ascending on-device order — elevator order over the
/// buddy-allocated raw device) covering every requested byte, plus the
/// accounting the coalescing metrics are built on.
struct ReadPlan {
  std::vector<PlannedExtent> extents;
  uint64_t pages_read = 0;     // pages the plan transfers (incl. gap fill)
  uint64_t pages_touched = 0;  // distinct pages the ranges actually need
  uint64_t bytes_needed = 0;   // payload bytes (sum of range lengths)
};

/// Durability hooks wiring the LFM into the write path (both optional).
/// Every mutation publishes the same way: a hookless LFM applies it at
/// once, unlogged. With a WAL attached, every mutation appends a redo
/// record and becomes durable at its transaction's commit sync; with an
/// epoch manager attached, mutations are applied as new *versions* so
/// pinned readers keep a consistent pre-mutation view (see
/// docs/DURABILITY.md).
struct LfmDurabilityHooks {
  WriteAheadLog* wal = nullptr;      // not owned; must outlive the LFM
  EpochManager* epochs = nullptr;    // not owned; must outlive the LFM
};

/// The Long Field Manager (§5.1): stores large objects (REGIONs,
/// VOLUMEs, meshes) directly on the disk device using buddy allocation
/// for contiguity. Like Starburst's LFM it performs no internal
/// buffering — every read is charged to the device — and supports fast
/// random I/O to arbitrary pieces of a field, which is what lets the
/// spatial operators read only the pages a query region touches.
///
/// Thread-safe for the query service's read-mostly sharing: reads take
/// a shared lock on the field directory (the device serializes actual
/// page transfers itself); Create/Update/Delete take it exclusively —
/// but only for directory bookkeeping. Data pages of a new or replaced
/// field are written to a private extent *outside* the directory lock,
/// so readers never block on an ingest writing megabytes.
///
/// Update always goes out of place: the new content is written to a
/// fresh extent and published over the old version, so a failed write
/// never touches the old extent. Without an epoch manager the
/// superseded extent is freed at publish (no reader can pin it). With
/// one the directory is *versioned*: the superseded extent is retired
/// (not freed) with the epoch it died in, and a reader holding a
/// ReadSnapshot resolves ids against its pinned epoch. Retired extents
/// are reclaimed by Vacuum() once the last reader that could see them
/// drains. Mutations inside an explicit transaction (BeginTxn /
/// CommitTxn) stage their directory changes and publish them atomically
/// at commit, after the WAL sync; until then the new state is invisible
/// to every reader (including the writer — ingest never reads back
/// uncommitted fields).
class LongFieldManager {
 public:
  /// Manages the whole of `device` (not owned; must outlive this).
  explicit LongFieldManager(DiskDevice* device, LfmDurabilityHooks hooks = {});

  /// Writes a new long field and returns its handle.
  Result<LongFieldId> Create(const std::vector<uint8_t>& bytes);

  /// Size in bytes of an existing field.
  Result<uint64_t> Size(LongFieldId id) const;

  /// Reads the whole field: one version lookup and one transfer of its
  /// extent, whose first size_bytes are appended to the returned buffer
  /// straight from the device's pages, under one directory hold, so the
  /// bytes are exactly the version resolved.
  Result<std::vector<uint8_t>> Read(LongFieldId id) const;

  /// --- Planned reads (every partial read of a field) -------------------
  /// A partial read is PlanRead then ReadExtents. A caller that makes
  /// both calls against a field another thread may update holds one
  /// ReadSnapshot across them, so both resolve the same version.

  /// Pure planning step: maps byte ranges (any order, overlaps allowed)
  /// to the minimal ascending set of page extents under the gap-fill
  /// threshold. Validates every range against `field_size_bytes`
  /// overflow-safely (a huge offset cannot wrap into range). A sorted
  /// list (every run list) is planned in one sweep straight off the
  /// ranges; only an out-of-order list is copied and sorted first. Gap
  /// fill only bridges *between* needed pages; a plan never reads past
  /// the last page any range touches, so pages_read <= pages_touched +
  /// filled gaps and a plan with gap_fill_pages = 0 reads exactly the
  /// distinct pages.
  static Result<ReadPlan> BuildReadPlan(const std::vector<ByteRange>& ranges,
                                        uint64_t field_size_bytes,
                                        const ReadPlanOptions& options = {});

  /// BuildReadPlan against an existing field's size. `pages_touched` is
  /// the distinct-page count any read of `ranges` must transfer.
  Result<ReadPlan> PlanRead(LongFieldId id,
                            const std::vector<ByteRange>& ranges,
                            const ReadPlanOptions& options = {}) const;

  /// Executes (part of) a plan as one batch device read: `visit(i,
  /// pages)` sees extent i's extent.ByteCount() bytes in place, in
  /// order, on the device's page store. Extents must come from a plan
  /// for this field. This path goes straight to the raw device — the LFM
  /// is unbuffered, so a streaming extraction can never evict relational
  /// pages from the buffer pool or serialize on its latch.
  Status ReadExtents(LongFieldId id, const std::vector<PlannedExtent>& extents,
                     const PageVisitor& visit) const;

  /// ReadExtents copying extent i into outs[i] (extent.ByteCount()
  /// bytes).
  Status ReadExtents(LongFieldId id, const std::vector<PlannedExtent>& extents,
                     const std::vector<uint8_t*>& outs) const;

  /// Replaces an existing field's content, out of place: needs room for
  /// the new extent while the old one is still held. The old extent is
  /// freed at publish, or retired for Vacuum under an epoch manager.
  Status Update(LongFieldId id, const std::vector<uint8_t>& bytes);

  /// Drops the field: its extent is freed at publish, or under an epoch
  /// manager retired and reclaimed by Vacuum once no reader can see it.
  Status Delete(LongFieldId id);

  /// --- Transactions and reclamation (durable mode only) ---------------

  /// Opens an explicit transaction; subsequent Create/Update/Delete
  /// calls from any thread join it (stage their directory changes and
  /// log under its id) until CommitTxn/AbortTxn. One at a time; the
  /// ingest path serializes writers above this layer. Returns the WAL
  /// transaction id.
  Result<uint64_t> BeginTxn();

  /// Durability point: syncs the WAL through the commit record, then
  /// publishes every staged change as the next epoch. On a sync
  /// failure the transaction is rolled back (staged extents freed,
  /// directory untouched) and the device error returned — a failed
  /// commit can never become durable or visible.
  Status CommitTxn();

  /// Rolls the open transaction back: staged extents are freed, the
  /// directory is untouched, an advisory abort is logged.
  Status AbortTxn();

  /// The open transaction's WAL id, or 0.
  uint64_t open_txn() const;

  struct VacuumStats {
    uint64_t extents_freed = 0;
    uint64_t pages_freed = 0;
    uint64_t still_pinned = 0;  // retired extents a reader can still see
  };

  /// Frees every retired extent whose dropping epoch has drained past
  /// the oldest active reader (no-op without an epoch manager).
  VacuumStats Vacuum();

  /// Retired-but-unreclaimed extents (the vacuum backlog).
  uint64_t dead_extents() const;

  /// --- Crash recovery (driven by Database::Recover) --------------------

  /// Re-installs a committed kLfmSet: reserves the logged extent,
  /// retires any existing live version of `id`, and (when `verify_crc`)
  /// checks the on-device content against `content_crc` — the
  /// committed-implies-byte-identical guarantee. No WAL logging, no
  /// epochs; only valid before the system serves readers.
  Status RecoverSet(uint64_t id, uint64_t start_page, uint64_t page_count,
                    uint64_t size_bytes, uint32_t content_crc, bool verify_crc);

  /// Re-applies a committed kLfmDrop.
  Status RecoverDrop(uint64_t id);

  /// Pages the buddy allocator currently considers allocated (rounded
  /// extents). A failed Create/Update must leave this unchanged.
  uint64_t allocated_pages() const;

  /// Leak/corruption check used by the fault-sweep harness: the buddy
  /// allocator's structural invariants hold, and its allocated-page
  /// total equals the sum of the directory entries' extents — live
  /// versions, retired-but-unvacuumed versions, and staged
  /// (uncommitted) extents — i.e. no failed operation leaked pages or
  /// freed pages still referenced.
  Status CheckPageAccounting() const;

  DiskDevice* device() const { return device_; }
  EpochManager* epochs() const { return epochs_; }
  bool durable() const { return wal_ != nullptr; }

 private:
  /// Marker for a live version.
  static constexpr uint64_t kLive = UINT64_MAX;

  /// One version of a field: the extent holding its bytes plus the
  /// epoch interval [created_epoch, dropped_epoch) in which it is
  /// visible. Without an epoch manager each id keeps exactly one
  /// version, with the interval [0, kLive).
  struct Entry {
    uint64_t start_page = 0;
    uint64_t size_bytes = 0;
    uint64_t created_epoch = 0;
    uint64_t dropped_epoch = kLive;
    uint64_t PageCount() const { return (size_bytes + kPageSize - 1) / kPageSize; }
    uint64_t ExtentPageCount() const {
      return BuddyAllocator::ExtentPages(PageCount() == 0 ? 1 : PageCount());
    }
  };

  /// A retired extent awaiting vacuum.
  struct DeadExtent {
    uint64_t id = 0;
    uint64_t start_page = 0;
    uint64_t dropped_epoch = 0;
  };

  /// A directory change staged by an open transaction.
  struct StagedOp {
    enum Kind { kSet, kDrop } kind = kSet;
    uint64_t id = 0;
    uint64_t start_page = 0;  // kSet only
    uint64_t size_bytes = 0;  // kSet only
  };

  /// Resolves `id` to the version visible at the calling thread's
  /// pinned epoch (or the latest live version without a snapshot).
  /// Callers must hold `mu_` (shared suffices) across the returned
  /// pointer's use.
  Result<const Entry*> Lookup(LongFieldId id) const;

  /// Transfers `extents` of `entry`'s field through `visit` as one
  /// batch device read. Caller holds mu_ (shared suffices).
  Status ReadExtentsLocked(const Entry& entry,
                           const std::vector<PlannedExtent>& extents,
                           const PageVisitor& visit) const;

  /// Writes `bytes` as zero-padded full pages to the private extent at
  /// `start` and publishes it as `id`'s new version; on failure hands
  /// the extent back, leaving the old version untouched.
  Status WriteAndPublish(uint64_t id, uint64_t start,
                         const std::vector<uint8_t>& bytes);

  /// Applies one op to the directory, stamping changes `epoch`. The
  /// superseded or dropped version is retired for Vacuum under an epoch
  /// manager and freed here without one. Caller holds mu_ exclusively.
  Status ApplyOpLocked(const StagedOp& op, uint64_t epoch);

  /// Frees `entry`'s extent and removes it from `id`'s versions (and
  /// `id` from the directory once it has none). Caller holds mu_
  /// exclusively.
  Status DropVersionLocked(uint64_t id, Entry* entry);

  /// Latest live version of id, or null. Caller holds mu_.
  Entry* LatestLiveLocked(uint64_t id);
  const Entry* LatestLiveLocked(uint64_t id) const;

  /// The one publish path of every mutation whose data pages (if any)
  /// are already on the device. Without a WAL it applies the op at
  /// once, building no record. With one it appends the redo record (a
  /// kSet's carries `content`'s CRC) and either joins the open
  /// transaction or commits immediately. On failure the caller must
  /// free any extent it allocated.
  Status LogAndPublish(const StagedOp& op, const std::vector<uint8_t>& content);

  DiskDevice* device_;
  WriteAheadLog* wal_;
  EpochManager* epochs_;
  mutable std::shared_mutex mu_;
  BuddyAllocator allocator_;  // guarded by mu_
  std::unordered_map<uint64_t, std::vector<Entry>> directory_;  // mu_
  std::vector<DeadExtent> dead_;                                // mu_
  std::vector<StagedOp> staged_;                                // mu_
  uint64_t next_id_ = 1;                                        // mu_
  uint64_t open_txn_ = 0;                                       // mu_
  /// Serializes commits (WAL commit sync + directory publish + epoch
  /// advance) so concurrent auto-commits cannot interleave their
  /// publish/advance pairs. Readers never take it. Acquired before mu_.
  mutable std::mutex commit_mu_;
};

}  // namespace qbism::storage

#endif  // QBISM_STORAGE_LONG_FIELD_H_
