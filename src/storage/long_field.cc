#include "storage/long_field.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace qbism::storage {

namespace {

uint64_t PagesFor(uint64_t size_bytes) {
  return std::max<uint64_t>(1, (size_bytes + kPageSize - 1) / kPageSize);
}

/// kLfmSet payload: {id, start_page, page_count, size_bytes, crc}.
std::vector<uint8_t> EncodeSetPayload(uint64_t id, uint64_t start_page,
                                      uint64_t page_count, uint64_t size_bytes,
                                      uint32_t content_crc) {
  std::vector<uint8_t> payload;
  payload.reserve(8 * 4 + 4);
  ByteWriter w(&payload);
  w.PutU64(id);
  w.PutU64(start_page);
  w.PutU64(page_count);
  w.PutU64(size_bytes);
  w.PutU32(content_crc);
  return payload;
}

std::vector<uint8_t> EncodeDropPayload(uint64_t id) {
  std::vector<uint8_t> payload(8);
  StoreLE64(payload.data(), id);
  return payload;
}

}  // namespace

LongFieldManager::LongFieldManager(DiskDevice* device, LfmDurabilityHooks hooks)
    : device_(device),
      wal_(hooks.wal),
      epochs_(hooks.epochs),
      allocator_(device->num_pages()) {}

Result<const LongFieldManager::Entry*> LongFieldManager::Lookup(
    LongFieldId id) const {
  auto it = directory_.find(id.value);
  if (it != directory_.end()) {
    uint64_t epoch = epochs_ ? EpochManager::PinnedEpoch(epochs_) : 0;
    const std::vector<Entry>& versions = it->second;
    for (auto rit = versions.rbegin(); rit != versions.rend(); ++rit) {
      if (epoch == 0) {
        // No snapshot: the latest committed live version.
        if (rit->dropped_epoch == kLive) return &*rit;
      } else if (rit->created_epoch <= epoch && epoch < rit->dropped_epoch) {
        return &*rit;
      }
    }
  }
  return Status::NotFound("LongFieldManager: unknown long field id");
}

LongFieldManager::Entry* LongFieldManager::LatestLiveLocked(uint64_t id) {
  auto it = directory_.find(id);
  if (it == directory_.end()) return nullptr;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->dropped_epoch == kLive) return &*rit;
  }
  return nullptr;
}

const LongFieldManager::Entry* LongFieldManager::LatestLiveLocked(
    uint64_t id) const {
  return const_cast<LongFieldManager*>(this)->LatestLiveLocked(id);
}

Status LongFieldManager::DropVersionLocked(uint64_t id, Entry* entry) {
  QBISM_RETURN_NOT_OK(allocator_.Free(
      entry->start_page, std::max<uint64_t>(1, entry->PageCount())));
  auto it = directory_.find(id);
  it->second.erase(it->second.begin() + (entry - it->second.data()));
  if (it->second.empty()) directory_.erase(it);
  return Status::OK();
}

Status LongFieldManager::ApplyOpLocked(const StagedOp& op, uint64_t epoch) {
  if (Entry* old = LatestLiveLocked(op.id)) {
    if (epochs_ == nullptr) {
      // No reader can pin the superseded version: free it now.
      QBISM_RETURN_NOT_OK(DropVersionLocked(op.id, old));
    } else {
      old->dropped_epoch = epoch;
      dead_.push_back(DeadExtent{op.id, old->start_page, epoch});
    }
  }
  if (op.kind == StagedOp::kSet) {
    Entry entry;
    entry.start_page = op.start_page;
    entry.size_bytes = op.size_bytes;
    entry.created_epoch = epoch;
    directory_[op.id].push_back(entry);
  }
  return Status::OK();
}

Status LongFieldManager::LogAndPublish(const StagedOp& op,
                                       const std::vector<uint8_t>& content) {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  if (wal_ != nullptr) {
    WalRecordType type = WalRecordType::kLfmDrop;
    std::vector<uint8_t> payload = EncodeDropPayload(op.id);
    if (op.kind == StagedOp::kSet) {
      type = WalRecordType::kLfmSet;
      payload = EncodeSetPayload(op.id, op.start_page, PagesFor(op.size_bytes),
                                 op.size_bytes, Crc32(content));
    }
    uint64_t txn = 0;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      txn = open_txn_;
    }
    if (txn != 0) {
      // Join the open transaction: log now, publish at CommitTxn.
      QBISM_RETURN_NOT_OK(wal_->Append(type, txn, payload));
      std::unique_lock<std::shared_mutex> lock(mu_);
      staged_.push_back(op);
      return Status::OK();
    }
    // Auto-commit: this single mutation is its own transaction.
    txn = wal_->BeginTxn();
    QBISM_RETURN_NOT_OK(wal_->Append(type, txn, payload));
    QBISM_RETURN_NOT_OK(wal_->Commit(txn));
  }
  // Durable (or unlogged); publish as the next epoch (stamped before
  // Advance so a reader pinned now cannot see it, and one pinned after
  // sees all of it — see EpochManager's commit protocol).
  uint64_t next_epoch = epochs_ ? epochs_->current() + 1 : 0;
  Status applied;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    applied = ApplyOpLocked(op, next_epoch);
  }
  if (epochs_ != nullptr) epochs_->Advance();
  return applied;
}

Status LongFieldManager::WriteAndPublish(uint64_t id, uint64_t start,
                                         const std::vector<uint8_t>& bytes) {
  // The extent is private until published, so the data write happens
  // outside the directory lock: readers never block on it. Full pages;
  // the tail page is zero-padded.
  uint64_t pages = PagesFor(bytes.size());
  std::vector<uint8_t> padded(pages * kPageSize, 0);
  if (!bytes.empty()) {
    std::memcpy(padded.data(), bytes.data(), bytes.size());
  }
  Status status = device_->WritePages(start, pages, padded.data());
  if (status.ok()) {
    StagedOp op;
    op.kind = StagedOp::kSet;
    op.id = id;
    op.start_page = start;
    op.size_bytes = bytes.size();
    status = LogAndPublish(op, bytes);
  }
  if (!status.ok()) {
    // The version never became visible: hand its extent back so a
    // failed write or log cannot leak pages.
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(allocator_.Free(start, pages));
  }
  return status;
}

Result<LongFieldId> LongFieldManager::Create(
    const std::vector<uint8_t>& bytes) {
  uint64_t start = 0;
  uint64_t id = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_ASSIGN_OR_RETURN(start, allocator_.Allocate(PagesFor(bytes.size())));
    id = next_id_++;
  }
  QBISM_RETURN_NOT_OK(WriteAndPublish(id, start, bytes));
  return LongFieldId{id};
}

Result<uint64_t> LongFieldManager::Size(LongFieldId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  return entry->size_bytes;
}

Result<std::vector<uint8_t>> LongFieldManager::Read(LongFieldId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  std::vector<uint8_t> out;
  if (entry->size_bytes == 0) return out;
  const uint64_t size = entry->size_bytes;
  out.reserve(size);
  QBISM_RETURN_NOT_OK(ReadExtentsLocked(
      *entry, {PlannedExtent{0, entry->PageCount()}},
      [&out, size](size_t, const uint8_t* pages) {
        out.insert(out.end(), pages, pages + size);
      }));
  return out;
}

Result<ReadPlan> LongFieldManager::BuildReadPlan(
    const std::vector<ByteRange>& ranges, uint64_t field_size_bytes,
    const ReadPlanOptions& options) {
  ReadPlan plan;
  // One pass validates every range and sweeps its inclusive page
  // interval into the plan, producing both accountings at once: distinct
  // pages (merging only overlap/adjacency) and the physical extents
  // (merging across gaps of up to gap_fill_pages as well). The sweep is
  // exact while no interval starts before the page run it is building,
  // which holds for every sorted list; any other list is sorted and
  // planned again.
  PlannedExtent extent;  // page_count 0 until the first interval
  uint64_t touch_first = 0;
  uint64_t touch_last = 0;
  for (const ByteRange& r : ranges) {
    // Overflow-safe form of `offset + length > size`: a huge offset
    // must not wrap into range.
    if (r.offset > field_size_bytes ||
        r.length > field_size_bytes - r.offset) {
      return Status::OutOfRange("LongFieldManager::BuildReadPlan: past field end");
    }
    if (r.length == 0) continue;
    const uint64_t first = r.offset / kPageSize;
    const uint64_t last = (r.offset + r.length - 1) / kPageSize;
    plan.bytes_needed += r.length;
    if (extent.page_count == 0) {
      touch_first = first;
      touch_last = last;
      extent = PlannedExtent{first, last - first + 1};
      continue;
    }
    if (first < touch_first) {
      std::vector<ByteRange> sorted = ranges;
      std::sort(sorted.begin(), sorted.end(),
                [](const ByteRange& a, const ByteRange& b) {
                  return a.offset < b.offset;
                });
      return BuildReadPlan(sorted, field_size_bytes, options);
    }
    if (first <= touch_last + 1) {
      touch_last = std::max(touch_last, last);
    } else {
      plan.pages_touched += touch_last - touch_first + 1;
      touch_first = first;
      touch_last = last;
    }
    uint64_t extent_end = extent.first_page + extent.page_count - 1;
    if (first <= extent_end + 1 + options.gap_fill_pages) {
      if (last > extent_end) {
        extent.page_count = last - extent.first_page + 1;
      }
    } else {
      plan.pages_read += extent.page_count;
      plan.extents.push_back(extent);
      extent = PlannedExtent{first, last - first + 1};
    }
  }
  if (extent.page_count > 0) {
    plan.pages_touched += touch_last - touch_first + 1;
    plan.pages_read += extent.page_count;
    plan.extents.push_back(extent);
  }
  return plan;
}

Result<ReadPlan> LongFieldManager::PlanRead(
    LongFieldId id, const std::vector<ByteRange>& ranges,
    const ReadPlanOptions& options) const {
  obs::Span span(obs::Stage::kPlan);
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  return BuildReadPlan(ranges, entry->size_bytes, options);
}

Status LongFieldManager::ReadExtents(LongFieldId id,
                                     const std::vector<PlannedExtent>& extents,
                                     const PageVisitor& visit) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  return ReadExtentsLocked(*entry, extents, visit);
}

Status LongFieldManager::ReadExtents(LongFieldId id,
                                     const std::vector<PlannedExtent>& extents,
                                     const std::vector<uint8_t*>& outs) const {
  if (extents.size() != outs.size()) {
    return Status::InvalidArgument(
        "LongFieldManager::ReadExtents: extents/outs size mismatch");
  }
  return ReadExtents(id, extents, [&](size_t i, const uint8_t* pages) {
    std::memcpy(outs[i], pages, extents[i].ByteCount());
  });
}

Status LongFieldManager::ReadExtentsLocked(
    const Entry& entry, const std::vector<PlannedExtent>& extents,
    const PageVisitor& visit) const {
  uint64_t field_pages = entry.PageCount();
  obs::Span span(obs::Stage::kIo);
  std::vector<PageReadOp> ops;
  ops.reserve(extents.size());
  for (const PlannedExtent& e : extents) {
    if (e.first_page > field_pages || e.page_count > field_pages - e.first_page) {
      return Status::OutOfRange(
          "LongFieldManager::ReadExtents: extent past field end");
    }
    span.AddPages(e.page_count);
    span.AddBytes(e.ByteCount());
    ops.push_back(PageReadOp{entry.start_page + e.first_page, e.page_count});
  }
  Status status = device_->ReadPagesBatch(ops, visit);
  if (!status.ok()) span.SetFailed();
  return status;
}

Status LongFieldManager::Update(LongFieldId id,
                                const std::vector<uint8_t>& bytes) {
  uint64_t start = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (LatestLiveLocked(id.value) == nullptr) {
      return Status::NotFound("LongFieldManager::Update: unknown id");
    }
    QBISM_ASSIGN_OR_RETURN(start, allocator_.Allocate(PagesFor(bytes.size())));
  }
  return WriteAndPublish(id.value, start, bytes);
}

Status LongFieldManager::Delete(LongFieldId id) {
  // Nothing is mutated until the drop publishes (with a WAL: until its
  // record is durable), so a failed append/sync leaves the field fully
  // intact — no leaked pages, no dangling directory entry, no double
  // free.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (LatestLiveLocked(id.value) == nullptr) {
      return Status::NotFound("LongFieldManager::Delete: unknown id");
    }
  }
  StagedOp op;
  op.kind = StagedOp::kDrop;
  op.id = id.value;
  return LogAndPublish(op, {});
}

Result<uint64_t> LongFieldManager::BeginTxn() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "LongFieldManager::BeginTxn: no write-ahead log attached");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (open_txn_ != 0) {
    return Status::FailedPrecondition(
        "LongFieldManager::BeginTxn: a transaction is already open");
  }
  open_txn_ = wal_->BeginTxn();
  return open_txn_;
}

Status LongFieldManager::CommitTxn() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "LongFieldManager::CommitTxn: no write-ahead log attached");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  uint64_t txn = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (open_txn_ == 0) {
      return Status::FailedPrecondition(
          "LongFieldManager::CommitTxn: no open transaction");
    }
    txn = open_txn_;
  }
  Status commit = wal_->Commit(txn);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!commit.ok()) {
    // The commit never became durable; roll the staged state back.
    for (const StagedOp& op : staged_) {
      if (op.kind == StagedOp::kSet) {
        QBISM_RETURN_NOT_OK(
            allocator_.Free(op.start_page, PagesFor(op.size_bytes)));
      }
    }
    staged_.clear();
    open_txn_ = 0;
    return commit;
  }
  uint64_t next_epoch = epochs_ ? epochs_->current() + 1 : 0;
  Status applied;
  for (const StagedOp& op : staged_) {
    Status status = ApplyOpLocked(op, next_epoch);
    if (applied.ok()) applied = status;
  }
  staged_.clear();
  open_txn_ = 0;
  lock.unlock();
  if (epochs_ != nullptr) epochs_->Advance();
  return applied;
}

Status LongFieldManager::AbortTxn() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "LongFieldManager::AbortTxn: no write-ahead log attached");
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (open_txn_ == 0) {
    return Status::FailedPrecondition(
        "LongFieldManager::AbortTxn: no open transaction");
  }
  for (const StagedOp& op : staged_) {
    if (op.kind == StagedOp::kSet) {
      QBISM_RETURN_NOT_OK(
          allocator_.Free(op.start_page, PagesFor(op.size_bytes)));
    }
  }
  staged_.clear();
  wal_->Abort(open_txn_);
  open_txn_ = 0;
  return Status::OK();
}

uint64_t LongFieldManager::open_txn() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return open_txn_;
}

LongFieldManager::VacuumStats LongFieldManager::Vacuum() {
  VacuumStats out;
  obs::Span span(obs::Stage::kVacuum);
  // The horizon is sampled before taking the lock; a reader pinning
  // concurrently pins the *current* epoch, which is >= every retired
  // version's dropping epoch that passes the check below.
  uint64_t horizon = epochs_ ? epochs_->MinActiveReader() : UINT64_MAX;
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<DeadExtent> keep;
  for (const DeadExtent& dead : dead_) {
    if (epochs_ != nullptr && dead.dropped_epoch > horizon) {
      keep.push_back(dead);
      ++out.still_pinned;
      continue;
    }
    auto it = directory_.find(dead.id);
    if (it == directory_.end()) continue;
    for (size_t i = 0; i < it->second.size(); ++i) {
      const Entry& entry = it->second[i];
      if (entry.start_page != dead.start_page || entry.dropped_epoch == kLive) {
        continue;
      }
      uint64_t extent_pages = entry.ExtentPageCount();
      if (allocator_
              .Free(entry.start_page, std::max<uint64_t>(1, entry.PageCount()))
              .ok()) {
        ++out.extents_freed;
        out.pages_freed += extent_pages;
      }
      it->second.erase(it->second.begin() + static_cast<long>(i));
      if (it->second.empty()) directory_.erase(it);
      break;
    }
  }
  dead_ = std::move(keep);
  span.AddPages(out.pages_freed);
  return out;
}

uint64_t LongFieldManager::dead_extents() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return dead_.size();
}

Status LongFieldManager::RecoverSet(uint64_t id, uint64_t start_page,
                                    uint64_t page_count, uint64_t size_bytes,
                                    uint32_t content_crc, bool verify_crc) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (Entry* old = LatestLiveLocked(id)) {
      QBISM_RETURN_NOT_OK(DropVersionLocked(id, old));
    }
    QBISM_RETURN_NOT_OK(
        allocator_.Reserve(start_page, std::max<uint64_t>(1, page_count)));
    Entry entry;
    entry.start_page = start_page;
    entry.size_bytes = size_bytes;
    directory_[id].push_back(entry);
    next_id_ = std::max(next_id_, id + 1);
  }
  if (verify_crc) {
    uint64_t pages = std::max<uint64_t>(1, page_count);
    std::vector<uint8_t> buf(pages * kPageSize);
    QBISM_RETURN_NOT_OK(device_->ReadPages(start_page, pages, buf.data()));
    if (Crc32(buf.data(), size_bytes) != content_crc) {
      return Status::Corruption(
          "LongFieldManager::RecoverSet: field " + std::to_string(id) +
          " content does not match its committed WAL record");
    }
  }
  return Status::OK();
}

Status LongFieldManager::RecoverDrop(uint64_t id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry* entry = LatestLiveLocked(id);
  if (entry == nullptr) return Status::OK();  // replay of a redundant drop
  return DropVersionLocked(id, entry);
}

uint64_t LongFieldManager::allocated_pages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return allocator_.allocated_pages();
}

Status LongFieldManager::CheckPageAccounting() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_RETURN_NOT_OK(allocator_.CheckInvariants());
  uint64_t directory_pages = 0;
  for (const auto& [id, versions] : directory_) {
    for (const Entry& entry : versions) {
      directory_pages += entry.ExtentPageCount();
    }
  }
  for (const StagedOp& op : staged_) {
    if (op.kind == StagedOp::kSet) {
      directory_pages += BuddyAllocator::ExtentPages(PagesFor(op.size_bytes));
    }
  }
  if (directory_pages != allocator_.allocated_pages()) {
    return Status::Corruption(
        "LongFieldManager: directory references " +
        std::to_string(directory_pages) + " pages but the allocator holds " +
        std::to_string(allocator_.allocated_pages()) +
        " (leaked or double-freed extent)");
  }
  return Status::OK();
}

}  // namespace qbism::storage
