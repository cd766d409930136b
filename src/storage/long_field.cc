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

Status LongFieldManager::WritePadded(uint64_t start, uint64_t pages,
                                     const std::vector<uint8_t>& bytes) {
  // Write full pages; the tail page is zero-padded.
  std::vector<uint8_t> padded(pages * kPageSize, 0);
  if (!bytes.empty()) {
    std::memcpy(padded.data(), bytes.data(), bytes.size());
  }
  return device_->WritePages(start, pages, padded.data());
}

void LongFieldManager::ApplyOpLocked(const StagedOp& op, uint64_t epoch) {
  Entry* old = LatestLiveLocked(op.id);
  if (old != nullptr) {
    old->dropped_epoch = epoch;
    dead_.push_back(DeadExtent{op.id, old->start_page, epoch});
  }
  if (op.kind == StagedOp::kSet) {
    Entry entry;
    entry.start_page = op.start_page;
    entry.size_bytes = op.size_bytes;
    entry.created_epoch = epoch;
    directory_[op.id].push_back(entry);
  }
}

Status LongFieldManager::LogAndPublish(WalRecordType type,
                                       const std::vector<uint8_t>& payload,
                                       const StagedOp& op) {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
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
  // Durable; publish as the next epoch (stamped before Advance so a
  // reader pinned now cannot see it, and one pinned after sees all of
  // it — see EpochManager's commit protocol).
  uint64_t next_epoch = epochs_ ? epochs_->current() + 1 : 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ApplyOpLocked(op, next_epoch);
  }
  if (epochs_ != nullptr) epochs_->Advance();
  return Status::OK();
}

Result<LongFieldId> LongFieldManager::Create(
    const std::vector<uint8_t>& bytes) {
  uint64_t pages = PagesFor(bytes.size());
  uint64_t start = 0;
  uint64_t id = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_ASSIGN_OR_RETURN(start, allocator_.Allocate(pages));
    id = next_id_++;
  }
  // The extent is private until published, so the data write happens
  // outside the directory lock: readers never block on it.
  Status write = WritePadded(start, pages, bytes);
  if (!write.ok()) {
    // The field never existed: hand its extent back so a failed write
    // cannot leak pages.
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(allocator_.Free(start, pages));
    return write;
  }
  if (wal_ == nullptr) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry entry;
    entry.start_page = start;
    entry.size_bytes = bytes.size();
    directory_[id].push_back(entry);
    return LongFieldId{id};
  }
  StagedOp op;
  op.kind = StagedOp::kSet;
  op.id = id;
  op.start_page = start;
  op.size_bytes = bytes.size();
  Status logged = LogAndPublish(
      WalRecordType::kLfmSet,
      EncodeSetPayload(id, start, pages, bytes.size(), Crc32(bytes)), op);
  if (!logged.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(allocator_.Free(start, pages));
    return logged;
  }
  return LongFieldId{id};
}

Result<uint64_t> LongFieldManager::Size(LongFieldId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  return entry->size_bytes;
}

Result<std::vector<uint8_t>> LongFieldManager::Read(LongFieldId id) const {
  uint64_t size = 0;
  {
    // ReadRange re-acquires the shared lock; shared_mutex is not
    // recursive, so fetch the size in its own critical section.
    std::shared_lock<std::shared_mutex> lock(mu_);
    QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
    size = entry->size_bytes;
  }
  return ReadRange(id, 0, size);
}

Result<std::vector<uint8_t>> LongFieldManager::ReadRange(
    LongFieldId id, uint64_t offset, uint64_t length) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  // Overflow-safe form of `offset + length > size`: a huge offset must
  // not wrap around and pass the check.
  if (offset > entry->size_bytes || length > entry->size_bytes - offset) {
    return Status::OutOfRange("LongFieldManager::ReadRange: past field end");
  }
  if (length == 0) return std::vector<uint8_t>{};
  uint64_t first_page = offset / kPageSize;
  uint64_t last_page = (offset + length - 1) / kPageSize;
  uint64_t count = last_page - first_page + 1;
  obs::Span span(obs::Stage::kIo);
  span.AddPages(count);
  span.AddBytes(length);
  std::vector<uint8_t> pages(count * kPageSize);
  QBISM_RETURN_NOT_OK(
      device_->ReadPages(entry->start_page + first_page, count, pages.data()));
  std::vector<uint8_t> out(length);
  std::memcpy(out.data(), pages.data() + (offset - first_page * kPageSize),
              length);
  return out;
}

Result<std::vector<std::vector<uint8_t>>> LongFieldManager::ReadRanges(
    LongFieldId id, const std::vector<ByteRange>& ranges) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  for (const ByteRange& r : ranges) {
    if (r.offset > entry->size_bytes ||
        r.length > entry->size_bytes - r.offset) {
      return Status::OutOfRange("LongFieldManager::ReadRanges: past field end");
    }
  }
  // Distinct pages touched by any range, ascending.
  std::vector<uint64_t> pages;
  for (const ByteRange& r : ranges) {
    if (r.length == 0) continue;
    uint64_t first = r.offset / kPageSize;
    uint64_t last = (r.offset + r.length - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) pages.push_back(p);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  obs::Span span(obs::Stage::kIo);
  span.AddPages(pages.size());

  // Read runs of consecutive pages as single sequential transfers.
  std::unordered_map<uint64_t, std::vector<uint8_t>> cache;
  size_t i = 0;
  while (i < pages.size()) {
    size_t j = i;
    while (j + 1 < pages.size() && pages[j + 1] == pages[j] + 1) ++j;
    uint64_t count = pages[j] - pages[i] + 1;
    std::vector<uint8_t> buf(count * kPageSize);
    QBISM_RETURN_NOT_OK(
        device_->ReadPages(entry->start_page + pages[i], count, buf.data()));
    for (uint64_t k = 0; k < count; ++k) {
      std::vector<uint8_t> page(kPageSize);
      std::memcpy(page.data(), buf.data() + k * kPageSize, kPageSize);
      cache[pages[i] + k] = std::move(page);
    }
    i = j + 1;
  }

  // Assemble each requested range from the page cache.
  std::vector<std::vector<uint8_t>> out;
  out.reserve(ranges.size());
  for (const ByteRange& r : ranges) {
    span.AddBytes(r.length);
    std::vector<uint8_t> buf(r.length);
    uint64_t copied = 0;
    while (copied < r.length) {
      uint64_t pos = r.offset + copied;
      uint64_t page = pos / kPageSize;
      uint64_t in_page = pos % kPageSize;
      uint64_t n = std::min(kPageSize - in_page, r.length - copied);
      std::memcpy(buf.data() + copied, cache.at(page).data() + in_page, n);
      copied += n;
    }
    out.push_back(std::move(buf));
  }
  return out;
}

Result<ReadPlan> LongFieldManager::BuildReadPlan(
    const std::vector<ByteRange>& ranges, uint64_t field_size_bytes,
    const ReadPlanOptions& options) {
  ReadPlan plan;
  // Page intervals (inclusive) per non-empty range, validated the same
  // overflow-safe way as ReadRange.
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  intervals.reserve(ranges.size());
  for (const ByteRange& r : ranges) {
    if (r.offset > field_size_bytes ||
        r.length > field_size_bytes - r.offset) {
      return Status::OutOfRange("LongFieldManager::BuildReadPlan: past field end");
    }
    if (r.length == 0) continue;
    intervals.emplace_back(r.offset / kPageSize,
                           (r.offset + r.length - 1) / kPageSize);
    plan.bytes_needed += r.length;
  }
  if (intervals.empty()) return plan;
  std::sort(intervals.begin(), intervals.end());

  // One ascending sweep produces both accountings: distinct pages
  // (merging only overlap/adjacency) and the physical extents (merging
  // across gaps of up to gap_fill_pages as well).
  uint64_t touch_first = intervals[0].first;
  uint64_t touch_last = intervals[0].second;
  PlannedExtent extent{intervals[0].first,
                       intervals[0].second - intervals[0].first + 1};
  for (size_t i = 1; i < intervals.size(); ++i) {
    auto [first, last] = intervals[i];
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
  plan.pages_touched += touch_last - touch_first + 1;
  plan.pages_read += extent.page_count;
  plan.extents.push_back(extent);
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
                                     const std::vector<uint8_t*>& outs) const {
  if (extents.size() != outs.size()) {
    return Status::InvalidArgument(
        "LongFieldManager::ReadExtents: extents/outs size mismatch");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  uint64_t field_pages = entry->PageCount();
  obs::Span span(obs::Stage::kIo);
  std::vector<storage::PageReadOp> ops;
  ops.reserve(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    const PlannedExtent& e = extents[i];
    if (e.first_page > field_pages || e.page_count > field_pages - e.first_page) {
      return Status::OutOfRange(
          "LongFieldManager::ReadExtents: extent past field end");
    }
    span.AddPages(e.page_count);
    span.AddBytes(e.ByteCount());
    ops.push_back(PageReadOp{entry->start_page + e.first_page, e.page_count,
                             outs[i]});
  }
  Status status = device_->ReadPagesBatch(ops);
  if (!status.ok()) span.SetFailed();
  return status;
}

Result<uint64_t> LongFieldManager::PagesTouched(
    LongFieldId id, const std::vector<ByteRange>& ranges) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  QBISM_ASSIGN_OR_RETURN(const Entry* entry, Lookup(id));
  (void)entry;
  std::vector<uint64_t> pages;
  for (const ByteRange& r : ranges) {
    if (r.length == 0) continue;
    uint64_t first = r.offset / kPageSize;
    uint64_t last = (r.offset + r.length - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) pages.push_back(p);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages.size();
}

Status LongFieldManager::Update(LongFieldId id,
                                const std::vector<uint8_t>& bytes) {
  if (wal_ == nullptr) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry* entry = LatestLiveLocked(id.value);
    if (entry == nullptr) {
      return Status::NotFound("LongFieldManager::Update: unknown id");
    }
    uint64_t new_pages = PagesFor(bytes.size());
    std::vector<uint8_t> padded(new_pages * kPageSize, 0);
    if (!bytes.empty()) {
      std::memcpy(padded.data(), bytes.data(), bytes.size());
    }
    if (BuddyAllocator::ExtentPages(new_pages) ==
        BuddyAllocator::ExtentPages(std::max<uint64_t>(1, entry->PageCount()))) {
      // Fits in place. On a write fault the device performed nothing (the
      // simulated transfer is atomic), so the entry stays as it was.
      QBISM_RETURN_NOT_OK(
          device_->WritePages(entry->start_page, new_pages, padded.data()));
      entry->size_bytes = bytes.size();
      return Status::OK();
    }
    // Reallocate: write the new extent first and only then free the old
    // one, so a failed write neither leaks the new pages nor leaves the
    // directory pointing at a freed extent.
    QBISM_ASSIGN_OR_RETURN(uint64_t start, allocator_.Allocate(new_pages));
    Status write = device_->WritePages(start, new_pages, padded.data());
    if (!write.ok()) {
      QBISM_RETURN_NOT_OK(allocator_.Free(start, new_pages));
      return write;
    }
    QBISM_RETURN_NOT_OK(allocator_.Free(
        entry->start_page, std::max<uint64_t>(1, entry->PageCount())));
    entry->start_page = start;
    entry->size_bytes = bytes.size();
    return Status::OK();
  }

  // Durable mode: always out of place, so pinned readers keep a
  // consistent view of the superseded version until vacuum.
  uint64_t new_pages = PagesFor(bytes.size());
  uint64_t start = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (LatestLiveLocked(id.value) == nullptr) {
      return Status::NotFound("LongFieldManager::Update: unknown id");
    }
    QBISM_ASSIGN_OR_RETURN(start, allocator_.Allocate(new_pages));
  }
  Status write = WritePadded(start, new_pages, bytes);
  if (!write.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(allocator_.Free(start, new_pages));
    return write;
  }
  StagedOp op;
  op.kind = StagedOp::kSet;
  op.id = id.value;
  op.start_page = start;
  op.size_bytes = bytes.size();
  Status logged = LogAndPublish(
      WalRecordType::kLfmSet,
      EncodeSetPayload(id.value, start, new_pages, bytes.size(), Crc32(bytes)),
      op);
  if (!logged.ok()) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(allocator_.Free(start, new_pages));
    return logged;
  }
  return Status::OK();
}

Status LongFieldManager::Delete(LongFieldId id) {
  if (wal_ == nullptr) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry* entry = LatestLiveLocked(id.value);
    if (entry == nullptr) {
      return Status::NotFound("LongFieldManager::Delete: unknown id");
    }
    QBISM_RETURN_NOT_OK(allocator_.Free(
        entry->start_page, std::max<uint64_t>(1, entry->PageCount())));
    auto it = directory_.find(id.value);
    it->second.erase(it->second.begin() +
                     (entry - it->second.data()));
    if (it->second.empty()) directory_.erase(it);
    return Status::OK();
  }

  // Durable mode: nothing is mutated until the drop record is durable,
  // so a failed WAL append/sync leaves the field fully intact — no
  // leaked pages, no dangling directory entry, no double free.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (LatestLiveLocked(id.value) == nullptr) {
      return Status::NotFound("LongFieldManager::Delete: unknown id");
    }
  }
  StagedOp op;
  op.kind = StagedOp::kDrop;
  op.id = id.value;
  return LogAndPublish(WalRecordType::kLfmDrop, EncodeDropPayload(id.value),
                       op);
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
  for (const StagedOp& op : staged_) ApplyOpLocked(op, next_epoch);
  staged_.clear();
  open_txn_ = 0;
  lock.unlock();
  if (epochs_ != nullptr) epochs_->Advance();
  return Status::OK();
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
      QBISM_RETURN_NOT_OK(allocator_.Free(
          old->start_page, std::max<uint64_t>(1, old->PageCount())));
      auto it = directory_.find(id);
      it->second.erase(it->second.begin() + (old - it->second.data()));
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
  QBISM_RETURN_NOT_OK(allocator_.Free(
      entry->start_page, std::max<uint64_t>(1, entry->PageCount())));
  auto it = directory_.find(id);
  it->second.erase(it->second.begin() + (entry - it->second.data()));
  if (it->second.empty()) directory_.erase(it);
  return Status::OK();
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
