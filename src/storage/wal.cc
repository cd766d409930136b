#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace qbism::storage {

namespace {

constexpr uint32_t kWalMagic = 0x524C4157u;  // "WALR"
constexpr uint64_t kHeaderBytes = 4 + 4 + 4 + 1 + 8;

}  // namespace

WriteAheadLog::WriteAheadLog(DiskDevice* device) : device_(device) {}

uint64_t WriteAheadLog::BeginTxn() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_txn_++;
}

Status WriteAheadLog::AppendLocked(WalRecordType type, uint64_t txn_id,
                                   const std::vector<uint8_t>& payload) {
  uint64_t frame = kHeaderBytes + payload.size();
  if (log_.size() + frame > capacity_bytes()) {
    return Status::ResourceExhausted(
        "WriteAheadLog: log volume full (" + std::to_string(capacity_bytes()) +
        " bytes); cannot append");
  }
  // [magic][crc] then the body [len][type][txn][payload]; the CRC
  // covers exactly the body and is patched in once the body is written.
  size_t start = log_.size();
  ByteWriter w(&log_);
  w.PutU32(kWalMagic);
  w.PutU32(0);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(txn_id);
  w.PutBytes(payload.data(), payload.size());
  uint8_t* record = log_.data() + start;
  StoreLE32(record + 4, Crc32(record + 8, frame - 8));
  ++stats_.records;
  stats_.appended_bytes = log_.size();
  return Status::OK();
}

Status WriteAheadLog::Append(WalRecordType type, uint64_t txn_id,
                             const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(type, txn_id, payload);
}

Status WriteAheadLog::SyncLocked() {
  if (clean_prefix_ >= log_.size()) {
    ++stats_.syncs;
    return Status::OK();
  }
  obs::Span span(obs::Stage::kWalSync);
  uint64_t first_page = clean_prefix_ / kPageSize;
  uint64_t last_page = (log_.size() - 1) / kPageSize;
  // One transfer per page, ascending: a fault between any two pages
  // leaves a real torn tail, and a durable later page implies every
  // earlier page is durable.
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = first_page; p <= last_page; ++p) {
    uint64_t off = p * kPageSize;
    uint64_t n = std::min<uint64_t>(kPageSize, log_.size() - off);
    std::memcpy(page.data(), log_.data() + off, n);
    if (n < kPageSize) std::memset(page.data() + n, 0, kPageSize - n);
    Status write = device_->WritePage(p, page.data());
    if (!write.ok()) {
      // Pages before p are durable; the clean prefix must not claim p.
      clean_prefix_ = std::max(clean_prefix_,
                               std::min<uint64_t>(off, log_.size()));
      stats_.durable_bytes = clean_prefix_;
      span.SetFailed();
      return write;
    }
    span.AddPages(1);
    ++stats_.pages_synced;
  }
  clean_prefix_ = log_.size();
  stats_.durable_bytes = clean_prefix_;
  ++stats_.syncs;
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status WriteAheadLog::Commit(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t before = log_.size();
  QBISM_RETURN_NOT_OK(AppendLocked(WalRecordType::kCommit, txn_id, {}));
  Status sync = SyncLocked();
  if (!sync.ok()) {
    // Withdraw the commit record: nothing else appended since (we hold
    // the mutex), so it is exactly the log tail. Bytes of it that a
    // partial sync already flushed are stale on the device below the
    // clean prefix, so they will be overwritten by the next sync; and a
    // crash before then replays them as a torn/uncommitted tail.
    log_.resize(before);
    clean_prefix_ = std::min(clean_prefix_, before);
    stats_.appended_bytes = log_.size();
    stats_.durable_bytes = clean_prefix_;
    ++stats_.failed_commits;
    // Advisory abort so a later scan of a healthy log sees the outcome.
    (void)AppendLocked(WalRecordType::kAbort, txn_id, {});
    ++stats_.aborts;
    return sync;
  }
  ++stats_.commits;
  return Status::OK();
}

void WriteAheadLog::Abort(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)AppendLocked(WalRecordType::kAbort, txn_id, {});
  ++stats_.aborts;
}

Result<WriteAheadLog::ScanResult> WriteAheadLog::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  // Read the whole device image.
  std::vector<uint8_t> image(device_->num_pages() * kPageSize);
  QBISM_RETURN_NOT_OK(device_->ReadPages(0, device_->num_pages(), image.data()));

  struct Parsed {
    WalRecord record;
    uint64_t end_offset = 0;
  };
  std::vector<Parsed> records;
  std::vector<uint64_t> commit_txns;
  ScanResult scan;
  uint64_t off = 0;
  uint64_t max_txn = 0;
  while (off + kHeaderBytes <= image.size()) {
    if (LoadLE32(image.data() + off) != kWalMagic) break;
    uint32_t crc = LoadLE32(image.data() + off + 4);
    uint32_t payload_len = LoadLE32(image.data() + off + 8);
    uint64_t frame = kHeaderBytes + payload_len;
    if (off + frame > image.size()) {
      scan.torn_tail = true;
      break;
    }
    // CRC over [len][type][txn][payload].
    if (Crc32(image.data() + off + 8, frame - 8) != crc) {
      scan.torn_tail = true;
      break;
    }
    Parsed p;
    p.record.type = static_cast<WalRecordType>(image[off + 12]);
    p.record.txn_id = LoadLE64(image.data() + off + 13);
    p.record.payload.assign(image.begin() + static_cast<long>(off + kHeaderBytes),
                            image.begin() + static_cast<long>(off + frame));
    p.end_offset = off + frame;
    max_txn = std::max(max_txn, p.record.txn_id);
    if (p.record.type == WalRecordType::kCommit) {
      commit_txns.push_back(p.record.txn_id);
    }
    records.push_back(std::move(p));
    ++scan.total_records;
    off += frame;
  }

  // Second pass: keep the records of committed transactions, in log
  // order, and find the end of the last committed transaction.
  scan.committed_txns = commit_txns.size();
  auto committed = [&](uint64_t txn) {
    return std::find(commit_txns.begin(), commit_txns.end(), txn) !=
           commit_txns.end();
  };
  for (const Parsed& p : records) {
    if (!committed(p.record.txn_id)) continue;
    if (p.record.type == WalRecordType::kCommit) scan.valid_bytes = p.end_offset;
    if (p.record.type == WalRecordType::kCommit ||
        p.record.type == WalRecordType::kAbort) {
      continue;
    }
    scan.committed.push_back(p.record);
  }

  // Adopt the surviving committed prefix; appends resume after it (any
  // uncommitted tail is overwritten).
  log_.assign(image.begin(), image.begin() + static_cast<long>(scan.valid_bytes));
  clean_prefix_ = scan.valid_bytes;
  next_txn_ = max_txn + 1;
  stats_.appended_bytes = log_.size();
  stats_.durable_bytes = clean_prefix_;
  return scan;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qbism::storage
