#include "storage/disk_device.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/macros.h"

namespace qbism::storage {

namespace {

/// Monotonic device ids key the per-thread ledgers; pointers are not
/// used because a recycled allocation must not inherit an old ledger.
std::atomic<uint64_t> g_next_device_id{1};

uint64_t NewDeviceId() {
  return g_next_device_id.fetch_add(1, std::memory_order_relaxed);
}

std::unordered_map<uint64_t, IoStats>& ThreadLedgers() {
  static thread_local std::unordered_map<uint64_t, IoStats> ledgers;
  return ledgers;
}

}  // namespace

DiskDevice::DiskDevice(uint64_t num_pages, DiskCostModel model)
    : num_pages_(num_pages),
      model_(model),
      // calloc hands out zero pages the OS commits on first touch, where
      // a zero-filled vector would write (and keep resident) every page
      // of a 128 MB device before its first transfer.
      bytes_(static_cast<uint8_t*>(
          std::calloc(std::max<uint64_t>(num_pages, 1), kPageSize))),
      device_id_(NewDeviceId()) {
  QBISM_CHECK(bytes_ != nullptr);
}

double DiskDevice::Charge(uint64_t page_no, uint64_t count, bool write) {
  IoStats delta;
  if (page_no != next_sequential_page_) {
    delta.seeks = 1;
    delta.simulated_seconds += model_.seek_seconds;
  }
  delta.simulated_seconds +=
      model_.transfer_seconds_per_page * static_cast<double>(count);
  if (write) {
    delta.pages_written = count;
  } else {
    delta.pages_read = count;
  }
  next_sequential_page_ = page_no + count;

  stats_.pages_read += delta.pages_read;
  stats_.pages_written += delta.pages_written;
  stats_.seeks += delta.seeks;
  stats_.simulated_seconds += delta.simulated_seconds;

  IoStats& ledger = ThreadLedgers()[device_id_];
  ledger.pages_read += delta.pages_read;
  ledger.pages_written += delta.pages_written;
  ledger.seeks += delta.seeks;
  ledger.simulated_seconds += delta.simulated_seconds;
  return delta.simulated_seconds;
}

IoStats DiskDevice::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void DiskDevice::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IoStats{};
}

IoStats DiskDevice::thread_stats() const { return ThreadLedgers()[device_id_]; }

void DiskDevice::ResetThreadStats() { ThreadLedgers()[device_id_] = IoStats{}; }

void DiskDevice::AddToThreadLedger(const IoStats& delta) {
  IoStats& ledger = ThreadLedgers()[device_id_];
  ledger.pages_read += delta.pages_read;
  ledger.pages_written += delta.pages_written;
  ledger.seeks += delta.seeks;
  ledger.simulated_seconds += delta.simulated_seconds;
}

Status DiskDevice::ReadPage(uint64_t page_no, uint8_t* out) {
  return ReadPages(page_no, 1, out);
}

Status DiskDevice::WritePage(uint64_t page_no, const uint8_t* in) {
  return WritePages(page_no, 1, in);
}

void DiskDevice::InstallFaultPlan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  plan_transfers_ = 0;
  fail_budget_ = plan.page_budget;
  fault_latched_ = false;
  fault_rng_ = Rng(plan.seed);
}

void DiskDevice::ClearFault() { InstallFaultPlan(FaultPlan::None()); }

FaultStats DiskDevice::fault_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_stats_;
}

void DiskDevice::ResetFaultStats() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_stats_ = FaultStats{};
}

Status DiskDevice::InjectFault(uint64_t count) {
  uint64_t transfer_no = plan_transfers_++;
  fault_stats_.transfers += 1;
  fault_stats_.pages += count;

  bool fire = fault_latched_;
  switch (plan_.trigger) {
    case FaultPlan::Trigger::kNone:
      break;
    case FaultPlan::Trigger::kPageBudget:
      // Budget semantics: a transfer that does not fit fails atomically
      // and leaves the budget intact, so a smaller transfer may still
      // succeed; once the budget is gone everything fails.
      if (fail_budget_ < count) {
        fire = true;
      } else {
        fail_budget_ -= count;
      }
      break;
    case FaultPlan::Trigger::kAtTransfer:
      fire = fire || transfer_no == plan_.transfer_no;
      break;
    case FaultPlan::Trigger::kEveryKth:
      fire = fire || (plan_.every_k > 0 &&
                      (transfer_no + 1) % plan_.every_k == 0);
      break;
    case FaultPlan::Trigger::kRandom:
      // Always draw so the stream position depends only on the transfer
      // number, not on earlier outcomes.
      fire = fault_rng_.NextDouble() < plan_.probability || fire;
      break;
  }
  if (!fire) return Status::OK();
  if (plan_.durability == FaultDurability::kPersistent &&
      plan_.trigger != FaultPlan::Trigger::kPageBudget) {
    fault_latched_ = true;
  }
  fault_stats_.faults_injected += 1;
  return Status::IOError("injected disk fault (transfer #" +
                         std::to_string(transfer_no) + ")");
}

Status DiskDevice::AccountTransfer(uint64_t page_no, uint64_t count,
                                   bool write) {
  double charged = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    QBISM_RETURN_NOT_OK(InjectFault(count));
    charged = Charge(page_no, count, write);
  }
  // Realize the modeled service time as a wall-clock wait (benchmarks
  // only; scale is 0 everywhere else). Outside mu_ so concurrent
  // transfers wait in parallel, which is the effect being measured.
  double scale = realize_scale_.load(std::memory_order_relaxed);
  if (scale > 0.0 && charged > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(scale * charged));
  }
  return Status::OK();
}

Status DiskDevice::CheckBounds(uint64_t page_no, uint64_t count,
                               const char* op) const {
  if (page_no > num_pages_ || count > num_pages_ - page_no) {
    return Status::OutOfRange(std::string("DiskDevice::") + op +
                              ": beyond device end");
  }
  return Status::OK();
}

Status DiskDevice::ReadPages(uint64_t page_no, uint64_t count, uint8_t* out) {
  if (count > 0 && out == nullptr) {
    return Status::InvalidArgument("DiskDevice::ReadPages: null destination");
  }
  return ReadPagesBatch({PageReadOp{page_no, count}},
                        [out, count](size_t, const uint8_t* pages) {
                          std::memcpy(out, pages, count * kPageSize);
                        });
}

Status DiskDevice::ReadPagesBatch(const std::vector<PageReadOp>& ops,
                                  const PageVisitor& visit) {
  for (const PageReadOp& op : ops) {
    QBISM_RETURN_NOT_OK(CheckBounds(op.page_no, op.count, "ReadPagesBatch"));
  }
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);
  for (size_t i = 0; i < ops.size(); ++i) {
    const PageReadOp& op = ops[i];
    if (op.count == 0) continue;
    QBISM_RETURN_NOT_OK(AccountTransfer(op.page_no, op.count, /*write=*/false));
    visit(i, bytes_.get() + op.page_no * kPageSize);
  }
  return Status::OK();
}

Status DiskDevice::WritePages(uint64_t page_no, uint64_t count,
                              const uint8_t* in) {
  QBISM_RETURN_NOT_OK(CheckBounds(page_no, count, "WritePages"));
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  QBISM_RETURN_NOT_OK(AccountTransfer(page_no, count, /*write=*/true));
  std::memcpy(bytes_.get() + page_no * kPageSize, in, count * kPageSize);
  return Status::OK();
}

std::vector<uint8_t> DiskDevice::CloneContents() const {
  std::shared_lock<std::shared_mutex> data_lock(data_mu_);
  return std::vector<uint8_t>(bytes_.get(),
                              bytes_.get() + num_pages_ * kPageSize);
}

Status DiskDevice::RestoreContents(const std::vector<uint8_t>& contents) {
  std::unique_lock<std::shared_mutex> data_lock(data_mu_);
  if (contents.size() != num_pages_ * kPageSize) {
    return Status::InvalidArgument(
        "DiskDevice::RestoreContents: size mismatch (" +
        std::to_string(contents.size()) + " vs " +
        std::to_string(num_pages_ * kPageSize) + " bytes)");
  }
  std::memcpy(bytes_.get(), contents.data(), contents.size());
  return Status::OK();
}

}  // namespace qbism::storage
