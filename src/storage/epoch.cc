#include "storage/epoch.h"

#include <vector>

namespace qbism::storage {

namespace {

struct PinEntry {
  const EpochManager* manager = nullptr;
  uint64_t epoch = 0;
};

/// The calling thread's snapshot stack. Scanned backwards so the
/// innermost snapshot for a manager wins; entries for distinct managers
/// (tests running several databases on one thread) coexist.
std::vector<PinEntry>& ThreadPins() {
  thread_local std::vector<PinEntry> pins;
  return pins;
}

}  // namespace

uint64_t EpochManager::Advance() {
  return current_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t EpochManager::EnterReader() {
  // Sample and register under one hold: a MinActiveReader() between a
  // sample taken outside and the registration would miss this reader,
  // and a vacuum at that horizon could free the versions it sees.
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t epoch = current();
  ++active_[epoch];
  return epoch;
}

void EpochManager::ExitReader(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(epoch);
  if (it == active_.end()) return;  // tolerated: unmatched exit
  if (--it->second == 0) active_.erase(it);
}

uint64_t EpochManager::MinActiveReader() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_.empty()) return current();
  return active_.begin()->first;
}

size_t EpochManager::active_readers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [epoch, count] : active_) total += count;
  return total;
}

uint64_t EpochManager::PinnedEpoch(const EpochManager* manager) {
  const std::vector<PinEntry>& pins = ThreadPins();
  for (auto it = pins.rbegin(); it != pins.rend(); ++it) {
    if (it->manager == manager) return it->epoch;
  }
  return 0;
}

ReadSnapshot::ReadSnapshot(EpochManager* manager) : manager_(manager) {
  if (manager_ == nullptr) return;
  epoch_ = manager_->EnterReader();
  owns_pin_ = true;
  ThreadPins().push_back(PinEntry{manager_, epoch_});
}

ReadSnapshot::ReadSnapshot(EpochManager* manager, uint64_t adopted_epoch)
    : manager_(manager), epoch_(adopted_epoch) {
  if (manager_ == nullptr || adopted_epoch == 0) {
    manager_ = nullptr;
    epoch_ = 0;
    return;
  }
  ThreadPins().push_back(PinEntry{manager_, epoch_});
}

ReadSnapshot::~ReadSnapshot() {
  if (manager_ == nullptr) return;
  // Snapshots are scoped, so ours is the innermost entry for manager_.
  std::vector<PinEntry>& pins = ThreadPins();
  for (auto it = pins.rbegin(); it != pins.rend(); ++it) {
    if (it->manager == manager_ && it->epoch == epoch_) {
      pins.erase(std::next(it).base());
      break;
    }
  }
  if (owns_pin_) manager_->ExitReader(epoch_);
}

}  // namespace qbism::storage
