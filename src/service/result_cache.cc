#include "service/result_cache.h"

namespace qbism::service {

std::shared_ptr<const volume::DataRegion> ResultCache::Get(
    const std::string& key) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.front().value;
}

bool ResultCache::Contains(const std::string& key) const {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

void ResultCache::Put(const std::string& key,
                      std::shared_ptr<const volume::DataRegion> value) {
  if (!enabled() || value == nullptr) return;
  uint64_t bytes = value->ApproxSizeBytes();
  if (bytes > max_bytes_) return;  // would evict everything and still not fit
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: same key recomputed (e.g. two requests raced on a miss).
    bytes_ -= it->second->bytes;
    bytes_ += bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_[key] = lru_.begin();
    bytes_ += bytes;
    ++stats_.insertions;
  }
  while (lru_.size() > max_entries_ || bytes_ > max_bytes_) EvictOne();
}

void ResultCache::EvictOne() {
  const Entry& victim = lru_.back();
  bytes_ -= victim.bytes;
  index_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
}

size_t ResultCache::InvalidatePrefix(const std::string& prefix) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(0, prefix.size(), prefix) == 0) {
      bytes_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace qbism::service
