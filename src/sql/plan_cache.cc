#include "sql/plan_cache.h"

#include <utility>

namespace qbism::sql {

std::shared_ptr<const CachedPlan> PlanCache::Get(const std::string& sql,
                                                 uint64_t catalog_version,
                                                 uint64_t stats_version,
                                                 uint64_t index_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(sql);
  if (it == entries_.end()) return nullptr;
  if (it->second.plan->catalog_version != catalog_version ||
      it->second.plan->stats_version != stats_version ||
      it->second.plan->index_version != index_version) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  ++hits_;
  return it->second.plan;
}

void PlanCache::Put(const std::string& sql,
                    std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  auto it = entries_.find(sql);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (entries_.size() >= capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(sql);
  entries_.emplace(sql, Entry{std::move(plan), lru_.begin()});
}

uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace qbism::sql
