#ifndef QBISM_SQL_PLAN_CACHE_H_
#define QBISM_SQL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sql/vm/compiler.h"

namespace qbism::sql {

/// A compiled SELECT plus the versions it was planned against. A plan
/// embeds resolved column indexes, access-path choices, and the
/// optimizer's cost decisions, so it is valid only while all three
/// versions hold: the catalog version (bumped by DDL only), the
/// statistics version (bumped by ANALYZE / ingest refresh), and the
/// spatial-index version (bumped whenever the cross-study index
/// publishes — plans embed candidate study-id sets, so a stale plan
/// could silently miss a freshly ingested study). Row-level DML bumps
/// none of them — the VM re-resolves heap files and index handles by
/// name per run, which is what makes cached plans survive updates.
struct CachedPlan {
  vm::CompiledSelect compiled;
  uint64_t catalog_version = 0;
  uint64_t stats_version = 0;
  uint64_t index_version = 0;
};

/// LRU cache of compiled SELECTs keyed by raw SQL text. Amortizes the
/// parse + optimize + compile pipeline for repeated statements (the
/// hot path of the query service); thread-safe so sessions share it.
/// Only SELECTs are cached, and each counts once: a hit when a cached
/// plan serves it, a miss when it had to be planned (Put).
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 128) : capacity_(capacity) {}

  /// Returns the cached plan for `sql` when all versions still match,
  /// counting a hit; a stale entry is evicted on the spot. Counts no
  /// miss: the caller may probe before it knows the text is a SELECT.
  std::shared_ptr<const CachedPlan> Get(const std::string& sql,
                                        uint64_t catalog_version,
                                        uint64_t stats_version,
                                        uint64_t index_version);

  /// Caches a freshly planned SELECT, counting one miss.
  void Put(const std::string& sql, std::shared_ptr<const CachedPlan> plan);

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::list<std::string>::iterator lru_pos;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace qbism::sql

#endif  // QBISM_SQL_PLAN_CACHE_H_
