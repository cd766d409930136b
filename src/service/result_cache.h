#ifndef QBISM_SERVICE_RESULT_CACHE_H_
#define QBISM_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "volume/volume.h"

namespace qbism::service {

/// Counters for cache observability (benchmarks assert the hit-path
/// latency win with these).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  // entries dropped by InvalidatePrefix
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// Server-wide shared LRU result cache: the §5.2 per-DX-executive
/// result cache promoted to a tier shared by every request, so one
/// client's expensive extraction serves every later client. Keyed by
/// the canonicalized QuerySpec::Describe() string; values are immutable
/// DATA_REGIONs behind shared_ptr, so a hit never copies voxels and an
/// eviction never invalidates a reply already handed out.
///
/// Bounded by entry count and by an approximate byte budget (whichever
/// trips first evicts from the LRU tail). Thread-safe.
class ResultCache {
 public:
  /// `max_entries` == 0 disables the cache entirely (every Get misses,
  /// Put is a no-op) — the benchmark's cache-off arm.
  ResultCache(size_t max_entries, uint64_t max_bytes = UINT64_MAX)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result (promoting it to most-recently-used) or
  /// nullptr, counting a hit or a miss.
  std::shared_ptr<const volume::DataRegion> Get(const std::string& key);

  /// True when `key` is resident. A pure probe: no LRU promotion, no
  /// hit/miss accounting — the fault sweep uses it to assert a failed
  /// query's key was never admitted without disturbing the stats it is
  /// also asserting on.
  bool Contains(const std::string& key) const;

  /// Inserts or refreshes an entry, evicting from the LRU tail until
  /// both bounds hold. Oversized values (alone above the byte budget)
  /// are not admitted.
  void Put(const std::string& key,
           std::shared_ptr<const volume::DataRegion> value);

  /// Drops every entry whose key starts with `prefix`, counting each
  /// into stats().invalidations; returns how many were dropped. The
  /// ingest path calls this with the study component of the
  /// QuerySpec::Describe() key when a study's data changes, so a cached
  /// result can never outlive the data it was computed from.
  size_t InvalidatePrefix(const std::string& prefix);

  void Clear();

  ResultCacheStats stats() const;
  bool enabled() const { return max_entries_ > 0; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const volume::DataRegion> value;
    uint64_t bytes = 0;
  };

  /// Drops the LRU tail entry. Caller holds mu_.
  void EvictOne();

  const size_t max_entries_;
  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  // Front = most recently used. All below guarded by mu_.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t bytes_ = 0;
  ResultCacheStats stats_;
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_RESULT_CACHE_H_
