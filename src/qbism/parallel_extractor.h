#ifndef QBISM_QBISM_PARALLEL_EXTRACTOR_H_
#define QBISM_QBISM_PARALLEL_EXTRACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/task_pool.h"
#include "storage/long_field.h"

namespace qbism {

/// Tuning knobs for the vectored extraction executor.
struct ExtractOptions {
  /// Passed to the LFM read planner: page gaps up to this size are read
  /// through rather than paying a seek.
  uint64_t gap_fill_pages = 1;
  /// Plans moving fewer pages than this run inline on the caller —
  /// sharding a tiny read costs more in coordination than it saves. A
  /// larger plan is sharded only on a device whose transfers wait.
  uint64_t min_parallel_pages = 64;
};

/// Monotonic counters for the extraction fast path. `operator-` yields
/// the delta between two snapshots (the service reports per-lifetime
/// deltas on a shared extractor).
struct ExtractorStatsSnapshot {
  uint64_t extractions = 0;    // ExtractBytes calls completed OK
  uint64_t scans = 0;          // ScanField calls completed OK
  uint64_t runs = 0;           // input byte ranges (region runs)
  uint64_t extents_planned = 0;
  uint64_t pages_read = 0;     // pages actually transferred
  uint64_t pages_demanded = 0; // per-run page sum (a read per run)
  uint64_t bytes_moved = 0;    // payload bytes delivered
  uint64_t shard_tasks = 0;    // tasks executed (caller + helpers)
  uint64_t helper_tasks = 0;   // tasks executed by donated threads
  double busy_seconds = 0.0;   // summed wall time inside shard tasks
  double wall_seconds = 0.0;   // summed wall time of extractions

  /// How many page transfers a read per run would have issued for each
  /// page the planner actually read (>= 1; higher is better).
  double CoalescingRatio() const {
    return pages_read == 0
               ? 1.0
               : static_cast<double>(pages_demanded) /
                     static_cast<double>(pages_read);
  }

  /// Average number of threads concurrently inside shard tasks (1.0 =
  /// fully serial; approaches the worker count when sharding is wide).
  double ParallelEfficiency() const {
    return wall_seconds <= 0.0 ? 1.0 : busy_seconds / wall_seconds;
  }

  ExtractorStatsSnapshot operator-(const ExtractorStatsSnapshot& o) const;
};

/// The vectored, parallel EXTRACT_DATA executor: plans a region's run
/// list into coalesced page extents (LongFieldManager::PlanRead) and
/// reads them in one batch whose visitor copies each range's bytes from
/// the device page straight into the answer — one copy from the device
/// store to the DATA_REGION, no intermediate buffers. On a device whose
/// transfers wait (DiskDevice::transfers_wait) a large plan is sharded
/// across a donation TaskPool so the waits overlap; everywhere else the
/// caller reads inline and appends the pieces in order.
///
/// Thread-safe: many queries may extract through one executor at once
/// (the query service shares one across its workers). The pool pointer
/// is set at configuration time, before concurrent use.
class ParallelExtractor {
 public:
  explicit ParallelExtractor(storage::LongFieldManager* lfm,
                             ExtractOptions options = {});

  /// Donation pool for intra-query parallelism; nullptr (the default)
  /// runs every extraction inline on the caller, as does a device whose
  /// transfers do not wait. Not owned.
  void set_pool(TaskPool* pool) {
    pool_.store(pool, std::memory_order_release);
  }
  TaskPool* pool() const { return pool_.load(std::memory_order_acquire); }

  const ExtractOptions& options() const { return options_; }
  storage::LongFieldManager* lfm() const { return lfm_; }

  /// Reads `ranges` (sorted ascending, pairwise disjoint — a region's
  /// run list in byte form) from the field and returns their bytes
  /// concatenated in range order. This is the EXTRACT_DATA data path:
  /// the returned buffer is exactly a DATA_REGION's value array. The
  /// plan and every shard read one version of the field: the caller's
  /// snapshot when it holds one, else a snapshot pinned for the call.
  Result<std::vector<uint8_t>> ExtractBytes(
      storage::LongFieldId field,
      const std::vector<storage::ByteRange>& ranges) const;

  /// Streams the whole field through `fn` in page-aligned chunks of at
  /// most `chunk_bytes` (rounded up to one page), in ascending order
  /// using a single reused buffer — whole-volume operators (banding,
  /// statistics) run in O(chunk) memory instead of materializing the
  /// volume. `fn(offset, data, len)` sees each byte exactly once; a
  /// non-OK return aborts the scan with that status. Every chunk comes
  /// from one version of the field, pinned as in ExtractBytes.
  Status ScanField(
      storage::LongFieldId field, uint64_t chunk_bytes,
      const std::function<Status(uint64_t offset, const uint8_t* data,
                                 uint64_t len)>& fn) const;

  ExtractorStatsSnapshot stats() const;

  /// --- Cooperative interruption ---------------------------------------
  /// Extraction runs at UDF depth, far below the server's per-stage
  /// checkpoints, so deadline/cancel hooks reach it through a
  /// thread-local: the hook installed on the calling thread is captured
  /// when an extraction starts and polled between shard batches and
  /// scan chunks (on every participating thread). Install around query
  /// execution with ScopedThreadInterrupt.
  static void SetThreadInterrupt(std::function<Status()> interrupt);
  static const std::function<Status()>& ThreadInterrupt();

  class ScopedThreadInterrupt {
   public:
    explicit ScopedThreadInterrupt(std::function<Status()> interrupt) {
      SetThreadInterrupt(std::move(interrupt));
    }
    ~ScopedThreadInterrupt() { SetThreadInterrupt(nullptr); }
    ScopedThreadInterrupt(const ScopedThreadInterrupt&) = delete;
    ScopedThreadInterrupt& operator=(const ScopedThreadInterrupt&) = delete;
  };

 private:
  struct ShardOutcome;
  struct Sink;

  /// Executes one shard: `units` (the whole plan inline, or a slice of
  /// its extents split for parallelism) as one batch read, putting each
  /// range's overlap with a unit, from `ranges[first_range]` on, into
  /// `sink` in order. An IOError surfaces as is: the query service owns
  /// retries.
  Status RunShard(storage::LongFieldId field,
                  const std::vector<storage::PlannedExtent>& units,
                  const std::vector<storage::ByteRange>& ranges,
                  size_t first_range, Sink sink,
                  const std::function<Status()>& interrupt,
                  ShardOutcome* outcome) const;

  storage::LongFieldManager* lfm_;
  ExtractOptions options_;
  std::atomic<TaskPool*> pool_{nullptr};

  mutable std::mutex stats_mu_;
  mutable ExtractorStatsSnapshot stats_;  // guarded by stats_mu_
};

}  // namespace qbism

#endif  // QBISM_QBISM_PARALLEL_EXTRACTOR_H_
