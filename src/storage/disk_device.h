#ifndef QBISM_STORAGE_DISK_DEVICE_H_
#define QBISM_STORAGE_DISK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/fault_plan.h"

namespace qbism::storage {

/// Page size used throughout the storage layer. The paper reports LFM
/// disk I/Os in 4 KB pages (Tables 3 and 4).
inline constexpr uint64_t kPageSize = 4096;

/// Deterministic service-time model for the simulated disk, calibrated
/// to early-90s hardware (the paper's RS/6000 had ~12 ms average
/// positioning time and ~2 MB/s sustained transfer). A page access pays
/// the seek cost only when it does not immediately follow the previous
/// access ("sequential" pages pay transfer only).
struct DiskCostModel {
  double seek_seconds = 0.012;
  double transfer_seconds_per_page = 0.002;
};

/// Cumulative I/O accounting. `simulated_seconds` is the deterministic
/// model time; it stands in for the paper's real-time I/O wait.
struct IoStats {
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t seeks = 0;
  double simulated_seconds = 0.0;

  IoStats operator-(const IoStats& o) const {
    return {pages_read - o.pages_read, pages_written - o.pages_written,
            seeks - o.seeks, simulated_seconds - o.simulated_seconds};
  }
};

/// One operation of a batch read: `count` consecutive pages starting at
/// `page_no`.
struct PageReadOp {
  uint64_t page_no = 0;
  uint64_t count = 0;
};

/// Sees op `op`'s pages in place: `count * kPageSize` bytes of the store,
/// readable only during the call. It runs under the store's reader hold,
/// so it must not write to the device.
using PageVisitor = std::function<void(size_t op, const uint8_t* pages)>;

/// An in-memory simulated raw disk device with page-granular access,
/// exact I/O counting, and a deterministic cost model. Stands in for the
/// AIX logical volume the Starburst LFM wrote to (§5.1): storage is
/// page-addressed, unbuffered, and every access is charged. The store
/// is zero pages the OS commits on first touch, so an idle device costs
/// neither construction time nor resident memory.
///
/// Thread-safe. Accounting (stats, cost model, fault plan) is
/// serialized on a small internal mutex, but the page *reads* run under
/// a reader-writer lock: concurrent reads of the (immutable during a
/// read) backing store proceed in parallel instead of convoying on one
/// latch; writes remain exclusive and atomic. Besides the device-wide
/// stats, every transfer is also accumulated into a per-calling-thread
/// ledger so a worker in the concurrent query service can compute exact
/// per-request I/O deltas on a shared device.
class DiskDevice {
 public:
  DiskDevice(uint64_t num_pages, DiskCostModel model = DiskCostModel{});

  uint64_t num_pages() const { return num_pages_; }

  /// Reads one page into `out` (kPageSize bytes).
  Status ReadPage(uint64_t page_no, uint8_t* out);

  /// Writes one page from `in` (kPageSize bytes).
  Status WritePage(uint64_t page_no, const uint8_t* in);

  /// Reads `count` consecutive pages starting at `page_no` into `out`
  /// (count * kPageSize bytes): a one-op ReadPagesBatch whose visitor
  /// copies the pages out.
  Status ReadPages(uint64_t page_no, uint64_t count, uint8_t* out);

  /// Writes `count` consecutive pages.
  Status WritePages(uint64_t page_no, uint64_t count, const uint8_t* in);

  /// The one read loop: performs every op of a planned read in order,
  /// each op one transfer (one arm movement) for accounting and the
  /// fault plan, then hands the op's pages to `visit` in place, with all
  /// ops sharing one reader hold on the store. Ops are validated against
  /// the device bounds before any transfer happens. On an injected fault
  /// the batch stops at the faulting op and returns its IOError: earlier
  /// ops have transferred, been charged and been visited, the faulting
  /// and later ops are none of these — exactly the accounting a
  /// mid-batch media error leaves behind.
  Status ReadPagesBatch(const std::vector<PageReadOp>& ops,
                        const PageVisitor& visit);

  /// Device-wide cumulative stats (all threads).
  IoStats stats() const;
  void ResetStats();

  /// I/O performed by the calling thread on this device since its last
  /// ResetThreadStats(). Exact even when other threads are driving the
  /// device concurrently.
  IoStats thread_stats() const;
  void ResetThreadStats();

  /// Folds `delta` into the calling thread's ledger. Intra-query
  /// parallelism uses this to re-attribute transfers performed by
  /// donated helper threads to the thread that owns the query, keeping
  /// per-request I/O deltas exact (device-wide stats are unaffected —
  /// the helpers' transfers are already in them).
  void AddToThreadLedger(const IoStats& delta);

  /// Installs a deterministic fault plan (replacing any previous one).
  /// Transfer numbering for kAtTransfer/kEveryKth and the kRandom
  /// stream restart at this call, so an identical access pattern fails
  /// identically on every replay.
  void InstallFaultPlan(const FaultPlan& plan);

  /// Removes the active fault plan; subsequent transfers succeed.
  void ClearFault();

  /// Legacy shorthand for FaultPlan::FailAfterPages: after `page_ops`
  /// more pages transfer, every access fails with IOError until
  /// ClearFault() is called.
  void FailAfter(uint64_t page_ops) {
    InstallFaultPlan(FaultPlan::FailAfterPages(page_ops));
  }

  /// When > 0, every transfer additionally sleeps `scale` times its
  /// modeled service time on the calling thread, realizing the
  /// deterministic cost model as wall-clock I/O wait. Benchmarks use
  /// this to measure how well parallel extraction overlaps I/O waits on
  /// any host (including single-core machines, where CPU cannot scale);
  /// leave at the default 0 everywhere else. Fault injection, results
  /// and the per-transfer accounting are the same either way, but a
  /// device whose transfers wait is one the extractor shards reads on
  /// (transfers_wait), and sharding splits extents into more transfers.
  void set_realize_scale(double scale) {
    realize_scale_.store(scale, std::memory_order_relaxed);
  }

  /// Whether a transfer holds its caller for real time, so transfers on
  /// several threads overlap their waits: true under a realized cost
  /// model (a file-backed store would answer true too). False for the
  /// in-memory store, whose transfer is a memcpy.
  bool transfers_wait() const {
    return realize_scale_.load(std::memory_order_relaxed) > 0.0;
  }

  /// Cumulative transfer/fault counters (counted with or without an
  /// active plan; never reset by InstallFaultPlan or ClearFault).
  FaultStats fault_stats() const;
  void ResetFaultStats();

  /// Crash-simulation support: snapshot / replace the raw backing
  /// store, bypassing all accounting, cost charging, and fault plans.
  /// The crash-recovery harness clones a device's bytes at the "crash"
  /// point and restores them into a freshly constructed database, which
  /// models exactly what a power failure preserves — the platters, not
  /// the process. RestoreContents requires a byte-for-byte size match.
  std::vector<uint8_t> CloneContents() const;
  Status RestoreContents(const std::vector<uint8_t>& contents);

 private:
  /// OutOfRange unless pages [page_no, page_no + count) lie on the
  /// device; overflow-safe, so a huge page_no cannot wrap into range.
  Status CheckBounds(uint64_t page_no, uint64_t count, const char* op) const;
  /// Returns the simulated seconds charged for this transfer.
  double Charge(uint64_t page_no, uint64_t count, bool write);
  /// Counts the transfer and applies the active fault plan. Caller
  /// holds mu_. Returns the injected IOError when the plan fires.
  Status InjectFault(uint64_t count);
  /// Accounts one transfer (fault check + charge) under mu_. The data
  /// lock is taken by the caller around the actual copy.
  Status AccountTransfer(uint64_t page_no, uint64_t count, bool write);

  uint64_t num_pages_;
  DiskCostModel model_;
  std::atomic<double> realize_scale_{0.0};
  /// Guards the backing store only: shared for reads, exclusive for
  /// writes. Always acquired before mu_ (never the other way around).
  mutable std::shared_mutex data_mu_;
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t[], FreeDeleter> bytes_;  // calloc'd; data_mu_
  uint64_t device_id_;
  mutable std::mutex mu_;
  IoStats stats_;                               // guarded by mu_
  uint64_t next_sequential_page_ = UINT64_MAX;  // head position; mu_
  FaultPlan plan_;                              // mu_
  FaultStats fault_stats_;                      // mu_
  uint64_t plan_transfers_ = 0;  // transfers since plan install; mu_
  uint64_t fail_budget_ = 0;     // kPageBudget remaining pages; mu_
  bool fault_latched_ = false;   // persistent plan has fired; mu_
  Rng fault_rng_{0};             // kRandom stream; mu_
};

}  // namespace qbism::storage

#endif  // QBISM_STORAGE_DISK_DEVICE_H_
