#ifndef QBISM_SQL_DATABASE_H_
#define QBISM_SQL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/plan_cache.h"
#include "sql/planner/cost.h"
#include "sql/planner/stats.h"
#include "sql/result_set.h"
#include "sql/udf.h"
#include "storage/buffer_pool.h"
#include "storage/disk_device.h"
#include "storage/epoch.h"
#include "storage/long_field.h"
#include "storage/wal.h"

namespace qbism::sql {

/// Sizing of the simulated devices. Mirroring the paper's setup (§6.1),
/// relational data lives on a buffered device (the "AIX file system")
/// and long fields on an unbuffered device managed by the LFM (the "AIX
/// logical volume"). With `enable_wal` a third small device holds the
/// write-ahead log, and the database gains transactional online ingest
/// with crash recovery (docs/DURABILITY.md). Every device charges the
/// default storage::DiskCostModel.
struct DatabaseOptions {
  uint64_t relational_pages = 1 << 14;          // 64 MB
  uint64_t long_field_pages = 1 << 15;          // 128 MB
  size_t buffer_pool_pages = 256;               // 1 MB of buffered pages
  /// Attach a WAL + epoch manager: mutations become logged, snapshot-
  /// visible versions; Recover() replays the log after a crash.
  bool enable_wal = false;
  uint64_t wal_pages = 1 << 12;  // 16 MB log volume
};

/// What Database::Recover replayed.
struct RecoveryStats {
  uint64_t committed_txns = 0;
  uint64_t records_replayed = 0;
  uint64_t lfm_sets = 0;
  uint64_t lfm_drops = 0;
  uint64_t rows_inserted = 0;
  uint64_t delete_statements = 0;
  uint64_t index_records = 0;  // collected for TakeRecoveredIndexRecords
  bool torn_tail = false;  // the log ended in a torn (mid-sync) record
};

/// The extensible DBMS facade: devices, buffer pool, catalog, UDF
/// registry, SQL front end. This is the Starburst substitute — it
/// provides exactly the extension hooks QBISM relied on: long fields,
/// user-defined SQL functions, and select-project-join query processing.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions{});

  /// Parses and executes one SQL statement: the one path from SQL text
  /// to rows. The plan cache is probed once, by the text; only SELECT
  /// plans are cached, so a hit skips parse, plan and compile. EXPLAIN
  /// plans afresh and is never cached. Per-call state lives on the
  /// stack, so service threads may run queries concurrently.
  Result<ResultSet> Execute(const std::string& sql);

  /// Direct (non-SQL) APIs used by loaders and tests. With the WAL
  /// enabled, Insert also logs the row — joining the LFM's open
  /// transaction if one exists, else as its own committed transaction —
  /// so recovery can rebuild the relational state.
  Status CreateTable(TableSchema schema);
  Status Insert(const std::string& table, const Row& row);

  /// Executes `delete from table where column = value` and logs it the
  /// same way Insert logs rows. The ingest path uses this to retire a
  /// study's rows before re-ingesting it.
  Status DeleteRowsLogged(const std::string& table, const std::string& column,
                          int64_t value);

  /// Scans the WAL device and replays every committed transaction's
  /// records in log order: LFM extents are re-installed (with content
  /// CRC verification against the committed records), rows re-inserted,
  /// deletes re-executed. Call on a freshly constructed database after
  /// the schema is bootstrapped and the device images are restored,
  /// before serving any query. Requires `enable_wal`.
  Result<RecoveryStats> Recover();

  Catalog* catalog() { return &catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  storage::LongFieldManager* lfm() { return &lfm_; }
  storage::DiskDevice* relational_device() { return &relational_device_; }
  storage::DiskDevice* long_field_device() { return &long_field_device_; }
  storage::BufferPool* buffer_pool() { return &pool_; }
  /// The relational device's page allocator (heap files, B+-trees, and
  /// the spatial index's packed R-tree all draw from it).
  storage::PageAllocator* page_allocator() { return &page_allocator_; }

  /// Durability subsystem; all null when `enable_wal` is off.
  storage::WriteAheadLog* wal() { return wal_.get(); }
  storage::DiskDevice* wal_device() { return wal_device_.get(); }
  storage::EpochManager* epochs() { return epochs_.get(); }

  /// Opaque extension state passed to every UDF invocation (the spatial
  /// extension stores its grid/curve configuration here).
  void set_extension_state(void* state) { extension_state_ = state; }
  void* extension_state() const { return extension_state_; }

  /// --- Cost-based planning services --------------------------------------

  /// Optimizer statistics. Populate with stats()->AnalyzeAll(catalog())
  /// (scalar columns) and SpatialExtension::RefreshPlannerStats (region
  /// columns); the planner falls back to defaults when empty.
  planner::PlannerStats* planner_stats() { return &planner_stats_; }

  /// Compiled-SELECT cache keyed by SQL text, invalidated by catalog
  /// DDL, statistics refresh or an index publish. Execute() probes it
  /// before parsing; a hit is a SELECT served from a cached plan, a
  /// miss a SELECT that had to be planned.
  PlanCache* plan_cache() { return &plan_cache_; }

  /// Extension cost hook consulted by the planner for UDF conjuncts
  /// (the spatial extension installs one; see planner/cost.h).
  void set_udf_cost_hook(planner::UdfCostHook hook) {
    udf_cost_hook_ = std::move(hook);
  }

  /// Candidate-index hook: an extension index (the cross-study spatial
  /// index) that can turn a table's pushed conjuncts into a candidate
  /// key set for the planner. Installing (or clearing) it invalidates
  /// cached plans via the index version.
  void set_candidate_index_hook(planner::CandidateIndexHook hook) {
    candidate_index_hook_ = std::move(hook);
    BumpIndexVersion();
  }

  /// Version of the candidate-index state. Compiled plans embed the
  /// candidate key sets the hook answered at plan time, so every index
  /// publish/rebuild must bump this to invalidate them (the plan cache
  /// keys on it alongside the catalog and statistics versions).
  uint64_t index_version() const {
    return index_version_.load(std::memory_order_acquire);
  }
  void BumpIndexVersion() {
    index_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Appends one extension redo record (kIndexUpsert/kIndexRemove),
  /// joining the LFM's open transaction or auto-committing — the same
  /// transactional envelope catalog records use. No-op without a WAL.
  Status LogExtensionRecord(storage::WalRecordType type,
                            const std::vector<uint8_t>& payload) {
    return LogCatalogRecord(type, payload);
  }

  /// Index-maintenance records collected by the last Recover() call
  /// (committed kIndexUpsert/kIndexRemove, in log order), moved out for
  /// SpatialIndexManager::ApplyRecovered. Second call returns empty.
  std::vector<storage::WalRecord> TakeRecoveredIndexRecords() {
    return std::move(recovered_index_records_);
  }

  /// Combined I/O statistics across the relational and LFM devices.
  storage::IoStats TotalIoStats() const;
  void ResetIoStats();

 private:
  /// Constant-folds, plans and compiles one SELECT against the current
  /// catalog, statistics and extension hooks.
  Result<vm::CompiledSelect> CompileSelect(const SelectStmt& stmt);

  /// Appends one catalog redo record, joining the LFM's open
  /// transaction or auto-committing. No-op without a WAL.
  Status LogCatalogRecord(storage::WalRecordType type,
                          const std::vector<uint8_t>& payload);

  storage::DiskDevice relational_device_;
  storage::DiskDevice long_field_device_;
  storage::BufferPool pool_;
  storage::PageAllocator page_allocator_;
  std::unique_ptr<storage::DiskDevice> wal_device_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::unique_ptr<storage::EpochManager> epochs_;
  storage::LongFieldManager lfm_;
  Catalog catalog_;
  UdfRegistry udfs_;
  void* extension_state_ = nullptr;
  planner::PlannerStats planner_stats_;
  PlanCache plan_cache_;
  planner::UdfCostHook udf_cost_hook_;
  planner::CandidateIndexHook candidate_index_hook_;
  std::atomic<uint64_t> index_version_{0};
  std::vector<storage::WalRecord> recovered_index_records_;
};

}  // namespace qbism::sql

#endif  // QBISM_SQL_DATABASE_H_
