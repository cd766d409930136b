#include "sql/database.h"

#include <map>
#include <memory>

#include "common/bytes.h"
#include "common/macros.h"
#include "obs/trace.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/planner/planner.h"
#include "sql/schema.h"
#include "sql/vm/vm.h"

namespace qbism::sql {

namespace {

/// Clone of the statement with every expression constant-folded once,
/// so compile-time folding (e.g. `id = 2+3` becoming an index probe)
/// happens before planning.
SelectStmt FoldSelect(const SelectStmt& stmt) {
  SelectStmt out;
  out.star = stmt.star;
  for (const SelectItem& item : stmt.items) {
    out.items.push_back(SelectItem{FoldConstants(*item.expr), item.alias});
  }
  out.tables = stmt.tables;
  if (stmt.where) out.where = FoldConstants(*stmt.where);
  for (const ExprPtr& expr : stmt.group_by) {
    out.group_by.push_back(FoldConstants(*expr));
  }
  out.order_by = stmt.order_by;
  out.limit = stmt.limit;
  return out;
}

/// INSERT / UPDATE / DELETE: fold constants, compile, run.
Result<ResultSet> RunMutation(const Statement& statement,
                              vm::Compiler& compiler, vm::BatchVM& machine) {
  if (const auto* insert = std::get_if<InsertStmt>(&statement)) {
    // Each VALUES expression is folded and lowered like an UPDATE
    // assignment, against no table at all.
    InsertStmt folded;
    folded.table = insert->table;
    for (const std::vector<ExprPtr>& row : insert->rows) {
      std::vector<ExprPtr>& folded_row = folded.rows.emplace_back();
      for (const ExprPtr& expr : row) {
        folded_row.push_back(FoldConstants(*expr));
      }
    }
    vm::CompiledInsert compiled;
    {
      obs::Span span(obs::Stage::kCompile);
      QBISM_ASSIGN_OR_RETURN(compiled, compiler.CompileInsert(folded));
    }
    return machine.RunInsert(compiled);
  }
  if (const auto* update = std::get_if<UpdateStmt>(&statement)) {
    UpdateStmt folded;
    folded.table = update->table;
    for (const auto& [column, expr] : update->assignments) {
      folded.assignments.emplace_back(column, FoldConstants(*expr));
    }
    if (update->where) folded.where = FoldConstants(*update->where);
    vm::CompiledMutation compiled;
    {
      obs::Span span(obs::Stage::kCompile);
      QBISM_ASSIGN_OR_RETURN(compiled, compiler.CompileUpdate(folded));
    }
    return machine.RunMutation(compiled);
  }
  const auto* del = std::get_if<DeleteStmt>(&statement);
  if (del == nullptr) return Status::Internal("not a mutation statement");
  DeleteStmt folded;
  folded.table = del->table;
  if (del->where) folded.where = FoldConstants(*del->where);
  vm::CompiledMutation compiled;
  {
    obs::Span span(obs::Stage::kCompile);
    QBISM_ASSIGN_OR_RETURN(compiled, compiler.CompileDelete(folded));
  }
  return machine.RunMutation(compiled);
}

}  // namespace

Database::Database(DatabaseOptions options)
    : relational_device_(options.relational_pages),
      long_field_device_(options.long_field_pages),
      pool_(&relational_device_, options.buffer_pool_pages),
      page_allocator_(options.relational_pages),
      wal_device_(options.enable_wal
                      ? std::make_unique<storage::DiskDevice>(options.wal_pages)
                      : nullptr),
      wal_(options.enable_wal
               ? std::make_unique<storage::WriteAheadLog>(wal_device_.get())
               : nullptr),
      epochs_(options.enable_wal ? std::make_unique<storage::EpochManager>()
                                 : nullptr),
      lfm_(&long_field_device_,
           storage::LfmDurabilityHooks{wal_.get(), epochs_.get()}),
      catalog_(&pool_, &page_allocator_) {}

Result<ResultSet> Database::Execute(const std::string& sql) {
  UdfContext context;
  context.lfm = &lfm_;
  context.extension_state = extension_state_;
  vm::BatchVM machine(&catalog_, std::move(context));
  // Read before planning: a plan that races DDL, a statistics refresh
  // or an index publish is cached already stale.
  const uint64_t catalog_v = catalog_.version();
  const uint64_t stats_v = planner_stats_.version();
  const uint64_t index_v = index_version();
  if (std::shared_ptr<const CachedPlan> cached =
          plan_cache_.Get(sql, catalog_v, stats_v, index_v)) {
    return machine.RunSelect(cached->compiled);
  }
  QBISM_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  if (const auto* select = std::get_if<SelectStmt>(&statement)) {
    auto entry = std::make_shared<CachedPlan>();
    QBISM_ASSIGN_OR_RETURN(entry->compiled, CompileSelect(*select));
    entry->catalog_version = catalog_v;
    entry->stats_version = stats_v;
    entry->index_version = index_v;
    plan_cache_.Put(sql, entry);
    return machine.RunSelect(entry->compiled);
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&statement)) {
    QBISM_ASSIGN_OR_RETURN(vm::CompiledSelect compiled,
                           CompileSelect(explain->select));
    for (const std::vector<vm::Program>* programs :
         {&compiled.scan_filters, &compiled.residual_filters,
          &compiled.item_programs, &compiled.group_programs}) {
      for (const vm::Program& program : *programs) {
        QBISM_RETURN_NOT_OK(vm::FirstDeferredError(program));
      }
    }
    ResultSet result;
    result.columns = {"plan"};
    for (const std::string& line : compiled.plan.ExplainLines()) {
      result.rows.push_back(Row{Value::String(line)});
    }
    return result;
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&statement)) {
    QBISM_RETURN_NOT_OK(
        catalog_.CreateTable(TableSchema(create->table, create->columns)));
    return ResultSet{};
  }
  if (const auto* index = std::get_if<CreateIndexStmt>(&statement)) {
    QBISM_RETURN_NOT_OK(catalog_.CreateIndex(index->table, index->column));
    return ResultSet{};
  }
  vm::Compiler compiler(&catalog_, &udfs_);
  return RunMutation(statement, compiler, machine);
}

Result<vm::CompiledSelect> Database::CompileSelect(const SelectStmt& stmt) {
  SelectStmt folded = FoldSelect(stmt);
  planner::SelectPlan plan;
  {
    obs::Span span(obs::Stage::kOptimize);
    planner::Planner planner(
        &catalog_, &planner_stats_, udf_cost_hook_ ? &udf_cost_hook_ : nullptr,
        candidate_index_hook_ ? &candidate_index_hook_ : nullptr);
    QBISM_ASSIGN_OR_RETURN(plan, planner.PlanSelect(folded));
  }
  obs::Span span(obs::Stage::kCompile);
  return vm::Compiler(&catalog_, &udfs_).CompileSelect(folded,
                                                       std::move(plan));
}

Status Database::CreateTable(TableSchema schema) {
  return catalog_.CreateTable(std::move(schema));
}

Status Database::LogCatalogRecord(storage::WalRecordType type,
                                  const std::vector<uint8_t>& payload) {
  if (wal_ == nullptr) return Status::OK();
  uint64_t txn = lfm_.open_txn();
  if (txn != 0) {
    // Joins the open ingest transaction: buffered now, durable (and
    // replayable) once that transaction commits.
    return wal_->Append(type, txn, payload);
  }
  txn = wal_->BeginTxn();
  QBISM_RETURN_NOT_OK(wal_->Append(type, txn, payload));
  return wal_->Commit(txn);
}

Status Database::Insert(const std::string& table, const Row& row) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
  QBISM_ASSIGN_OR_RETURN(storage::RecordId rid, catalog_.InsertRow(info, row));
  (void)rid;
  if (wal_ == nullptr) return Status::OK();
  QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         SerializeRow(info->schema, row));
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.PutString(table);
  w.PutBytes(bytes.data(), bytes.size());
  return LogCatalogRecord(storage::WalRecordType::kCatalogRow, payload);
}

Status Database::DeleteRowsLogged(const std::string& table,
                                  const std::string& column, int64_t value) {
  QBISM_RETURN_NOT_OK(Execute("delete from " + table + " where " + column +
                              " = " + std::to_string(value))
                          .status());
  if (wal_ == nullptr) return Status::OK();
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.PutString(table);
  w.PutString(column);
  w.PutI64(value);
  return LogCatalogRecord(storage::WalRecordType::kCatalogDelete, payload);
}

Result<RecoveryStats> Database::Recover() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "Database::Recover: database was not opened with enable_wal");
  }
  QBISM_ASSIGN_OR_RETURN(storage::WriteAheadLog::ScanResult scan, wal_->Open());
  RecoveryStats out;
  recovered_index_records_.clear();
  out.committed_txns = scan.committed_txns;
  out.torn_tail = scan.torn_tail;
  // Content verification applies only to each field's FINAL committed
  // record: a Set superseded by a later Set or Drop is replayed for its
  // allocator/directory churn, but its extents may have been vacuumed
  // and reused by the time of the crash, so its platter bytes are not a
  // durability claim.
  std::map<uint64_t, size_t> last_touch;
  for (size_t i = 0; i < scan.committed.size(); ++i) {
    const storage::WalRecord& rec = scan.committed[i];
    if (rec.type == storage::WalRecordType::kLfmSet ||
        rec.type == storage::WalRecordType::kLfmDrop) {
      QBISM_ASSIGN_OR_RETURN(uint64_t id, ByteReader(rec.payload).GetU64());
      last_touch[id] = i;
    }
  }
  for (size_t i = 0; i < scan.committed.size(); ++i) {
    const storage::WalRecord& rec = scan.committed[i];
    ByteReader in(rec.payload);
    switch (rec.type) {
      case storage::WalRecordType::kLfmSet: {
        QBISM_ASSIGN_OR_RETURN(uint64_t id, in.GetU64());
        QBISM_ASSIGN_OR_RETURN(uint64_t start, in.GetU64());
        QBISM_ASSIGN_OR_RETURN(uint64_t pages, in.GetU64());
        QBISM_ASSIGN_OR_RETURN(uint64_t size, in.GetU64());
        QBISM_ASSIGN_OR_RETURN(uint32_t crc, in.GetU32());
        QBISM_RETURN_NOT_OK(lfm_.RecoverSet(
            id, start, pages, size, crc, /*verify_crc=*/last_touch[id] == i));
        ++out.lfm_sets;
        break;
      }
      case storage::WalRecordType::kLfmDrop: {
        QBISM_ASSIGN_OR_RETURN(uint64_t id, in.GetU64());
        QBISM_RETURN_NOT_OK(lfm_.RecoverDrop(id));
        ++out.lfm_drops;
        break;
      }
      case storage::WalRecordType::kCatalogRow: {
        QBISM_ASSIGN_OR_RETURN(std::string table, in.GetString());
        QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
        QBISM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                               in.GetRaw(in.remaining()));
        QBISM_ASSIGN_OR_RETURN(Row row, DeserializeRow(info->schema, bytes));
        QBISM_ASSIGN_OR_RETURN(storage::RecordId rid,
                               catalog_.InsertRow(info, row));
        (void)rid;
        ++out.rows_inserted;
        break;
      }
      case storage::WalRecordType::kCatalogDelete: {
        QBISM_ASSIGN_OR_RETURN(std::string table, in.GetString());
        QBISM_ASSIGN_OR_RETURN(std::string column, in.GetString());
        QBISM_ASSIGN_OR_RETURN(int64_t value, in.GetI64());
        QBISM_RETURN_NOT_OK(Execute("delete from " + table + " where " +
                                    column + " = " + std::to_string(value))
                                .status());
        ++out.delete_statements;
        break;
      }
      case storage::WalRecordType::kIndexUpsert:
      case storage::WalRecordType::kIndexRemove: {
        // Derived state: collected, not replayed here. The spatial
        // index manager (if any) applies them via
        // TakeRecoveredIndexRecords; otherwise BuildFromCatalog
        // reconstructs the index from the recovered rows.
        recovered_index_records_.push_back(rec);
        ++out.index_records;
        break;
      }
      case storage::WalRecordType::kCommit:
      case storage::WalRecordType::kAbort:
        continue;  // markers carry no redo work
    }
    ++out.records_replayed;
  }
  return out;
}

storage::IoStats Database::TotalIoStats() const {
  storage::IoStats a = relational_device_.stats();
  storage::IoStats b = long_field_device_.stats();
  return {a.pages_read + b.pages_read, a.pages_written + b.pages_written,
          a.seeks + b.seeks, a.simulated_seconds + b.simulated_seconds};
}

void Database::ResetIoStats() {
  relational_device_.ResetStats();
  long_field_device_.ResetStats();
}

}  // namespace qbism::sql
