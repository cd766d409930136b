#include "sql/executor.h"

#include <memory>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"
#include "sql/eval.h"
#include "sql/plan_cache.h"
#include "sql/planner/planner.h"
#include "sql/vm/compiler.h"
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

}  // namespace

std::string ResultSet::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out << (i ? " | " : "") << columns[i];
  }
  out << "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? " | " : "") << row[i].ToString();
    }
    out << "\n";
  }
  return out.str();
}

Result<ResultSet> Executor::Execute(const Statement& statement) {
  if (const auto* select = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(*select, /*explain=*/false);
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&statement)) {
    return ExecuteSelect(explain->select, /*explain=*/true);
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&statement)) {
    return ExecuteCreate(*create);
  }
  if (const auto* index = std::get_if<CreateIndexStmt>(&statement)) {
    QBISM_RETURN_NOT_OK(catalog_->CreateIndex(index->table, index->column));
    return ResultSet{};
  }
  return ExecuteMutation(statement);
}

Result<ResultSet> Executor::ExecuteSelect(const SelectStmt& stmt,
                                          bool explain) {
  const uint64_t catalog_version = catalog_->version();
  const uint64_t stats_version =
      options_.stats ? options_.stats->version() : 0;
  std::shared_ptr<const CachedPlan> cached;
  if (options_.plan_cache != nullptr && !options_.sql.empty()) {
    cached = options_.plan_cache->Get(options_.sql, catalog_version,
                                      stats_version, options_.index_version);
  }
  if (cached == nullptr) {
    SelectStmt folded = FoldSelect(stmt);
    planner::SelectPlan plan;
    {
      obs::Span span(obs::Stage::kOptimize);
      planner::Planner planner(catalog_, options_.stats, options_.cost_hook,
                               options_.candidate_hook);
      QBISM_ASSIGN_OR_RETURN(plan, planner.PlanSelect(folded));
    }
    auto entry = std::make_shared<CachedPlan>();
    {
      obs::Span span(obs::Stage::kCompile);
      vm::Compiler compiler(catalog_, udfs_);
      QBISM_ASSIGN_OR_RETURN(entry->compiled,
                             compiler.CompileSelect(folded, std::move(plan)));
    }
    entry->catalog_version = catalog_version;
    entry->stats_version = stats_version;
    entry->index_version = options_.index_version;
    if (options_.plan_cache != nullptr && !options_.sql.empty()) {
      options_.plan_cache->Put(options_.sql, entry);
    }
    cached = std::move(entry);
  }
  if (explain) {
    for (const std::vector<vm::Program>* programs :
         {&cached->compiled.scan_filters, &cached->compiled.residual_filters,
          &cached->compiled.item_programs, &cached->compiled.group_programs}) {
      for (const vm::Program& program : *programs) {
        QBISM_RETURN_NOT_OK(vm::FirstDeferredError(program));
      }
    }
    ResultSet result;
    result.columns = {"plan"};
    for (const std::string& line : cached->compiled.plan.ExplainLines()) {
      result.rows.push_back(Row{Value::String(line)});
    }
    result.plan = cached->compiled.plan.PlanNotes();
    return result;
  }
  vm::BatchVM machine(catalog_, context_);
  return machine.RunSelect(cached->compiled);
}

Result<ResultSet> Executor::ExecuteCompiled(const CachedPlan& plan) {
  vm::BatchVM machine(catalog_, context_);
  return machine.RunSelect(plan.compiled);
}

Result<ResultSet> Executor::ExecuteMutation(const Statement& statement) {
  vm::Compiler compiler(catalog_, udfs_);
  vm::BatchVM machine(catalog_, context_);
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

Result<ResultSet> Executor::ExecuteCreate(const CreateTableStmt& stmt) {
  QBISM_RETURN_NOT_OK(
      catalog_->CreateTable(TableSchema(stmt.table, stmt.columns)));
  return ResultSet{};
}

}  // namespace qbism::sql
