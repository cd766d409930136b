#ifndef QBISM_SQL_EXECUTOR_H_
#define QBISM_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/planner/cost.h"
#include "sql/planner/stats.h"
#include "sql/udf.h"

namespace qbism::sql {

struct CachedPlan;
class PlanCache;

/// Result of a statement: column headers plus rows. DDL/DML statements
/// produce an empty set (INSERT reports the row count via
/// `rows_affected`).
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;

  /// EXPLAIN-style notes: one line per FROM table describing the access
  /// path chosen (scan vs index probe, pushed predicates), plus join
  /// and aggregation notes. Populated by SELECT execution.
  std::vector<std::string> plan;

  /// Renders an ASCII table (for examples and debugging).
  std::string ToString() const;
};

/// Optional planner / caching services. All pointers are borrowed and
/// nullable — a bare Executor with default options plans without
/// statistics, caches nothing, and consults no extension hook.
struct ExecOptions {
  const planner::PlannerStats* stats = nullptr;
  PlanCache* plan_cache = nullptr;
  const planner::UdfCostHook* cost_hook = nullptr;
  /// Candidate-index hook (the cross-study spatial index); consulted by
  /// the planner per FROM table.
  const planner::CandidateIndexHook* candidate_hook = nullptr;
  /// Index version the candidate hook answered under (plan-cache key
  /// component; see PlanCache).
  uint64_t index_version = 0;
  /// Raw SQL text of the statement being executed: the plan-cache key.
  /// Empty disables caching for this statement.
  std::string sql;
};

/// Statement executor: binds and runs parsed statements against the
/// catalog. SELECT flows through plan -> compile -> batch VM; INSERT,
/// UPDATE and DELETE are compiled to VM programs too, so every
/// expression is evaluated by the one batch VM. User-defined functions
/// are dispatched through the registry and may produce transient
/// spatial objects.
class Executor {
 public:
  Executor(Catalog* catalog, const UdfRegistry* udfs, UdfContext context)
      : catalog_(catalog), udfs_(udfs), context_(std::move(context)) {}

  void set_options(ExecOptions options) { options_ = std::move(options); }
  const ExecOptions& options() const { return options_; }

  Result<ResultSet> Execute(const Statement& statement);

  /// Runs an already-compiled SELECT (plan-cache fast path: the caller
  /// skipped parse, plan, and compile entirely).
  Result<ResultSet> ExecuteCompiled(const CachedPlan& plan);

 private:
  /// Plan -> compile -> run (or render, for EXPLAIN).
  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt, bool explain);
  /// INSERT / UPDATE / DELETE: fold constants, compile, run.
  Result<ResultSet> ExecuteMutation(const Statement& statement);
  Result<ResultSet> ExecuteCreate(const CreateTableStmt& stmt);

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  UdfContext context_;
  ExecOptions options_;
};

}  // namespace qbism::sql

#endif  // QBISM_SQL_EXECUTOR_H_
