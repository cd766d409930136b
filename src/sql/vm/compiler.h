#ifndef QBISM_SQL_VM_COMPILER_H_
#define QBISM_SQL_VM_COMPILER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/planner/planner.h"
#include "sql/udf.h"
#include "sql/vm/program.h"

namespace qbism::sql::vm {

/// A SELECT lowered to bytecode against a cost-based plan. Immutable
/// and shareable: the plan cache hands the same CompiledSelect to every
/// execution; all run state lives in the BatchVM. Table names (not
/// handles) are stored — the VM re-resolves heap files and indexes per
/// run, which is why row-level DML never invalidates a cached plan.
struct CompiledSelect {
  planner::SelectPlan plan;
  std::vector<std::string> columns;  // output headers
  bool star = false;
  bool has_aggregates = false;
  size_t num_tables = 0;
  std::vector<OrderItem> order_by;  // applied after projection
  int64_t limit = -1;

  /// Per plan position: that table's pushed conjuncts fused into one
  /// filter program, in the optimizer's rank order (empty program when
  /// the table has no pushed predicates).
  std::vector<Program> scan_filters;
  /// Per join depth: the residual conjuncts first evaluable at that
  /// depth, fused. Evaluating a residual at the earliest depth where
  /// all its tables are bound prunes join prefixes before the inner
  /// loops run.
  std::vector<Program> residual_filters;

  /// Select items: a value program for plain items, an argument program
  /// for aggregate items (empty for count(*)).
  std::vector<Program> item_programs;
  std::vector<uint8_t> item_is_agg;
  std::vector<uint8_t> item_is_count_star;
  std::vector<std::string> item_agg_fn;
  std::vector<Program> group_programs;  // GROUP BY key expressions

  /// Late materialization: per plan table, which columns any expression
  /// in the statement touches. Unneeded columns are skipped during row
  /// decode without allocating.
  std::vector<std::vector<char>> needed_columns;
};

/// UPDATE / DELETE lowered against a single-table scan (the mutation
/// path deliberately mirrors the interpreter's full-scan access).
struct CompiledMutation {
  std::string table;
  bool is_update = false;
  Program filter;  // empty = no WHERE
  std::vector<Program> assignments;
  std::vector<size_t> target_columns;
  std::vector<char> needed_columns;
};

/// INSERT lowered row by row: one value program per VALUES expression,
/// compiled against no table (a column reference compiles to the
/// "unknown column" error).
struct CompiledInsert {
  std::string table;
  std::vector<std::vector<Program>> rows;
};

/// Lowers planned statements to register bytecode. Compilation resolves
/// columns and functions once; anything unresolvable compiles to a
/// kError instruction instead of failing, so the error surfaces only if
/// a row is actually evaluated — byte-for-byte the interpreter's
/// behaviour on empty tables.
class Compiler {
 public:
  Compiler(Catalog* catalog, const UdfRegistry* udfs)
      : catalog_(catalog), udfs_(udfs) {}

  /// `stmt` must be the constant-folded statement the plan was built
  /// from. Consumes the plan.
  Result<CompiledSelect> CompileSelect(const SelectStmt& stmt,
                                       planner::SelectPlan plan);

  Result<CompiledMutation> CompileUpdate(const UpdateStmt& stmt);
  Result<CompiledMutation> CompileDelete(const DeleteStmt& stmt);
  /// `stmt` must be constant-folded, like the UPDATE/DELETE inputs.
  Result<CompiledInsert> CompileInsert(const InsertStmt& stmt);

 private:
  Catalog* catalog_;
  const UdfRegistry* udfs_;
};

}  // namespace qbism::sql::vm

#endif  // QBISM_SQL_VM_COMPILER_H_
