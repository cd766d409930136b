#ifndef QBISM_SQL_EVAL_H_
#define QBISM_SQL_EVAL_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"

namespace qbism::sql {

/// --- Shared scalar semantics --------------------------------------------
///
/// The constant folder, the batch VM, and the tree-walking interpreter
/// the tests hold the VM against (tests/support/tree_walker.h) all
/// evaluate scalar operators through these functions, so they cannot
/// drift apart: a comparison, a division by zero, or a NULL-truthiness
/// error behaves identically everywhere.

/// True when a WHERE result counts as satisfied (non-null, non-zero).
Result<bool> ValueIsTrue(const Value& value);

/// Comparison operators (kEq..kGe) via Value::Compare -> Int 0/1.
Result<Value> EvalCompareOp(Expr::BinOp op, const Value& lhs,
                            const Value& rhs);

/// Arithmetic operators (kAdd..kDiv): int/int stays int, otherwise
/// double; division by zero is an error.
Result<Value> EvalArithmeticOp(Expr::BinOp op, const Value& lhs,
                               const Value& rhs);

/// Any binary operator given both operand values. kAnd/kOr short-circuit
/// on the left truth value (the right value is ignored when the left
/// decides), matching the interpreter's lazy evaluation outcome.
Result<Value> EvalBinaryOp(Expr::BinOp op, const Value& lhs,
                           const Value& rhs);

/// NOT: truthiness inverted to Int 0/1. Errors on non-numeric input.
Result<Value> EvalNotOp(const Value& v);

/// Unary minus: negates int or double.
Result<Value> EvalNegateOp(const Value& v);

/// --- Predicate and aggregate structure ----------------------------------

/// Flattens the AND tree of a WHERE clause into conjuncts.
void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out);

inline constexpr int kNoTable = -1;
inline constexpr int kMultiTable = -2;

/// Which single FROM table an expression references, kNoTable when it
/// references none, kMultiTable when several (or when a reference does
/// not resolve — join-time evaluation reports the real error).
int SingleTableScope(
    const Expr& expr,
    const std::vector<std::pair<std::string, const TableSchema*>>& tables);

/// True when `expr` is a call to one of the aggregate functions. These
/// names are reserved for aggregation and never dispatch to the UDF
/// registry.
bool IsAggregateCall(const Expr& expr);
bool ContainsAggregateCall(const Expr& expr);

/// Accumulator for one aggregate select item within one group.
struct AggState {
  uint64_t rows = 0;      // all rows (count(*))
  uint64_t non_null = 0;  // non-null arguments
  int64_t int_sum = 0;
  double double_sum = 0.0;
  bool saw_double = false;
  Value min_value;  // null until the first non-null argument
  Value max_value;

  Status Update(const std::string& function, const Value& argument,
                bool is_count_star);
  Value Finalize(const std::string& function,
                 bool is_count_star = false) const;
};

/// --- Compile-time constant folding --------------------------------------

/// Deep-copies `expr` with every literal-only subtree evaluated once.
/// Subtrees whose evaluation fails (e.g. `1/0`, `'a' and 1`) are kept
/// unfolded so the error still surfaces per evaluated row — and never
/// surfaces at all when no row is evaluated, exactly like the
/// interpreter. kAnd/kOr fold with short-circuit semantics: a deciding
/// literal left side folds the whole node without evaluating the right.
ExprPtr FoldConstants(const Expr& expr);

/// --- Index-probe recognition --------------------------------------------

/// An index-equality access path described symbolically: probe the
/// index on `column` with `key` instead of scanning the heap file.
struct IndexProbeSpec {
  std::string column;
  int64_t key = 0;
};

/// Looks for a conjunct of the form `col = literal-int` (either side)
/// over an indexed integer column of the given table. Run this over
/// constant-folded conjuncts so `id = 2+3` is recognized too.
std::optional<IndexProbeSpec> FindIndexProbeSpec(
    const std::vector<const Expr*>& conjuncts, const std::string& alias,
    const TableInfo& info);

/// An index-range access path: one B+-tree descent on `column`, then a
/// leaf walk over keys in [lo, hi]. Either bound may be open.
struct IndexRangeSpec {
  std::string column;
  int64_t lo = 0;
  int64_t hi = 0;
  bool has_lo = false;
  bool has_hi = false;
};

/// Looks for range conjuncts (`col < lit`, `col >= lit`, mirrored forms
/// too) over an indexed integer column, combining the tightest bounds
/// per column. Strict bounds tighten by one (`col > 5` -> lo 6). When
/// several indexed columns are bounded, a column with both bounds wins
/// over one with a single bound; ties keep first-bounded order. Whether
/// the range walk actually beats a scan is the planner's cost decision,
/// not this function's.
std::optional<IndexRangeSpec> FindIndexRangeSpec(
    const std::vector<const Expr*>& conjuncts, const std::string& alias,
    const TableInfo& info);

/// --- Shared SELECT output shaping ---------------------------------------

/// The output column headers of a SELECT (aliases, derived names, or
/// every `alias.column` for star). `scopes` lists the FROM tables in
/// statement order.
std::vector<std::string> BuildSelectColumns(
    const SelectStmt& stmt,
    const std::vector<std::pair<std::string, const TableSchema*>>& scopes);

/// Detects aggregation and validates the restricted aggregate form
/// (aggregates must be top-level select items; star excludes them).
Result<bool> DetectAggregates(const SelectStmt& stmt);

/// Sorts `rows` by the ORDER BY keys (NULLs first, stable) and applies
/// LIMIT. `columns` are the output headers used to resolve key names.
Status ApplyOrderByAndLimit(const std::vector<OrderItem>& order_by,
                            int64_t limit,
                            const std::vector<std::string>& columns,
                            std::vector<Row>* rows);

inline Status ApplyOrderByAndLimit(const SelectStmt& stmt,
                                   const std::vector<std::string>& columns,
                                   std::vector<Row>* rows) {
  return ApplyOrderByAndLimit(stmt.order_by, stmt.limit, columns, rows);
}

}  // namespace qbism::sql

#endif  // QBISM_SQL_EVAL_H_
