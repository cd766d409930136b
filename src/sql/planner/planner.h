#ifndef QBISM_SQL_PLANNER_PLANNER_H_
#define QBISM_SQL_PLANNER_PLANNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/planner/cost.h"
#include "sql/planner/stats.h"

namespace qbism::sql::planner {

/// One WHERE conjunct placed by the optimizer, with its estimates. The
/// plan owns a folded clone of the expression.
struct PlannedConjunct {
  ExprPtr expr;
  double selectivity = CostParams::kUnknownSel;
  double cost = CostParams::kCompare;
  double rank() const { return PredicateRank(selectivity, cost); }
};

/// How the VM reads one FROM table. The planner picks the kind once;
/// the VM runs exactly that kind, and EXPLAIN prints AccessKindName.
enum class AccessKind {
  kScan,             // decode every row, then the filter program
  kIndexProbe,       // B+-tree lookup of `column` = `lo`, in leaf order
  kIndexRangeProbe,  // B+-tree leaf walk over [lo, hi], in heap order
  kCandidateProbe,   // B+-tree lookup per candidate key, in heap order
  kCandidateScan,    // scan dropping rows whose key is not a candidate
};

/// The one name EXPLAIN prints for each access kind.
const char* AccessKindName(AccessKind kind);

/// Access path for one FROM table.
struct AccessPath {
  AccessKind kind = AccessKind::kScan;
  std::string column;  // the probed or candidate key column
  /// Index probe: the key, in `lo`. Range probe: the bounds, each set
  /// only when its `has_` flag is.
  int64_t lo = 0;
  int64_t hi = 0;
  bool has_lo = false;
  bool has_hi = false;
  /// Estimated rows the range walk touches, or that carry a candidate
  /// key.
  double touched_rows = 0.0;
  /// Candidate kinds: the extension index hook (the cross-study spatial
  /// index) proved that only rows whose `column` value is in `keys` can
  /// satisfy the pushed conjuncts. A superset guarantee, so the
  /// conjuncts remain the exact re-check.
  std::vector<int64_t> keys;  // sorted ascending, deduplicated
  double key_population = 0.0;
  std::string source;  // EXPLAIN tag, e.g. "rtree+bitmap"
};

/// Access plan for one FROM table.
struct TablePlan {
  std::string table;
  std::string alias;
  size_t from_index = 0;  // position in the FROM clause
  bool analyzed = false;  // statistics were available
  double base_rows = 0.0;
  double est_rows = 0.0;  // after pushed predicates
  AccessPath access;
  /// Pushed single-table conjuncts in evaluation (ascending rank) order.
  /// The probe equality conjunct stays in this list: a writer may
  /// delete a probed record and reuse its slot before the VM reads it,
  /// so the re-check is necessary.
  std::vector<PlannedConjunct> pushed;
};

/// A conjunct that could not be pushed into a single scan. `depth` is
/// the earliest join level (index into SelectPlan::tables) at which all
/// referenced tables are bound.
struct ResidualPlan {
  ExprPtr expr;
  double selectivity = CostParams::kUnknownSel;
  double cost = CostParams::kCompare;
  size_t depth = 0;
};

/// Cost-based plan for one SELECT. `tables` is the chosen join order;
/// `from_to_plan[f]` maps FROM position f to its index in `tables`
/// (star projection stays in FROM order regardless of the join order).
struct SelectPlan {
  std::vector<TablePlan> tables;
  std::vector<ResidualPlan> residuals;  // sorted by (depth, rank)
  std::vector<size_t> from_to_plan;
  double est_rows = 0.0;
  double est_cost = 0.0;
  /// Extraction strategy for spatial UDF chains: -1 = no spatial calls
  /// seen, 0 = decode-and-extract, 1 = encoded-domain chain.
  int extract_pref = -1;
  bool encoded_chain() const { return extract_pref == 1; }

  /// The one plan description (EXPLAIN): access paths with estimates,
  /// conjunct order, join order, extraction strategy.
  std::vector<std::string> ExplainLines() const;
};

/// Cost-based SELECT planner. Orders filter conjuncts by predicate
/// rank, chooses each table's access path, picks a greedy join order from
/// estimated cardinalities, and selects the spatial extraction strategy
/// from the UDF cost hook. Join reordering only engages when every FROM
/// table has statistics — without them the FROM order is kept, which
/// also preserves the interpreter's row emission order.
class Planner {
 public:
  Planner(Catalog* catalog, const PlannerStats* stats,
          const UdfCostHook* hook,
          const CandidateIndexHook* candidate_hook = nullptr)
      : catalog_(catalog),
        stats_(stats),
        hook_(hook),
        candidate_hook_(candidate_hook) {}

  /// Plans a SELECT whose expressions are already constant-folded. The
  /// plan owns clones of the statement's predicates; `stmt` must stay
  /// alive only for the duration of the call.
  Result<SelectPlan> PlanSelect(const SelectStmt& stmt);

 private:
  Catalog* catalog_;
  const PlannerStats* stats_;
  const UdfCostHook* hook_;
  const CandidateIndexHook* candidate_hook_;
};

}  // namespace qbism::sql::planner

#endif  // QBISM_SQL_PLANNER_PLANNER_H_
