#include "sql/planner/planner.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/macros.h"
#include "sql/eval.h"

namespace qbism::sql::planner {

namespace {

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Fraction of a column's rows inside the spec's [lo, hi], from ANALYZE
/// min/max under a uniformity assumption. Without statistics each bound
/// contributes the textbook kRangeSel third.
double RangeSelectivity(const IndexRangeSpec& spec, const TableStats* stats) {
  const ColumnStats* cs = nullptr;
  if (stats) {
    auto it = stats->columns.find(spec.column);
    if (it != stats->columns.end() && it->second.has_range) cs = &it->second;
  }
  if (cs == nullptr) {
    double sel = 1.0;
    if (spec.has_lo) sel *= CostParams::kRangeSel;
    if (spec.has_hi) sel *= CostParams::kRangeSel;
    return sel;
  }
  double lo = spec.has_lo ? static_cast<double>(spec.lo) : cs->min;
  double hi = spec.has_hi ? static_cast<double>(spec.hi) : cs->max;
  lo = std::max(lo, cs->min);
  hi = std::min(hi, cs->max);
  if (hi < lo) return 0.0;
  double width = cs->max - cs->min + 1.0;
  return std::min(1.0, (hi - lo + 1.0) / width);
}

/// Collects the FROM-position set referenced by `expr`, resolving
/// column refs the same way the evaluator does. A reference that does
/// not resolve uniquely sets `unresolved` — the conjunct is then
/// evaluated only on fully joined rows, where the evaluator reports the
/// real error.
void CollectRefTables(
    const Expr& expr,
    const std::vector<std::pair<std::string, const TableSchema*>>& scopes,
    std::set<size_t>* out, bool* unresolved) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kColumnRef: {
      int found = -1;
      for (size_t t = 0; t < scopes.size(); ++t) {
        if (!expr.table.empty() && scopes[t].first != expr.table) continue;
        if (!scopes[t].second->ColumnIndex(expr.column).ok()) continue;
        if (found >= 0) {
          *unresolved = true;
          return;
        }
        found = static_cast<int>(t);
      }
      if (found < 0) {
        *unresolved = true;
      } else {
        out->insert(static_cast<size_t>(found));
      }
      return;
    }
    case Expr::Kind::kFunctionCall:
      for (const ExprPtr& arg : expr.args) {
        CollectRefTables(*arg, scopes, out, unresolved);
      }
      return;
    case Expr::Kind::kBinary:
      CollectRefTables(*expr.lhs, scopes, out, unresolved);
      CollectRefTables(*expr.rhs, scopes, out, unresolved);
      return;
    case Expr::Kind::kUnary:
      CollectRefTables(*expr.operand, scopes, out, unresolved);
      return;
  }
}

/// Walks an output expression for spatial calls and merges the hook's
/// extraction-strategy preference. Recursion stops at a recognized
/// call: the hook already costed the whole chain.
void MergeStrategyFromExpr(
    const Expr& expr, const UdfCostHook* hook,
    const std::vector<std::pair<std::string, const TableSchema*>>& scopes,
    const std::vector<std::shared_ptr<const TableStats>>& snaps,
    int* prefer) {
  if (expr.kind == Expr::Kind::kFunctionCall && hook && *hook) {
    int scope = SingleTableScope(expr, scopes);
    const TableStats* stats =
        scope >= 0 ? snaps[static_cast<size_t>(scope)].get() : nullptr;
    if (auto est = (*hook)(expr, stats)) {
      if (est->prefer_encoded >= 0) {
        *prefer = std::max(*prefer, est->prefer_encoded);
        return;
      }
    }
  }
  switch (expr.kind) {
    case Expr::Kind::kFunctionCall:
      for (const ExprPtr& arg : expr.args) {
        MergeStrategyFromExpr(*arg, hook, scopes, snaps, prefer);
      }
      return;
    case Expr::Kind::kBinary:
      MergeStrategyFromExpr(*expr.lhs, hook, scopes, snaps, prefer);
      MergeStrategyFromExpr(*expr.rhs, hook, scopes, snaps, prefer);
      return;
    case Expr::Kind::kUnary:
      MergeStrategyFromExpr(*expr.operand, hook, scopes, snaps, prefer);
      return;
    default:
      return;
  }
}

}  // namespace

Result<SelectPlan> Planner::PlanSelect(const SelectStmt& stmt) {
  const size_t n = stmt.tables.size();
  std::vector<TableInfo*> infos;
  std::vector<std::pair<std::string, const TableSchema*>> scopes;
  for (const TableRef& ref : stmt.tables) {
    QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(ref.table));
    infos.push_back(info);
    scopes.emplace_back(ref.alias, &info->schema);
  }
  for (size_t i = 0; i < scopes.size(); ++i) {
    for (size_t j = i + 1; j < scopes.size(); ++j) {
      if (scopes[i].first == scopes[j].first) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       scopes[i].first + "'");
      }
    }
  }

  std::vector<std::shared_ptr<const TableStats>> snaps(n);
  bool all_analyzed = true;
  for (size_t t = 0; t < n; ++t) {
    snaps[t] = stats_ ? stats_->Get(stmt.tables[t].table) : nullptr;
    if (!snaps[t]) all_analyzed = false;
  }

  // Split WHERE conjuncts: single-table ones are pushed into the scan,
  // the rest become join residuals (matching the interpreter's
  // classification exactly, so the two engines agree on access paths).
  std::vector<const Expr*> conjuncts;
  if (stmt.where) CollectConjuncts(stmt.where.get(), &conjuncts);
  std::vector<std::vector<const Expr*>> pushed(n);
  std::vector<const Expr*> residual_exprs;
  for (const Expr* conjunct : conjuncts) {
    int scope = SingleTableScope(*conjunct, scopes);
    if (scope >= 0) {
      pushed[static_cast<size_t>(scope)].push_back(conjunct);
    } else {
      residual_exprs.push_back(conjunct);
    }
  }

  SelectPlan plan;

  // Per-table access plans, still in FROM order.
  std::vector<TablePlan> fplans(n);
  for (size_t t = 0; t < n; ++t) {
    TablePlan& tp = fplans[t];
    tp.table = stmt.tables[t].table;
    tp.alias = stmt.tables[t].alias;
    tp.from_index = t;
    tp.analyzed = snaps[t] != nullptr;
    tp.base_rows = snaps[t] ? static_cast<double>(snaps[t]->rows)
                            : CostParams::kDefaultRows;
    AccessPath& access = tp.access;
    if (auto probe = FindIndexProbeSpec(pushed[t], tp.alias, *infos[t])) {
      access.kind = AccessKind::kIndexProbe;
      access.column = probe->column;
      access.lo = probe->key;
    } else if (candidate_hook_ != nullptr && *candidate_hook_) {
      // Extension index (the cross-study spatial index): a candidate
      // key set restricts the table; the pushed conjuncts below remain
      // the exact re-check, so this never loses rows. Per-key probes
      // need a B+-tree on the key column, else the scan drops
      // non-candidate rows before the filter runs.
      if (auto cand = (*candidate_hook_)(tp.table, tp.alias, pushed[t])) {
        double population = std::max(cand->population, 1.0);
        double keys = static_cast<double>(cand->keys.size());
        if (keys < population) {
          access.kind = infos[t]->indexes.count(cand->column)
                            ? AccessKind::kCandidateProbe
                            : AccessKind::kCandidateScan;
          access.column = cand->column;
          access.keys = std::move(cand->keys);
          access.key_population = cand->population;
          access.touched_rows =
              tp.base_rows * std::min(1.0, keys / population);
          access.source = std::move(cand->source);
        }
      }
    }
    if (access.kind == AccessKind::kScan) {
      if (auto range = FindIndexRangeSpec(pushed[t], tp.alias, *infos[t])) {
        double touched = tp.base_rows * RangeSelectivity(*range, snaps[t].get());
        // One descent plus a partial leaf walk vs decoding every row:
        // narrow (or unanalyzed) ranges probe, wide ranges scan.
        if (CostParams::kIndexProbe + touched * CostParams::kRowDecode <
            tp.base_rows * CostParams::kRowDecode) {
          access.kind = AccessKind::kIndexRangeProbe;
          access.column = range->column;
          access.lo = range->lo;
          access.hi = range->hi;
          access.has_lo = range->has_lo;
          access.has_hi = range->has_hi;
          access.touched_rows = touched;
        }
      }
    }
    double sel_product = 1.0;
    for (const Expr* c : pushed[t]) {
      ConjunctEstimate est = EstimateConjunct(*c, snaps[t].get(), hook_);
      plan.extract_pref = std::max(plan.extract_pref, est.prefer_encoded);
      sel_product *= est.selectivity;
      tp.pushed.push_back(
          PlannedConjunct{CloneExpr(*c), est.selectivity, est.cost});
    }
    // Cheapest expected filtering first: ascending predicate rank,
    // stable so equal ranks keep the WHERE clause's textual order.
    std::stable_sort(tp.pushed.begin(), tp.pushed.end(),
                     [](const PlannedConjunct& a, const PlannedConjunct& b) {
                       return a.rank() < b.rank();
                     });
    tp.est_rows = tp.base_rows * sel_product;
    if (tp.est_rows < 0.0) tp.est_rows = 0.0;
    // The candidate set bounds the qualifying rows from above (its
    // conjuncts are already in sel_product, so take the min rather
    // than multiplying the restriction in twice).
    if (access.kind == AccessKind::kCandidateProbe ||
        access.kind == AccessKind::kCandidateScan) {
      tp.est_rows = std::min(tp.est_rows, access.touched_rows);
    }
  }

  // Classify residuals: referenced FROM set, equi-join selectivity.
  struct ResidualInfo {
    const Expr* expr;
    std::set<size_t> refs;    // FROM positions
    bool unresolved = false;  // evaluate on fully joined rows
    double selectivity = CostParams::kUnknownSel;
    double cost = CostParams::kCompare;
  };
  std::vector<ResidualInfo> rinfos;
  for (const Expr* expr : residual_exprs) {
    ResidualInfo info;
    info.expr = expr;
    CollectRefTables(*expr, scopes, &info.refs, &info.unresolved);
    info.cost = ExprCost(*expr, nullptr, hook_);
    if (expr->kind == Expr::Kind::kBinary &&
        expr->bin_op == Expr::BinOp::kEq &&
        expr->lhs->kind == Expr::Kind::kColumnRef &&
        expr->rhs->kind == Expr::Kind::kColumnRef && info.refs.size() == 2 &&
        !info.unresolved) {
      std::set<size_t> lrefs;
      bool lunres = false;
      CollectRefTables(*expr->lhs, scopes, &lrefs, &lunres);
      size_t lt = *lrefs.begin();
      size_t rt = *info.refs.begin() == lt ? *info.refs.rbegin()
                                           : *info.refs.begin();
      info.selectivity = EquiJoinSelectivity(*expr, snaps[lt].get(),
                                             snaps[rt].get());
    } else {
      ConjunctEstimate est = EstimateConjunct(*expr, nullptr, hook_);
      plan.extract_pref = std::max(plan.extract_pref, est.prefer_encoded);
      info.selectivity = est.selectivity;
    }
    rinfos.push_back(std::move(info));
  }

  // Extraction strategy also hinges on spatial calls in the output
  // expressions, not just the predicates.
  if (!stmt.star) {
    for (const SelectItem& item : stmt.items) {
      MergeStrategyFromExpr(*item.expr, hook_, scopes, snaps,
                            &plan.extract_pref);
    }
  }
  for (const ExprPtr& expr : stmt.group_by) {
    MergeStrategyFromExpr(*expr, hook_, scopes, snaps, &plan.extract_pref);
  }

  // Join order: greedy smallest-intermediate-cardinality. Only engages
  // when every table is analyzed — with no statistics the FROM order is
  // kept (and so is the interpreter's emission order).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (n > 1 && all_analyzed) {
    std::vector<size_t> chosen;
    std::vector<bool> used(n, false);
    double card = 1.0;
    while (chosen.size() < n) {
      size_t best = n;
      double best_card = 0.0;
      for (size_t f = 0; f < n; ++f) {
        if (used[f]) continue;
        double sel = 1.0;
        for (const ResidualInfo& r : rinfos) {
          if (r.unresolved || r.refs.empty()) continue;
          if (!r.refs.count(f)) continue;
          bool bound = true;
          for (size_t ref : r.refs) {
            if (ref != f && !used[ref]) bound = false;
          }
          if (bound) sel *= r.selectivity;
        }
        double cand = card * fplans[f].est_rows * sel;
        if (best == n || cand < best_card * 0.999) {
          best = f;
          best_card = cand;
        }
      }
      used[best] = true;
      chosen.push_back(best);
      card = best_card < 1.0 ? 1.0 : best_card;
    }
    order = std::move(chosen);
  }

  plan.tables.reserve(n);
  plan.from_to_plan.assign(n, 0);
  for (size_t d = 0; d < n; ++d) {
    plan.from_to_plan[order[d]] = d;
    plan.tables.push_back(std::move(fplans[order[d]]));
  }

  // Residual depths in the chosen order, then (depth, rank) sort.
  for (ResidualInfo& r : rinfos) {
    size_t depth = 0;
    if (r.unresolved || r.refs.empty()) {
      depth = r.unresolved && n > 0 ? n - 1 : 0;
    } else {
      for (size_t ref : r.refs) {
        depth = std::max(depth, plan.from_to_plan[ref]);
      }
    }
    plan.residuals.push_back(
        ResidualPlan{CloneExpr(*r.expr), r.selectivity, r.cost, depth});
  }
  std::stable_sort(plan.residuals.begin(), plan.residuals.end(),
                   [](const ResidualPlan& a, const ResidualPlan& b) {
                     if (a.depth != b.depth) return a.depth < b.depth;
                     return PredicateRank(a.selectivity, a.cost) <
                            PredicateRank(b.selectivity, b.cost);
                   });

  // Totals: scan cost per table, then nested-loop cost level by level.
  double cost = 0.0;
  for (const TablePlan& tp : plan.tables) {
    // A scan and a candidate scan both decode every row.
    double examined = tp.base_rows;
    switch (tp.access.kind) {
      case AccessKind::kIndexProbe:
        examined = std::max(1.0, tp.est_rows) + CostParams::kIndexProbe;
        break;
      case AccessKind::kIndexRangeProbe:
        examined = std::max(1.0, tp.access.touched_rows) +
                   CostParams::kIndexProbe;
        break;
      case AccessKind::kCandidateProbe:
        // One B+-tree descent per candidate key.
        examined = std::max(1.0, tp.access.touched_rows) +
                   CostParams::kIndexProbe *
                       std::max<double>(
                           1.0, static_cast<double>(tp.access.keys.size()));
        break;
      case AccessKind::kScan:
      case AccessKind::kCandidateScan:
        break;
    }
    cost += examined * CostParams::kRowDecode;
    double remaining = examined;
    for (const PlannedConjunct& pc : tp.pushed) {
      cost += remaining * pc.cost;
      remaining *= pc.selectivity;
    }
  }
  double card = 1.0;
  for (size_t d = 0; d < n; ++d) {
    card *= plan.tables[d].est_rows;
    for (const ResidualPlan& r : plan.residuals) {
      if (r.depth == d) {
        cost += std::max(card, 1.0) * r.cost;
        card *= r.selectivity;
      }
    }
  }
  plan.est_rows = n == 0 ? 1.0 : card;
  plan.est_cost = cost;
  return plan;
}

const char* AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kScan: return "scan";
    case AccessKind::kIndexProbe: return "index probe";
    case AccessKind::kIndexRangeProbe: return "index range probe";
    case AccessKind::kCandidateProbe: return "candidate probe";
    case AccessKind::kCandidateScan: return "candidate scan";
  }
  return "scan";
}

std::vector<std::string> SelectPlan::ExplainLines() const {
  std::vector<std::string> lines;
  lines.push_back("select: est_rows=" + Fmt(est_rows) +
                  " est_cost=" + Fmt(est_cost));
  for (const TablePlan& tp : tables) {
    std::ostringstream line;
    const AccessPath& access = tp.access;
    line << tp.table << " " << tp.alias << ": " << AccessKindName(access.kind);
    switch (access.kind) {
      case AccessKind::kScan:
        break;
      case AccessKind::kIndexProbe:
        line << " on " << access.column << " = " << access.lo;
        break;
      case AccessKind::kIndexRangeProbe:
        line << " on " << access.column << " in [";
        if (access.has_lo) line << access.lo;
        line << "..";
        if (access.has_hi) line << access.hi;
        line << "], est " << Fmt(access.touched_rows) << " touched";
        break;
      case AccessKind::kCandidateProbe:
      case AccessKind::kCandidateScan:
        line << " on " << access.column << " in " << access.keys.size()
             << " of " << Fmt(access.key_population) << " key(s) via "
             << access.source;
        break;
    }
    line << ", est " << Fmt(tp.est_rows) << " of " << Fmt(tp.base_rows)
         << " row(s)" << (tp.analyzed ? "" : " (no statistics)");
    lines.push_back(line.str());
    for (const PlannedConjunct& pc : tp.pushed) {
      lines.push_back("  filter " + ExprToString(*pc.expr) +
                      " sel=" + Fmt(pc.selectivity) + " cost=" + Fmt(pc.cost) +
                      " rank=" + Fmt(pc.rank()));
    }
  }
  if (tables.size() > 1) {
    std::string join = "join order:";
    for (size_t d = 0; d < tables.size(); ++d) {
      join += (d ? ", " : " ") + tables[d].alias;
    }
    lines.push_back(join);
  }
  for (const ResidualPlan& r : residuals) {
    lines.push_back("residual " + ExprToString(*r.expr) +
                    " depth=" + std::to_string(r.depth) +
                    " sel=" + Fmt(r.selectivity) + " cost=" + Fmt(r.cost));
  }
  if (extract_pref >= 0) {
    lines.push_back(std::string("extraction: ") +
                    (extract_pref == 1 ? "encoded-domain chain"
                                       : "decode-and-extract"));
  }
  return lines;
}

}  // namespace qbism::sql::planner
