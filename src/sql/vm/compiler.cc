#include "sql/vm/compiler.h"

#include <utility>

#include "common/macros.h"
#include "sql/eval.h"

namespace qbism::sql::vm {

namespace {

/// The spatial extension's pairwise set operation and its n-way
/// streaming counterpart: nested `intersection(intersection(a,b),c)`
/// chains compile into one `intersection_n(a,b,c)` call when the n-way
/// UDF is registered (both produce the canonical encoding, so the
/// rewrite is result-preserving).
constexpr const char* kIntersectionUdf = "intersection";
constexpr const char* kIntersectionNUdf = "intersection_n";

struct Scope {
  std::string alias;
  const TableSchema* schema = nullptr;
};

bool IsComparisonOp(Expr::BinOp op) {
  switch (op) {
    case Expr::BinOp::kEq:
    case Expr::BinOp::kNe:
    case Expr::BinOp::kLt:
    case Expr::BinOp::kLe:
    case Expr::BinOp::kGt:
    case Expr::BinOp::kGe:
      return true;
    default:
      return false;
  }
}

Expr::BinOp MirrorCmp(Expr::BinOp op) {
  switch (op) {
    case Expr::BinOp::kLt:
      return Expr::BinOp::kGt;
    case Expr::BinOp::kLe:
      return Expr::BinOp::kGe;
    case Expr::BinOp::kGt:
      return Expr::BinOp::kLt;
    case Expr::BinOp::kGe:
      return Expr::BinOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

std::string QualifiedName(const Expr& column_ref) {
  return column_ref.table.empty()
             ? column_ref.column
             : column_ref.table + "." + column_ref.column;
}

/// Collects the leaves of a nested 2-ary intersection chain in
/// left-to-right (interpreter evaluation) order.
void FlattenIntersectionChain(const Expr& expr,
                              std::vector<const Expr*>* leaves) {
  if (expr.kind == Expr::Kind::kFunctionCall &&
      expr.function == kIntersectionUdf && expr.args.size() == 2) {
    FlattenIntersectionChain(*expr.args[0], leaves);
    FlattenIntersectionChain(*expr.args[1], leaves);
    return;
  }
  leaves->push_back(&expr);
}

/// Emits one Program. Resolution failures compile to kError so they
/// surface per evaluated row, exactly like the interpreter.
class ProgramBuilder {
 public:
  /// `current` is the plan position whose rows run vectorized;
  /// `single_table` restricts resolution to that table only (scan
  /// filters and mutations evaluate against a one-table environment in
  /// the interpreter, so the compiled form must resolve identically).
  ProgramBuilder(const std::vector<Scope>& scopes, size_t current,
                 bool single_table, const UdfRegistry* udfs)
      : scopes_(scopes),
        current_(current),
        single_table_(single_table),
        udfs_(udfs) {}

  uint16_t CompileExpr(const Expr& expr);
  void CompileFilterConjunct(const Expr& expr);

  Program FinishValue(uint16_t result_reg) {
    prog_.result_reg = result_reg;
    return std::move(prog_);
  }
  Program FinishFilter() { return std::move(prog_); }

 private:
  struct ResolvedColumn {
    size_t table = 0;
    size_t column = 0;
  };

  uint16_t NewReg(bool uniform) {
    prog_.reg_uniform.push_back(uniform);
    return prog_.num_regs++;
  }

  uint16_t AddConst(Value v) {
    prog_.constants.push_back(std::move(v));
    return static_cast<uint16_t>(prog_.constants.size() - 1);
  }

  bool IsUniform(uint16_t reg) const { return prog_.reg_uniform[reg]; }

  void Emit(OpCode op, uint8_t u8, uint16_t dst, uint16_t a, uint16_t b) {
    prog_.code.push_back(Instr{op, u8, dst, a, b});
  }

  uint16_t EmitError(const Status& status) {
    uint16_t c = AddConst(Value::String(status.message()));
    uint16_t dst = NewReg(true);
    Emit(OpCode::kError, static_cast<uint8_t>(status.code()), dst, c, 0);
    return dst;
  }

  /// Same resolution the interpreter performs per row, done once.
  Result<ResolvedColumn> ResolveColumn(const Expr& expr) const {
    if (single_table_) {
      const Scope& s = scopes_[current_];
      if (expr.table.empty() || expr.table == s.alias) {
        auto idx = s.schema->ColumnIndex(expr.column);
        if (idx.ok()) return ResolvedColumn{current_, idx.value()};
      }
      return Status::NotFound("unknown column '" + QualifiedName(expr) + "'");
    }
    int found = -1;
    size_t col = 0;
    for (size_t t = 0; t < scopes_.size(); ++t) {
      if (!expr.table.empty() && scopes_[t].alias != expr.table) continue;
      auto idx = scopes_[t].schema->ColumnIndex(expr.column);
      if (!idx.ok()) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column '" + expr.column +
                                       "'");
      }
      found = static_cast<int>(t);
      col = idx.value();
    }
    if (found < 0) {
      return Status::NotFound("unknown column '" + QualifiedName(expr) + "'");
    }
    return ResolvedColumn{static_cast<size_t>(found), col};
  }

  uint16_t CompileColumnRef(const Expr& expr) {
    Result<ResolvedColumn> rc = ResolveColumn(expr);
    if (!rc.ok()) return EmitError(rc.status());
    if (rc.value().table == current_) {
      uint16_t dst = NewReg(false);
      Emit(OpCode::kLoadColumn, 0, dst,
           static_cast<uint16_t>(rc.value().column), 0);
      return dst;
    }
    uint16_t dst = NewReg(true);
    Emit(OpCode::kLoadPrefix, 0, dst, static_cast<uint16_t>(rc.value().column),
         static_cast<uint16_t>(rc.value().table));
    return dst;
  }

  uint16_t CompileCall(const Expr& expr);

  const std::vector<Scope>& scopes_;
  size_t current_;
  bool single_table_;
  const UdfRegistry* udfs_;
  Program prog_;
};

uint16_t ProgramBuilder::CompileCall(const Expr& expr) {
  // n-way lowering of pairwise intersection chains (3+ leaves).
  if (expr.kind == Expr::Kind::kFunctionCall &&
      expr.function == kIntersectionUdf && expr.args.size() == 2) {
    auto nway = udfs_->Lookup(kIntersectionNUdf);
    if (nway.ok()) {
      std::vector<const Expr*> leaves;
      FlattenIntersectionChain(expr, &leaves);
      if (leaves.size() > 2) {
        std::vector<uint16_t> arg_regs;
        bool uniform = true;
        for (const Expr* leaf : leaves) {
          uint16_t r = CompileExpr(*leaf);
          uniform = uniform && IsUniform(r);
          arg_regs.push_back(r);
        }
        prog_.functions.push_back(nway.value());
        prog_.function_names.push_back(kIntersectionNUdf);
        uint16_t fidx = static_cast<uint16_t>(prog_.functions.size() - 1);
        prog_.arg_lists.push_back(std::move(arg_regs));
        uint16_t aidx = static_cast<uint16_t>(prog_.arg_lists.size() - 1);
        uint16_t dst = NewReg(uniform);
        Emit(OpCode::kCall, 0, dst, aidx, fidx);
        return dst;
      }
    }
  }

  // The interpreter looks the function up before evaluating arguments,
  // so an unknown function wins over argument errors — skip compiling
  // the arguments entirely.
  auto fn = udfs_->Lookup(expr.function);
  if (!fn.ok()) return EmitError(fn.status());
  std::vector<uint16_t> arg_regs;
  bool uniform = true;
  for (const ExprPtr& arg : expr.args) {
    uint16_t r = CompileExpr(*arg);
    uniform = uniform && IsUniform(r);
    arg_regs.push_back(r);
  }
  prog_.functions.push_back(fn.value());
  prog_.function_names.push_back(expr.function);
  uint16_t fidx = static_cast<uint16_t>(prog_.functions.size() - 1);
  prog_.arg_lists.push_back(std::move(arg_regs));
  uint16_t aidx = static_cast<uint16_t>(prog_.arg_lists.size() - 1);
  uint16_t dst = NewReg(uniform);
  Emit(OpCode::kCall, 0, dst, aidx, fidx);
  return dst;
}

uint16_t ProgramBuilder::CompileExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral: {
      uint16_t dst = NewReg(true);
      Emit(OpCode::kLoadConst, 0, dst, AddConst(expr.literal), 0);
      return dst;
    }
    case Expr::Kind::kColumnRef:
      return CompileColumnRef(expr);
    case Expr::Kind::kFunctionCall:
      return CompileCall(expr);
    case Expr::Kind::kBinary: {
      if (expr.bin_op == Expr::BinOp::kAnd ||
          expr.bin_op == Expr::BinOp::kOr) {
        bool is_and = expr.bin_op == Expr::BinOp::kAnd;
        uint16_t lhs = CompileExpr(*expr.lhs);
        // Restrict to lanes the left side does not decide; the right
        // side never evaluates (and never errors) on decided lanes.
        Emit(OpCode::kMaskPush, is_and ? 1 : 0, 0, lhs, 0);
        uint16_t rhs = CompileExpr(*expr.rhs);
        uint16_t dst = NewReg(IsUniform(lhs) && IsUniform(rhs));
        Emit(OpCode::kMaskPop, is_and ? 0 : 1, dst, rhs, 0);
        return dst;
      }
      uint16_t lhs = CompileExpr(*expr.lhs);
      uint16_t rhs = CompileExpr(*expr.rhs);
      uint16_t dst = NewReg(IsUniform(lhs) && IsUniform(rhs));
      Emit(IsComparisonOp(expr.bin_op) ? OpCode::kCompare : OpCode::kBinary,
           static_cast<uint8_t>(expr.bin_op), dst, lhs, rhs);
      return dst;
    }
    case Expr::Kind::kUnary: {
      uint16_t operand = CompileExpr(*expr.operand);
      uint16_t dst = NewReg(IsUniform(operand));
      Emit(expr.un_op == Expr::UnOp::kNot ? OpCode::kNot : OpCode::kNeg, 0,
           dst, operand, 0);
      return dst;
    }
  }
  return EmitError(Status::Internal("unknown expression kind"));
}

void ProgramBuilder::CompileFilterConjunct(const Expr& expr) {
  // Fused path: cmp(current-table column, literal), either side.
  if (expr.kind == Expr::Kind::kBinary && IsComparisonOp(expr.bin_op)) {
    const Expr* column = nullptr;
    const Expr* literal = nullptr;
    Expr::BinOp op = expr.bin_op;
    if (expr.lhs->kind == Expr::Kind::kColumnRef &&
        expr.rhs->kind == Expr::Kind::kLiteral) {
      column = expr.lhs.get();
      literal = expr.rhs.get();
    } else if (expr.rhs->kind == Expr::Kind::kColumnRef &&
               expr.lhs->kind == Expr::Kind::kLiteral) {
      column = expr.rhs.get();
      literal = expr.lhs.get();
      op = MirrorCmp(op);
    }
    if (column) {
      Result<ResolvedColumn> rc = ResolveColumn(*column);
      if (rc.ok() && rc.value().table == current_) {
        Emit(OpCode::kFilterCmpColConst, static_cast<uint8_t>(op), 0,
             static_cast<uint16_t>(rc.value().column),
             AddConst(literal->literal));
        return;
      }
    }
  }
  uint16_t r = CompileExpr(expr);
  Emit(OpCode::kFilterTrue, 0, 0, r, 0);
}

/// Marks columns referenced by `expr` in the per-plan-table needed
/// sets. Unresolvable references mark nothing — the compiled kError
/// fires before any column would be read.
void MarkNeededColumns(const Expr& expr, const std::vector<Scope>& scopes,
                       std::vector<std::vector<char>>* needed) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kColumnRef: {
      int found = -1;
      size_t col = 0;
      for (size_t t = 0; t < scopes.size(); ++t) {
        if (!expr.table.empty() && scopes[t].alias != expr.table) continue;
        auto idx = scopes[t].schema->ColumnIndex(expr.column);
        if (!idx.ok()) continue;
        if (found >= 0) return;  // ambiguous: kError fires instead
        found = static_cast<int>(t);
        col = idx.value();
      }
      if (found >= 0) (*needed)[static_cast<size_t>(found)][col] = 1;
      return;
    }
    case Expr::Kind::kFunctionCall:
      for (const ExprPtr& arg : expr.args) {
        MarkNeededColumns(*arg, scopes, needed);
      }
      return;
    case Expr::Kind::kBinary:
      MarkNeededColumns(*expr.lhs, scopes, needed);
      MarkNeededColumns(*expr.rhs, scopes, needed);
      return;
    case Expr::Kind::kUnary:
      MarkNeededColumns(*expr.operand, scopes, needed);
      return;
  }
}

}  // namespace

Result<CompiledSelect> Compiler::CompileSelect(const SelectStmt& stmt,
                                               planner::SelectPlan plan) {
  CompiledSelect cs;
  cs.num_tables = plan.tables.size();
  cs.star = stmt.star;
  cs.order_by = stmt.order_by;
  cs.limit = stmt.limit;

  // Plan-order scopes (compile-time column resolution) and FROM-order
  // scopes (output headers).
  std::vector<Scope> scopes(cs.num_tables);
  std::vector<std::pair<std::string, const TableSchema*>> from_scopes(
      cs.num_tables);
  for (size_t d = 0; d < cs.num_tables; ++d) {
    const planner::TablePlan& tp = plan.tables[d];
    QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(tp.table));
    scopes[d] = Scope{tp.alias, &info->schema};
    from_scopes[tp.from_index] = {tp.alias, &info->schema};
  }
  cs.columns = BuildSelectColumns(stmt, from_scopes);
  QBISM_ASSIGN_OR_RETURN(cs.has_aggregates, DetectAggregates(stmt));

  // Scan filters: one fused program per plan table over its pushed
  // conjuncts, in the optimizer's rank order. The interpreter evaluates
  // pushed predicates in a one-table environment, so resolution is
  // restricted the same way.
  for (size_t d = 0; d < cs.num_tables; ++d) {
    ProgramBuilder b(scopes, d, /*single_table=*/true, udfs_);
    for (const planner::PlannedConjunct& pc : plan.tables[d].pushed) {
      b.CompileFilterConjunct(*pc.expr);
    }
    cs.scan_filters.push_back(b.FinishFilter());
  }

  // Residual filters grouped by join depth (plan.residuals is already
  // (depth, rank)-sorted).
  for (size_t d = 0; d < cs.num_tables; ++d) {
    ProgramBuilder b(scopes, d, /*single_table=*/false, udfs_);
    for (const planner::ResidualPlan& r : plan.residuals) {
      if (r.depth == d) b.CompileFilterConjunct(*r.expr);
    }
    cs.residual_filters.push_back(b.FinishFilter());
  }

  // Output programs run at the innermost depth.
  const size_t last = cs.num_tables == 0 ? 0 : cs.num_tables - 1;
  if (!stmt.star) {
    for (const SelectItem& item : stmt.items) {
      bool agg = IsAggregateCall(*item.expr);
      cs.item_is_agg.push_back(agg ? 1 : 0);
      if (agg) {
        cs.item_agg_fn.push_back(item.expr->function);
        bool count_star = item.expr->args.empty();
        cs.item_is_count_star.push_back(count_star ? 1 : 0);
        if (count_star) {
          cs.item_programs.emplace_back();
        } else {
          ProgramBuilder b(scopes, last, /*single_table=*/false, udfs_);
          uint16_t r = b.CompileExpr(*item.expr->args[0]);
          cs.item_programs.push_back(b.FinishValue(r));
        }
      } else {
        cs.item_agg_fn.emplace_back();
        cs.item_is_count_star.push_back(0);
        ProgramBuilder b(scopes, last, /*single_table=*/false, udfs_);
        uint16_t r = b.CompileExpr(*item.expr);
        cs.item_programs.push_back(b.FinishValue(r));
      }
    }
  }
  for (const ExprPtr& expr : stmt.group_by) {
    ProgramBuilder b(scopes, last, /*single_table=*/false, udfs_);
    uint16_t r = b.CompileExpr(*expr);
    cs.group_programs.push_back(b.FinishValue(r));
  }

  // Late materialization: which columns each plan table must decode.
  cs.needed_columns.resize(cs.num_tables);
  for (size_t d = 0; d < cs.num_tables; ++d) {
    cs.needed_columns[d].assign(scopes[d].schema->NumColumns(),
                                stmt.star ? 1 : 0);
  }
  if (!stmt.star) {
    for (const SelectItem& item : stmt.items) {
      MarkNeededColumns(*item.expr, scopes, &cs.needed_columns);
    }
    for (const ExprPtr& expr : stmt.group_by) {
      MarkNeededColumns(*expr, scopes, &cs.needed_columns);
    }
    for (const planner::TablePlan& tp : plan.tables) {
      for (const planner::PlannedConjunct& pc : tp.pushed) {
        MarkNeededColumns(*pc.expr, scopes, &cs.needed_columns);
      }
    }
    for (const planner::ResidualPlan& r : plan.residuals) {
      MarkNeededColumns(*r.expr, scopes, &cs.needed_columns);
    }
    // The candidate scan's membership pre-filter reads the key column
    // even when no compiled predicate references it directly.
    for (size_t d = 0; d < cs.num_tables; ++d) {
      const planner::AccessPath& access = plan.tables[d].access;
      if (access.kind != planner::AccessKind::kCandidateScan) continue;
      auto idx = scopes[d].schema->ColumnIndex(access.column);
      if (idx.ok()) cs.needed_columns[d][idx.value()] = 1;
    }
  }

  cs.plan = std::move(plan);
  return cs;
}

Result<CompiledMutation> Compiler::CompileUpdate(const UpdateStmt& stmt) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(stmt.table));
  CompiledMutation m;
  m.table = stmt.table;
  m.is_update = true;
  // Targets resolve up front, like the interpreter.
  for (const auto& [column, expr] : stmt.assignments) {
    (void)expr;
    QBISM_ASSIGN_OR_RETURN(size_t index, info->schema.ColumnIndex(column));
    m.target_columns.push_back(index);
  }
  std::vector<Scope> scopes{Scope{stmt.table, &info->schema}};
  if (stmt.where) {
    // The interpreter evaluates the WHERE clause as one expression per
    // row (no conjunct reordering on the mutation path).
    ProgramBuilder b(scopes, 0, /*single_table=*/true, udfs_);
    b.CompileFilterConjunct(*stmt.where);
    m.filter = b.FinishFilter();
  }
  for (const auto& [column, expr] : stmt.assignments) {
    (void)column;
    ProgramBuilder b(scopes, 0, /*single_table=*/true, udfs_);
    uint16_t r = b.CompileExpr(*expr);
    m.assignments.push_back(b.FinishValue(r));
  }
  // UPDATE rewrites whole rows: every column materializes.
  m.needed_columns.assign(info->schema.NumColumns(), 1);
  return m;
}

Result<CompiledMutation> Compiler::CompileDelete(const DeleteStmt& stmt) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(stmt.table));
  CompiledMutation m;
  m.table = stmt.table;
  m.is_update = false;
  std::vector<Scope> scopes{Scope{stmt.table, &info->schema}};
  if (stmt.where) {
    ProgramBuilder b(scopes, 0, /*single_table=*/true, udfs_);
    b.CompileFilterConjunct(*stmt.where);
    m.filter = b.FinishFilter();
  }
  m.needed_columns.assign(info->schema.NumColumns(), 0);
  if (stmt.where) {
    std::vector<std::vector<char>> needed{m.needed_columns};
    MarkNeededColumns(*stmt.where, scopes, &needed);
    m.needed_columns = std::move(needed[0]);
  }
  // Catalog::DeleteRow removes each victim's index entries by key.
  for (const auto& [column, index] : info->indexes) {
    (void)index;
    QBISM_ASSIGN_OR_RETURN(size_t column_index,
                           info->schema.ColumnIndex(column));
    m.needed_columns[column_index] = 1;
  }
  return m;
}

Result<CompiledInsert> Compiler::CompileInsert(const InsertStmt& stmt) {
  // An unknown table fails before any value is evaluated.
  QBISM_RETURN_NOT_OK(catalog_->GetTable(stmt.table).status());
  CompiledInsert ci;
  ci.table = stmt.table;
  const std::vector<Scope> no_scopes;
  for (const std::vector<ExprPtr>& row : stmt.rows) {
    std::vector<Program>& values = ci.rows.emplace_back();
    for (const ExprPtr& expr : row) {
      ProgramBuilder b(no_scopes, 0, /*single_table=*/false, udfs_);
      uint16_t r = b.CompileExpr(*expr);
      values.push_back(b.FinishValue(r));
    }
  }
  return ci;
}

}  // namespace qbism::sql::vm
