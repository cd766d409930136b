#include "support/tree_walker.h"

#include <map>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "sql/eval.h"
#include "sql/parser.h"

namespace qbism::sql {

Result<ResultSet> TreeWalker::Execute(const std::string& sql) {
  QBISM_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  context_ = UdfContext{};
  context_.lfm = db_->lfm();
  context_.extension_state = db_->extension_state();
  if (const auto* select = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(*select);
  }
  if (const auto* insert = std::get_if<InsertStmt>(&statement)) {
    return ExecuteInsert(*insert);
  }
  if (const auto* del = std::get_if<DeleteStmt>(&statement)) {
    return ExecuteDelete(*del);
  }
  if (const auto* update = std::get_if<UpdateStmt>(&statement)) {
    return ExecuteUpdate(*update);
  }
  return db_->Execute(sql);
}

Result<ResultSet> TreeWalker::ExecuteUpdate(const UpdateStmt& stmt) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  // Resolve assignment targets up front; fold expressions once instead
  // of re-walking constant subtrees per row.
  std::vector<size_t> target_columns;
  std::vector<ExprPtr> folded_assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    QBISM_ASSIGN_OR_RETURN(size_t index, table->schema.ColumnIndex(column));
    target_columns.push_back(index);
    folded_assignments.push_back(FoldConstants(*expr));
  }
  ExprPtr folded_where = stmt.where ? FoldConstants(*stmt.where) : nullptr;
  // Phase 1: collect matching rows with their new images (assignment
  // expressions see the pre-update values).
  std::vector<BoundTable> env(1);
  env[0].alias = stmt.table;
  env[0].schema = &table->schema;
  env[0].rows.resize(1);
  std::vector<size_t> cursor{0};
  std::vector<std::pair<storage::RecordId, Row>> updates;
  std::vector<Row> old_images;  // carry the keys DeleteRow removes
  Status scan_status = Status::OK();
  QBISM_RETURN_NOT_OK(table->file->Scan(
      [&](const storage::RecordId& rid, const std::vector<uint8_t>& bytes) {
        auto row = DeserializeRow(table->schema, bytes);
        if (!row.ok()) {
          scan_status = row.status();
          return false;
        }
        env[0].rows[0] = std::move(row).MoveValue();
        bool matches = true;
        if (folded_where) {
          auto value = Eval(*folded_where, env, cursor);
          if (value.ok()) {
            auto truth = ValueIsTrue(value.value());
            if (truth.ok()) {
              matches = truth.value();
            } else {
              scan_status = truth.status();
            }
          } else {
            scan_status = value.status();
          }
          if (!scan_status.ok()) return false;
        }
        if (!matches) return true;
        Row updated = env[0].rows[0];
        for (size_t i = 0; i < folded_assignments.size(); ++i) {
          auto value = Eval(*folded_assignments[i], env, cursor);
          if (!value.ok()) {
            scan_status = value.status();
            return false;
          }
          updated[target_columns[i]] = std::move(value).MoveValue();
        }
        old_images.push_back(std::move(env[0].rows[0]));
        updates.emplace_back(rid, std::move(updated));
        return true;
      }));
  QBISM_RETURN_NOT_OK(scan_status);
  // Validate every new image before touching anything, so a type error
  // cannot leave the table partially updated.
  for (const auto& [rid, row] : updates) {
    (void)rid;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!ValueMatchesType(row[i], table->schema.columns()[i].type)) {
        return Status::InvalidArgument(
            "UPDATE: value " + row[i].ToString() +
            " does not match column '" + table->schema.columns()[i].name +
            "'");
      }
    }
  }
  // Phase 2: delete the old image, append the new one (both maintain
  // every index).
  ResultSet result;
  for (size_t i = 0; i < updates.size(); ++i) {
    auto& [rid, row] = updates[i];
    QBISM_RETURN_NOT_OK(catalog_->DeleteRow(table, rid, old_images[i]));
    QBISM_ASSIGN_OR_RETURN(storage::RecordId new_rid,
                           catalog_->InsertRow(table, row));
    (void)new_rid;
    ++result.rows_affected;
  }
  return result;
}

Result<ResultSet> TreeWalker::ExecuteDelete(const DeleteStmt& stmt) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  // Evaluate the predicate per row against a single-table environment,
  // collect the matching records, then delete them and their index
  // entries.
  ExprPtr folded_where = stmt.where ? FoldConstants(*stmt.where) : nullptr;
  std::vector<BoundTable> env(1);
  env[0].alias = stmt.table;
  env[0].schema = &table->schema;
  env[0].rows.resize(1);
  std::vector<size_t> cursor{0};
  std::vector<std::pair<storage::RecordId, Row>> victims;
  Status scan_status = Status::OK();
  QBISM_RETURN_NOT_OK(table->file->Scan(
      [&](const storage::RecordId& rid, const std::vector<uint8_t>& bytes) {
        auto row = DeserializeRow(table->schema, bytes);
        if (!row.ok()) {
          scan_status = row.status();
          return false;
        }
        env[0].rows[0] = std::move(row).MoveValue();
        bool matches = true;
        if (folded_where) {
          auto value = Eval(*folded_where, env, cursor);
          if (!value.ok()) {
            scan_status = value.status();
            return false;
          }
          auto truth = ValueIsTrue(value.value());
          if (!truth.ok()) {
            scan_status = truth.status();
            return false;
          }
          matches = truth.value();
        }
        if (matches) victims.emplace_back(rid, std::move(env[0].rows[0]));
        return true;
      }));
  QBISM_RETURN_NOT_OK(scan_status);
  ResultSet result;
  for (const auto& [rid, row] : victims) {
    QBISM_RETURN_NOT_OK(catalog_->DeleteRow(table, rid, row));
    ++result.rows_affected;
  }
  return result;
}

Result<ResultSet> TreeWalker::ExecuteInsert(const InsertStmt& stmt) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  ResultSet result;
  std::vector<BoundTable> no_tables;
  std::vector<size_t> no_cursor;
  for (const auto& row_exprs : stmt.rows) {
    Row row;
    row.reserve(row_exprs.size());
    for (const ExprPtr& expr : row_exprs) {
      QBISM_ASSIGN_OR_RETURN(Value v, Eval(*expr, no_tables, no_cursor));
      row.push_back(std::move(v));
    }
    QBISM_ASSIGN_OR_RETURN(storage::RecordId rid,
                           catalog_->InsertRow(table, row));
    (void)rid;
    ++result.rows_affected;
  }
  return result;
}

Result<ResultSet> TreeWalker::ExecuteSelect(const SelectStmt& stmt) {
  // Bind the FROM tables (schemas first, so single-table predicates can
  // be pushed into the scans below).
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

  // Classify WHERE conjuncts: single-table ones filter during the scan
  // (classic predicate pushdown); the rest run in the join loop. The
  // conjuncts are folded once up front, so `id = 2+3` both evaluates
  // cheaply and is recognized by the index-probe matcher below.
  ExprPtr folded_where = stmt.where ? FoldConstants(*stmt.where) : nullptr;
  std::vector<const Expr*> conjuncts;
  if (folded_where) CollectConjuncts(folded_where.get(), &conjuncts);
  std::vector<std::vector<const Expr*>> pushed(stmt.tables.size());
  std::vector<const Expr*> join_conjuncts;
  for (const Expr* conjunct : conjuncts) {
    int scope = SingleTableScope(*conjunct, scopes);
    if (scope >= 0) {
      pushed[static_cast<size_t>(scope)].push_back(conjunct);
    } else {
      join_conjuncts.push_back(conjunct);
    }
  }

  ResultSet result;

  // Materialize, applying pushed predicates row by row.
  std::vector<BoundTable> tables;
  tables.reserve(stmt.tables.size());
  for (size_t t = 0; t < stmt.tables.size(); ++t) {
    BoundTable bound;
    bound.alias = scopes[t].first;
    bound.schema = scopes[t].second;
    std::vector<BoundTable> env(1);
    env[0].alias = bound.alias;
    env[0].schema = bound.schema;
    env[0].rows.resize(1);
    std::vector<size_t> cursor{0};
    // A row passes when every pushed predicate for this table holds.
    auto row_passes = [&](Row row) -> Result<bool> {
      env[0].rows[0] = std::move(row);
      for (const Expr* predicate : pushed[t]) {
        QBISM_ASSIGN_OR_RETURN(Value value, Eval(*predicate, env, cursor));
        QBISM_ASSIGN_OR_RETURN(bool truth, ValueIsTrue(value));
        if (!truth) return false;
      }
      return true;
    };

    std::optional<IndexProbeSpec> probe =
        FindIndexProbeSpec(pushed[t], bound.alias, *infos[t]);
    if (probe.has_value()) {
      // Index access path: fetch only the matching rids.
      const storage::BPlusTree* index =
          infos[t]->indexes.find(probe->column)->second.get();
      QBISM_ASSIGN_OR_RETURN(std::vector<storage::RecordId> rids,
                             index->Find(probe->key));
      for (const storage::RecordId& rid : rids) {
        auto bytes = infos[t]->file->Read(rid);
        if (bytes.status().IsNotFound()) continue;  // deleted: stale entry
        QBISM_RETURN_NOT_OK(bytes.status());
        QBISM_ASSIGN_OR_RETURN(Row row,
                               DeserializeRow(*bound.schema, bytes.value()));
        QBISM_ASSIGN_OR_RETURN(bool keep, row_passes(std::move(row)));
        if (keep) bound.rows.push_back(std::move(env[0].rows[0]));
      }
    } else {
      Status scan_status = Status::OK();
      QBISM_RETURN_NOT_OK(infos[t]->file->Scan(
          [&](const storage::RecordId&, const std::vector<uint8_t>& bytes) {
            auto row = DeserializeRow(*bound.schema, bytes);
            if (!row.ok()) {
              scan_status = row.status();
              return false;
            }
            auto keep = row_passes(std::move(row).MoveValue());
            if (!keep.ok()) {
              scan_status = keep.status();
              return false;
            }
            if (keep.value()) bound.rows.push_back(std::move(env[0].rows[0]));
            return true;
          }));
      QBISM_RETURN_NOT_OK(scan_status);
    }
    tables.push_back(std::move(bound));
  }
  result.columns = BuildSelectColumns(stmt, scopes);

  // Aggregation setup. Restricted but practical form: with GROUP BY or
  // any aggregate present, every select item must be either a top-level
  // aggregate call -- count(*)/count(e)/sum(e)/avg(e)/min(e)/max(e) --
  // or a plain (grouping) expression, whose value is taken from the
  // first row of each group.
  QBISM_ASSIGN_OR_RETURN(bool has_aggregates, DetectAggregates(stmt));

  struct Group {
    Row first_values;               // non-aggregate item values, first row
    std::vector<AggState> states;   // one per select item (unused slots idle)
  };
  std::vector<std::string> group_order;
  std::map<std::string, Group> groups;

  // Processes one joined row: plain projection or group accumulation.
  std::vector<size_t> cursor(tables.size(), 0);
  auto process_row = [&]() -> Status {
    if (!has_aggregates) {
      Row out_row;
      if (stmt.star) {
        for (size_t t = 0; t < tables.size(); ++t) {
          const Row& row = tables[t].rows[cursor[t]];
          out_row.insert(out_row.end(), row.begin(), row.end());
        }
      } else {
        for (const SelectItem& item : stmt.items) {
          QBISM_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, tables, cursor));
          out_row.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out_row));
      return Status::OK();
    }
    // Group key from the GROUP BY expressions.
    std::string key;
    for (const ExprPtr& expr : stmt.group_by) {
      QBISM_ASSIGN_OR_RETURN(Value v, Eval(*expr, tables, cursor));
      key += v.ToString();
      key += '\x1f';
    }
    auto [it, inserted] = groups.try_emplace(key);
    Group& group = it->second;
    if (inserted) {
      group_order.push_back(key);
      group.states.resize(stmt.items.size());
      group.first_values.resize(stmt.items.size());
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!IsAggregateCall(*stmt.items[i].expr)) {
          QBISM_ASSIGN_OR_RETURN(group.first_values[i],
                                 Eval(*stmt.items[i].expr, tables, cursor));
        }
      }
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const Expr& expr = *stmt.items[i].expr;
      if (!IsAggregateCall(expr)) continue;
      Value argument;  // null for count(*)
      if (!expr.args.empty()) {
        QBISM_ASSIGN_OR_RETURN(argument, Eval(*expr.args[0], tables, cursor));
      }
      QBISM_RETURN_NOT_OK(
          group.states[i].Update(expr.function, argument,
                                 /*is_count_star=*/expr.args.empty()));
    }
    return Status::OK();
  };

  // Nested-loop join over all FROM tables.
  bool exhausted = false;
  for (const BoundTable& t : tables) {
    if (t.rows.empty()) exhausted = true;
  }
  bool single_pass_no_tables = tables.empty();
  while (!exhausted) {
    bool keep = true;
    for (const Expr* predicate : join_conjuncts) {
      QBISM_ASSIGN_OR_RETURN(Value cond, Eval(*predicate, tables, cursor));
      QBISM_ASSIGN_OR_RETURN(keep, ValueIsTrue(cond));
      if (!keep) break;
    }
    if (keep) QBISM_RETURN_NOT_OK(process_row());
    if (single_pass_no_tables) break;
    // Advance the odometer.
    size_t t = tables.size();
    while (t > 0) {
      --t;
      if (++cursor[t] < tables[t].rows.size()) break;
      cursor[t] = 0;
      if (t == 0) exhausted = true;
    }
    if (exhausted) break;
  }

  if (has_aggregates) {
    // One output row per group, in first-seen order. With no GROUP BY
    // and no input rows, aggregates still produce one row (count = 0).
    if (groups.empty() && stmt.group_by.empty()) {
      Row out_row;
      for (const SelectItem& item : stmt.items) {
        if (IsAggregateCall(*item.expr)) {
          out_row.push_back(AggState{}.Finalize(item.expr->function,
                                                 item.expr->args.empty()));
        } else {
          out_row.push_back(Value::Null());
        }
      }
      result.rows.push_back(std::move(out_row));
    }
    for (const std::string& key : group_order) {
      Group& group = groups[key];
      Row out_row;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (IsAggregateCall(*stmt.items[i].expr)) {
          out_row.push_back(group.states[i].Finalize(
              stmt.items[i].expr->function, stmt.items[i].expr->args.empty()));
        } else {
          out_row.push_back(std::move(group.first_values[i]));
        }
      }
      result.rows.push_back(std::move(out_row));
    }
  }

  QBISM_RETURN_NOT_OK(ApplyOrderByAndLimit(stmt, result.columns,
                                           &result.rows));
  return result;
}

Result<Value> TreeWalker::Eval(const Expr& expr,
                               const std::vector<BoundTable>& tables,
                               const std::vector<size_t>& cursor) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef: {
      int found_table = -1;
      size_t found_col = 0;
      for (size_t t = 0; t < tables.size(); ++t) {
        if (!expr.table.empty() && tables[t].alias != expr.table) continue;
        auto idx = tables[t].schema->ColumnIndex(expr.column);
        if (!idx.ok()) continue;
        if (found_table >= 0) {
          return Status::InvalidArgument("ambiguous column '" + expr.column +
                                         "'");
        }
        found_table = static_cast<int>(t);
        found_col = idx.value();
      }
      if (found_table < 0) {
        return Status::NotFound("unknown column '" +
                                (expr.table.empty() ? expr.column
                                                    : expr.table + "." +
                                                          expr.column) +
                                "'");
      }
      return tables[found_table].rows[cursor[found_table]][found_col];
    }
    case Expr::Kind::kFunctionCall: {
      QBISM_ASSIGN_OR_RETURN(const UdfFunction* fn,
                             udfs_->Lookup(expr.function));
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        QBISM_ASSIGN_OR_RETURN(Value v, Eval(*arg, tables, cursor));
        args.push_back(std::move(v));
      }
      return (*fn)(context_, args);
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, tables, cursor);
    case Expr::Kind::kUnary: {
      QBISM_ASSIGN_OR_RETURN(Value v, Eval(*expr.operand, tables, cursor));
      if (expr.un_op == Expr::UnOp::kNot) return EvalNotOp(v);
      return EvalNegateOp(v);
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Value> TreeWalker::EvalBinary(const Expr& expr,
                                     const std::vector<BoundTable>& tables,
                                     const std::vector<size_t>& cursor) {
  using BinOp = Expr::BinOp;
  // Short-circuit logical operators.
  if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
    QBISM_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, tables, cursor));
    QBISM_ASSIGN_OR_RETURN(bool left, ValueIsTrue(lhs));
    if (expr.bin_op == BinOp::kAnd && !left) return Value::Int(0);
    if (expr.bin_op == BinOp::kOr && left) return Value::Int(1);
    QBISM_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, tables, cursor));
    QBISM_ASSIGN_OR_RETURN(bool right, ValueIsTrue(rhs));
    return Value::Int(right ? 1 : 0);
  }

  QBISM_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, tables, cursor));
  QBISM_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, tables, cursor));
  switch (expr.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return EvalCompareOp(expr.bin_op, lhs, rhs);
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
      return EvalArithmeticOp(expr.bin_op, lhs, rhs);
    default:
      return Status::Internal("unhandled binary operator");
  }
}

}  // namespace qbism::sql
