#include "sql/vm/vm.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/macros.h"
#include "sql/eval.h"

namespace qbism::sql::vm {

namespace {

bool TruthOfCompare(Expr::BinOp op, int cmp) {
  switch (op) {
    case Expr::BinOp::kEq:
      return cmp == 0;
    case Expr::BinOp::kNe:
      return cmp != 0;
    case Expr::BinOp::kLt:
      return cmp < 0;
    case Expr::BinOp::kLe:
      return cmp <= 0;
    case Expr::BinOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

/// The VM's one batched heap scan (full scan, candidate scan, UPDATE
/// and DELETE): decodes each live record's `needed` columns into
/// `batch[lane]`, keeps the row when `keep(lane, rid)` says so, and
/// hands every kBatchRows kept rows, then the remainder, to
/// `flush(count)`. Both callbacks inline; ScanBatched's own callback
/// runs once per page.
template <typename Keep, typename Flush>
Status ScanHeapBatched(TableInfo* info, const std::vector<char>& needed,
                       std::vector<Row>& batch, Keep keep, Flush flush) {
  size_t filled = 0;
  Status status = Status::OK();
  QBISM_RETURN_NOT_OK(info->file->ScanBatched(
      [&](const std::vector<uint8_t>& bytes,
          const std::vector<storage::HeapFile::RecordRef>& records) {
        for (const storage::HeapFile::RecordRef& rec : records) {
          status = DeserializeRowProjected(info->schema, bytes, rec.offset,
                                           rec.length, needed, &batch[filled]);
          if (!status.ok()) return false;
          if (!keep(filled, rec.rid) || ++filled < kBatchRows) continue;
          status = flush(filled);
          filled = 0;
          if (!status.ok()) return false;
        }
        return true;
      }));
  QBISM_RETURN_NOT_OK(status);
  return filled == 0 ? Status::OK() : flush(filled);
}

}  // namespace

struct BatchVM::Level {
  std::vector<Row> rows;
  /// Batch scratch, sized kBatchRows once per query (the inner join
  /// loops re-slice these instead of allocating).
  std::vector<const Row*> lanes;
  std::vector<uint16_t> sel;
};

struct BatchVM::OutputState {
  ResultSet* result = nullptr;
  struct Group {
    Row first_values;
    std::vector<AggState> states;
  };
  std::vector<std::string> group_order;
  std::map<std::string, Group> groups;
  // Per-batch scratch.
  std::vector<uint16_t> sel_scratch;
  std::vector<std::string> keys;
  std::vector<std::vector<Value>> agg_args;
};

Status BatchVM::RunProgram(const Program& prog, const Row* const* lanes,
                           const Row* const* prefix, uint16_t* sel,
                           size_t* sel_size) {
  if (prog.code.empty()) return Status::OK();
  if (regs_.size() < prog.num_regs) regs_.resize(prog.num_regs);
  for (uint16_t r = 0; r < prog.num_regs; ++r) {
    size_t want = prog.reg_uniform[r] ? 1 : kBatchRows;
    if (regs_[r].size() < want) regs_[r].resize(want);
  }
  arena_.Reset();
  mask_stack_.clear();

  // Register access: uniform registers hold one value per batch.
  auto reg_at = [&](uint16_t r, uint16_t lane) -> Value& {
    return prog.reg_uniform[r] ? regs_[r][0] : regs_[r][lane];
  };

  for (const Instr& in : prog.code) {
    const size_t n = *sel_size;
    // Every instruction is a no-op over an empty selection; only the
    // mask ops still run, to keep the push/pop stack balanced.
    if (n == 0 && in.op != OpCode::kMaskPush && in.op != OpCode::kMaskPop) {
      continue;
    }
    switch (in.op) {
      case OpCode::kLoadConst:
        reg_at(in.dst, 0) = prog.constants[in.a];
        break;
      case OpCode::kLoadColumn:
        for (size_t i = 0; i < n; ++i) {
          uint16_t lane = sel[i];
          regs_[in.dst][lane] = (*lanes[lane])[in.a];
        }
        break;
      case OpCode::kLoadPrefix:
        reg_at(in.dst, 0) = (*prefix[in.b])[in.a];
        break;
      case OpCode::kBinary:
      case OpCode::kCompare: {
        auto op = static_cast<Expr::BinOp>(in.u8);
        bool cmp = in.op == OpCode::kCompare;
        if (prog.reg_uniform[in.dst]) {
          uint16_t lane = sel[0];
          QBISM_ASSIGN_OR_RETURN(
              Value v, cmp ? EvalCompareOp(op, reg_at(in.a, lane),
                                           reg_at(in.b, lane))
                           : EvalArithmeticOp(op, reg_at(in.a, lane),
                                              reg_at(in.b, lane)));
          regs_[in.dst][0] = std::move(v);
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          uint16_t lane = sel[i];
          QBISM_ASSIGN_OR_RETURN(
              Value v, cmp ? EvalCompareOp(op, reg_at(in.a, lane),
                                           reg_at(in.b, lane))
                           : EvalArithmeticOp(op, reg_at(in.a, lane),
                                              reg_at(in.b, lane)));
          regs_[in.dst][lane] = std::move(v);
        }
        break;
      }
      case OpCode::kNot:
      case OpCode::kNeg: {
        bool is_not = in.op == OpCode::kNot;
        size_t count = prog.reg_uniform[in.dst] ? 1 : n;
        for (size_t i = 0; i < count; ++i) {
          uint16_t lane = sel[i];
          QBISM_ASSIGN_OR_RETURN(Value v,
                                 is_not ? EvalNotOp(reg_at(in.a, lane))
                                        : EvalNegateOp(reg_at(in.a, lane)));
          reg_at(in.dst, lane) = std::move(v);
        }
        break;
      }
      case OpCode::kCall: {
        const std::vector<uint16_t>& arg_regs = prog.arg_lists[in.a];
        const UdfFunction& fn = *prog.functions[in.b];
        std::vector<Value> args(arg_regs.size());
        // Loop-invariant hoisting: all-uniform arguments mean one call
        // per batch instead of one per row.
        size_t count = prog.reg_uniform[in.dst] ? 1 : n;
        for (size_t i = 0; i < count; ++i) {
          uint16_t lane = sel[i];
          for (size_t a = 0; a < arg_regs.size(); ++a) {
            args[a] = reg_at(arg_regs[a], lane);
          }
          QBISM_ASSIGN_OR_RETURN(Value v, fn(context_, args));
          reg_at(in.dst, lane) = std::move(v);
        }
        break;
      }
      case OpCode::kFilterTrue: {
        size_t m = 0;
        for (size_t i = 0; i < n; ++i) {
          uint16_t lane = sel[i];
          QBISM_ASSIGN_OR_RETURN(bool truth, ValueIsTrue(reg_at(in.a, lane)));
          if (truth) sel[m++] = lane;
        }
        *sel_size = m;
        break;
      }
      case OpCode::kFilterCmpColConst: {
        auto op = static_cast<Expr::BinOp>(in.u8);
        const Value& constant = prog.constants[in.b];
        size_t m = 0;
        if (constant.kind() == Value::Kind::kInt) {
          // Int/int fast path; anything else falls back to the shared
          // comparison semantics so errors/coercions stay identical.
          int64_t key = constant.AsInt().value();
          for (size_t i = 0; i < n; ++i) {
            uint16_t lane = sel[i];
            const Value& v = (*lanes[lane])[in.a];
            if (v.kind() == Value::Kind::kInt) {
              int64_t x = v.AsInt().value();
              int cmp = x < key ? -1 : (x > key ? 1 : 0);
              if (TruthOfCompare(op, cmp)) sel[m++] = lane;
              continue;
            }
            QBISM_ASSIGN_OR_RETURN(Value cv, EvalCompareOp(op, v, constant));
            QBISM_ASSIGN_OR_RETURN(bool truth, ValueIsTrue(cv));
            if (truth) sel[m++] = lane;
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            uint16_t lane = sel[i];
            QBISM_ASSIGN_OR_RETURN(
                Value cv, EvalCompareOp(op, (*lanes[lane])[in.a], constant));
            QBISM_ASSIGN_OR_RETURN(bool truth, ValueIsTrue(cv));
            if (truth) sel[m++] = lane;
          }
        }
        *sel_size = m;
        break;
      }
      case OpCode::kMaskPush: {
        uint16_t* saved = arena_.AllocateArray<uint16_t>(n);
        std::copy(sel, sel + n, saved);
        mask_stack_.push_back({saved, n});
        bool want = in.u8 != 0;
        size_t m = 0;
        for (size_t i = 0; i < n; ++i) {
          uint16_t lane = sel[i];
          QBISM_ASSIGN_OR_RETURN(bool truth, ValueIsTrue(reg_at(in.a, lane)));
          if (truth == want) sel[m++] = lane;
        }
        *sel_size = m;
        break;
      }
      case OpCode::kMaskPop: {
        auto [saved, saved_size] = mask_stack_.back();
        mask_stack_.pop_back();
        if (prog.reg_uniform[in.dst]) {
          // Uniform lhs: the subset is all-or-nothing.
          if (*sel_size > 0) {
            QBISM_ASSIGN_OR_RETURN(bool truth,
                                   ValueIsTrue(reg_at(in.a, sel[0])));
            regs_[in.dst][0] = Value::Int(truth ? 1 : 0);
          } else if (saved_size > 0) {
            regs_[in.dst][0] = Value::Int(in.u8);
          }
        } else {
          // Merge: lanes inside the evaluated subset get the right
          // side's truth value; decided lanes get the constant.
          size_t si = 0;
          for (size_t j = 0; j < saved_size; ++j) {
            uint16_t lane = saved[j];
            if (si < *sel_size && sel[si] == lane) {
              QBISM_ASSIGN_OR_RETURN(bool truth,
                                     ValueIsTrue(reg_at(in.a, lane)));
              regs_[in.dst][lane] = Value::Int(truth ? 1 : 0);
              ++si;
            } else {
              regs_[in.dst][lane] = Value::Int(in.u8);
            }
          }
        }
        std::copy(saved, saved + saved_size, sel);
        *sel_size = saved_size;
        break;
      }
      case OpCode::kError:
        return Status(static_cast<StatusCode>(in.u8),
                      prog.constants[in.a].AsString().value());
    }
  }
  return Status::OK();
}

Status BatchVM::ScanLevel(const CompiledSelect& cs, size_t depth,
                          TableInfo* info, Level* level) {
  using planner::AccessKind;
  const planner::AccessPath& access = cs.plan.tables[depth].access;
  const Program& filter = cs.scan_filters[depth];
  const std::vector<char>& needed = cs.needed_columns[depth];
  std::vector<Row> batch(kBatchRows);

  // Runs the pushed filter over batch[0, count) and keeps the survivors.
  auto flush = [&](size_t count) -> Status {
    for (size_t i = 0; i < count; ++i) {
      level->lanes[i] = &batch[i];
      level->sel[i] = static_cast<uint16_t>(i);
    }
    size_t sel_size = count;
    QBISM_RETURN_NOT_OK(RunProgram(filter, level->lanes.data(), nullptr,
                                   level->sel.data(), &sel_size));
    for (size_t i = 0; i < sel_size; ++i) {
      level->rows.push_back(std::move(batch[level->sel[i]]));
    }
    return Status::OK();
  };

  if (access.kind == AccessKind::kScan) {
    return ScanHeapBatched(
        info, needed, batch,
        [](size_t, const storage::RecordId&) { return true; }, flush);
  }
  if (access.kind == AccessKind::kCandidateScan) {
    // Drop rows whose key value is provably outside the candidate set
    // before the filter program runs. Null / non-integer values are
    // kept — the compiled conjuncts remain the exact check for them.
    QBISM_ASSIGN_OR_RETURN(size_t key_col,
                           info->schema.ColumnIndex(access.column));
    auto is_candidate = [&](size_t lane, const storage::RecordId&) {
      const Value& key = batch[lane][key_col];
      return key.kind() != Value::Kind::kInt ||
             std::binary_search(access.keys.begin(), access.keys.end(),
                                key.AsInt().value());
    };
    return ScanHeapBatched(info, needed, batch, is_candidate, flush);
  }

  // The probe kinds read the record ids the column's B+-tree returns.
  auto it = info->indexes.find(access.column);
  if (it == info->indexes.end()) {
    return Status::Internal("plan references missing index on '" +
                            access.column + "'");
  }
  const storage::BPlusTree& index = *it->second;
  std::vector<storage::RecordId> rids;
  if (access.kind == AccessKind::kIndexProbe) {
    QBISM_ASSIGN_OR_RETURN(rids, index.Find(access.lo));
  } else if (access.kind == AccessKind::kIndexRangeProbe) {
    int64_t lo = access.has_lo ? access.lo : INT64_MIN;
    int64_t hi = access.has_hi ? access.hi : INT64_MAX;
    if (lo > hi) return Status::OK();  // contradictory bounds: no rows
    QBISM_ASSIGN_OR_RETURN(rids, index.FindRange(lo, hi));
  } else {
    for (int64_t key : access.keys) {
      QBISM_ASSIGN_OR_RETURN(std::vector<storage::RecordId> found,
                             index.Find(key));
      rids.insert(rids.end(), found.begin(), found.end());
    }
  }
  if (access.kind != AccessKind::kIndexProbe) {
    // Heap (page, slot) order: the emitted rows are byte-identical to a
    // filtered full scan, so index pruning never perturbs row order.
    // The equality probe keeps leaf order instead — that is what the
    // tree-walking interpreter emits for the same query.
    std::sort(rids.begin(), rids.end(),
              [](const storage::RecordId& a, const storage::RecordId& b) {
                return a.page_no != b.page_no ? a.page_no < b.page_no
                                              : a.slot < b.slot;
              });
  }
  size_t filled = 0;
  for (const storage::RecordId& rid : rids) {
    auto bytes = info->file->Read(rid);
    if (bytes.status().IsNotFound()) continue;  // deleted since the probe
    QBISM_RETURN_NOT_OK(bytes.status());
    QBISM_RETURN_NOT_OK(DeserializeRowProjected(info->schema, bytes.value(),
                                                needed, &batch[filled]));
    if (++filled < kBatchRows) continue;
    QBISM_RETURN_NOT_OK(flush(filled));
    filled = 0;
  }
  return filled == 0 ? Status::OK() : flush(filled);
}

Status BatchVM::EmitBatch(const CompiledSelect& cs,
                          const std::vector<const Row*>& prefix,
                          const Row* const* lanes, const uint16_t* sel,
                          size_t sel_size, OutputState& out) {
  if (sel_size == 0) return Status::OK();

  // Runs a value program without disturbing the caller's selection
  // (mask ops rewrite the selection in place, restoring it on pop —
  // a scratch copy makes that invisible here).
  auto run_value = [&](const Program& prog, const uint16_t* lanes_sel,
                       size_t count) -> Status {
    std::copy(lanes_sel, lanes_sel + count, out.sel_scratch.data());
    size_t scratch_size = count;
    return RunProgram(prog, lanes, prefix.data(), out.sel_scratch.data(),
                      &scratch_size);
  };
  auto result_of = [&](const Program& prog, uint16_t lane) -> const Value& {
    return prog.reg_uniform[prog.result_reg] ? regs_[prog.result_reg][0]
                                             : regs_[prog.result_reg][lane];
  };

  if (!cs.has_aggregates) {
    if (cs.star) {
      for (size_t i = 0; i < sel_size; ++i) {
        uint16_t lane = sel[i];
        Row out_row;
        for (size_t f = 0; f < cs.num_tables; ++f) {
          size_t p = cs.plan.from_to_plan[f];
          const Row* row = p + 1 == cs.num_tables ? lanes[lane] : prefix[p];
          out_row.insert(out_row.end(), row->begin(), row->end());
        }
        out.result->rows.push_back(std::move(out_row));
      }
      return Status::OK();
    }
    std::vector<Row> out_rows(sel_size);
    for (size_t j = 0; j < cs.item_programs.size(); ++j) {
      QBISM_RETURN_NOT_OK(run_value(cs.item_programs[j], sel, sel_size));
      for (size_t i = 0; i < sel_size; ++i) {
        out_rows[i].push_back(result_of(cs.item_programs[j], sel[i]));
      }
    }
    for (Row& row : out_rows) {
      out.result->rows.push_back(std::move(row));
    }
    return Status::OK();
  }

  // Aggregation: group keys for the whole batch, then aggregate
  // arguments for the whole batch, then per-row accumulation (first
  // values of a new group evaluate lazily, on that group's first row —
  // the interpreter's behaviour).
  out.keys.assign(sel_size, std::string());
  for (const Program& prog : cs.group_programs) {
    QBISM_RETURN_NOT_OK(run_value(prog, sel, sel_size));
    for (size_t i = 0; i < sel_size; ++i) {
      out.keys[i] += result_of(prog, sel[i]).ToString();
      out.keys[i] += '\x1f';
    }
  }
  out.agg_args.assign(cs.item_programs.size(), {});
  for (size_t j = 0; j < cs.item_programs.size(); ++j) {
    if (!cs.item_is_agg[j] || cs.item_is_count_star[j]) continue;
    QBISM_RETURN_NOT_OK(run_value(cs.item_programs[j], sel, sel_size));
    out.agg_args[j].resize(sel_size);
    for (size_t i = 0; i < sel_size; ++i) {
      out.agg_args[j][i] = result_of(cs.item_programs[j], sel[i]);
    }
  }
  const size_t num_items = cs.item_programs.size();
  for (size_t i = 0; i < sel_size; ++i) {
    uint16_t lane = sel[i];
    auto [it, inserted] = out.groups.try_emplace(out.keys[i]);
    OutputState::Group& group = it->second;
    if (inserted) {
      out.group_order.push_back(out.keys[i]);
      group.states.resize(num_items);
      group.first_values.resize(num_items);
      for (size_t j = 0; j < num_items; ++j) {
        if (cs.item_is_agg[j]) continue;
        uint16_t one = lane;
        QBISM_RETURN_NOT_OK(run_value(cs.item_programs[j], &one, 1));
        group.first_values[j] = result_of(cs.item_programs[j], lane);
      }
    }
    for (size_t j = 0; j < num_items; ++j) {
      if (!cs.item_is_agg[j]) continue;
      bool count_star = cs.item_is_count_star[j] != 0;
      const Value argument =
          count_star ? Value::Null() : out.agg_args[j][i];
      QBISM_RETURN_NOT_OK(
          group.states[j].Update(cs.item_agg_fn[j], argument, count_star));
    }
  }
  return Status::OK();
}

Status BatchVM::JoinLevel(const CompiledSelect& cs,
                          std::vector<Level>& levels, size_t depth,
                          std::vector<const Row*>& prefix, OutputState& out) {
  Level& level = levels[depth];
  const Program& residual = cs.residual_filters[depth];
  const bool last = depth + 1 == cs.num_tables;
  for (size_t start = 0; start < level.rows.size(); start += kBatchRows) {
    size_t count = std::min(kBatchRows, level.rows.size() - start);
    for (size_t i = 0; i < count; ++i) {
      level.lanes[i] = &level.rows[start + i];
      level.sel[i] = static_cast<uint16_t>(i);
    }
    size_t sel_size = count;
    QBISM_RETURN_NOT_OK(RunProgram(residual, level.lanes.data(),
                                   prefix.data(), level.sel.data(),
                                   &sel_size));
    if (last) {
      QBISM_RETURN_NOT_OK(EmitBatch(cs, prefix, level.lanes.data(),
                                    level.sel.data(), sel_size, out));
    } else {
      for (size_t i = 0; i < sel_size; ++i) {
        prefix[depth] = level.lanes[level.sel[i]];
        QBISM_RETURN_NOT_OK(JoinLevel(cs, levels, depth + 1, prefix, out));
      }
    }
  }
  return Status::OK();
}

Result<ResultSet> BatchVM::RunSelect(const CompiledSelect& cs) {
  ResultSet result;
  result.columns = cs.columns;
  // Extraction strategy chosen by the optimizer: decode-and-extract
  // turns the spatial set-op UDFs' encoded-domain path off for this
  // query.
  context_.prefer_encoded_regions = cs.plan.extract_pref != 0;

  const size_t n = cs.num_tables;
  std::vector<Level> levels(n);
  for (size_t d = 0; d < n; ++d) {
    QBISM_ASSIGN_OR_RETURN(TableInfo * info,
                           catalog_->GetTable(cs.plan.tables[d].table));
    levels[d].lanes.resize(kBatchRows);
    levels[d].sel.resize(kBatchRows);
    QBISM_RETURN_NOT_OK(ScanLevel(cs, d, info, &levels[d]));
  }

  bool exhausted = false;
  for (const Level& level : levels) {
    if (level.rows.empty()) exhausted = true;
  }

  OutputState out;
  out.result = &result;
  out.sel_scratch.resize(kBatchRows);
  if (!exhausted) {
    std::vector<const Row*> prefix(n, nullptr);
    QBISM_RETURN_NOT_OK(JoinLevel(cs, levels, 0, prefix, out));
  }

  if (cs.has_aggregates) {
    // One output row per group, in first-seen order. With no GROUP BY
    // and no input rows, aggregates still produce one row (count = 0).
    if (out.groups.empty() && cs.group_programs.empty()) {
      Row out_row;
      for (size_t j = 0; j < cs.item_programs.size(); ++j) {
        if (cs.item_is_agg[j]) {
          out_row.push_back(AggState{}.Finalize(
              cs.item_agg_fn[j], cs.item_is_count_star[j] != 0));
        } else {
          out_row.push_back(Value::Null());
        }
      }
      result.rows.push_back(std::move(out_row));
    }
    for (const std::string& key : out.group_order) {
      OutputState::Group& group = out.groups[key];
      Row out_row;
      for (size_t j = 0; j < cs.item_programs.size(); ++j) {
        if (cs.item_is_agg[j]) {
          out_row.push_back(group.states[j].Finalize(
              cs.item_agg_fn[j], cs.item_is_count_star[j] != 0));
        } else {
          out_row.push_back(std::move(group.first_values[j]));
        }
      }
      result.rows.push_back(std::move(out_row));
    }
  }

  QBISM_RETURN_NOT_OK(
      ApplyOrderByAndLimit(cs.order_by, cs.limit, result.columns,
                           &result.rows));
  return result;
}

Result<ResultSet> BatchVM::RunMutation(const CompiledMutation& cm) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(cm.table));
  const TableSchema& schema = table->schema;

  std::vector<Row> batch(kBatchRows);
  std::vector<storage::RecordId> rids(kBatchRows);
  std::vector<const Row*> lanes(kBatchRows);
  std::vector<uint16_t> sel(kBatchRows);
  std::vector<uint16_t> run_sel(kBatchRows);

  // (rid, old image) of each matching row; UPDATE also keeps the new
  // image. The old image carries the indexed columns DeleteRow needs.
  std::vector<std::pair<storage::RecordId, Row>> victims;
  std::vector<Row> new_images;

  // Phase 1: batched scan, filter, and (for UPDATE) new-image
  // construction — assignment expressions see the pre-update values.
  auto flush = [&](size_t count) -> Status {
    for (size_t i = 0; i < count; ++i) {
      lanes[i] = &batch[i];
      sel[i] = static_cast<uint16_t>(i);
    }
    size_t sel_size = count;
    if (!cm.filter.empty()) {
      QBISM_RETURN_NOT_OK(RunProgram(cm.filter, lanes.data(), nullptr,
                                     sel.data(), &sel_size));
    }
    if (cm.is_update) {
      std::vector<std::vector<Value>> values(cm.assignments.size());
      for (size_t j = 0; j < cm.assignments.size(); ++j) {
        std::copy(sel.data(), sel.data() + sel_size, run_sel.data());
        size_t run_size = sel_size;
        QBISM_RETURN_NOT_OK(RunProgram(cm.assignments[j], lanes.data(),
                                       nullptr, run_sel.data(), &run_size));
        const Program& prog = cm.assignments[j];
        values[j].resize(sel_size);
        for (size_t i = 0; i < sel_size; ++i) {
          values[j][i] = prog.reg_uniform[prog.result_reg]
                             ? regs_[prog.result_reg][0]
                             : regs_[prog.result_reg][sel[i]];
        }
      }
      for (size_t i = 0; i < sel_size; ++i) {
        Row updated = batch[sel[i]];
        for (size_t j = 0; j < cm.assignments.size(); ++j) {
          updated[cm.target_columns[j]] = std::move(values[j][i]);
        }
        new_images.push_back(std::move(updated));
      }
    }
    for (size_t i = 0; i < sel_size; ++i) {
      victims.emplace_back(rids[sel[i]], std::move(batch[sel[i]]));
    }
    return Status::OK();
  };

  auto remember_rid = [&](size_t lane, const storage::RecordId& rid) {
    rids[lane] = rid;
    return true;
  };
  QBISM_RETURN_NOT_OK(ScanHeapBatched(table, cm.needed_columns, batch,
                                      remember_rid, flush));

  // Validate every new image before touching anything, so a type
  // error cannot leave the table partially updated.
  for (const Row& row : new_images) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (!ValueMatchesType(row[i], schema.columns()[i].type)) {
        return Status::InvalidArgument(
            "UPDATE: value " + row[i].ToString() +
            " does not match column '" + schema.columns()[i].name + "'");
      }
    }
  }
  // An UPDATE deletes the old image and appends the new one; both keep
  // every index exact.
  ResultSet result;
  for (size_t i = 0; i < victims.size(); ++i) {
    QBISM_RETURN_NOT_OK(
        catalog_->DeleteRow(table, victims[i].first, victims[i].second));
    if (cm.is_update) {
      QBISM_RETURN_NOT_OK(catalog_->InsertRow(table, new_images[i]).status());
    }
    ++result.rows_affected;
  }
  return result;
}

Result<ResultSet> BatchVM::RunInsert(const CompiledInsert& ci) {
  QBISM_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(ci.table));
  ResultSet result;
  for (const std::vector<Program>& values : ci.rows) {
    Row row;
    row.reserve(values.size());
    for (const Program& prog : values) {
      // No table is bound, so every register is uniform and lane 0 is
      // the only lane.
      uint16_t sel = 0;
      size_t sel_size = 1;
      QBISM_RETURN_NOT_OK(RunProgram(prog, nullptr, nullptr, &sel, &sel_size));
      row.push_back(regs_[prog.result_reg][0]);
    }
    QBISM_ASSIGN_OR_RETURN(storage::RecordId rid,
                           catalog_->InsertRow(table, row));
    (void)rid;
    ++result.rows_affected;
  }
  return result;
}

}  // namespace qbism::sql::vm
