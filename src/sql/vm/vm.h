#ifndef QBISM_SQL_VM_VM_H_
#define QBISM_SQL_VM_VM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "sql/catalog.h"
#include "sql/result_set.h"
#include "sql/udf.h"
#include "sql/vm/compiler.h"

namespace qbism::sql::vm {

/// Rows processed per batch. Selections are uint16 lane indexes, so the
/// batch size must stay below 65536.
inline constexpr size_t kBatchRows = 1024;

/// Push-based batch executor for compiled programs. Rows flow through
/// in 1024-row batches; each bytecode instruction runs vectorized over
/// the batch's active selection, and per-batch scratch (selections,
/// mask frames) comes from a bump-pointer arena instead of the heap.
///
/// The VM produces byte-identical results to the tree-walking
/// interpreter for every successful statement, and fails exactly when
/// the interpreter fails (same status code and message) — the
/// differential test suite holds the VM against that interpreter, which
/// lives outside the library as a test oracle
/// (tests/support/tree_walker.h).
/// The one intentional divergence is *which* of several row errors is
/// reported first: the interpreter surfaces the first failing row, the
/// VM the first failing instruction across a batch.
class BatchVM {
 public:
  BatchVM(Catalog* catalog, UdfContext context)
      : catalog_(catalog), context_(std::move(context)) {}

  /// Runs a compiled SELECT. The CompiledSelect is immutable and
  /// shareable (plan cache); table handles are re-resolved here.
  Result<ResultSet> RunSelect(const CompiledSelect& cs);

  /// Runs a compiled UPDATE or DELETE (single-table scan, collect
  /// matches, then mutate — the interpreter's two-phase shape).
  Result<ResultSet> RunMutation(const CompiledMutation& cm);

  /// Runs a compiled INSERT: each row's values are evaluated (one lane)
  /// and inserted before the next row is evaluated, so a failing row
  /// leaves the rows before it inserted.
  Result<ResultSet> RunInsert(const CompiledInsert& ci);

 private:
  struct Level;
  struct OutputState;

  /// Executes `prog` over the lanes selected in `sel` (size
  /// `*sel_size`, compacted in place by filter instructions).
  /// `lanes[lane]` is the current table's row for that lane; `prefix[t]`
  /// is the bound outer row of plan table t (valid below the current
  /// join depth).
  Status RunProgram(const Program& prog, const Row* const* lanes,
                    const Row* const* prefix, uint16_t* sel,
                    size_t* sel_size);

  Status ScanLevel(const CompiledSelect& cs, size_t depth, TableInfo* info,
                   Level* level);
  Status JoinLevel(const CompiledSelect& cs, std::vector<Level>& levels,
                   size_t depth, std::vector<const Row*>& prefix,
                   OutputState& out);
  Status EmitBatch(const CompiledSelect& cs, const std::vector<const Row*>&
                   prefix, const Row* const* lanes, const uint16_t* sel,
                   size_t sel_size, OutputState& out);

  Catalog* catalog_;
  UdfContext context_;
  Arena arena_;
  /// Register file, reused across programs and batches: regs_[r] holds
  /// one value per lane (or a single value for uniform registers).
  std::vector<std::vector<Value>> regs_;
  /// kMaskPush/kMaskPop frames; saved selections live in the arena.
  std::vector<std::pair<uint16_t*, size_t>> mask_stack_;
};

}  // namespace qbism::sql::vm

#endif  // QBISM_SQL_VM_VM_H_
