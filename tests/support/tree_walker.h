#ifndef QBISM_TESTS_SUPPORT_TREE_WALKER_H_
#define QBISM_TESTS_SUPPORT_TREE_WALKER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/database.h"
#include "sql/result_set.h"
#include "sql/udf.h"

namespace qbism::sql {

/// The original row-at-a-time tree-walking SQL interpreter, kept outside
/// the library as the oracle the batch VM is checked against (the
/// differential suite) and measured against (E22). It runs SELECT,
/// INSERT, UPDATE and DELETE itself: FROM tables are materialized with
/// single-table predicates pushed into the scan (or an index probe for
/// `col = int-literal`), joined by a nested loop in FROM order, and
/// every expression is evaluated by walking its tree once per row.
/// Every other statement (CREATE TABLE, CREATE INDEX, EXPLAIN) goes
/// through the database's own Execute. The interpreter shares the
/// database's catalog and UDF registry, so it reads and writes the same
/// tables the VM does.
class TreeWalker {
 public:
  explicit TreeWalker(Database* db)
      : db_(db), catalog_(db->catalog()), udfs_(db->udfs()) {}

  /// Parses and executes one SQL statement.
  Result<ResultSet> Execute(const std::string& sql);

 private:
  struct BoundTable {
    std::string alias;
    const TableSchema* schema = nullptr;
    std::vector<Row> rows;
  };

  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt);

  /// Evaluates `expr` against the current row of each bound table.
  Result<Value> Eval(const Expr& expr, const std::vector<BoundTable>& tables,
                     const std::vector<size_t>& cursor);

  Result<Value> EvalBinary(const Expr& expr,
                           const std::vector<BoundTable>& tables,
                           const std::vector<size_t>& cursor);

  Database* db_;
  Catalog* catalog_;
  const UdfRegistry* udfs_;
  UdfContext context_;  // rebuilt per statement, as Database::Execute does
};

}  // namespace qbism::sql

#endif  // QBISM_TESTS_SUPPORT_TREE_WALKER_H_
