#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "sql/database.h"
#include "support/tree_walker.h"

namespace qbism::sql {
namespace {

/// Differential suite for the batch VM against the tree-walking
/// interpreter (the test-support oracle): every SELECT/INSERT/UPDATE/
/// DELETE runs through the library on one database and through the
/// interpreter on a second database loaded identically; results must
/// match row for row. No statistics are gathered, so the planner keeps
/// FROM order and scan order and both engines emit rows in the same
/// sequence.
class DifferentialTest : public ::testing::Test {
 protected:
  /// Runs `sql` on both engines and asserts identical outcomes:
  /// ok-ness, error text, columns, rows (in order), rows_affected.
  void ExecBoth(const std::string& sql) {
    auto vm = vm_.Execute(sql);
    auto tw = oracle_.Execute(sql);
    ASSERT_EQ(vm.ok(), tw.ok())
        << sql << "\nvm: " << vm.status().ToString()
        << "\ntree-walker: " << tw.status().ToString();
    if (!vm.ok()) {
      EXPECT_EQ(vm.status().ToString(), tw.status().ToString()) << sql;
      return;
    }
    EXPECT_EQ(vm->columns, tw->columns) << sql;
    EXPECT_EQ(vm->rows_affected, tw->rows_affected) << sql;
    ASSERT_EQ(vm->rows.size(), tw->rows.size()) << sql;
    for (size_t r = 0; r < vm->rows.size(); ++r) {
      ASSERT_EQ(vm->rows[r].size(), tw->rows[r].size()) << sql;
      for (size_t c = 0; c < vm->rows[r].size(); ++c) {
        EXPECT_EQ(vm->rows[r][c].ToString(), tw->rows[r][c].ToString())
            << sql << " row " << r << " col " << c;
      }
    }
  }

  void SeedTables() {
    ExecBoth("create table t0 (a int, b int, c double, d string)");
    ExecBoth("create table t1 (k int, v int)");
    InsertRandomRows(40, 8);
  }

  void InsertRandomRows(int t0_rows, int t1_rows) {
    static const char* kTags[] = {"x", "y", "z"};
    for (int i = 0; i < t0_rows; ++i) {
      ExecBoth("insert into t0 values (" +
               std::to_string(rng_.NextBounded(20)) + ", " +
               std::to_string(rng_.NextBounded(100)) + ", " +
               std::to_string(rng_.NextBounded(50)) + ".5, '" +
               kTags[rng_.NextBounded(3)] + "')");
    }
    for (int i = 0; i < t1_rows; ++i) {
      ExecBoth("insert into t1 values (" +
               std::to_string(rng_.NextBounded(20)) + ", " +
               std::to_string(rng_.NextBounded(1000)) + ")");
    }
  }

  /// Random integer-valued expression over t0's int columns.
  std::string IntExpr(int depth) {
    switch (rng_.NextBounded(depth > 0 ? 5 : 3)) {
      case 0:
        return std::to_string(rng_.NextBounded(100));
      case 1:
        return "a";
      case 2:
        return "b";
      case 3:
        return "(" + IntExpr(depth - 1) + " + " + IntExpr(depth - 1) + ")";
      default:
        return "(" + IntExpr(depth - 1) + " * " + IntExpr(depth - 1) + ")";
    }
  }

  /// Random boolean predicate over t0 (type-correct; never errors:
  /// division only by strictly positive divisors).
  std::string Pred(int depth) {
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    switch (rng_.NextBounded(depth > 0 ? 6 : 3)) {
      case 0:
      case 1:
        return "(" + IntExpr(1) + " " + kCmp[rng_.NextBounded(6)] + " " +
               IntExpr(1) + ")";
      case 2: {
        static const char* kTags[] = {"'x'", "'y'", "'z'"};
        return "(d = " + std::string(kTags[rng_.NextBounded(3)]) + ")";
      }
      case 3:
        return "(" + Pred(depth - 1) + " and " + Pred(depth - 1) + ")";
      case 4:
        return "(" + Pred(depth - 1) + " or " + Pred(depth - 1) + ")";
      default:
        return "(not " + Pred(depth - 1) + ")";
    }
  }

  Rng rng_{0x9b15d1ffu};
  Database vm_;
  Database oracle_db_;
  TreeWalker oracle_{&oracle_db_};
};

TEST_F(DifferentialTest, RandomizedSelects) {
  SeedTables();
  for (int i = 0; i < 120; ++i) {
    std::string sql;
    switch (rng_.NextBounded(4)) {
      case 0:
        sql = "select * from t0 where " + Pred(2);
        break;
      case 1:
        sql = "select a, (a + b), ((b / (a + 1)) - 3) from t0 where " +
              Pred(2);
        break;
      case 2:
        sql = "select b, d from t0 where " + Pred(2) + " order by b, d";
        break;
      default:
        sql = "select a, b from t0 where " + Pred(1) + " limit " +
              std::to_string(1 + rng_.NextBounded(10));
        break;
    }
    ExecBoth(sql);
  }
}

TEST_F(DifferentialTest, RandomizedJoins) {
  SeedTables();
  for (int i = 0; i < 40; ++i) {
    ExecBoth("select t0.a, t0.b, t1.v from t0, t1 "
             "where t0.a = t1.k and " + Pred(1));
    ExecBoth("select * from t0 x, t1 y where x.a = y.k and x.b > " +
             std::to_string(rng_.NextBounded(100)));
  }
}

TEST_F(DifferentialTest, RandomizedAggregates) {
  SeedTables();
  for (int i = 0; i < 40; ++i) {
    ExecBoth("select count(*), sum(a), min(b), max(b), avg(b) from t0 "
             "where " + Pred(2));
    ExecBoth("select d, count(*), sum(b) from t0 where " + Pred(1) +
             " group by d");
  }
}

TEST_F(DifferentialTest, RandomizedMutations) {
  SeedTables();
  for (int i = 0; i < 30; ++i) {
    switch (rng_.NextBounded(3)) {
      case 0:
        ExecBoth("update t0 set b = " + IntExpr(1) + ", a = " + IntExpr(1) +
                 " where " + Pred(1));
        break;
      case 1:
        ExecBoth("update t0 set d = 'y' where " + Pred(1));
        break;
      default:
        ExecBoth("delete from t0 where a = " +
                 std::to_string(rng_.NextBounded(20)) + " and b > " +
                 std::to_string(rng_.NextBounded(100)));
        break;
    }
    // Both heaps must agree exactly after every mutation.
    ExecBoth("select * from t0");
    if (i % 10 == 9) InsertRandomRows(10, 0);
  }
}

TEST_F(DifferentialTest, RuntimeErrorsMatchInterpreterText) {
  SeedTables();
  // Division by zero surfaces mid-scan; the VM defers error resolution
  // so the message (and the first failing row) match the interpreter.
  ExecBoth("select b / (a - a) from t0");
  ExecBoth("select a from t0 where (b / (a - a)) > 0");
  ExecBoth("update t0 set b = b / (a - a) where a >= 0");
}

/// `plus(a, b)`: the two-argument integer UDF of udf_test.cc.
Result<Value> Plus(UdfContext&, const std::vector<Value>& args) {
  if (args.size() != 2) return Status::InvalidArgument("arity");
  QBISM_ASSIGN_OR_RETURN(int64_t lhs, args[0].AsInt());
  QBISM_ASSIGN_OR_RETURN(int64_t rhs, args[1].AsInt());
  return Value::Int(lhs + rhs);
}

TEST_F(DifferentialTest, InsertValuesMatchInterpreter) {
  ASSERT_TRUE(vm_.udfs()->Register("plus", Plus).ok());
  ASSERT_TRUE(oracle_db_.udfs()->Register("plus", Plus).ok());
  ExecBoth("create table t2 (x int, y double, s string)");
  const char* kStatements[] = {
      // Literals, one row and several.
      "insert into t2 values (1, 2.5, 'a')",
      "insert into t2 values (2, 3.5, 'b'), (3, 4.5, 'c')",
      // Arithmetic, folded and not.
      "insert into t2 values (2 + 3 * 4, 7 / 2.0, 'arith')",
      "insert into t2 values (-(4 - 9), (1 + 1) * 1.5, 'neg')",
      "insert into t2 values ((1 < 2) + (3 = 3), 0.5 * -4, 'cmp')",
      // A UDF, nested and mixed with arithmetic; a UDF error.
      "insert into t2 values (plus(40, 2), 0.5, 'udf')",
      "insert into t2 values (plus(1, plus(2, 3)) * 2, 1.0, 'nested')",
      "insert into t2 values (plus(1), 1.0, 'arity')",
      // Errors: unknown function, column reference, division by zero,
      // a value that does not match its column, an unknown table.
      "insert into t2 values (nosuchfn(1), 1.0, 'fn')",
      "insert into t2 values (nosuchfn(1 / 0), 1.0, 'fn-first')",
      "insert into t2 values (x, 1.0, 'col')",
      "insert into t2 values (t2.x + 1, 1.0, 'qualified')",
      "insert into t2 values (1 / 0, 1.0, 'div')",
      "insert into t2 values ((1 / 0) + nosuchfn(2), 1.0, 'div-first')",
      "insert into t2 values ('text', 1.0, 'type')",
      "insert into nosuchtable values (1)",
      // The second row fails: the first stays inserted, the third
      // never runs.
      "insert into t2 values (5, 5.5, 'kept'), (1 / 0, 6.5, 'bad'), "
      "(7, 7.5, 'never')",
      "insert into t2 values (plus(4, 4), 8.5, 'kept'), (y, 9.5, 'bad')",
  };
  for (const char* sql : kStatements) {
    ExecBoth(sql);
    ExecBoth("select * from t2");
  }
  // Eight rows from the statements that succeed, plus the first row of
  // each multi-row statement that fails on its second.
  auto count = vm_.Execute("select count(*) from t2");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].ToString(), "10");

  // Random literal-only integer expressions; divisors may be zero, so
  // some rows fail part-way through a multi-row statement.
  ExecBoth("create table t3 (x int)");
  std::function<std::string(int)> value = [&](int depth) -> std::string {
    static const char* kOps[] = {" + ", " - ", " * ", " / "};
    if (depth == 0 || rng_.NextBounded(3) == 0) {
      return std::to_string(rng_.NextBounded(7));
    }
    return "(" + value(depth - 1) + kOps[rng_.NextBounded(4)] +
           value(depth - 1) + ")";
  };
  for (int i = 0; i < 60; ++i) {
    std::string sql = "insert into t3 values (" + value(3) + ")";
    for (uint64_t r = rng_.NextBounded(3); r > 0; --r) {
      sql += ", (" + value(3) + ")";
    }
    ExecBoth(sql);
  }
  ExecBoth("select * from t3");
}

}  // namespace
}  // namespace qbism::sql
