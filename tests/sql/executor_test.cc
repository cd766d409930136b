#include <gtest/gtest.h>

#include <algorithm>

#include "sql/database.h"
#include "sql/eval.h"

namespace qbism::sql {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table emp (id int, name string,"
                            " dept int, salary double)")
                    .ok());
    ASSERT_TRUE(db_.Execute("create table dept (id int, name string)").ok());
    ASSERT_TRUE(db_.Execute("insert into dept values (1, 'radiology'),"
                            " (2, 'neurology')")
                    .ok());
    ASSERT_TRUE(db_.Execute("insert into emp values"
                            " (1, 'ada', 1, 100.0),"
                            " (2, 'bob', 1, 90.0),"
                            " (3, 'eve', 2, 120.0)")
                    .ok());
  }

  ResultSet Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result.MoveValue() : ResultSet{};
  }

  Database db_;
};

TEST_F(ExecutorTest, CreateTableRejectsDuplicates) {
  auto result = db_.Execute("create table emp (id int)");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAlreadyExists());
}

TEST_F(ExecutorTest, InsertReportsRowsAffected) {
  auto result = Run("insert into dept values (3, 'icu'), (4, 'er')");
  EXPECT_EQ(result.rows_affected, 2u);
}

TEST_F(ExecutorTest, InsertValidatesTypes) {
  EXPECT_FALSE(db_.Execute("insert into dept values ('x', 'y')").ok());
  EXPECT_FALSE(db_.Execute("insert into dept values (1)").ok());
  EXPECT_FALSE(db_.Execute("insert into nosuch values (1)").ok());
}

TEST_F(ExecutorTest, SelectAllRows) {
  auto result = Run("select id, name from emp");
  EXPECT_EQ(result.columns, (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectStar) {
  auto result = Run("select * from dept");
  EXPECT_EQ(result.columns.size(), 2u);
  EXPECT_EQ(result.columns[0], "dept.id");
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(ExecutorTest, WhereFilters) {
  auto result = Run("select name from emp where salary > 95.0");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsString().value(), "ada");
  EXPECT_EQ(result.rows[1][0].AsString().value(), "eve");
}

TEST_F(ExecutorTest, WhereWithAndOrNot) {
  EXPECT_EQ(Run("select id from emp where dept = 1 and salary >= 100.0")
                .rows.size(),
            1u);
  EXPECT_EQ(Run("select id from emp where dept = 2 or salary = 90.0")
                .rows.size(),
            2u);
  EXPECT_EQ(Run("select id from emp where not dept = 1").rows.size(), 1u);
  EXPECT_EQ(Run("select id from emp where id <> 2").rows.size(), 2u);
}

TEST_F(ExecutorTest, JoinTwoTables) {
  auto result = Run(
      "select e.name, d.name from emp e, dept d where e.dept = d.id and"
      " d.name = 'radiology'");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].AsString().value(), "radiology");
}

TEST_F(ExecutorTest, CrossJoinWithoutPredicate) {
  auto result = Run("select e.id, d.id from emp e, dept d");
  EXPECT_EQ(result.rows.size(), 6u);  // 3 x 2
}

TEST_F(ExecutorTest, SelfJoinViaAliases) {
  auto result = Run(
      "select a.name, b.name from emp a, emp b "
      "where a.dept = b.dept and a.id < b.id");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString().value(), "ada");
  EXPECT_EQ(result.rows[0][1].AsString().value(), "bob");
}

TEST_F(ExecutorTest, DuplicateAliasRejected) {
  EXPECT_FALSE(db_.Execute("select x.id from emp x, dept x").ok());
}

TEST_F(ExecutorTest, ArithmeticInSelectList) {
  auto result =
      Run("select salary * 2 + 1 as boosted from emp where id = 1");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][0].AsDouble().value(), 201.0);
  EXPECT_EQ(result.columns[0], "boosted");
}

TEST_F(ExecutorTest, IntegerArithmetic) {
  auto result = Run("select id + 10, id - 1, id * 3, 7 / id from emp"
                    " where id = 2");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt().value(), 12);
  EXPECT_EQ(result.rows[0][1].AsInt().value(), 1);
  EXPECT_EQ(result.rows[0][2].AsInt().value(), 6);
  EXPECT_EQ(result.rows[0][3].AsInt().value(), 3);
}

TEST_F(ExecutorTest, DivisionByZeroFails) {
  EXPECT_FALSE(db_.Execute("select 1 / 0 from dept").ok());
  EXPECT_FALSE(db_.Execute("select 1.0 / 0.0 from dept").ok());
}

TEST_F(ExecutorTest, UnknownColumnAndAmbiguity) {
  EXPECT_FALSE(db_.Execute("select bogus from emp").ok());
  // "id" exists in both tables: ambiguous without qualification.
  EXPECT_FALSE(db_.Execute("select id from emp e, dept d").ok());
  // Qualified is fine.
  EXPECT_TRUE(db_.Execute("select e.id from emp e, dept d").ok());
  // "salary" exists only in emp: unqualified is fine in a join.
  EXPECT_TRUE(db_.Execute("select salary from emp e, dept d").ok());
}

TEST_F(ExecutorTest, EmptyTableYieldsNoRows) {
  ASSERT_TRUE(db_.Execute("create table empty (x int)").ok());
  EXPECT_EQ(Run("select x from empty").rows.size(), 0u);
  // Join with an empty table is empty.
  EXPECT_EQ(Run("select e.id from emp e, empty x").rows.size(), 0u);
}

TEST_F(ExecutorTest, StringComparisons) {
  EXPECT_EQ(Run("select id from emp where name = 'bob'").rows.size(), 1u);
  EXPECT_EQ(Run("select id from emp where name < 'bob'").rows.size(), 1u);
  EXPECT_EQ(Run("select id from emp where name >= 'bob'").rows.size(), 2u);
}

TEST_F(ExecutorTest, PredicatePushdownGivesSameAnswers) {
  // A three-way join whose single-table predicates must be pushed; the
  // answer is identical either way, and this exercises the pushdown
  // classification on qualified and unqualified columns.
  ASSERT_TRUE(db_.Execute("create table grade (emp int, grade int)").ok());
  ASSERT_TRUE(
      db_.Execute("insert into grade values (1, 5), (2, 4), (3, 5)").ok());
  auto result = Run(
      "select e.name from emp e, dept d, grade g "
      "where e.dept = d.id and g.emp = e.id and d.name = 'radiology' "
      "and g.grade = 5 and e.salary > 50.0");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString().value(), "ada");
}

TEST_F(ExecutorTest, ResultSetToStringRendersTable) {
  auto result = Run("select id, name from dept where id = 1");
  std::string rendered = result.ToString();
  EXPECT_NE(rendered.find("id | name"), std::string::npos);
  EXPECT_NE(rendered.find("1 | 'radiology'"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainDescribesAccessPaths) {
  // EXPLAIN is the one plan description: an access path per FROM
  // table, its pushed filters, and the join's residual predicates.
  auto explain = [&](const std::string& sql) {
    std::vector<std::string> lines;
    for (const Row& row : Run("explain " + sql).rows) {
      lines.push_back(row[0].AsString().MoveValue());
    }
    return lines;
  };
  auto count = [](const std::vector<std::string>& lines,
                  const std::string& prefix) {
    return std::count_if(
        lines.begin(), lines.end(),
        [&](const std::string& line) { return line.rfind(prefix, 0) == 0; });
  };

  auto scan = explain("select name from emp where salary > 95.0");
  EXPECT_EQ(count(scan, "emp emp: scan, "), 1);
  EXPECT_EQ(count(scan, "  filter "), 1);

  ASSERT_TRUE(db_.Execute("create index i on emp (id)").ok());
  auto probed = explain("select name from emp e where e.id = 2");
  EXPECT_EQ(count(probed, "emp e: index probe on id = 2, "), 1);

  auto joined = explain(
      "select e.name from emp e, dept d where e.dept = d.id and"
      " d.name = 'radiology'");
  EXPECT_EQ(count(joined, "emp e: scan, "), 1);
  EXPECT_EQ(count(joined, "dept d: scan, "), 1);
  EXPECT_EQ(count(joined, "residual "), 1);
}

TEST(DatabaseFacadeTest, IoStatsAggregateBothDevices) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int, blob longfield)").ok());
  auto field = db.lfm()->Create(std::vector<uint8_t>(9000, 1)).MoveValue();
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::LongField(field)}).ok());
  ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());
  ASSERT_TRUE(db.lfm()->Read(field).ok());
  storage::IoStats total = db.TotalIoStats();
  EXPECT_GT(total.pages_read + total.pages_written, 0u);
  EXPECT_GT(total.simulated_seconds, 0.0);
  EXPECT_EQ(total.pages_read + total.pages_written,
            db.relational_device()->stats().pages_read +
                db.relational_device()->stats().pages_written +
                db.long_field_device()->stats().pages_read +
                db.long_field_device()->stats().pages_written);
  db.ResetIoStats();
  storage::IoStats zero = db.TotalIoStats();
  EXPECT_EQ(zero.pages_read, 0u);
  EXPECT_EQ(zero.simulated_seconds, 0.0);
}

TEST(ValueIsTrueTest, Semantics) {
  EXPECT_FALSE(ValueIsTrue(Value::Null()).value());
  EXPECT_TRUE(ValueIsTrue(Value::Int(1)).value());
  EXPECT_FALSE(ValueIsTrue(Value::Int(0)).value());
  EXPECT_TRUE(ValueIsTrue(Value::Double(0.5)).value());
  EXPECT_FALSE(ValueIsTrue(Value::Double(0.0)).value());
  EXPECT_FALSE(ValueIsTrue(Value::String("x")).ok());
}

}  // namespace
}  // namespace qbism::sql
