// Cost-based index selection for plain range predicates (the PR-9
// follow-on): a B+-tree on an integer column now serves `col >= lo and
// col <= hi` conjuncts through FindRange when the cost model says the
// touched fraction beats a full scan. The EXPLAIN goldens here pin the
// flip: unanalyzed tables probe (default range selectivity), analyzed
// wide ranges scan, analyzed narrow ranges probe — and results are
// byte-identical either way. The candidate goldens pin the two paths a
// candidate key set takes: per-key probes when the key column has a
// B+-tree, a filtered scan when it has none.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "sql/database.h"
#include "sql/eval.h"
#include "sql/planner/cost.h"

namespace qbism::sql {
namespace {

std::vector<std::string> ExplainOf(Database* db, const std::string& sql) {
  auto result = db->Execute("explain " + sql);
  QBISM_CHECK(result.ok());
  std::vector<std::string> lines;
  for (const Row& row : result->rows) {
    lines.push_back(row[0].AsString().MoveValue());
  }
  return lines;
}

bool AnyLineContains(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::vector<std::string> Render(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const Row& row : rs.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

class RangeProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("create table t (id int, v int)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Insert("t", {Value::Int(i), Value::Int(i * 7)}).ok());
    }
    ASSERT_TRUE(db_.Execute("create index t_id on t (id)").ok());
  }

  void Analyze() {
    ASSERT_TRUE(db_.planner_stats()->AnalyzeTable(db_.catalog(), "t").ok());
  }

  Database db_;
};

TEST_F(RangeProbeTest, UnanalyzedTableChoosesTheRangeProbe) {
  auto lines =
      ExplainOf(&db_, "select v from t where id >= 90 and id <= 99");
  EXPECT_TRUE(AnyLineContains(lines, "index range probe on id in [90..99]"))
      << "plan was:\n" + lines.front();
}

TEST_F(RangeProbeTest, AnalyzedWideRangeFlipsBackToTheScan) {
  Analyze();
  // The statistics say every row falls in [0, 99]: probing buys nothing
  // and costs the descent, so the planner must keep the scan.
  auto lines = ExplainOf(&db_, "select v from t where id >= 0 and id <= 99");
  EXPECT_FALSE(AnyLineContains(lines, "index range probe"))
      << "plan was:\n" + lines.front();
  EXPECT_TRUE(AnyLineContains(lines, "scan"));
}

TEST_F(RangeProbeTest, AnalyzedNarrowRangeFlipsToTheProbe) {
  Analyze();
  auto lines =
      ExplainOf(&db_, "select v from t where id >= 90 and id <= 99");
  EXPECT_TRUE(AnyLineContains(lines, "index range probe on id in [90..99]"));
}

TEST_F(RangeProbeTest, StrictBoundsTightenByOne) {
  auto lines = ExplainOf(&db_, "select v from t where id > 5 and id < 9");
  EXPECT_TRUE(AnyLineContains(lines, "in [6..8]"))
      << "plan was:\n" + lines.front();
}

TEST_F(RangeProbeTest, HalfOpenRangesProbeToo) {
  Analyze();
  auto lines = ExplainOf(&db_, "select v from t where id >= 95");
  EXPECT_TRUE(AnyLineContains(lines, "index range probe on id"));
}

TEST_F(RangeProbeTest, ProbeResultsMatchScanResultsByteForByte) {
  // The same query before the index exists (scan) and after (probe)
  // must render identical rows in identical order.
  Database bare;
  ASSERT_TRUE(bare.Execute("create table t (id int, v int)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(bare.Insert("t", {Value::Int(i), Value::Int(i * 7)}).ok());
  }
  const std::string queries[] = {
      "select id, v from t where id >= 17 and id <= 42",
      "select id, v from t where id > 90",
      "select id, v from t where id < 4 and v >= 0",
      "select id, v from t where id >= 60 and id <= 60",
      "select id, v from t where id >= 70 and id <= 10",  // empty range
  };
  for (const std::string& q : queries) {
    auto scan = bare.Execute(q);
    auto probe = db_.Execute(q);
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(Render(*probe), Render(*scan)) << q;
  }
}

TEST_F(RangeProbeTest, DeletedRowsDoNotResurfaceThroughTheProbe) {
  ASSERT_TRUE(db_.Execute("delete from t where id >= 30 and id <= 35").ok());
  auto rows = db_.Execute("select id from t where id >= 28 and id <= 37");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 4u);  // 28, 29, 36, 37
}

// --- FindIndexRangeSpec unit shapes -------------------------------------

TEST(FindIndexRangeSpecTest, RecognizesMirroredAndStrictForms) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(db.Execute("create index t_id on t (id)").ok());
  // Mirrored literals: `5 <= id` is `id >= 5`.
  auto lines = ExplainOf(&db, "select v from t where 5 <= id and 9 > id");
  EXPECT_TRUE(AnyLineContains(lines, "in [5..8]"))
      << "plan was:\n" + lines.front();
}

TEST(FindIndexRangeSpecTest, TightestBoundWinsAcrossConjuncts) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.Execute("create index t_id on t (id)").ok());
  auto lines = ExplainOf(
      &db, "select id from t where id >= 3 and id >= 10 and id <= 20");
  EXPECT_TRUE(AnyLineContains(lines, "in [10..20]"))
      << "plan was:\n" + lines.front();
}

// --- Candidate access paths ---------------------------------------------

/// Table `b` holds 60 rows over 12 study keys (study = i % 12). The
/// hook stands in for the cross-study spatial index: for `b` it answers
/// the keys {2, 5, 7}, a superset of every key the queries below keep.
class CandidatePathTest : public ::testing::Test {
 protected:
  static void Fill(Database* db) {
    ASSERT_TRUE(db->Execute("create table b (study int, v int)").ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(db->Insert("b", {Value::Int(i % 12), Value::Int(i)}).ok());
    }
  }

  void SetUp() override {
    Fill(&bare_);
    Fill(&db_);
    db_.set_candidate_index_hook(
        [](const std::string& table, const std::string&,
           const std::vector<const Expr*>& conjuncts)
            -> std::optional<planner::CandidateSet> {
          if (table != "b" || conjuncts.empty()) return std::nullopt;
          return planner::CandidateSet{"study", {2, 5, 7}, 12.0, "test"};
        });
  }

  /// Each query's rows through the candidate path equal the plain
  /// scan's, row order included.
  void ExpectRowsMatchTheScan() {
    for (const char* q :
         {"select study, v from b where study = 2 or study = 5 or study = 7",
          "select v from b where (study = 5 or study = 7) and v > 20",
          "select * from b where study = 7 or v = 2"}) {
      auto scan = bare_.Execute(q);
      auto pruned = db_.Execute(q);
      ASSERT_TRUE(scan.ok());
      ASSERT_TRUE(pruned.ok());
      EXPECT_FALSE(scan->rows.empty()) << q;
      EXPECT_EQ(Render(*pruned), Render(*scan)) << q;
    }
  }

  Database bare_;  // no hook, no index: the plain scan
  Database db_;
};

TEST_F(CandidatePathTest, WithoutAKeyIndexTheCandidateSetFiltersAScan) {
  // Costed like a scan: every row is decoded before the key check.
  EXPECT_EQ(ExplainOf(&db_, "select v from b where study = 5 or study = 7"),
            (std::vector<std::string>{
                "select: est_rows=190 est_cost=8000",
                "b b: candidate scan on study in 3 of 12 key(s) via test, "
                "est 190 of 1000 row(s) (no statistics)",
                "  filter ((study = 5) or (study = 7)) sel=0.19 cost=4 "
                "rank=-0.2025"}));
  ExpectRowsMatchTheScan();
}

TEST_F(CandidatePathTest, WithAKeyIndexTheCandidateSetProbesIt) {
  ASSERT_TRUE(db_.Execute("create index b_study on b (study)").ok());
  // One B+-tree descent per candidate key.
  EXPECT_EQ(ExplainOf(&db_, "select v from b where study = 5 or study = 7"),
            (std::vector<std::string>{
                "select: est_rows=190 est_cost=2768",
                "b b: candidate probe on study in 3 of 12 key(s) via test, "
                "est 190 of 1000 row(s) (no statistics)",
                "  filter ((study = 5) or (study = 7)) sel=0.19 cost=4 "
                "rank=-0.2025"}));
  ExpectRowsMatchTheScan();
}

}  // namespace
}  // namespace qbism::sql
