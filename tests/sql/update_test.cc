#include <gtest/gtest.h>

#include "sql/database.h"

namespace qbism::sql {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table acct (id int, owner string,"
                            " balance int)")
                    .ok());
    ASSERT_TRUE(db_.Execute("insert into acct values"
                            " (1, 'ada', 100), (2, 'bob', 200),"
                            " (3, 'ada', 300)")
                    .ok());
  }

  int64_t BalanceOf(int id) {
    auto result = db_.Execute("select balance from acct where id = " +
                              std::to_string(id))
                      .MoveValue();
    return result.rows[0][0].AsInt().value();
  }

  Database db_;
};

TEST_F(UpdateTest, UpdateWithPredicate) {
  auto result = db_.Execute("update acct set balance = balance + 50"
                            " where owner = 'ada'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2u);
  EXPECT_EQ(BalanceOf(1), 150);
  EXPECT_EQ(BalanceOf(2), 200);  // untouched
  EXPECT_EQ(BalanceOf(3), 350);
}

TEST_F(UpdateTest, UpdateAllRowsMultipleAssignments) {
  auto result =
      db_.Execute("update acct set balance = 0, owner = 'bank'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 3u);
  auto rows = db_.Execute("select owner, balance from acct").MoveValue();
  for (const Row& row : rows.rows) {
    EXPECT_EQ(row[0].AsString().value(), "bank");
    EXPECT_EQ(row[1].AsInt().value(), 0);
  }
}

TEST_F(UpdateTest, AssignmentsSeePreUpdateValues) {
  // Swap-like semantics: both expressions read the old row.
  ASSERT_TRUE(db_.Execute("create table p (a int, b int)").ok());
  ASSERT_TRUE(db_.Execute("insert into p values (1, 2)").ok());
  ASSERT_TRUE(db_.Execute("update p set a = b, b = a").ok());
  auto result = db_.Execute("select a, b from p").MoveValue();
  EXPECT_EQ(result.rows[0][0].AsInt().value(), 2);
  EXPECT_EQ(result.rows[0][1].AsInt().value(), 1);
}

TEST_F(UpdateTest, TypeMismatchRejected) {
  auto result = db_.Execute("update acct set balance = 'rich'");
  EXPECT_FALSE(result.ok());
  // No partial application: scan still sees consistent rows.
  auto rows = db_.Execute("select count(*) from acct").MoveValue();
  EXPECT_EQ(rows.rows[0][0].AsInt().value(), 3);
}

TEST_F(UpdateTest, UnknownTableOrColumnRejected) {
  EXPECT_TRUE(db_.Execute("update nosuch set x = 1").status().IsNotFound());
  EXPECT_TRUE(
      db_.Execute("update acct set nosuch = 1").status().IsNotFound());
}

TEST_F(UpdateTest, NoMatchesAffectsNothing) {
  auto result = db_.Execute("update acct set balance = 0 where id = 99");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 0u);
  EXPECT_EQ(BalanceOf(1), 100);
}

TEST_F(UpdateTest, IndexFollowsUpdatedKeys) {
  ASSERT_TRUE(db_.Execute("create index i on acct (id)").ok());
  ASSERT_TRUE(db_.Execute("update acct set id = 10 where id = 1").ok());
  // Old key gone, new key found, via the index path.
  EXPECT_TRUE(
      db_.Execute("select owner from acct where id = 1")->rows.empty());
  auto moved = db_.Execute("select owner from acct where id = 10").MoveValue();
  ASSERT_EQ(moved.rows.size(), 1u);
  EXPECT_EQ(moved.rows[0][0].AsString().value(), "ada");
}

TEST_F(UpdateTest, IndexHoldsOneEntryPerLiveRowAcrossUpdates) {
  ASSERT_TRUE(db_.Execute("create index i on acct (id)").ok());
  TableInfo* acct = db_.catalog()->GetTable("acct").value();
  for (int i = 0; i < 50; ++i) {
    // Rewrites every row: the old images' entries must go each time.
    ASSERT_TRUE(db_.Execute("update acct set balance = balance + 1").ok());
    ASSERT_TRUE(
        db_.Execute("update acct set id = id + 3 where owner = 'bob'").ok());
  }
  EXPECT_EQ(acct->indexes.at("id")->Size().value(), 3u);
  EXPECT_EQ(acct->indexes.at("id")->Find(2).value().size(), 0u);
  EXPECT_EQ(acct->indexes.at("id")->Find(152).value().size(), 1u);
  EXPECT_EQ(BalanceOf(152), 250);
}

TEST_F(UpdateTest, RepeatedUpdatesAccumulate) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_.Execute("update acct set balance = balance + 1 where id = 2")
            .ok());
  }
  EXPECT_EQ(BalanceOf(2), 210);
}

}  // namespace
}  // namespace qbism::sql
