#include <gtest/gtest.h>

#include "sql/database.h"

namespace qbism::sql {
namespace {

class DeleteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table t (id int, tag string)").ok());
    ASSERT_TRUE(db_.Execute("insert into t values (1, 'keep'), (2, 'drop'),"
                            " (3, 'keep'), (4, 'drop'), (5, 'keep')")
                    .ok());
  }

  uint64_t CountRows() {
    auto result = db_.Execute("select count(*) from t").MoveValue();
    return static_cast<uint64_t>(result.rows[0][0].AsInt().value());
  }

  Database db_;
};

TEST_F(DeleteTest, DeleteWithPredicate) {
  auto result = db_.Execute("delete from t where tag = 'drop'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2u);
  EXPECT_EQ(CountRows(), 3u);
  auto remaining = db_.Execute("select id from t order by id").MoveValue();
  ASSERT_EQ(remaining.rows.size(), 3u);
  EXPECT_EQ(remaining.rows[0][0].AsInt().value(), 1);
  EXPECT_EQ(remaining.rows[1][0].AsInt().value(), 3);
  EXPECT_EQ(remaining.rows[2][0].AsInt().value(), 5);
}

TEST_F(DeleteTest, DeleteAllRows) {
  auto result = db_.Execute("delete from t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 5u);
  EXPECT_EQ(CountRows(), 0u);
}

TEST_F(DeleteTest, DeleteNothingMatches) {
  auto result = db_.Execute("delete from t where id = 999");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 0u);
  EXPECT_EQ(CountRows(), 5u);
}

TEST_F(DeleteTest, DeleteUnknownTableFails) {
  EXPECT_TRUE(db_.Execute("delete from nosuch").status().IsNotFound());
}

TEST_F(DeleteTest, InsertAfterDeleteWorks) {
  ASSERT_TRUE(db_.Execute("delete from t where id = 1").ok());
  ASSERT_TRUE(db_.Execute("insert into t values (6, 'new')").ok());
  EXPECT_EQ(CountRows(), 5u);
}

TEST_F(DeleteTest, IndexSkipsDeletedRows) {
  ASSERT_TRUE(db_.Execute("create index i on t (id)").ok());
  ASSERT_TRUE(db_.Execute("delete from t where id = 3").ok());
  // The deleted row's entry left the index with it.
  auto result = db_.Execute("select tag from t where id = 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  // Other indexed lookups still work.
  auto live = db_.Execute("select tag from t where id = 5").MoveValue();
  ASSERT_EQ(live.rows.size(), 1u);
}

TEST_F(DeleteTest, DeleteRemovesIndexEntriesOfEveryIndexedColumn) {
  ASSERT_TRUE(db_.Execute("create table u (a int, b int, c int)").ok());
  ASSERT_TRUE(db_.Execute("create index ua on u (a)").ok());
  ASSERT_TRUE(db_.Execute("create index ub on u (b)").ok());
  ASSERT_TRUE(db_.Execute("insert into u values (1, 10, 0), (2, 20, 1),"
                          " (3, null, 0), (1, 30, 1)")
                  .ok());
  // The predicate reads neither indexed column; the delete still has
  // to decode both to remove their entries.
  auto result = db_.Execute("delete from u where c = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 2u);
  TableInfo* u = db_.catalog()->GetTable("u").value();
  EXPECT_EQ(u->indexes.at("a")->Size().value(), 2u);
  EXPECT_EQ(u->indexes.at("b")->Size().value(), 1u);  // NULL has no entry
  EXPECT_EQ(u->indexes.at("a")->Find(2).value().size(), 0u);
  EXPECT_EQ(u->indexes.at("b")->Find(30).value().size(), 0u);
  ASSERT_TRUE(db_.Execute("delete from u").ok());
  EXPECT_EQ(u->indexes.at("a")->Size().value(), 0u);
  EXPECT_EQ(u->indexes.at("b")->Size().value(), 0u);
}

TEST_F(DeleteTest, DeleteByIndexedColumnThenReinsert) {
  ASSERT_TRUE(db_.Execute("create index i on t (id)").ok());
  ASSERT_TRUE(db_.Execute("delete from t where id = 2").ok());
  ASSERT_TRUE(db_.Execute("insert into t values (2, 'reborn')").ok());
  auto result = db_.Execute("select tag from t where id = 2").MoveValue();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString().value(), "reborn");
}

}  // namespace
}  // namespace qbism::sql
