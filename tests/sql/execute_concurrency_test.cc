// Database::Execute is the one path from SQL text to rows, and service
// threads call it concurrently on one database: they share its plan
// cache and its planner statistics. Four threads run a fixed mix of
// repeated SELECTs, distinct SELECTs and EXPLAINs of the same texts
// while a fifth re-analyzes every table in a loop, which bumps the
// statistics version and so retires cached plans under the readers.
// Every SELECT must equal its single-threaded answer, every EXPLAIN
// must print a plan, and the cache must count each SELECT exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "sql/database.h"

namespace qbism::sql {
namespace {

constexpr int kWorkers = 4;
constexpr int kRounds = 40;

void Fill(Database* db) {
  ASSERT_TRUE(db->Execute("create table t (id int, v int)").ok());
  ASSERT_TRUE(db->Execute("create table u (id int, w int)").ok());
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(db->Insert("t", {Value::Int(i), Value::Int(i * 7)}).ok());
    ASSERT_TRUE(db->Insert("u", {Value::Int(i % 64), Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db->Execute("create index t_id on t (id)").ok());
}

/// Texts every worker runs each round. Their answers cannot depend on
/// the plan: single-table access paths keep heap order (the equality
/// probe sees one row), and the join is ordered on a unique key.
const std::vector<std::string>& RepeatedQueries() {
  static const std::vector<std::string> queries = {
      "select v from t where id = 17",
      "select id from t where id >= 40 and id <= 52",
      "select count(*), sum(v) from t where v > 900",
      "select t.id, u.w from t, u where t.id = u.id and u.w < 40 "
      "order by 2",
  };
  return queries;
}

/// A text no other worker or round runs: each one is planned once.
std::string DistinctQuery(int worker, int round) {
  return "select v from t where id = " +
         std::to_string((worker * kRounds + round) % 256) +
         " and v >= " + std::to_string(-worker - 1);
}

TEST(ExecuteConcurrencyTest, SharedEntryPointUnderStatisticsRefresh) {
  // Single-threaded answers, from an identical database, so the shared
  // one starts with a cold plan cache.
  Database reference;
  Fill(&reference);
  std::map<std::string, std::string> expected;
  auto remember = [&](const std::string& sql) {
    auto result = reference.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    expected[sql] = result->ToString();
  };
  for (const std::string& sql : RepeatedQueries()) remember(sql);
  for (int w = 0; w < kWorkers; ++w) {
    for (int r = 0; r < kRounds; ++r) remember(DistinctQuery(w, r));
  }

  Database db;
  Fill(&db);
  const PlanCache* cache = db.plan_cache();
  const uint64_t hits_before = cache->hits();
  const uint64_t misses_before = cache->misses();

  std::atomic<bool> stop{false};
  std::atomic<int> analyzed{0};
  std::thread analyzer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db.planner_stats()->AnalyzeAll(db.catalog()).ok());
      analyzed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::atomic<uint64_t> selects{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      auto check_select = [&](const std::string& sql) {
        auto result = db.Execute(sql);
        selects.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        EXPECT_EQ(result->ToString(), expected.at(sql)) << sql;
      };
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& sql : RepeatedQueries()) {
          check_select(sql);
          auto plan = db.Execute("explain " + sql);
          ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
          ASSERT_EQ(plan->columns, std::vector<std::string>{"plan"}) << sql;
          ASSERT_FALSE(plan->rows.empty()) << sql;
          EXPECT_EQ(plan->rows[0][0].AsString().value().rfind("select: ", 0),
                    0u)
              << sql;
        }
        check_select(DistinctQuery(w, r));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true, std::memory_order_release);
  analyzer.join();

  EXPECT_GT(analyzed.load(), 0);
  EXPECT_EQ(selects.load(),
            uint64_t{kWorkers} * kRounds * (RepeatedQueries().size() + 1));
  // Each SELECT counted once: a hit when a cached plan served it, a
  // miss when it had to be planned. EXPLAINs count neither.
  EXPECT_EQ((cache->hits() - hits_before) + (cache->misses() - misses_before),
            selects.load());
}

}  // namespace
}  // namespace qbism::sql
