// E22 — cost-based planner + compiled batch execution (DESIGN.md §14):
// the SQL layer's plan -> compile -> batch-VM pipeline against the
// tree-walking interpreter it replaced (now the test-support oracle,
// tests/support/tree_walker.h). Three measured sections:
//
//   filter    selective-filter scan throughput (rows/s) on one table,
//             interpreter vs VM executing the identical statement —
//             the VM's columnar predicates and fused compare kernels
//             are the headline speedup;
//   join      a three-table chain join written with the two connected
//             tables non-adjacent in FROM order, planned with and
//             without statistics: with them the optimizer reorders so
//             every join level binds a residual, avoiding the cross
//             product the FROM order would materialize;
//   cache     plan + compile cost for a cold statement, and how far
//             the plan cache amortizes it across repeated executions
//             (the query service's hot path).
//
// Every timed query's result fingerprint is checked against the
// interpreter's (and across configurations) before its numbers are
// reported.
//
// `--smoke` shrinks the tables so `ctest -L perf` exercises every path
// in seconds. Writes BENCH_sql.json.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "sql/database.h"
#include "support/tree_walker.h"

using qbism::Rng;
using qbism::WallTimer;
using qbism::sql::Database;
using qbism::sql::ResultSet;
using qbism::sql::TreeWalker;
using qbism::sql::Value;

namespace {

constexpr const char* kTags[] = {"x", "y", "z", "w"};

void LoadFilterTable(Database* db, int rows, uint64_t seed) {
  // Shaped like the study catalog: a handful of scalar attributes plus
  // descriptive strings. The VM's projected decode skips everything a
  // query does not touch; the interpreter deserializes whole rows.
  QBISM_CHECK(db->Execute("create table t (id int, grp int, a int, b int, "
                          "score int, d string, label string)")
                  .ok());
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    QBISM_CHECK(
        db->Insert("t",
                   {Value::Int(i),
                    Value::Int(static_cast<int64_t>(rng.NextBounded(16))),
                    Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
                    Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
                    Value::Int(static_cast<int64_t>(rng.NextBounded(1000))),
                    Value::String(kTags[rng.NextBounded(4)]),
                    Value::String("study-" +
                                  std::to_string(rng.NextBounded(64)))})
            .ok());
  }
}

/// Chain-join schema: a.id = b.ak and b.ck = c.id, with a and c NOT
/// directly connected. Each table gets `rows` rows with unique ids and
/// uniformly random foreign keys.
void LoadJoinTables(Database* db, int rows, uint64_t seed) {
  QBISM_CHECK(db->Execute("create table a (id int, av int)").ok());
  QBISM_CHECK(db->Execute("create table b (id int, ak int, ck int)").ok());
  QBISM_CHECK(db->Execute("create table c (id int, cv int)").ok());
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    QBISM_CHECK(db->Insert("a", {Value::Int(i),
                                 Value::Int(static_cast<int64_t>(
                                     rng.NextBounded(1000)))})
                    .ok());
    QBISM_CHECK(db->Insert("b", {Value::Int(i),
                                 Value::Int(static_cast<int64_t>(
                                     rng.NextBounded(rows))),
                                 Value::Int(static_cast<int64_t>(
                                     rng.NextBounded(rows)))})
                    .ok());
    QBISM_CHECK(db->Insert("c", {Value::Int(i),
                                 Value::Int(static_cast<int64_t>(
                                     rng.NextBounded(1000)))})
                    .ok());
  }
}

/// Runs `sql` `iters` times on `engine` (the library's Database or the
/// TreeWalker) and returns the best wall time (seconds).
template <typename Engine>
double TimeQuery(Engine* engine, const std::string& sql, int iters,
                 size_t* rows_out) {
  double best = 1e30;
  for (int i = 0; i < iters; ++i) {
    WallTimer timer;
    auto result = engine->Execute(sql);
    double t = timer.Seconds();
    QBISM_CHECK(result.ok());
    if (rows_out != nullptr) *rows_out = result->rows.size();
    if (t < best) best = t;
  }
  return best;
}

uint64_t ResultFingerprint(const ResultSet& rs) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& row : rs.rows) {
    for (const auto& v : row) {
      for (char c : v.ToString()) {
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
      }
      h = (h ^ 0x1f) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("QBISM reproduction E22: planner + batch VM vs interpreter "
              "(%s)\n",
              smoke ? "smoke" : "full");
  qbism::bench::BenchJson json("sql");
  json.AddString("mode", smoke ? "smoke" : "full");

  const int filter_rows = smoke ? 4000 : 120000;
  const int filter_iters = smoke ? 2 : 5;
  const int join_rows = smoke ? 100 : 250;
  const int join_iters = smoke ? 1 : 2;
  const int warm_runs = smoke ? 20 : 200;

  // --- Section 1: selective-filter scan, interpreter vs VM -------------
  qbism::bench::PrintHeading("selective filter scan (" +
                             std::to_string(filter_rows) + " rows)");
  Database db;
  LoadFilterTable(&db, filter_rows, 42);
  TreeWalker interpreter(&db);
  // The headline shape: both conjuncts compile to the fused
  // column-vs-constant kernel and only the projected columns are
  // decoded (the interpreter deserializes whole rows, strings and all).
  const std::string filter_sql =
      "select id, a from t where b > 95 and grp = 7";
  // A second shape where the predicate is a full arithmetic expression
  // tree, exercising the vectorized evaluator rather than the kernel.
  const std::string arith_sql =
      "select id, a from t where ((a * 3) + b) > 380 and d = 'x'";

  auto time_both = [&](const std::string& sql, const char* label,
                       double* speedup) {
    auto interp_result = interpreter.Execute(sql);
    QBISM_CHECK(interp_result.ok());
    size_t hits = 0;
    double interp_s = TimeQuery(&interpreter, sql, filter_iters, &hits);
    auto vm_result = db.Execute(sql);
    QBISM_CHECK(vm_result.ok());
    QBISM_CHECK(ResultFingerprint(*vm_result) ==
                ResultFingerprint(*interp_result));
    double vm_s = TimeQuery(&db, sql, filter_iters, &hits);
    std::printf("  %s (%zu rows pass)\n", label, hits);
    std::printf("    %-26s %12.0f rows/s  (%.3f ms)\n", "interpreter",
                filter_rows / interp_s, interp_s * 1e3);
    std::printf("    %-26s %12.0f rows/s  (%.3f ms)\n", "batch VM",
                filter_rows / vm_s, vm_s * 1e3);
    std::printf("    %-26s %12.2fx\n", "speedup",
                vm_s > 0 ? interp_s / vm_s : 0);
    *speedup = interp_s / vm_s;
    json.Add(std::string(label) + "_interp_rows_per_s",
             filter_rows / interp_s);
    json.Add(std::string(label) + "_vm_rows_per_s", filter_rows / vm_s);
    json.Add(std::string(label) + "_vm_speedup", *speedup);
  };
  json.Add("filter_rows", static_cast<uint64_t>(filter_rows));
  double fused_speedup = 0, arith_speedup = 0;
  time_both(filter_sql, "filter", &fused_speedup);
  time_both(arith_sql, "filter_arith", &arith_speedup);

  // --- Section 2: join reordering on/off --------------------------------
  qbism::bench::PrintHeading("join order (3-table chain, " +
                             std::to_string(join_rows) + " rows each)");
  // Written so the two FROM-adjacent tables (a, c) share no predicate:
  // keeping FROM order means the first join level is a raw cross
  // product of a x c, and both equi-joins only apply at the last level.
  // With statistics the optimizer orders a, b, c so each level binds
  // one equi-join and the intermediate stays ~|a|.
  const std::string join_sql =
      "select count(*) from a, c, b "
      "where a.id = b.ak and b.ck = c.id";
  Database db_off;
  LoadJoinTables(&db_off, join_rows, 7);
  auto off_result = db_off.Execute(join_sql);
  QBISM_CHECK(off_result.ok());
  auto join_interp_result = TreeWalker(&db_off).Execute(join_sql);
  QBISM_CHECK(join_interp_result.ok());
  QBISM_CHECK(ResultFingerprint(*off_result) ==
              ResultFingerprint(*join_interp_result));
  double off_s = TimeQuery(&db_off, join_sql, join_iters, nullptr);

  Database db_on;
  LoadJoinTables(&db_on, join_rows, 7);
  QBISM_CHECK(db_on.planner_stats()->AnalyzeAll(db_on.catalog()).ok());
  auto on_result = db_on.Execute(join_sql);
  QBISM_CHECK(on_result.ok());
  QBISM_CHECK(ResultFingerprint(*on_result) ==
              ResultFingerprint(*off_result));
  double on_s = TimeQuery(&db_on, join_sql, join_iters, nullptr);

  std::printf("  %-28s %10.3f ms\n", "FROM order (no statistics)",
              off_s * 1e3);
  std::printf("  %-28s %10.3f ms\n", "reordered (with statistics)",
              on_s * 1e3);
  std::printf("  %-28s %10.2fx\n", "reordering win",
              on_s > 0 ? off_s / on_s : 0);
  json.Add("join_rows_per_table", static_cast<uint64_t>(join_rows));
  json.Add("join_from_order_s", off_s);
  json.Add("join_reordered_s", on_s);
  json.Add("join_reorder_speedup", off_s / on_s);

  // --- Section 3: plan + compile cost, amortized by the cache ----------
  qbism::bench::PrintHeading("plan + compile overhead (cache amortization)");
  Database db_cache;
  LoadFilterTable(&db_cache, smoke ? 2000 : 20000, 9);
  const std::string cached_sql =
      "select grp, count(*), sum(a) from t "
      "where b > 10 and d <> 'w' group by grp";
  WallTimer cold_timer;
  auto cold_result = db_cache.Execute(cached_sql);  // parse+plan+compile+run
  double cold_s = cold_timer.Seconds();
  QBISM_CHECK(cold_result.ok());
  auto cache_interp_result = TreeWalker(&db_cache).Execute(cached_sql);
  QBISM_CHECK(cache_interp_result.ok());
  const uint64_t cache_fingerprint = ResultFingerprint(*cold_result);
  QBISM_CHECK(cache_fingerprint == ResultFingerprint(*cache_interp_result));
  uint64_t hits_before = db_cache.plan_cache()->hits();
  std::vector<ResultSet> warm_results;
  warm_results.reserve(static_cast<size_t>(warm_runs));
  WallTimer warm_timer;
  for (int i = 0; i < warm_runs; ++i) {
    auto result = db_cache.Execute(cached_sql);
    QBISM_CHECK(result.ok());
    warm_results.push_back(std::move(result).MoveValue());
  }
  double warm_total_s = warm_timer.Seconds();
  double warm_s = warm_total_s / warm_runs;
  QBISM_CHECK(db_cache.plan_cache()->hits() ==
              hits_before + static_cast<uint64_t>(warm_runs));
  for (const ResultSet& result : warm_results) {
    QBISM_CHECK(ResultFingerprint(result) == cache_fingerprint);
  }
  // The one-time parse/plan/compile cost spread over the cached runs.
  double overhead_pct =
      warm_total_s > 0 ? 100.0 * (cold_s - warm_s) / warm_total_s : 0.0;
  if (overhead_pct < 0) overhead_pct = 0;
  std::printf("  %-28s %10.3f ms\n", "cold (parse+plan+compile)",
              cold_s * 1e3);
  std::printf("  %-28s %10.3f ms\n", "warm (cached plan)", warm_s * 1e3);
  std::printf("  amortized overhead over %d runs: %.2f%%\n", warm_runs,
              overhead_pct);
  json.Add("plan_cold_s", cold_s);
  json.Add("plan_warm_s", warm_s);
  json.Add("plan_warm_runs", static_cast<uint64_t>(warm_runs));
  json.Add("plan_overhead_amortized_pct", overhead_pct);

  if (!json.WriteFile("BENCH_sql.json")) {
    std::fprintf(stderr, "failed to write BENCH_sql.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_sql.json\n");
  return 0;
}
