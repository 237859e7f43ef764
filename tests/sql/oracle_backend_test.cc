// Backend-vs-backend differential oracle (DESIGN.md, "Comparing backends
// defensibly"): every TPC-H plan and a fuzzed query corpus run on BOTH
// production backends — the columnar vectorized executor and the
// packed-tuple row store — across execution modes, worker-thread counts
// {1, 4} and checked execution, and every result must agree with the
// row-at-a-time reference interpreter AND with the other backend. The two
// backends share the plan representation and nothing else (different
// storage layout, different kernels, different I/O accounting), so a
// three-way agreement failure localizes a wrong-result bug to one
// implementation immediately.
//
// Both backends run through the one execution seam, Database::Run, with
// the backend knob flipped per execution. The mutation half commits
// randomized INSERT/DELETE batches through the write path
// (txn::DeltaStore) between queries: the row store's re-sync inside Run
// must observe exactly the committed snapshot a columnar Run() does, or
// the sweep diverges.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "db/reference.h"
#include "sql/planner.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace sql {
namespace {

using db::ExecMode;

constexpr double kDoubleTol = 1e-9;

const ExecMode kModes[] = {ExecMode::kDebug, ExecMode::kOptimized};
const int kThreads[] = {1, 4};

db::Database* Fixture() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.002);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// Runs `plan` on `backend` through Database::Run.
db::QueryResult RunOn(db::Database* database, db::BackendKind backend,
                      const db::PlanPtr& plan, ExecMode mode) {
  database->set_backend(backend);
  return database->Run(plan, mode);
}

/// Runs `plan` on both backends under every mode x threads x check
/// combination; each run must match `expected` (the reference result) and
/// the two backends must match each other within the same combination.
/// Returns the number of backend executions performed. Leaves the
/// database's knobs at their defaults.
int DiffAcrossBackends(db::Database* database, const db::PlanPtr& plan,
                       const db::Table& expected, bool ignore_row_order) {
  int runs = 0;
  for (ExecMode mode : kModes) {
    for (int threads : kThreads) {
      for (bool check : {false, true}) {
        database->set_threads(threads);
        database->set_check(check);
        db::QueryResult col =
            RunOn(database, db::BackendKind::kColumnar, plan, mode);
        db::QueryResult row =
            RunOn(database, db::BackendKind::kRowStore, plan, mode);
        runs += 2;
        const std::string label =
            std::string(" mode=") + ExecModeName(mode) +
            " threads=" + std::to_string(threads) +
            " check=" + (check ? "on" : "off");
        EXPECT_EQ(DiffTables(*col.table, expected, kDoubleTol,
                             ignore_row_order),
                  "")
            << "columnar vs reference" << label;
        EXPECT_EQ(DiffTables(*row.table, expected, kDoubleTol,
                             ignore_row_order),
                  "")
            << "row vs reference" << label;
        EXPECT_EQ(DiffTables(*row.table, *col.table, kDoubleTol,
                             ignore_row_order),
                  "")
            << "row vs columnar" << label;
      }
    }
  }
  database->set_threads(1);
  database->set_check(false);
  database->set_backend(db::BackendKind::kColumnar);
  return runs;
}

class TpchBackendOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchBackendOracleTest, BackendsMatchReferenceAndEachOther) {
  db::Database* database = Fixture();
  const workload::TpchQuery& query = workload::GetTpchQuery(GetParam());
  db::PlanPtr plan = query.Build(*database);
  ASSERT_NE(plan, nullptr);
  std::shared_ptr<const db::Table> expected =
      db::ReferenceExecute(plan, *database);
  int runs = DiffAcrossBackends(database, plan, *expected,
                                /*ignore_row_order=*/true);
  EXPECT_EQ(runs, 2 * 2 * 2 * 2);
}

INSTANTIATE_TEST_SUITE_P(All22, TpchBackendOracleTest,
                         ::testing::Range(1, 23));

/// Compact fuzzer for the backend sweep: the oracle_test.cc grammar
/// family (aggregates and projections over lineitem, optional orders
/// join), always ending in a total-order ORDER BY so backends must agree
/// positionally.
class BackendQueryGen {
 public:
  explicit BackendQueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    bool join = rng_.NextBernoulli(0.4);
    std::string sql_text = "SELECT ";
    if (rng_.NextBernoulli(0.6)) {
      std::string group_col = PickOne(
          join ? std::vector<std::string>{"l_returnflag", "l_shipmode",
                                          "o_orderpriority", "l_suppkey"}
               : std::vector<std::string>{"l_returnflag", "l_linestatus",
                                          "l_suppkey", "l_linenumber"});
      sql_text += group_col + ", " + RandomAggregate() + " AS agg_val";
      sql_text += " FROM lineitem";
      if (join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      if (rng_.NextBernoulli(0.7)) {
        sql_text += " WHERE " + RandomPredicate(join);
      }
      sql_text += " GROUP BY " + group_col + " ORDER BY " + group_col;
    } else {
      sql_text += "l_orderkey, l_quantity, l_extendedprice FROM lineitem";
      if (join) {
        sql_text += " JOIN orders ON l_orderkey = o_orderkey";
      }
      sql_text += " WHERE " + RandomPredicate(join);
      sql_text +=
          " ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber";
    }
    if (rng_.NextBernoulli(0.5)) {
      sql_text += " LIMIT " + std::to_string(rng_.NextInRange(1, 40));
    }
    return sql_text;
  }

 private:
  std::string PickOne(std::vector<std::string> options) {
    return options[rng_.NextBounded(static_cast<uint32_t>(options.size()))];
  }

  std::string RandomAggregate() {
    switch (rng_.NextBounded(6)) {
      case 0:
        return "sum(l_quantity)";
      case 1:
        return "avg(l_extendedprice)";
      case 2:
        return "min(l_discount)";
      case 3:
        return "max(l_extendedprice * (1 - l_discount))";
      case 4:
        return "count(*)";
      default:
        return "count(DISTINCT l_suppkey)";
    }
  }

  std::string RandomPredicate(bool join) {
    std::vector<std::string> conjuncts;
    int n = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < n; ++i) {
      switch (rng_.NextBounded(join ? 6 : 5)) {
        case 0:
          conjuncts.push_back(StrFormat(
              "l_quantity < %lld", (long long)rng_.NextInRange(2, 50)));
          break;
        case 1:
          conjuncts.push_back(
              StrFormat("l_discount BETWEEN 0.0%lld AND 0.0%lld",
                        (long long)rng_.NextInRange(0, 4),
                        (long long)rng_.NextInRange(5, 9)));
          break;
        case 2:
          conjuncts.push_back("l_shipmode IN ('MAIL', 'SHIP', 'AIR')");
          break;
        case 3:
          conjuncts.push_back("l_shipdate >= DATE '199" +
                              std::to_string(rng_.NextInRange(2, 8)) +
                              "-01-01'");
          break;
        case 4:
          conjuncts.push_back(rng_.NextBernoulli(0.5)
                                  ? "l_returnflag = 'R'"
                                  : "NOT l_returnflag = 'N'");
          break;
        default:
          conjuncts.push_back(
              StrFormat("o_totalprice > %lld",
                        (long long)rng_.NextInRange(1000, 400000)));
          break;
      }
    }
    return Join(conjuncts, " AND ");
  }

  Pcg32 rng_;
};

TEST(BackendOracleTest, FuzzedQueriesAgreeAcrossBackends) {
  db::Database* database = Fixture();
  BackendQueryGen gen(20260808);
  int backend_runs = 0;
  const int kQueries = 120;
  for (int i = 0; i < kQueries; ++i) {
    std::string sql_text = gen.Next();
    SCOPED_TRACE(sql_text);
    Result<PlannedQuery> planned = PlanQuery(sql_text, *database);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    std::shared_ptr<const db::Table> expected =
        db::ReferenceExecute(planned->plan, *database);
    backend_runs += DiffAcrossBackends(database, planned->plan, *expected,
                                       /*ignore_row_order=*/false);
  }
  EXPECT_EQ(backend_runs, kQueries * 2 * 2 * 2 * 2);
}

/// One randomized mutation batch (the oracle_mutation_test.cc shape):
/// inserted rows cloned from live rows plus a DELETE of one seeded
/// key-residue class, committed as a single transaction.
void MutateTable(txn::DeltaStore& store, const std::string& table,
                 Pcg32& rng) {
  auto merged = store.MergedTable(table);
  ASSERT_GT(merged->num_rows(), 0u);
  size_t cols = merged->schema().num_columns();
  std::vector<std::vector<db::Value>> rows;
  int num_inserts = 4 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < num_inserts; ++i) {
    size_t src = rng.NextBounded(static_cast<uint32_t>(merged->num_rows()));
    std::vector<db::Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(merged->ValueAt(src, c));
    }
    rows.push_back(std::move(row));
  }
  int64_t residue = static_cast<int64_t>(rng.NextBounded(97));
  uint64_t txn_id = store.Begin();
  ASSERT_TRUE(store.BufferInsert(txn_id, table, std::move(rows)).ok());
  ASSERT_TRUE(store
                  .BufferDelete(txn_id, table,
                                [residue](const db::Table& t, uint32_t r) {
                                  return t.ValueAt(r, 0).AsInt64() % 97 ==
                                         residue;
                                })
                  .ok());
  Status committed = store.Commit(txn_id);
  ASSERT_TRUE(committed.ok()) << committed.ToString();
}

TEST(BackendOracleTest, RowBackendTracksMutationsThroughSyncFrom) {
  db::Database database;
  workload::TpchGenerator gen(0.002);
  gen.LoadAll(&database);
  txn::VirtualDisk disk;
  txn::DeltaStore store(&database, &disk);
  {
    Status opened = store.Open();
    ASSERT_TRUE(opened.ok()) << opened.ToString();
  }

  Pcg32 rng(MixSeed(20260808, 0xBAC, 0xE17));
  const int kQueryIds[] = {1, 3, 6, 12, 14, 19};
  for (int round = 0; round < 6; ++round) {
    MutateTable(store, "lineitem", rng);
    if (round % 2 == 1) {
      MutateTable(store, "orders", rng);
    }
    const workload::TpchQuery& query =
        workload::GetTpchQuery(kQueryIds[round]);
    db::PlanPtr plan = query.Build(database);
    ASSERT_NE(plan, nullptr);
    // The row store runs first, so its Run is the one that folds the
    // committed deltas in (refresh hook) and re-packs the changed tables;
    // the columnar run and the reference then read that same snapshot.
    database.set_check(true);
    for (int threads : kThreads) {
      database.set_threads(threads);
      db::QueryResult row =
          RunOn(&database, db::BackendKind::kRowStore, plan,
                ExecMode::kOptimized);
      db::QueryResult col =
          RunOn(&database, db::BackendKind::kColumnar, plan,
                ExecMode::kOptimized);
      std::shared_ptr<const db::Table> expected =
          db::ReferenceExecute(plan, database);
      const std::string label = "Q" + std::to_string(kQueryIds[round]) +
                                " round " + std::to_string(round) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(DiffTables(*row.table, *expected, kDoubleTol,
                           /*ignore_row_order=*/true),
                "")
          << "row vs reference " << label;
      EXPECT_EQ(DiffTables(*row.table, *col.table, kDoubleTol,
                           /*ignore_row_order=*/true),
                "")
          << "row vs columnar " << label;
    }
  }
  txn::DeltaStoreStats stats = store.stats();
  EXPECT_GT(stats.rows_inserted, 0u);
  EXPECT_GT(stats.rows_deleted, 0u);
}

}  // namespace
}  // namespace sql
}  // namespace perfeval
