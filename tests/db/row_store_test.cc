// Unit coverage for the row-store backend and Database::Run's backend
// dispatch: the packed row layout (pack/unpack round-trips every column
// type including NULL masks), the row pager's I/O accounting (full-tuple
// cold charges, warm hits, eviction, ReplaceTable cold), the row store's
// determinism contract (results and StorageStats identical at any thread
// count and batch boundary), overflow propagation, concurrent row-store
// Run safety (the TSan surface), the backend-kind knob parsing, and the
// one execution seam: both backends through Database::Run, the row copy
// built only when asked for, cold runs after FlushCaches, and the query
// service reaching the row store with no code of its own.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/backend_kind.h"
#include "db/database.h"
#include "db/error.h"
#include "db/expr.h"
#include "db/plan.h"
#include "db/reference.h"
#include "db/row_backend.h"
#include "db/row_layout.h"
#include "db/row_pager.h"
#include "serve/service.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace db {
namespace {

// ---- Backend-kind knob ----

TEST(BackendKindTest, ParsesCanonicalNamesAndAliases) {
  EXPECT_EQ(ParseBackendKind("col").value(), BackendKind::kColumnar);
  EXPECT_EQ(ParseBackendKind("columnar").value(),
            BackendKind::kColumnar);
  EXPECT_EQ(ParseBackendKind("row").value(), BackendKind::kRowStore);
  EXPECT_EQ(ParseBackendKind("rowstore").value(),
            BackendKind::kRowStore);
  EXPECT_STREQ(BackendKindName(BackendKind::kColumnar), "col");
  EXPECT_STREQ(BackendKindName(BackendKind::kRowStore), "row");
}

TEST(BackendKindTest, RejectsTyposAsUsageErrors) {
  for (const char* bad : {"", "Row", "COL", "column", "rows", "both"}) {
    Result<BackendKind> kind = ParseBackendKind(bad);
    EXPECT_FALSE(kind.ok()) << bad;
    EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---- Row layout ----

Schema AllTypesSchema() {
  return Schema({{"i", DataType::kInt64},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString},
                     {"t", DataType::kDate}});
}

/// A table exercising every type with NULLs sprinkled in every column —
/// including row 0 (leading NULL bits) and a NULL in the final row.
std::shared_ptr<Table> AllTypesTable(size_t n) {
  auto table = std::make_shared<Table>(AllTypesSchema());
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.push_back(r % 5 == 0 ? Value::Null(DataType::kInt64)
                             : Value::Int64(static_cast<int64_t>(r) - 3));
    row.push_back(r % 7 == 1 ? Value::Null(DataType::kDouble)
                             : Value::Double(0.25 * static_cast<double>(r)));
    row.push_back(r % 3 == 2
                      ? Value::Null(DataType::kString)
                      : Value::String("str_" + std::to_string(r % 11)));
    row.push_back(r + 1 == n ? Value::Null(DataType::kDate)
                             : Value::Date(static_cast<int32_t>(10000 + r)));
    table->AppendRow(row);
  }
  return table;
}

TEST(RowLayoutTest, StrideAndNullBitmapShape) {
  RowLayout narrow = RowLayout::For(Schema({{"a", DataType::kInt64}}));
  EXPECT_EQ(narrow.stride(), 8u + 8u);  // 1 null byte padded to 8, 1 slot.
  // 9 columns need 2 null bytes, still one 8-byte bitmap word.
  std::vector<ColumnSpec> specs;
  for (int i = 0; i < 9; ++i) {
    specs.push_back({"c" + std::to_string(i), DataType::kInt64});
  }
  RowLayout wide = RowLayout::For(Schema(specs));
  EXPECT_EQ(wide.stride(), 8u + 9u * 8u);
  EXPECT_EQ(wide.SlotOffset(0), 8u);
  EXPECT_EQ(RowLayout::NullByte(8), 1u);
  EXPECT_EQ(RowLayout::NullBit(8), 1u);
}

TEST(RowLayoutTest, PackUnpackRoundTripsAllTypesAndNullMasks) {
  for (size_t n : {0u, 1u, 7u, 64u, 257u}) {
    std::shared_ptr<Table> table = AllTypesTable(n);
    RowBlock block = PackTable(*table);
    ASSERT_EQ(block.num_rows(), n);
    std::shared_ptr<Table> back = UnpackToTable(block);
    EXPECT_EQ(DiffTables(*back, *table, 0.0,
                             /*ignore_row_order=*/false),
              "")
        << "n=" << n;
    // Spot-check the typed readers against the source values.
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < 4; ++c) {
        Value expect = table->ValueAt(r, c);
        EXPECT_EQ(block.IsNull(r, c), expect.is_null());
        Value got = block.ValueAt(r, c);
        EXPECT_EQ(got.ToString(), expect.ToString());
      }
    }
  }
}

TEST(RowLayoutTest, StringHeapSlotMath) {
  StringHeap heap;
  uint64_t a = heap.Append("hello");
  uint64_t b = heap.Append("world!");
  EXPECT_EQ(heap.At(a), "hello");
  EXPECT_EQ(heap.At(b), "world!");
  EXPECT_EQ(StringHeap::SlotLength(b), 6u);

  StringHeap merged;
  uint32_t d0 = merged.AppendHeap(heap);
  EXPECT_EQ(d0, 0u);
  StringHeap other;
  uint64_t c = other.Append("xyz");
  uint32_t delta = merged.AppendHeap(other);
  EXPECT_EQ(delta, heap.size_bytes());
  EXPECT_EQ(merged.At(StringHeap::ShiftSlot(c, delta)), "xyz");
  EXPECT_EQ(merged.At(a), "hello");  // original slots stay valid.
}

// ---- Row pager ----

TEST(RowPagerTest, ColdChargesFullTupleBytesThenWarmHits) {
  std::shared_ptr<Table> table = AllTypesTable(100);
  RowBlock block = PackTable(*table);
  DiskModel disk;
  RowPager pager(disk, /*buffer_pool_pages=*/64, /*rows_per_page=*/16);
  pager.RegisterTable(1, block);
  EXPECT_EQ(pager.NumPages(1), 7u);  // ceil(100 / 16).

  StorageStats cold = pager.TouchRows(1, 0, 100);
  EXPECT_EQ(cold.page_misses, 7);
  EXPECT_EQ(cold.page_hits, 0);
  // A row page carries complete tuples: packed stride bytes plus the
  // string payload, i.e. exactly the block's byte size over all pages.
  EXPECT_EQ(static_cast<size_t>(cold.bytes_read), block.ByteSize());
  // One seek for the first page, then the stream is sequential.
  int64_t expect_stall =
      disk.seek_ns +
      static_cast<int64_t>(cold.bytes_read * disk.ns_per_byte);
  EXPECT_EQ(cold.stall_ns, expect_stall);

  StorageStats warm = pager.TouchRows(1, 0, 100);
  EXPECT_EQ(warm.page_misses, 0);
  EXPECT_EQ(warm.page_hits, 7);
  EXPECT_EQ(warm.bytes_read, 0);
  EXPECT_EQ(warm.stall_ns, 0);

  pager.FlushCaches();
  StorageStats again = pager.TouchRows(1, 0, 100);
  EXPECT_EQ(again.page_misses, 7);
}

TEST(RowPagerTest, EvictsPastPoolBudgetAndReplaceTableGoesCold) {
  std::shared_ptr<Table> table = AllTypesTable(100);
  RowBlock block = PackTable(*table);
  // Pool holds 4 of the 7 pages: a full sweep always evicts the head of
  // the scan, so the next sweep misses everything (sequential flooding).
  RowPager pager(DiskModel(), /*buffer_pool_pages=*/4,
                 /*rows_per_page=*/16);
  pager.RegisterTable(1, block);
  (void)pager.TouchRows(1, 0, 100);
  StorageStats sweep = pager.TouchRows(1, 0, 100);
  EXPECT_EQ(sweep.page_misses, 7);

  // Touch a prefix that fits: resident afterwards.
  RowPager fits(DiskModel(), /*buffer_pool_pages=*/4,
                /*rows_per_page=*/16);
  fits.RegisterTable(1, block);
  (void)fits.TouchRows(1, 0, 48);
  EXPECT_EQ(fits.TouchRows(1, 0, 48).page_hits, 3);

  // ReplaceTable evicts the old version: the new pages are cold.
  fits.ReplaceTable(1, block);
  StorageStats replaced = fits.TouchRows(1, 0, 48);
  EXPECT_EQ(replaced.page_misses, 3);
  EXPECT_EQ(replaced.page_hits, 0);
}

// ---- Row-store backend ----

PlanPtr AllTypesFilterPlan(const Schema& schema) {
  return Sort(
      Project(
          FilterScan("t", {}, Ge(Col(schema, "i"),
                                         LitInt(0))),
          {Col(schema, "i"), Col(schema, "s"),
           Mul(Col(schema, "d"), LitDouble(2.0))},
          {"i", "s", "d2"}),
      {{"i", true}});
}

/// Runs `plan` on a standalone row store (optimized mode) and finishes
/// the packed result into a table, as Database::Run's client phase does.
QueryResult ExecuteRows(RowStoreBackend& backend, const PlanPtr& plan,
                        int threads, bool check) {
  QueryResult result;
  RowBlockPtr block = backend.Execute(*plan, ExecMode::kOptimized, threads,
                                      check, &result.profile,
                                      &result.storage);
  result.table = UnpackToTable(*block);
  return result;
}

/// A database over AllTypesTable(n) that executes on the row store.
std::unique_ptr<Database> RowStoreDatabase(size_t n) {
  auto database = std::make_unique<Database>();
  database->RegisterTable("t", AllTypesTable(n));
  database->set_backend(BackendKind::kRowStore);
  return database;
}

/// Results and per-execution StorageStats must be identical at any
/// thread count — batches are fixed-size and I/O is charged by the
/// coordinator in row order, never by worker interleaving.
TEST(RowBackendTest, DeterministicResultsAndStatsAcrossThreadCounts) {
  RowStoreBackend::Options options;
  options.batch_rows = 16;  // Many batches even on a small table.
  RowStoreBackend backend(options);
  std::shared_ptr<Table> table = AllTypesTable(300);
  backend.RegisterTable("t", table);
  PlanPtr plan = AllTypesFilterPlan(table->schema());

  std::shared_ptr<const Table> baseline;
  StorageStats base_stats;
  for (int threads : {1, 2, 8}) {
    backend.FlushCaches();
    QueryResult result = ExecuteRows(backend, plan, threads, /*check=*/true);
    if (baseline == nullptr) {
      baseline = result.table;
      base_stats = result.storage;
      continue;
    }
    EXPECT_EQ(DiffTables(*result.table, *baseline, 0.0,
                         /*ignore_row_order=*/false),
              "")
        << "threads=" << threads;
    EXPECT_EQ(result.storage.page_hits, base_stats.page_hits);
    EXPECT_EQ(result.storage.page_misses, base_stats.page_misses);
    EXPECT_EQ(result.storage.bytes_read, base_stats.bytes_read);
    EXPECT_EQ(result.storage.stall_ns, base_stats.stall_ns);
  }
}

/// The boundary cases of fixed-size batching: row counts straddling the
/// batch size must neither drop nor duplicate rows on any operator path.
TEST(RowBackendTest, BatchBoundaryRowCounts) {
  for (size_t n : {15u, 16u, 17u, 31u, 32u, 33u}) {
    RowStoreBackend::Options options;
    options.batch_rows = 16;
    RowStoreBackend backend(options);
    std::shared_ptr<Table> table = AllTypesTable(n);
    backend.RegisterTable("t", table);
    PlanPtr plan = AllTypesFilterPlan(table->schema());
    for (int threads : {1, 4}) {
      QueryResult result = ExecuteRows(backend, plan, threads,
                                       /*check=*/true);
      // Independent expectation: count rows with non-NULL i >= 0.
      size_t expect = 0;
      for (size_t r = 0; r < n; ++r) {
        Value v = table->ValueAt(r, 0);
        if (!v.is_null() && v.AsInt64() >= 0) {
          ++expect;
        }
      }
      EXPECT_EQ(result.table->num_rows(), expect)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(RowBackendTest, SumOverflowThrowsOutOfRange) {
  Database database;
  auto table = std::make_shared<Table>(Schema({{"v", DataType::kInt64}}));
  table->AppendRow({Value::Int64(std::numeric_limits<int64_t>::max())});
  table->AppendRow({Value::Int64(1)});
  database.RegisterTable("t", table);
  database.set_backend(BackendKind::kRowStore);
  PlanPtr plan = Aggregate(Scan("t"), {},
                           {{AggOp::kSum, Col(table->schema(), "v"), "s"}});
  try {
    (void)database.Run(plan);
    FAIL() << "expected QueryError";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.code(), StatusCode::kOutOfRange);
  }
}

/// Concurrent row-store runs over one database share immutable blocks, a
/// locked pager and the lazily built row store itself; run the same plan
/// from several threads — the first of them racing to build the row copy
/// — and require every result identical (the TSan job drives this test).
TEST(RowBackendTest, ConcurrentExecuteIsSafeAndAgrees) {
  std::unique_ptr<Database> database = RowStoreDatabase(500);
  database->set_threads(2);
  PlanPtr plan = AllTypesFilterPlan(database->GetTable("t").schema());
  std::shared_ptr<const Table> expected =
      ReferenceExecute(plan, *database);

  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Table>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&database, &plan, &results, i] {
      results[i] = database->Run(plan).table;
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(DiffTables(*results[i], *expected, 0.0,
                         /*ignore_row_order=*/false),
              "")
        << "worker " << i;
  }
}

// ---- The two backends through one Database::Run ----

TEST(DatabaseBackendTest, RunsBothKindsOverOneDatabase) {
  Database database;
  workload::TpchGenerator gen(0.001);
  gen.LoadAll(&database);
  PlanPtr plan = workload::GetTpchQuery(6).Build(database);
  ASSERT_NE(plan, nullptr);
  QueryResult a = database.Run(plan);
  EXPECT_EQ(database.row_store(), nullptr);
  database.set_backend(BackendKind::kRowStore);
  QueryResult b = database.Run(plan);
  ASSERT_NE(database.row_store(), nullptr);
  EXPECT_EQ(DiffTables(*b.table, *a.table, 1e-9,
                       /*ignore_row_order=*/true),
            "");
  // The columnar run reports the database's own storage counters; the
  // row store accounts through its private pager.
  EXPECT_GT(a.storage.page_misses + a.storage.page_hits, 0);
  EXPECT_GT(b.storage.page_misses + b.storage.page_hits, 0);
  EXPECT_EQ(database.row_store()->StorageSnapshot().page_misses,
            b.storage.page_misses);
  // The row store's finish (unpacking its packed result) is client-phase
  // time, never server time.
  EXPECT_GE(b.client.real_ns, b.server.real_ns);
  EXPECT_EQ(b.server.simulated_stall_ns, b.storage.stall_ns);
}

/// The layouts' defining I/O difference, observable through StorageStats:
/// projecting ONE column of a wide table costs the row store full-tuple
/// bytes but costs the columnar engine only that column's pages.
TEST(DatabaseBackendTest, NarrowProjectionReadsFewerBytesColumnar) {
  Database database;
  workload::TpchGenerator gen(0.002);
  gen.LoadAll(&database);
  const Schema& schema = database.GetTable("lineitem").schema();
  PlanPtr plan = Aggregate(
      Project(Scan("lineitem", {"l_quantity"}),
              {Col(schema, "l_quantity")}, {"l_quantity"}),
      {},
      {{AggOp::kSum,
        Col(Schema({{"l_quantity", DataType::kDouble}}), "l_quantity"),
        "s"}});
  database.FlushCaches();
  QueryResult a = database.Run(plan);
  database.set_backend(BackendKind::kRowStore);
  database.FlushCaches();
  QueryResult b = database.Run(plan);
  EXPECT_EQ(DiffTables(*b.table, *a.table, 1e-9,
                       /*ignore_row_order=*/false),
            "");
  EXPECT_GT(b.storage.bytes_read, 4 * a.storage.bytes_read)
      << "row store must pay full-tuple I/O for a one-column query";
}

/// A database that never runs on the row store never packs a row copy or
/// builds a pager — not on register, run, replace, nor flush.
TEST(DatabaseBackendTest, ColumnarOnlyDatabaseNeverBuildsTheRowStore) {
  Database database;
  database.RegisterTable("t", AllTypesTable(100));
  PlanPtr plan = AllTypesFilterPlan(database.GetTable("t").schema());
  (void)database.Run(plan);
  database.ReplaceTable("t", AllTypesTable(120));
  database.FlushCaches();
  (void)database.Run(plan, ExecMode::kDebug);
  EXPECT_EQ(database.row_store(), nullptr);
}

TEST(DatabaseBackendTest, FlushCachesMakesTheNextRowStoreRunCold) {
  std::unique_ptr<Database> database = RowStoreDatabase(300);
  PlanPtr plan = AllTypesFilterPlan(database->GetTable("t").schema());
  QueryResult cold = database->Run(plan);
  ASSERT_GT(cold.storage.page_misses, 0);
  QueryResult warm = database->Run(plan);
  EXPECT_EQ(warm.storage.page_misses, 0);
  EXPECT_EQ(warm.storage.page_hits, cold.storage.page_misses);
  database->FlushCaches();
  QueryResult again = database->Run(plan);
  EXPECT_EQ(again.storage.page_misses, cold.storage.page_misses);
  EXPECT_EQ(again.storage.stall_ns, cold.storage.stall_ns);
}

/// The row copy re-packs exactly the tables whose installed snapshot
/// changed, and switching backends keeps the row store's pool warm.
TEST(DatabaseBackendTest, RowStoreRepacksOnlyReplacedTables) {
  std::unique_ptr<Database> database = RowStoreDatabase(50);
  database->RegisterTable("u", AllTypesTable(70));
  PlanPtr plan = AllTypesFilterPlan(database->GetTable("t").schema());
  (void)database->Run(plan);
  RowBlockPtr t_before = database->row_store()->GetBlock("t");
  RowBlockPtr u_before = database->row_store()->GetBlock("u");

  database->set_backend(BackendKind::kColumnar);
  database->ReplaceTable("t", AllTypesTable(80));
  (void)database->Run(plan);
  EXPECT_EQ(database->row_store()->GetBlock("t"), t_before)
      << "a columnar run must not re-sync the row copy";

  database->set_backend(BackendKind::kRowStore);
  QueryResult result = database->Run(plan);
  EXPECT_NE(database->row_store()->GetBlock("t"), t_before);
  EXPECT_EQ(database->row_store()->GetBlock("t")->num_rows(), 80u);
  EXPECT_EQ(database->row_store()->GetBlock("u"), u_before);
  EXPECT_EQ(DiffTables(*result.table, *ReferenceExecute(plan, *database),
                       0.0, /*ignore_row_order=*/false),
            "");
}

/// The serving tier reaches the row store through Database::Run with no
/// code of its own, and returns exactly the columnar rows.
TEST(DatabaseBackendTest, QueryServiceOverRowStoreReturnsColumnarRows) {
  Database database;
  workload::TpchGenerator gen(0.001);
  gen.LoadAll(&database);
  serve::ServiceOptions options;
  options.workers = 2;
  serve::QueryService service(&database, options);
  for (int q : {1, 3, 6, 12}) {
    PlanPtr plan = workload::GetTpchQuery(q).Build(database);
    ASSERT_NE(plan, nullptr);
    database.set_backend(BackendKind::kColumnar);
    std::shared_ptr<const Table> columnar = database.Run(plan).table;
    database.set_backend(BackendKind::kRowStore);
    serve::Request request;
    request.plan = plan;
    serve::Response response = service.Execute(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(DiffTables(*response.table, *columnar, 1e-9,
                         /*ignore_row_order=*/true),
              "")
        << "Q" << q;
  }
  ASSERT_NE(database.row_store(), nullptr);
  EXPECT_GT(database.row_store()->StorageSnapshot().page_hits +
                database.row_store()->StorageSnapshot().page_misses,
            0);
  service.Shutdown();
}

}  // namespace
}  // namespace db
}  // namespace perfeval
