// htap_write: the serve tier beside the write path. Two closed-loop clients
// (no think time) share one seeded stream. Most operations are SELECTs
// through a QueryService: lookups of recently written order keys and a
// small orders x lineitem aggregate over recent orders. Write operations
// are paced at a fixed rate, made of DML through sql::ParseSql ->
// txn::ExecuteInsert / ExecuteDelete on a DeltaStore over a VirtualDisk;
// the run reports the share of DML statements it measured.
// New orders go to a reserved key range and the oldest are deleted, so
// table sizes stay steady. The run ends with a checkpoint, a fixed-length
// commit tail, a VirtualDisk::Reopen() and fresh DeltaStore::Open() calls.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>

#include "db/error.h"
#include "db/reference.h"
#include "engine.h"
#include "sql/parser.h"
#include "stats.h"
#include "stats/descriptive.h"
#include "templates.h"
#include "txn/dml.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace txn = perfeval::txn;

constexpr double kScaleFactor = 0.002;
constexpr double kWritesPerSecond = 6.0;  // alternately new order, delete.
constexpr size_t kPoolPages = 1 << 14;  // holds every page at this scale.
constexpr int kClients = 2;
constexpr int kServiceWorkers = 2;
constexpr int64_t kReservedBase = 1'000'000'000;  // above generated keys.
constexpr size_t kLiveOrders = 32;   // reserved orders kept alive.
constexpr int kCheckpointEvery = 40;  // commits.
constexpr int kTailOrders = 16;       // two commits each.
constexpr int kRecoveryReps = 3;
constexpr int kAggDates = 16;  // seeded pool of the join aggregate's dates.

// The rows of reserved order `key`: a pure function of (seed, key), so
// every check can rebuild what was written.
struct NewOrder {
  std::vector<db::Value> order;
  std::vector<std::vector<db::Value>> lines;
};

NewOrder MakeOrder(uint64_t seed, int64_t key) {
  uint64_t h = Mix(seed ^ Mix(static_cast<uint64_t>(key)));
  auto draw = [&h](int64_t lo, int64_t hi) {
    h = Mix(h);
    return lo + static_cast<int64_t>(h % static_cast<uint64_t>(hi - lo + 1));
  };
  int32_t orderdate = db::DateFromYmd(1998, 1, 1) +
                      static_cast<int32_t>(draw(0, 200));
  NewOrder o;
  o.order = {db::Value::Int64(key),
             db::Value::Int64(draw(1, 1500)),
             db::Value::String("O"),
             db::Value::Double(static_cast<double>(draw(100000, 50000000)) / 100),
             db::Value::Date(orderdate),
             db::Value::String("1-URGENT"),
             db::Value::String("Clerk#000000001"),
             db::Value::Int64(0),
             db::Value::String("reserved")};
  int64_t lines = draw(1, 4);
  for (int64_t line = 1; line <= lines; ++line) {
    int32_t ship = orderdate + static_cast<int32_t>(draw(1, 100));
    o.lines.push_back({db::Value::Int64(key), db::Value::Int64(draw(1, 2000)),
                       db::Value::Int64(draw(1, 100)), db::Value::Int64(line),
                       db::Value::Double(static_cast<double>(draw(1, 50))),
                       db::Value::Double(static_cast<double>(draw(100000, 9000000)) / 100),
                       db::Value::Double(static_cast<double>(draw(0, 10)) / 100),
                       db::Value::Double(static_cast<double>(draw(0, 8)) / 100),
                       db::Value::String("N"), db::Value::String("O"),
                       db::Value::Date(ship), db::Value::Date(ship + 30),
                       db::Value::Date(ship + 10),
                       db::Value::String("NONE"), db::Value::String("AIR"),
                       db::Value::String("reserved")});
  }
  return o;
}

// Everything one run of the workload owns.
struct Engine {
  std::unique_ptr<db::Database> database;
  std::unique_ptr<txn::VirtualDisk> disk;
  std::unique_ptr<txn::DeltaStore> store;
  std::unique_ptr<serve::QueryService> service;
  std::map<std::string, std::shared_ptr<db::Table>> base;

  void Reset() {
    service.reset();
    store.reset();
    disk.reset();
    database.reset();
    base.clear();
  }
};

// Shared client state: acknowledged reserved orders, oldest first, and
// line counters that bound how many reserved lines a join count may see.
struct WriteState {
  std::mutex mu;
  std::deque<int64_t> live;
  std::atomic<int64_t> next_key{kReservedBase};
  std::atomic<int64_t> lines_insert_issued{0}, lines_insert_acked{0};
  std::atomic<int64_t> lines_delete_issued{0}, lines_delete_acked{0};
  std::atomic<int64_t> commits{0};
  std::atomic<int64_t> checkpoint_bytes{0}, checkpoint_fsyncs{0};
  std::atomic<bool> auto_checkpoint{true};
};

}  // namespace

RunResult RunHtapWrite(const RunConfig& config) {
  RunResult result;
  Tracer setup_tracer;
  Tracer* setup_trace = config.trace ? &setup_tracer : nullptr;
  Engine engine;
  std::vector<double> setup_s = TimeSetups(
      setup_trace, [&] { engine.Reset(); },
      [&](uint64_t setup) {
        engine.database =
            std::make_unique<db::Database>(MakeDatabaseOptions(kPoolPages));
        perfeval::workload::TpchGenerator generator(kScaleFactor);
        for (const std::string& name : TpchTables()) {
          {
            ScopedSpan span(setup_trace, "workload.generate", setup, setup);
            engine.base[name] = generator.Generate(name);
          }
          ScopedSpan span(setup_trace, "db.register", setup, setup);
          engine.database->RegisterTable(name, engine.base[name]);
        }
        engine.disk = std::make_unique<txn::VirtualDisk>();
        engine.store = std::make_unique<txn::DeltaStore>(engine.database.get(),
                                                         engine.disk.get());
        {
          ScopedSpan span(setup_trace, "txn.open", setup, setup);
          perfeval::Status opened = engine.store->Open();
          PERFEVAL_CHECK(opened.ok()) << opened.ToString();
        }
        engine.service = std::make_unique<serve::QueryService>(
            engine.database.get(), MakeServiceOptions(kServiceWorkers));
      });
  db::Database& database = *engine.database;
  txn::DeltaStore& store = *engine.store;
  const db::Schema orders_schema = engine.base["orders"]->schema();
  const db::Schema lineitem_schema = engine.base["lineitem"]->schema();
  result.sizes_json =
      "{\"scale_factor\": " + std::to_string(kScaleFactor) +
      ", \"lineitem_rows\": " +
      std::to_string(engine.base["lineitem"]->num_rows()) +
      ", \"buffer_pool_pages\": " + std::to_string(kPoolPages) +
      ", \"clients\": " + std::to_string(kClients) +
      ", \"service_workers\": " + std::to_string(kServiceWorkers) +
      ", \"live_reserved_orders\": " + std::to_string(kLiveOrders) +
      ", \"checkpoint_every_commits\": " + std::to_string(kCheckpointEvery) +
      ", \"tail_commits\": " + std::to_string(2 * kTailOrders) + "}";

  WriteState state;
  LayerSamples* samples = nullptr;  // set during the traced phase.
  Tracer* tracer = nullptr;

  // One DML statement of kind `kind`: parse, the auto-commit write path,
  // then Database::Refresh(), so that the statement is acknowledged once it
  // is durable and visible, and its own merge is part of its latency.
  auto dml = [&](const char* kind, const std::string& sql,
                 uint64_t expect_rows, PhaseLog* l) -> bool {
    ++l->attempted;
    int64_t start = NowNs();
    std::string error;
    {
      ScopedSpan root(tracer, "request");
      perfeval::Result<sql::Statement> parsed = [&] {
        ScopedSpan span(tracer, "sql.parse", root.request(), root.id());
        return sql::ParseSql(sql);
      }();
      if (!parsed.ok()) {
        error = parsed.status().ToString();
      } else {
        ScopedSpan span(tracer, "txn.commit", root.request(), root.id());
        perfeval::Result<txn::DmlResult> done =
            parsed.value().kind == sql::Statement::Kind::kInsert
                ? txn::ExecuteInsert(parsed.value().insert, store)
                : txn::ExecuteDelete(parsed.value().delete_from, store);
        if (!done.ok()) {
          error = done.status().ToString();
        } else if (done.value().rows_affected != expect_rows) {
          error = std::to_string(done.value().rows_affected) +
                  " rows affected, expected " + std::to_string(expect_rows);
        }
      }
      if (error.empty()) {
        ScopedSpan span(tracer, "txn.refresh", root.request(), root.id());
        int64_t t0 = NowNs();
        database.Refresh();
        if (samples != nullptr) {
          samples->Add("txn.refresh_ms",
                       static_cast<double>(NowNs() - t0) / 1e6);
        }
      }
    }
    l->dml_ms[kind].push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (!error.empty()) {
      l->Fail("dml '" + sql.substr(0, 40) + "...': " + error);
      return false;
    }
    ++l->completed;
    if (++state.commits % kCheckpointEvery == 0 && state.auto_checkpoint) {
      db::StorageStats before = engine.disk->stats();
      perfeval::Status done = [&] {
        ScopedSpan span(tracer, "txn.checkpoint");
        return store.Checkpoint();
      }();
      db::StorageStats after = engine.disk->stats();
      state.checkpoint_bytes += after.bytes_written - before.bytes_written;
      state.checkpoint_fsyncs += after.fsyncs - before.fsyncs;
      if (!done.ok()) {
        l->Fail("checkpoint: " + done.ToString());
      }
    }
    return true;
  };

  // One SELECT through the service; returns the result table or null.
  ServeCallLog calls;
  auto select = [&](const std::string& tmpl, const std::string& sql,
                    PhaseLog* l) {
    return ServeSelect(tmpl, sql, database, *engine.service, tracer,
                       samples != nullptr ? &calls : nullptr, l);
  };

  auto check = [](PhaseLog* l, const std::string& what,
                  const std::shared_ptr<const db::Table>& actual,
                  const std::shared_ptr<const db::Table>& expected) {
    if (actual == nullptr) {
      return;  // already counted as failed.
    }
    std::string diff = CheckResult(*actual, *expected, false);
    if (!diff.empty()) {
      l->Fail(what + ": " + diff);
    }
  };

  // New reserved order: INSERT orders, INSERT its lines, then the same
  // client reads the lines back (read-your-writes).
  bool plant = config.plant_wrong_answer;
  auto new_order = [&](PhaseLog* l, bool read_back) -> size_t {
    int64_t key = state.next_key++;
    NewOrder o = MakeOrder(config.seed, key);
    if (!dml("insert_orders", InsertSql("orders", {o.order}), 1, l)) {
      return 0;
    }
    int64_t lines = static_cast<int64_t>(o.lines.size());
    state.lines_insert_issued += lines;
    if (!dml("insert_lineitem", InsertSql("lineitem", o.lines),
             o.lines.size(), l)) {
      return 0;
    }
    state.lines_insert_acked += lines;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      state.live.push_back(key);
    }
    if (!read_back) {
      return 0;
    }
    std::shared_ptr<const db::Table> expected =
        ProjectRows(lineitem_schema, o.lines, LineitemLookupColumns());
    if (plant) {
      expected = PlantWrongAnswer(*expected);
    }
    check(l, "read-your-writes of order " + std::to_string(key),
          select("ryw_lookup", LineitemLookupSql(key), l), expected);
    return 1;
  };

  auto delete_oldest = [&](PhaseLog* l) {
    int64_t key;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      key = state.live.front();
      state.live.pop_front();
    }
    int64_t lines = static_cast<int64_t>(MakeOrder(config.seed, key).lines.size());
    state.lines_delete_issued += lines;
    if (dml("delete_lineitem", DeleteByKeySql("lineitem", "l_orderkey", key),
            static_cast<uint64_t>(lines), l)) {
      state.lines_delete_acked += lines;
      dml("delete_orders", DeleteByKeySql("orders", "o_orderkey", key), 1, l);
    }
  };

  // A key among the newer half of the live orders: far from the deletion
  // end, so no concurrent delete can remove it before the lookup.
  auto recent_key = [&](uint64_t h) {
    std::lock_guard<std::mutex> lock(state.mu);
    size_t n = state.live.size();
    return state.live[n - 1 - h % std::max<size_t>(n / 2, 1)];
  };

  // Write ops are paced: write k of a phase is due k * interval after the
  // phase starts, and the next client to pick an op after that takes it.
  // Every merge leaves a full table copy alive in the catalog, so a fixed
  // write budget keeps memory bounded and equal from run to run. Reads run
  // closed-loop in between, so the DML share follows from read speed.
  std::atomic<int64_t> writes_claimed{0};
  int64_t phase_start = 0, phase_writes = 0, write_interval_ns = 0;
  auto start_phase = [&](double seconds) {
    phase_writes = std::llround(kWritesPerSecond * seconds);
    write_interval_ns = static_cast<int64_t>(seconds * 1e9) /
                        std::max<int64_t>(phase_writes, 1);
    writes_claimed = 0;
    phase_start = NowNs();
  };

  // The join aggregate's date pool, with each date's line count over the
  // generated data, computed before any reserved order exists. Reserved
  // orders are dated 1998 and later, after every date of the pool. The
  // aggregate's cost grows with the orders after its date, so the pool is
  // stratified: date k is drawn from the k-th of kAggDates equal slices of
  // 1995-1997, and every seed spans the whole range.
  constexpr int32_t kAggDays = 1096;
  constexpr int32_t kSliceDays = kAggDays / kAggDates;
  std::vector<std::pair<int32_t, int64_t>> agg_pool;
  for (int k = 0; k < kAggDates; ++k) {
    int32_t date = db::DateFromYmd(1995, 1, 1) + k * kSliceDays +
                   static_cast<int32_t>(Mix(config.seed ^ Mix(k)) %
                                        kSliceDays);
    perfeval::Result<db::PlanPtr> plan =
        PlanSql(RecentJoinAggSql(date), database, nullptr, 0, 0);
    if (!plan.ok()) {
      result.Violate("recent_join_agg does not plan: " +
                     plan.status().ToString());
      return result;
    }
    agg_pool.emplace_back(
        date,
        db::ReferenceExecute(plan.value(), database)->ValueAt(0, 0).AsInt64());
  }

  std::atomic<uint64_t> next_op{0};
  auto read = [&](PhaseLog* l) -> size_t {
    uint64_t h = Mix(config.seed * 0x100000001b3ULL + next_op++);
    uint64_t kind = h % 9;
    if (kind < 2) {
      int64_t key = recent_key(h >> 8);
      NewOrder o = MakeOrder(config.seed, key);
      std::shared_ptr<const db::Table> table =
          select("recent_order_lookup", OrderLookupSql(key), l);
      check(l, "order " + std::to_string(key), table,
            ProjectRows(orders_schema, {o.order}, OrderLookupColumns()));
      return table != nullptr;
    }
    if (kind < 4) {
      int64_t key = recent_key(h >> 8);
      NewOrder o = MakeOrder(config.seed, key);
      std::shared_ptr<const db::Table> table =
          select("recent_lines_lookup", LineitemLookupSql(key), l);
      check(l, "lines of order " + std::to_string(key), table,
            ProjectRows(lineitem_schema, o.lines, LineitemLookupColumns()));
      return table != nullptr;
    }
    // Join aggregate over recent orders: beyond the generated lines, the
    // visible reserved line count lies between what was acknowledged
    // before the query and what was issued by its end.
    const auto& [date, base_lines] = agg_pool[(h >> 8) % agg_pool.size()];
    int64_t lower_ins = state.lines_insert_acked;
    int64_t upper_del = state.lines_delete_acked;
    std::shared_ptr<const db::Table> table =
        select("recent_join_agg", RecentJoinAggSql(date), l);
    if (table == nullptr) {
      return 0;
    }
    int64_t lower = base_lines + lower_ins - state.lines_delete_issued;
    int64_t upper = base_lines + state.lines_insert_issued - upper_del;
    int64_t seen = table->num_rows() == 1 && !table->ValueAt(0, 0).is_null()
                       ? table->ValueAt(0, 0).AsInt64()
                       : -1;
    if (seen < lower || seen > upper) {
      l->Fail("recent_join_agg saw " + std::to_string(seen) +
              " lines, bounds [" + std::to_string(lower) + ", " +
              std::to_string(upper) + "]");
    }
    return 1;
  };

  ClientOp op = [&](int, PhaseLog* l) -> size_t {
    int64_t due = writes_claimed;
    if (due < phase_writes &&
        NowNs() >= phase_start + due * write_interval_ns &&
        writes_claimed.compare_exchange_strong(due, due + 1)) {
      if (due % 2 == 0) {
        return new_order(l, true);
      }
      delete_oldest(l);
      return 0;
    }
    return read(l);
  };

  // Warm-up, untimed: fill the live window, then run every SELECT shape
  // once so the pool is hot.
  PhaseLog warmup;
  for (size_t k = 0; k < kLiveOrders; ++k) {
    new_order(&warmup, false);
  }
  for (int k = 0; k < 9; ++k) {
    op(0, &warmup);
  }
  if (warmup.failed > 0) {
    result.Violate("warm-up failed: " + warmup.failures.front());
  }

  db::StorageStats disk_before = engine.disk->stats();
  txn::DeltaStoreStats store_before = store.stats();
  PhaseLog untraced;
  start_phase(UntracedSeconds(config));
  double wall = RunClosedLoop(kClients, UntracedSeconds(config),
                              MinSelects(config), op, &untraced);
  PhaseLog all = untraced;
  Tracer traced_tracer;
  LayerSamples traced_samples;
  PhaseLog traced;
  double traced_wall = 0.0;
  if (config.trace) {
    // The traced service: the stock executor's call (serve/service.cc),
    // with any merge still pending pulled out of Run() into its own span.
    engine.service->Shutdown();
    engine.service = std::make_unique<serve::QueryService>(
        [&](const serve::Request& request, db::ExecMode,
            db::SinkKind) -> db::QueryResult {
          ScopedSpan exec(&traced_tracer, "serve.exec", request.seed,
                          request.seed);
          {
            ScopedSpan span(&traced_tracer, "txn.refresh", request.seed,
                            exec.id());
            int64_t t0 = NowNs();
            database.Refresh();
            traced_samples.Add("txn.refresh_ms",
                               static_cast<double>(NowNs() - t0) / 1e6);
          }
          ScopedSpan span(&traced_tracer, "db.run", request.seed, exec.id());
          int64_t t0 = NowNs();
          db::QueryResult r = Execute(database, request.plan);
          RecordQueryResult(r, NowNs() - t0, &traced_samples);
          return r;
        },
        MakeServiceOptions(kServiceWorkers));
    tracer = &traced_tracer;
    samples = &traced_samples;
    start_phase(config.seconds / 2.0);
    traced_wall =
        RunClosedLoop(kClients, config.seconds / 2.0, 0, op, &traced);
    tracer = nullptr;
    all.Merge(traced);
  }
  serve::ServiceStats service_stats = engine.service->stats();
  engine.service->Shutdown();
  db::StorageStats disk_after = engine.disk->stats();
  txn::DeltaStoreStats store_after = store.stats();

  // Commit tail: checkpoint, then a fixed number of commits the recovery
  // must replay, then power off the disk and recover.
  PhaseLog tail;
  if (perfeval::Status s = store.Checkpoint(); !s.ok()) {
    result.Violate("checkpoint before the tail: " + s.ToString());
  }
  state.auto_checkpoint = false;  // the tail must reach recovery whole.
  for (int k = 0; k < kTailOrders; ++k) {
    new_order(&tail, false);
  }
  all.Merge(tail);
  engine.disk->Reopen();
  std::vector<double> recovery_ms;
  std::unique_ptr<db::Database> recovered_db;
  std::unique_ptr<txn::DeltaStore> recovered;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    recovered.reset();
    recovered_db = std::make_unique<db::Database>(MakeDatabaseOptions(kPoolPages));
    for (const std::string& name : TpchTables()) {
      recovered_db->RegisterTable(name, engine.base[name]);
    }
    recovered = std::make_unique<txn::DeltaStore>(recovered_db.get(),
                                                  engine.disk.get());
    int64_t t0 = NowNs();
    perfeval::Status opened = recovered->Open();
    recovery_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!opened.ok()) {
      result.Violate("recovery: " + opened.ToString());
      break;
    }
  }

  // Durability: exactly the acknowledged live reserved orders survive, with
  // their rows, and the engine's reserved-range aggregate matches one
  // computed straight off DeltaStore::MergedTable.
  int64_t durability_failures = 0;
  if (recovered != nullptr && result.violations.empty()) {
    std::shared_ptr<db::Table> orders = recovered->MergedTable("orders");
    std::shared_ptr<db::Table> lineitem = recovered->MergedTable("lineitem");
    std::vector<int64_t> expect_keys(state.live.begin(), state.live.end());
    std::sort(expect_keys.begin(), expect_keys.end());
    std::vector<std::vector<db::Value>> expect_orders, expect_lines;
    for (int64_t key : expect_keys) {
      NewOrder o = MakeOrder(config.seed, key);
      expect_orders.push_back(o.order);
      expect_lines.insert(expect_lines.end(), o.lines.begin(), o.lines.end());
    }
    using Rows = std::vector<std::vector<db::Value>>;
    auto reserved = [](const db::Table& table) {
      Rows rows;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (table.ValueAt(r, 0).AsInt64() >= kReservedBase) {
          rows.push_back(RowValues(table, r));
        }
      }
      return rows;
    };
    auto same_rows = [](const db::Schema& schema, const Rows& got,
                        const Rows& want) {
      std::vector<std::string> columns;
      for (const db::ColumnSpec& c : schema.columns()) {
        columns.push_back(c.name);
      }
      return CheckResult(*ProjectRows(schema, got, columns),
                         *ProjectRows(schema, want, columns), false);
    };
    Rows got_orders = reserved(*orders);
    Rows got_lines = reserved(*lineitem);
    std::string diff = same_rows(orders_schema, got_orders, expect_orders);
    if (diff.empty()) {
      diff = same_rows(lineitem_schema, got_lines, expect_lines);
    }
    if (!diff.empty()) {
      ++durability_failures;
      result.notes.push_back("failed: durability: " + diff);
    }
    if (orders->num_rows() != engine.base["orders"]->num_rows() +
                                  got_orders.size() ||
        lineitem->num_rows() != engine.base["lineitem"]->num_rows() +
                                    got_lines.size()) {
      ++durability_failures;
      result.notes.push_back("failed: durability: base rows changed");
    }
    double qty = 0.0;
    for (const std::vector<db::Value>& line : got_lines) {
      qty += line[4].AsDouble();
    }
    perfeval::Result<db::PlanPtr> plan =
        PlanSql(ReservedRangeAggSql(kReservedBase), *recovered_db, nullptr, 0, 0);
    db::QueryResult agg = Execute(*recovered_db, plan.value());
    if (agg.table->ValueAt(0, 0).AsInt64() !=
            static_cast<int64_t>(got_lines.size()) ||
        std::abs(agg.table->ValueAt(0, 1).AsDouble() - qty) > 1e-6 * qty) {
      ++durability_failures;
      result.notes.push_back("failed: durability: reserved aggregate " +
                             agg.table->ValueAt(0, 0).ToString() + " lines");
    }
  }

  // Write-path figures over the measured phases.
  int64_t commits = static_cast<int64_t>(store_after.commits - store_before.commits);
  int64_t rows = static_cast<int64_t>(
      store_after.rows_inserted + store_after.rows_deleted -
      store_before.rows_inserted - store_before.rows_deleted);
  int64_t bytes = disk_after.bytes_written - disk_before.bytes_written;
  std::vector<double> dml_ms;
  for (const auto& [kind, samples] : all.dml_ms) {
    dml_ms.insert(dml_ms.end(), samples.begin(), samples.end());
  }
  perfeval::Result<double> commit_p95 = TailPercentile(dml_ms, 0.95);
  double commit_p50 = perfeval::stats::Median(dml_ms);
  double recovery = perfeval::stats::Median(recovery_ms);
  double disk_bytes_per_row =
      rows > 0 ? static_cast<double>(bytes) / static_cast<double>(rows) : 0.0;
  result.notes.push_back(
      "write path: " + std::to_string(commits) + " commits, " +
      std::to_string(rows) + " rows, " + std::to_string(bytes) +
      " bytes written; commit_p50_ms " + std::to_string(commit_p50) +
      ", commit_p95_ms " +
      (commit_p95.ok() ? std::to_string(commit_p95.value())
                       : commit_p95.status().message()) +
      " over " + std::to_string(dml_ms.size()) + " statements; recovery_ms " +
      std::to_string(recovery) + "; disk_bytes_per_row " +
      std::to_string(disk_bytes_per_row));

  if (!config.trace) {
    ReportEndToEnd(untraced, wall, setup_s, &result);
  } else {
    std::vector<Span> spans = traced_tracer.Snapshot();
    AddServeSamples(spans, calls.Get(), &traced_samples);
    ReportPerLayer({setup_tracer.Snapshot(), spans, &traced_samples,
                    static_cast<double>(untraced.completed) / wall,
                    static_cast<double>(traced.completed) / traced_wall},
                   &result);
    auto set = [&result](const std::string& name, double value) {
      result.metrics.at(name).value = value;
    };
    double per_commit = commits > 0 ? 1.0 / static_cast<double>(commits) : 0;
    set("serve.shed", static_cast<double>(service_stats.shed));
    set("serve.deadline_expired",
        static_cast<double>(service_stats.deadline_expired));
    // Checkpoints serialize against commits, so the disk traffic inside
    // Checkpoint() calls is theirs alone; the rest is the WAL's.
    set("txn.wal_bytes_per_commit",
        static_cast<double>(bytes - state.checkpoint_bytes) * per_commit);
    set("txn.fsyncs_per_commit",
        static_cast<double>(disk_after.fsyncs - disk_before.fsyncs -
                            state.checkpoint_fsyncs) *
            per_commit);
    set("txn.aborts",
        static_cast<double>(store_after.aborts - store_before.aborts));
    set("txn.write_stall_ms",
        static_cast<double>(disk_after.write_stall_ns -
                            disk_before.write_stall_ns) /
            1e6 * per_commit);
    set("txn.replayed_records",
        static_cast<double>(recovered->stats().wal_records_replayed));
    set("commit_p50_ms", commit_p50);
    set("commit_p95_ms", commit_p95.ok() ? commit_p95.value() : 0.0);
    set("recovery_ms", recovery);
    set("disk_bytes_per_row", disk_bytes_per_row);
    WriteSpans(config, setup_tracer, traced_tracer, &result);
  }
  result.attempted = all.attempted + 1;  // + the durability check.
  result.failed = all.failed + (durability_failures > 0 ? 1 : 0);
  for (const std::string& why : all.failures) {
    result.notes.push_back("failed: " + why);
  }
  return result;
}

}  // namespace perfbench
