// scan_shard: the shard tier. SQL is bound against shard_db(0) and the plan
// submitted to a front-end service over a two-shard cluster; two
// closed-loop clients send about 80% point lookups by order key and 20%
// scan-aggregates without joins. The per-shard buffer pool is smaller than
// Q1's scanned columns, so every scan misses.
#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/random.h"
#include "engine.h"
#include "shard/frontend.h"
#include "templates.h"
#include "workload/tpch_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 0.05;
constexpr int kShards = 2;
constexpr int kFrontEndWorkers = 2;
constexpr int kClients = 2;
constexpr size_t kShardPoolPages = 128;  // below Q1's ~260 pages per shard.
constexpr int kInstances = 4;            // parameter sets per scan template.
constexpr int kLookupKeys = 1024;
constexpr int kQ1Columns = 7;

// The rows of `source` at positions `rows`, projected to `columns`: the
// expected answer of a point lookup.
std::shared_ptr<const db::Table> LookupAnswer(
    const db::Table& source, const std::vector<uint32_t>& rows,
    const std::vector<std::string>& columns) {
  std::vector<std::vector<db::Value>> values;
  for (uint32_t r : rows) {
    values.push_back(RowValues(source, r));
  }
  return ProjectRows(source.schema(), values, columns);
}

// Row positions per order key.
std::unordered_map<int64_t, std::vector<uint32_t>> RowsByKey(
    const db::Table& table, const std::string& key_column) {
  std::unordered_map<int64_t, std::vector<uint32_t>> rows;
  const db::Column& keys = table.ColumnByName(key_column);
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    rows[keys.GetValue(r).AsInt64()].push_back(r);
  }
  return rows;
}

db::StorageStats ShardStorage(shard::ShardCluster& cluster) {
  db::StorageStats total;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    total += cluster.shard_db(s).storage().StatsSnapshot();
  }
  return total;
}

void RecordSharded(const shard::ShardedResult& sharded, LayerSamples* samples) {
  double execute_ms = static_cast<double>(sharded.result.server.real_ns) / 1e6;
  double total_ms = 0.0;
  for (const shard::ShardExecution& s : sharded.shards) {
    total_ms += static_cast<double>(s.timing.TotalNs()) / 1e6;
  }
  const shard::ShardExecution& slowest =
      sharded.shards.at(static_cast<size_t>(sharded.slowest_shard));
  double slowest_ms = static_cast<double>(slowest.timing.TotalNs()) / 1e6;
  double mean_ms = total_ms / static_cast<double>(sharded.shards.size());
  samples->Add("shard.execute_ms", execute_ms);
  samples->Add("shard.slowest_shard_ms", slowest_ms);
  samples->Add("shard.coordinator_ms", execute_ms - slowest_ms);
  samples->Add("shard.shard_queue_wait_ms",
               static_cast<double>(slowest.timing.queue_wait_ns) / 1e6);
  samples->Add("shard.fragments", static_cast<double>(sharded.num_fragments));
  samples->Add("shard.straggler_ratio", mean_ms > 0 ? slowest_ms / mean_ms : 1);
  samples->Add("db.storage.stall_ms",
               static_cast<double>(sharded.result.storage.stall_ns) / 1e6);
  samples->Add("db.rows_per_result",
               static_cast<double>(sharded.result.table->num_rows()));
  RecordOperators(sharded.result.profile, samples);
}

}  // namespace

RunResult RunScanShard(const RunConfig& config) {
  RunResult result;
  Tracer setup_tracer;
  Tracer* setup_trace = config.trace ? &setup_tracer : nullptr;
  std::unique_ptr<shard::ShardCluster> cluster;
  std::unique_ptr<shard::FrontEnd> front_end;
  std::map<std::string, std::shared_ptr<db::Table>> tables;
  std::vector<double> setup_s = TimeSetups(
      setup_trace,
      [&] {
        front_end.reset();
        cluster.reset();
        tables.clear();
      },
      [&](uint64_t setup) {
        shard::ShardClusterOptions options;
        options.num_shards = kShards;
        // Zero-cost simulated disk on the shards, so server-side shard
        // timings are measured time; the miss cost is reported as the
        // modeled stall of the cluster's logical-I/O replay (SSD model).
        options.shard_db = MakeDatabaseOptions(kShardPoolPages,
                                               db::DiskModel{0, 0.0});
        options.shard_service = MakeServiceOptions(1);
        options.reference = MakeDatabaseOptions(kShards * kShardPoolPages,
                                                db::DiskModel::Ssd());
        cluster = std::make_unique<shard::ShardCluster>(options);
        // ShardCluster::LoadTpch is Generate + AddTable in this order; the
        // calls are made here so that each gets its own span.
        perfeval::workload::TpchGenerator generator(kScaleFactor);
        for (const std::string& name : TpchTables()) {
          {
            ScopedSpan span(setup_trace, "workload.generate", setup, setup);
            tables[name] = generator.Generate(name);
          }
          ScopedSpan span(setup_trace, "shard.load", setup, setup);
          cluster->AddTable(name, tables[name]);
        }
        front_end = std::make_unique<shard::FrontEnd>(
            cluster.get(), MakeServiceOptions(kFrontEndWorkers));
      });

  size_t q1_pages = 0;
  for (int s = 0; s < kShards; ++s) {
    size_t rows = cluster->shard_db(s).GetTable("lineitem").num_rows();
    size_t per_page = cluster->shard_db(s).storage().rows_per_page();
    q1_pages = std::max(q1_pages, kQ1Columns * ((rows + per_page - 1) / per_page));
  }
  result.sizes_json =
      "{\"scale_factor\": " + std::to_string(kScaleFactor) +
      ", \"lineitem_rows\": " + std::to_string(tables["lineitem"]->num_rows()) +
      ", \"shards\": " + std::to_string(kShards) +
      ", \"shard_buffer_pool_pages\": " + std::to_string(kShardPoolPages) +
      ", \"q1_pages_per_shard\": " + std::to_string(q1_pages) +
      ", \"front_end_workers\": " + std::to_string(kFrontEndWorkers) +
      ", \"shard_service_workers\": 1, \"clients\": " +
      std::to_string(kClients) + ", \"lookup_keys\": " +
      std::to_string(kLookupKeys) + "}";
  if (q1_pages <= kShardPoolPages) {
    result.Violate("cold regime: Q1's " + std::to_string(q1_pages) +
                   " pages fit the shard pool");
  }

  // Reference answers, outside every timed span: a single-node database
  // over the same tables for the scans, key maps for the lookups.
  db::Database reference(MakeDatabaseOptions(1 << 16));
  for (const std::string& name : TpchTables()) {
    reference.RegisterTable(name, tables[name]);
  }
  std::vector<std::vector<Statement>> scans;
  if (!PrepareStatements(ScanAggTemplates(config.seed, kInstances), reference,
                         &scans, &result)) {
    return result;
  }
  const db::Table& orders = *tables["orders"];
  const db::Table& lineitem = *tables["lineitem"];
  std::unordered_map<int64_t, std::vector<uint32_t>> order_rows =
      RowsByKey(orders, "o_orderkey");
  std::unordered_map<int64_t, std::vector<uint32_t>> line_rows =
      RowsByKey(lineitem, "l_orderkey");
  std::vector<Statement> order_lookups, line_lookups;
  perfeval::Pcg32 key_rng(config.seed, 3000);
  for (int i = 0; i < kLookupKeys; ++i) {
    int64_t key = key_rng.NextInRange(1, static_cast<int64_t>(orders.num_rows()));
    order_lookups.push_back(
        {"order_lookup", OrderLookupSql(key),
         LookupAnswer(orders, order_rows[key], OrderLookupColumns()), false});
    line_lookups.push_back(
        {"lineitem_lookup", LineitemLookupSql(key),
         LookupAnswer(lineitem, line_rows[key], LineitemLookupColumns()),
         false});
  }
  if (config.plant_wrong_answer) {
    scans[0][0].expected = PlantWrongAnswer(*scans[0][0].expected);
  }

  // Operation i of the shared seeded stream: 40% order lookups, 40%
  // lineitem lookups, 20% scan-aggregates.
  auto op_at = [&](uint64_t i) -> const Statement& {
    uint64_t h = Mix(config.seed * 0x100000001b3ULL + i);
    uint64_t kind = h % 100;
    uint64_t pick = h >> 16;
    if (kind < 40) {
      return order_lookups[pick % order_lookups.size()];
    }
    if (kind < 80) {
      return line_lookups[pick % line_lookups.size()];
    }
    const std::vector<Statement>& pool = scans[pick % scans.size()];
    return pool[(pick >> 8) % pool.size()];
  };

  // Size check: Q1 misses the shard pools on every run, also the second
  // of two back-to-back runs.
  for (int run = 0; run < 2; ++run) {
    db::StorageStats before = ShardStorage(*cluster);
    perfeval::Result<db::PlanPtr> plan =
        PlanSql(scans[0][0].sql, cluster->shard_db(0), nullptr, 0, 0);
    serve::Request request;
    request.plan = plan.value();
    front_end->Execute(request);
    int64_t misses = ShardStorage(*cluster).page_misses - before.page_misses;
    result.notes.push_back("Q1 run " + std::to_string(run + 1) + ": " +
                           std::to_string(misses) + " shard page misses");
    if (misses == 0) {
      result.Violate("cold regime: Q1 run " + std::to_string(run + 1) +
                     " did not miss the shard buffer pools");
    }
  }

  std::atomic<uint64_t> next_op{0};
  auto run_phase = [&](serve::QueryService* service, double seconds,
                       size_t min_selects, Tracer* tracer,
                       ServeCallLog* calls, PhaseLog* log) {
    db::StorageStats before = ShardStorage(*cluster);
    double wall = RunClosedLoop(
        kClients, seconds, min_selects,
        [&](int, PhaseLog* l) -> size_t {
          const Statement& s = op_at(next_op++);
          std::shared_ptr<const db::Table> table =
              ServeSelect(s.tmpl, s.sql, cluster->shard_db(0), *service,
                          tracer, calls, l);
          if (table == nullptr) {
            return 0;
          }
          std::string diff = CheckResult(*table, *s.expected, s.ordered);
          if (!diff.empty()) {
            l->Fail(s.tmpl + ": " + diff);
          }
          return 1;
        },
        log);
    db::StorageStats after = ShardStorage(*cluster);
    if (after.page_misses == before.page_misses) {
      result.Violate("cold regime: no shard page misses during a phase");
    }
    return std::make_pair(wall, db::StorageStats{
                                    after.page_hits - before.page_hits,
                                    after.page_misses - before.page_misses});
  };

  PhaseLog untraced;
  double wall = run_phase(&front_end->service(), UntracedSeconds(config),
                          MinSelects(config), nullptr, nullptr, &untraced)
                    .first;
  serve::ServiceStats stats = front_end->service().stats();
  front_end->Shutdown();
  PhaseLog all = untraced;
  if (!config.trace) {
    ReportEndToEnd(untraced, wall, setup_s, &result);
  } else {
    // The traced front end: a service whose executor makes the call the
    // stock cluster executor makes (shard/frontend.cc), inside spans.
    Tracer tracer;
    LayerSamples samples;
    serve::QueryService traced_service(
        [&](const serve::Request& request, db::ExecMode,
            db::SinkKind) -> db::QueryResult {
          ScopedSpan exec(&tracer, "serve.exec", request.seed, request.seed);
          shard::ShardedResult sharded;
          {
            ScopedSpan span(&tracer, "shard.execute", request.seed, exec.id());
            sharded = Execute(*cluster, request.plan);
          }
          RecordSharded(sharded, &samples);
          return std::move(sharded.result);
        },
        MakeServiceOptions(kFrontEndWorkers));
    PhaseLog traced;
    ServeCallLog calls;
    auto [traced_wall, io] = run_phase(&traced_service, config.seconds / 2.0,
                                       0, &tracer, &calls, &traced);
    traced_service.Shutdown();
    stats = traced_service.stats();
    all.Merge(traced);
    double selects = static_cast<double>(std::max<size_t>(traced.selects(), 1));
    samples.Add("db.storage.page_hits", static_cast<double>(io.page_hits) / selects);
    samples.Add("db.storage.page_misses",
                static_cast<double>(io.page_misses) / selects);
    std::vector<Span> spans = tracer.Snapshot();
    AddServeSamples(spans, calls.Get(), &samples);
    ReportPerLayer({setup_tracer.Snapshot(), spans, &samples,
                    static_cast<double>(untraced.completed) / wall,
                    static_cast<double>(traced.completed) / traced_wall},
                   &result);
    result.metrics.at("serve.shed").value = static_cast<double>(stats.shed);
    result.metrics.at("serve.deadline_expired").value =
        static_cast<double>(stats.deadline_expired);
    WriteSpans(config, setup_tracer, tracer, &result);
  }
  result.notes.push_back("front end: " + std::to_string(stats.shed) +
                         " shed, " + std::to_string(stats.deadline_expired) +
                         " expired");
  result.attempted = all.attempted;
  result.failed = all.failed;  // shed and expired requests included.
  for (const std::string& why : all.failures) {
    result.notes.push_back("failed: " + why);
  }
  return result;
}

}  // namespace perfbench
