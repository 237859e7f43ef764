#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "db/reference.h"
#include "engine.h"
#include "stats.h"

namespace perfbench {
namespace {

// Hard cap on one phase, so a slow host that cannot reach the sample
// minimum still ends the run well inside its time limit. It never cuts a
// phase short of the seconds asked for.
constexpr double kMaxPhaseSeconds = 100.0;
static_assert(kMaxPhaseSeconds > kMaxSeconds);

}  // namespace

bool PrepareStatements(const std::vector<SqlTemplate>& templates,
                       db::Database& database,
                       std::vector<std::vector<Statement>>* statements,
                       RunResult* result) {
  for (const SqlTemplate& t : templates) {
    std::vector<Statement>& pool = statements->emplace_back();
    for (const std::string& sql : t.pool) {
      perfeval::Result<db::PlanPtr> plan = PlanSql(sql, database, nullptr, 0, 0);
      if (!plan.ok()) {
        result->Violate(t.name + " does not plan: " + plan.status().ToString());
        return false;
      }
      pool.push_back({t.name, sql, db::ReferenceExecute(plan.value(), database)});
      std::string line = "rows " + t.name + ":";
      bool vacuous = false;
      db::QueryResult direct = Execute(database, plan.value());
      for (const db::OpTrace& trace : direct.profile.traces()) {
        std::string kind = trace.op.substr(0, trace.op.find('('));
        if (kind == "HashJoin" || kind == "MergeJoin" || kind == "Filter" ||
            kind == "FilterScan") {
          line += " " + trace.op + "=" + std::to_string(trace.rows_out);
          vacuous |= trace.rows_out == 0;
        }
      }
      result->notes.push_back(
          line + (vacuous ? "  [VACUOUS: an operator emitted 0 rows]" : ""));
    }
  }
  return true;
}

std::vector<double> TimeSetups(Tracer* tracer,
                               const std::function<void()>& teardown,
                               const std::function<void(uint64_t)>& setup) {
  std::vector<double> seconds;
  double total = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || total < kMinSetupSeconds);
       ++rep) {
    teardown();
    int64_t start = NowNs();
    {
      ScopedSpan span(tracer, "setup");
      setup(span.id());
    }
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    total += seconds.back();
  }
  return seconds;
}

double RunClosedLoop(int clients, double seconds, size_t min_selects,
                     const ClientOp& op, PhaseLog* log) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t cap = start + static_cast<int64_t>(kMaxPhaseSeconds * 1e9);
  std::atomic<size_t> selects{0};
  std::vector<PhaseLog> logs(static_cast<size_t>(clients));
  std::vector<int64_t> finished(static_cast<size_t>(clients), start);
  auto client = [&](int c) {
    for (;;) {
      int64_t now = NowNs();
      if (now >= cap || (now >= deadline && selects.load() >= min_selects)) {
        break;
      }
      selects += op(c, &logs[static_cast<size_t>(c)]);
    }
    finished[static_cast<size_t>(c)] = NowNs();
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) {
    threads.emplace_back(client, c);
  }
  client(0);
  for (std::thread& t : threads) {
    t.join();
  }
  for (const PhaseLog& l : logs) {
    log->Merge(l);
  }
  return static_cast<double>(*std::max_element(finished.begin(),
                                               finished.end()) -
                             start) /
         1e9;
}

double UntracedSeconds(const RunConfig& config) {
  return config.trace ? config.seconds / 2.0 : config.seconds;
}

size_t MinSelects(const RunConfig& config) {
  return config.trace ? 0 : MinSamplesFor(0.95, 10);
}

void WriteSpans(const RunConfig& config, const Tracer& setup,
                const Tracer& traced, RunResult* result) {
  std::string base = config.out_dir + "/spans-" + config.workload + "-seed" +
                     std::to_string(config.seed);
  if (setup.WriteTsv(base + "-setup.tsv") &&
      traced.WriteTsv(base + "-run.tsv")) {
    result->notes.push_back("spans written to " + base + "-{setup,run}.tsv");
  } else {
    result->notes.push_back("could not write spans under " + config.out_dir);
  }
}

void ServeCallLog::Add(const ServeCall& call) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(call);
}

std::vector<ServeCall> ServeCallLog::Get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::shared_ptr<const db::Table> ServeSelect(const std::string& tmpl,
                                             const std::string& sql,
                                             const db::Database& database,
                                             serve::QueryService& service,
                                             Tracer* tracer,
                                             ServeCallLog* calls,
                                             PhaseLog* log) {
  ++log->attempted;
  int64_t start = NowNs();
  serve::Response response;
  std::string error;
  ServeCall call;
  {
    ScopedSpan root(tracer, "request");
    call.request = root.request();
    perfeval::Result<db::PlanPtr> plan =
        PlanSql(sql, database, tracer, root.request(), root.id());
    if (!plan.ok()) {
      error = plan.status().ToString();
    } else {
      serve::Request request;
      request.plan = plan.value();
      request.seed = root.request();
      ScopedSpan span(tracer, "serve.call", root.request(), root.id());
      int64_t call_start = NowNs();
      response = service.Execute(std::move(request));
      call.call_ns = NowNs() - call_start;
      if (!response.status.ok()) {
        error = response.status.ToString();
      }
    }
  }
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  if (!error.empty()) {
    log->Fail(tmpl + ": " + error);
    return nullptr;
  }
  ++log->completed;
  log->select_ms[tmpl].push_back(ms);
  if (calls != nullptr) {
    call.queue_wait_ns = response.server.queue_wait_ns;
    calls->Add(call);
  }
  return response.table;
}

const std::vector<std::string>& TpchTables() {
  static const std::vector<std::string> tables = {
      "region", "nation", "supplier", "customer",
      "part",   "partsupp", "orders", "lineitem"};
  return tables;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<db::Value> RowValues(const db::Table& table, size_t row) {
  std::vector<db::Value> values;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    values.push_back(table.ValueAt(row, c));
  }
  return values;
}

std::shared_ptr<const db::Table> ProjectRows(
    const db::Schema& schema, const std::vector<std::vector<db::Value>>& rows,
    const std::vector<std::string>& columns) {
  std::vector<db::ColumnSpec> specs;
  std::vector<size_t> indexes;
  for (const std::string& name : columns) {
    indexes.push_back(schema.MustIndexOf(name));
    specs.push_back(schema.column(indexes.back()));
  }
  auto table = std::make_shared<db::Table>(db::Schema(specs));
  for (const std::vector<db::Value>& row : rows) {
    std::vector<db::Value> projected;
    for (size_t c : indexes) {
      projected.push_back(row[c]);
    }
    table->AppendRow(projected);
  }
  return table;
}

}  // namespace perfbench
