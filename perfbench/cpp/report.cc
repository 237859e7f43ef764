#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "db/reference.h"
#include "stats.h"
#include "stats/descriptive.h"

namespace perfbench {

namespace stats = perfeval::stats;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string ResultJson(const RunResult& result) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           Number(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
           "}";
    first = false;
  }
  return out + "}}";
}

void PhaseLog::Fail(std::string why) {
  ++failed;
  if (failures.size() < 5) {
    failures.push_back(std::move(why));
  }
}

void PhaseLog::Merge(const PhaseLog& other) {
  for (const auto& [name, samples] : other.select_ms) {
    std::vector<double>& mine = select_ms[name];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
  for (const auto& [kind, samples] : other.dml_ms) {
    std::vector<double>& mine = dml_ms[kind];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
  completed += other.completed;
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& why : other.failures) {
    if (failures.size() < 5) {
      failures.push_back(why);
    }
  }
}

size_t PhaseLog::selects() const {
  size_t n = 0;
  for (const auto& [name, samples] : select_ms) {
    n += samples.size();
  }
  return n;
}

size_t PhaseLog::dml_statements() const {
  size_t n = 0;
  for (const auto& [kind, samples] : dml_ms) {
    n += samples.size();
  }
  return n;
}

void LayerSamples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

std::vector<double> LayerSamples::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>() : it->second;
}

namespace {

const char* kOpKinds[] = {"Scan",      "FilterScan", "Filter",    "Project",
                          "HashJoin",  "MergeJoin",  "Aggregate", "Sort",
                          "TopN",      "Limit"};

// "HashJoin(l_orderkey=o_orderkey, radix)" -> "HashJoin".
std::string OpKind(const std::string& op) { return op.substr(0, op.find('(')); }

}  // namespace

void RecordQueryResult(const db::QueryResult& result, int64_t run_ns,
                       LayerSamples* samples) {
  double server_ms = static_cast<double>(result.server.real_ns) / 1e6;
  double client_phase_ms =
      static_cast<double>(result.client.real_ns - result.server.real_ns) / 1e6;
  double run_ms = static_cast<double>(run_ns) / 1e6;
  samples->Add("db.server_ms", server_ms);
  samples->Add("db.client_phase_ms", client_phase_ms);
  samples->Add("db.unattributed_ms", run_ms - server_ms - client_phase_ms);
  samples->Add("db.exec.untraced_ms",
               server_ms - static_cast<double>(result.profile.TotalWallNs()) /
                               1e6);
  samples->Add("db.rows_per_result",
               static_cast<double>(result.table->num_rows()));
  samples->Add("db.storage.page_hits",
               static_cast<double>(result.storage.page_hits));
  samples->Add("db.storage.page_misses",
               static_cast<double>(result.storage.page_misses));
  samples->Add("db.storage.stall_ms",
               static_cast<double>(result.storage.stall_ns) / 1e6);
  RecordOperators(result.profile, samples);
}

void RecordOperators(const db::Profiler& profile, LayerSamples* samples) {
  std::map<std::string, std::pair<double, double>> by_kind;
  for (const char* kind : kOpKinds) {
    by_kind[kind] = {0.0, 0.0};
  }
  for (const db::OpTrace& trace : profile.traces()) {
    auto it = by_kind.find(OpKind(trace.op));
    if (it != by_kind.end()) {
      it->second.first += static_cast<double>(trace.wall_ns) / 1e6;
      it->second.second += static_cast<double>(trace.rows_out);
    }
  }
  for (const auto& [kind, sums] : by_kind) {
    samples->Add("db.op." + kind + ".ms", sums.first);
    samples->Add("db.op." + kind + ".rows_out", sums.second);
  }
}

void AddServeSamples(const std::vector<Span>& spans,
                     const std::vector<ServeCall>& calls,
                     LayerSamples* samples) {
  std::unordered_map<uint64_t, int64_t> exec_ns;
  for (const Span& s : spans) {
    if (s.name == "serve.exec") {
      exec_ns[s.request] += s.duration_ns();
    }
  }
  for (const ServeCall& call : calls) {
    samples->Add("serve.queue_wait_ms",
                 static_cast<double>(call.queue_wait_ns) / 1e6);
    samples->Add("serve.handoff_ms",
                 static_cast<double>(call.call_ns - call.queue_wait_ns -
                                     exec_ns[call.request]) /
                     1e6);
  }
}

std::string CheckResult(const db::Table& actual, const db::Table& expected,
                        bool ordered) {
  return db::DiffTables(actual, expected, 1e-6, !ordered);
}

std::shared_ptr<const db::Table> PlantWrongAnswer(const db::Table& table) {
  auto wrong = std::make_shared<db::Table>(table.schema());
  size_t keep = table.num_rows() > 0 ? table.num_rows() - 1 : 0;
  for (size_t r = 0; r < keep; ++r) {
    std::vector<db::Value> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.ValueAt(r, c));
    }
    wrong->AppendRow(row);
  }
  if (table.num_rows() == 0) {
    std::vector<db::Value> row;
    for (const db::ColumnSpec& column : table.schema().columns()) {
      row.push_back(db::Value::Null(column.type));
    }
    wrong->AppendRow(row);
  }
  return wrong;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ReportEndToEnd(const PhaseLog& log, double wall_s,
                    const std::vector<double>& setup_s, RunResult* result) {
  std::vector<double> all;
  for (const auto& [name, samples] : log.select_ms) {
    all.insert(all.end(), samples.begin(), samples.end());
    result->notes.push_back("template " + name + ": " +
                            std::to_string(samples.size()) +
                            " SELECTs, median " +
                            std::to_string(stats::Median(samples)) + " ms");
  }
  perfeval::Result<double> p95 = TailPercentile(all, 0.95);
  if (!p95.ok()) {
    result->Violate("query_p95_ms: " + p95.status().message());
  }
  result->notes.push_back(
      "query_p95_ms over " + std::to_string(all.size()) + " SELECTs (" +
      std::to_string(SamplesBeyond(all.size(), 0.95)) + " beyond p95)");
  for (const auto& [kind, samples] : log.dml_ms) {
    result->notes.push_back("statement " + kind + ": " +
                            std::to_string(samples.size()) +
                            " DML, median " +
                            std::to_string(stats::Median(samples)) + " ms");
  }
  if (size_t dml = log.dml_statements(); dml > 0) {
    result->notes.push_back(
        "DML share: " + std::to_string(dml) + " of " +
        std::to_string(dml + all.size()) + " statements (" +
        std::to_string(100.0 * static_cast<double>(dml) /
                       static_cast<double>(dml + all.size())) +
        "%)");
  }
  result->notes.push_back(
      "setup_s is the median of " + std::to_string(setup_s.size()) +
      " set-ups, from " +
      std::to_string(*std::min_element(setup_s.begin(), setup_s.end())) +
      " to " +
      std::to_string(*std::max_element(setup_s.begin(), setup_s.end())) +
      " s");
  result->Set("setup_s", stats::Median(setup_s), "s");
  result->Set("query_geomean_ms", GeomeanOfMedians(log.select_ms), "ms");
  std::map<std::string, std::vector<double>> statements = log.select_ms;
  statements.insert(log.dml_ms.begin(), log.dml_ms.end());
  result->Set("stmt_geomean_ms", GeomeanOfMedians(statements), "ms");
  result->Set("query_p95_ms", p95.ok() ? p95.value() : 0.0, "ms");
  result->Set("ops_per_s", static_cast<double>(log.completed) / wall_s, "1/s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"workload.generate_s", "s"},    {"db.register_s", "s"},
        {"shard.load_s", "s"},           {"txn.open_s", "s"},
        {"sql.parse_us", "us"},          {"sql.bind_us", "us"},
        {"opt.optimize_us", "us"},       {"db.run_ms", "ms"},
        {"db.server_ms", "ms"},          {"db.client_phase_ms", "ms"},
        {"db.unattributed_ms", "ms"},    {"db.exec.untraced_ms", "ms"},
        {"db.rows_per_result", "rows"}};
    for (const char* kind : kOpKinds) {
      m.push_back({std::string("db.op.") + kind + ".ms", "ms"});
      m.push_back({std::string("db.op.") + kind + ".rows_out", "rows"});
    }
    std::vector<std::pair<std::string, std::string>> rest = {
        {"db.storage.page_hits", "count"},
        {"db.storage.page_misses", "count"},
        {"db.storage.hit_ratio", "ratio"},
        {"db.storage.stall_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.exec_ms", "ms"},
        {"serve.handoff_ms", "ms"},
        {"serve.shed", "count"},
        {"serve.deadline_expired", "count"},
        {"shard.execute_ms", "ms"},
        {"shard.slowest_shard_ms", "ms"},
        {"shard.coordinator_ms", "ms"},
        {"shard.shard_queue_wait_ms", "ms"},
        {"shard.fragments", "count"},
        {"shard.straggler_ratio", "ratio"},
        {"txn.commit_ms", "ms"},
        {"txn.refresh_ms", "ms"},
        {"txn.checkpoint_ms", "ms"},
        {"txn.wal_bytes_per_commit", "B"},
        {"txn.fsyncs_per_commit", "count"},
        {"txn.aborts", "count"},
        {"txn.write_stall_ms", "ms"},
        {"txn.replayed_records", "count"},
        {"commit_p50_ms", "ms"},
        {"commit_p95_ms", "ms"},
        {"recovery_ms", "ms"},
        {"disk_bytes_per_row", "B"},
        {"trace.overhead_frac", "ratio"},
        {"trace.unattributed_frac", "ratio"}};
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

namespace {

// The median, or 0 when a layer left no samples.
double MedianOrZero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : stats::Median(values);
}

}  // namespace

double SetupSpanSeconds(const std::vector<Span>& spans,
                        const std::string& name) {
  // Every repetition counts, also one without a span of this name.
  std::map<uint64_t, double> per_rep;
  for (const Span& s : spans) {
    double& seconds = per_rep[s.request];
    if (s.name == name) {
      seconds += static_cast<double>(s.duration_ns()) / 1e9;
    }
  }
  std::vector<double> values;
  for (const auto& [rep, seconds] : per_rep) {
    values.push_back(seconds);
  }
  return MedianOrZero(values);
}

namespace {

// Per request, the summed duration of spans named `name`; the median over
// the requests that have one, in `scale` units per nanosecond.
double SpanMedian(const std::vector<Span>& spans, const std::string& name,
                  double scale) {
  std::unordered_map<uint64_t, double> per_request;
  for (const Span& s : spans) {
    if (s.name == name) {
      per_request[s.request] += static_cast<double>(s.duration_ns()) * scale;
    }
  }
  std::vector<double> values;
  for (const auto& [request, value] : per_request) {
    values.push_back(value);
  }
  return MedianOrZero(values);
}

}  // namespace

void ReportPerLayer(const TracedPhase& phase, RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    result->Set(name, 0.0, unit);
  }
  auto set = [result](const std::string& name, double value) {
    result->metrics.at(name).value = value;
  };
  for (const char* name :
       {"workload.generate", "db.register", "shard.load", "txn.open"}) {
    set(std::string(name) + "_s", SetupSpanSeconds(phase.setup_spans, name));
  }
  set("sql.parse_us", SpanMedian(phase.spans, "sql.parse", 1e-3));
  set("sql.bind_us", SpanMedian(phase.spans, "sql.bind", 1e-3));
  set("opt.optimize_us", SpanMedian(phase.spans, "opt.optimize", 1e-3));
  set("db.run_ms", SpanMedian(phase.spans, "db.run", 1e-6));
  set("serve.exec_ms", SpanMedian(phase.spans, "serve.exec", 1e-6));
  set("txn.commit_ms", SpanMedian(phase.spans, "txn.commit", 1e-6));
  set("txn.checkpoint_ms", SpanMedian(phase.spans, "txn.checkpoint", 1e-6));

  // Samples read off the program's own results (shard.* comes from the
  // ShardedResult, not from spans): medians per request, except operator
  // and storage figures, which are means so that they add up to the
  // per-request total.
  const LayerSamples& samples = *phase.samples;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    std::vector<double> values = samples.Get(name);
    if (values.empty()) {
      continue;
    }
    bool additive = name.rfind("db.op.", 0) == 0 ||
                    name.rfind("db.storage.", 0) == 0 ||
                    name == "txn.refresh_ms";
    set(name, additive ? stats::Mean(values) : stats::Median(values));
  }
  double hits = stats::Sum(samples.Get("db.storage.page_hits"));
  double misses = stats::Sum(samples.Get("db.storage.page_misses"));
  set("db.storage.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);

  // Self time of the client request spans is time no named layer covers.
  std::unordered_map<uint64_t, int64_t> self = SelfTimes(phase.spans);
  double root_ns = 0.0, unattributed_ns = 0.0;
  for (const Span& s : phase.spans) {
    if (s.parent == 0 && s.name == "request") {
      root_ns += static_cast<double>(s.duration_ns());
      unattributed_ns += static_cast<double>(self[s.id]);
    }
  }
  set("trace.unattributed_frac", root_ns > 0 ? unattributed_ns / root_ns : 0);
  set("trace.overhead_frac",
      phase.untraced_ops_per_s > 0
          ? 1.0 - phase.traced_ops_per_s / phase.untraced_ops_per_s
          : 0.0);
}

}  // namespace perfbench
