// What one benchmark run measures and reports, shared by the workloads.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "trace.h"

namespace perfbench {

namespace db = perfeval::db;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Self-test hook: corrupts one reference answer, so every execution of
  /// that statement must be counted as a failed operation.
  bool plant_wrong_answer = false;
  /// Directory the span file is written to.
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The outcome of one run: the final JSON object plus human-readable notes
/// (provenance, sample counts, vacuity, failure reasons) printed before it.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Run-level checks (cache regimes, durability) that failed.
  std::vector<std::string> violations;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  /// Data sizes and pool geometry of the workload, as a JSON object.
  std::string sizes_json = "{}";

  bool correct() const { return failed == 0 && violations.empty(); }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Violate(std::string why) { violations.push_back(std::move(why)); }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result);
std::string JsonString(const std::string& text);

/// Per-phase log of a set of closed-loop clients (one per client, merged).
struct PhaseLog {
  std::map<std::string, std::vector<double>> select_ms;  ///< per template.
  std::map<std::string, std::vector<double>> dml_ms;     ///< per kind.
  int64_t completed = 0;  ///< SELECTs and DML statements that returned.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons.

  void Fail(std::string why);
  void Merge(const PhaseLog& other);
  size_t selects() const;
  size_t dml_statements() const;
};

/// Thread-safe named samples, one per request, read off results the
/// program returns (QueryResult, Response, ShardedResult, stats deltas).
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  std::vector<double> Get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Records the db-layer numbers of one executed query: `run_ns` is the
/// wall time of the Database::Run call that produced `result`.
void RecordQueryResult(const db::QueryResult& result, int64_t run_ns,
                       LayerSamples* samples);

/// Records per-operator time and rows of one query, summed by operator
/// kind ("db.op.<Kind>.ms", "db.op.<Kind>.rows_out").
void RecordOperators(const db::Profiler& profile, LayerSamples* samples);

/// A serve-tier call seen from the client: its wall time and the queue
/// wait the service reported.
struct ServeCall {
  uint64_t request = 0;
  int64_t call_ns = 0;
  int64_t queue_wait_ns = 0;
};

/// Adds serve.queue_wait_ms and serve.handoff_ms (= call - queue wait -
/// the executor's "serve.exec" span) for each call.
void AddServeSamples(const std::vector<Span>& spans,
                     const std::vector<ServeCall>& calls,
                     LayerSamples* samples);

/// Compares an engine result with its reference; "" when they match.
std::string CheckResult(const db::Table& actual, const db::Table& expected,
                        bool ordered);

/// A copy of `table` that is wrong: one row fewer, or one NULL row more
/// when it is empty.
std::shared_ptr<const db::Table> PlantWrongAnswer(const db::Table& table);

/// Reports the end-to-end metrics of an untraced phase.
void ReportEndToEnd(const PhaseLog& log, double wall_s,
                    const std::vector<double>& setup_s, RunResult* result);

/// Everything a traced phase yields for the per-layer metrics.
struct TracedPhase {
  std::vector<Span> setup_spans;
  std::vector<Span> spans;
  const LayerSamples* samples = nullptr;
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
};

/// Reports every per-layer metric: those this workload cannot observe are
/// reported as 0 (the layer is absent from the workload's path).
void ReportPerLayer(const TracedPhase& phase, RunResult* result);

/// Names and units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Median, over setup repetitions, of the summed duration of the spans
/// named `name` (seconds).
double SetupSpanSeconds(const std::vector<Span>& spans,
                        const std::string& name);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
