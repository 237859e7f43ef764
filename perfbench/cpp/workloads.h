// The three workloads and the closed-loop machinery they share.
//
// As with TPC-H's dbgen and qgen, the data set is fixed for a scale factor
// (the generator's default seed), and the workload seed drives everything
// else: substitution parameters, lookup keys, the operation stream and the
// rows written. The optimizer's plans then depend on the parameters only.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine.h"
#include "report.h"
#include "templates.h"
#include "trace.h"

namespace perfbench {

/// Direct engine path: Parse -> PlanStatement -> Optimize -> Run.
RunResult RunOlapJoin(const RunConfig& config);
/// Shard front-end: point lookups and scan-aggregates over two shards.
RunResult RunScanShard(const RunConfig& config);
/// Serve tier plus the write path (DeltaStore on a VirtualDisk).
RunResult RunHtapWrite(const RunConfig& config);

/// One instantiation of a SQL template with its reference answer.
struct Statement {
  std::string tmpl;
  std::string sql;
  std::shared_ptr<const db::Table> expected;
  bool ordered = true;  ///< compare row order (the SQL orders totally).
};

/// For every instantiation of `templates`: plans it against `database`,
/// computes its reference answer with db::ReferenceExecute, and runs it
/// once, noting the rows each join and filter emitted; a statement where
/// one of them emitted nothing is flagged vacuous, never dropped. Returns
/// false, with a violation recorded, when a statement does not plan.
bool PrepareStatements(const std::vector<SqlTemplate>& templates,
                       db::Database& database,
                       std::vector<std::vector<Statement>>* statements,
                       RunResult* result);

/// Largest --seconds a run accepts. A phase may run past its seconds, up to
/// a hard cap of 100 s, to collect the SELECT samples query_p95_ms needs;
/// with set-up and the commit tail, the run still ends inside run.py's
/// time limit.
inline constexpr int kMaxSeconds = 60;

/// Set-up repetitions per run: at least kMinSetupReps, and more until they
/// add up to kMinSetupSeconds, so that a set-up of a few milliseconds is
/// still a median over a stretch of host time; never more than
/// kMaxSetupReps. setup_s is their median.
inline constexpr int kMinSetupReps = 7;
inline constexpr int kMaxSetupReps = 200;
inline constexpr double kMinSetupSeconds = 2.0;

/// Runs `setup` as often as the constants above ask, calling `teardown`
/// untimed before each repetition; in a traced run each repetition is a
/// root span "setup" whose id `setup` receives as the parent of its own
/// spans. Returns the wall seconds of each repetition.
std::vector<double> TimeSetups(Tracer* tracer,
                               const std::function<void()>& teardown,
                               const std::function<void(uint64_t)>& setup);

/// One closed-loop operation of client `client`; returns the number of
/// SELECTs it completed.
using ClientOp = std::function<size_t(int client, PhaseLog* log)>;

/// Runs `clients` closed-loop clients (no think time) until `seconds` have
/// passed and at least `min_selects` SELECTs completed, merging their logs
/// into `log`. Clients finish the operation in flight when time is up.
/// Returns the wall seconds from the first operation to the last
/// completion.
double RunClosedLoop(int clients, double seconds, size_t min_selects,
                     const ClientOp& op, PhaseLog* log);

/// Splits a run of `config.seconds` into an untraced phase and, for traced
/// runs, a traced phase of equal length.
double UntracedSeconds(const RunConfig& config);

/// SELECT samples needed for query_p95_ms in an untraced run; 0 in traced
/// runs, which do not report it.
size_t MinSelects(const RunConfig& config);

/// Writes the traced phase's spans to the run's span file.
void WriteSpans(const RunConfig& config, const Tracer& setup,
                const Tracer& traced, RunResult* result);

/// Serve-tier calls of a traced phase, collected from every client.
class ServeCallLog {
 public:
  void Add(const ServeCall& call);
  std::vector<ServeCall> Get() const;

 private:
  mutable std::mutex mu_;
  std::vector<ServeCall> calls_;
};

/// One SELECT through a serve-tier service, timed from SQL text to result
/// table: plans `sql` against `database` in a root span "request", then
/// submits the plan in a child span "serve.call". The executor's spans join
/// the request through Request::seed. Logs the latency under `tmpl`, or
/// the failure, and records the call in `calls` when that is set. Returns
/// the result table, or null on failure.
std::shared_ptr<const db::Table> ServeSelect(const std::string& tmpl,
                                             const std::string& sql,
                                             const db::Database& database,
                                             serve::QueryService& service,
                                             Tracer* tracer,
                                             ServeCallLog* calls,
                                             PhaseLog* log);

/// The eight TPC-H tables in generation order (orders before lineitem).
const std::vector<std::string>& TpchTables();

/// SplitMix64 finalizer: operation streams derive operation i from
/// Mix(seed, i), so any client can take any index.
uint64_t Mix(uint64_t x);

/// The values of row `row` of `table`.
std::vector<db::Value> RowValues(const db::Table& table, size_t row);

/// A table of `rows` (whole rows of `schema`) projected to `columns`: the
/// expected answer of a lookup.
std::shared_ptr<const db::Table> ProjectRows(
    const db::Schema& schema, const std::vector<std::vector<db::Value>>& rows,
    const std::vector<std::string>& columns);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
