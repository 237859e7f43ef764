#include "engine.h"

#include "opt/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace perfbench {

db::DatabaseOptions MakeDatabaseOptions(size_t buffer_pool_pages,
                                        db::DiskModel disk) {
  db::DatabaseOptions options;
  options.disk = disk;
  options.buffer_pool_pages = buffer_pool_pages;
  options.threads = 1;
  options.join_algo = db::JoinAlgo::kRadix;
  options.check = false;
  options.optimize = false;
  options.backend = db::BackendKind::kColumnar;
  return options;
}

serve::ServiceOptions MakeServiceOptions(int workers) {
  serve::ServiceOptions options;
  options.workers = workers;
  options.mode = kExecMode;
  options.sink = kSink;
  options.fingerprint_results = false;
  return options;
}

std::string EngineConfigJson() {
  db::DatabaseOptions options = MakeDatabaseOptions(0);
  return std::string("{\"backend\": \"") +
         db::BackendKindName(options.backend) + "\", \"exec_mode\": \"" +
         db::ExecModeName(kExecMode) + "\", \"check\": false, " +
         "\"threads\": " + std::to_string(options.threads) +
         ", \"join_default\": \"" + db::JoinAlgoName(options.join_algo) +
         "\", \"sink\": \"" + db::SinkKindName(kSink) +
         "\", \"fingerprint_results\": false, \"optimizer\": "
         "\"sql::PlanStatement (optimize off) then opt::Optimize\"}";
}

perfeval::Result<db::PlanPtr> PlanSelect(const sql::SelectStatement& statement,
                                         const db::Database& database,
                                         Tracer* tracer, uint64_t request,
                                         uint64_t parent) {
  perfeval::Result<sql::PlannedQuery> bound = [&] {
    ScopedSpan span(tracer, "sql.bind", request, parent);
    return sql::PlanStatement(statement, database);
  }();
  if (!bound.ok()) {
    return bound.status();
  }
  ScopedSpan span(tracer, "opt.optimize", request, parent);
  return perfeval::opt::Optimize(bound.value().plan, database).plan;
}

perfeval::Result<db::PlanPtr> PlanSql(const std::string& text,
                                      const db::Database& database,
                                      Tracer* tracer, uint64_t request,
                                      uint64_t parent) {
  perfeval::Result<sql::SelectStatement> parsed = [&] {
    ScopedSpan span(tracer, "sql.parse", request, parent);
    return sql::Parse(text);
  }();
  if (!parsed.ok()) {
    return parsed.status();
  }
  return PlanSelect(parsed.value(), database, tracer, request, parent);
}

db::QueryResult Execute(db::Database& database, const db::PlanPtr& plan) {
  return database.Run(plan, kExecMode, kSink);
}

shard::ShardedResult Execute(shard::ShardCluster& cluster,
                             const db::PlanPtr& plan) {
  return cluster.Execute(plan, kExecMode);
}

}  // namespace perfbench
