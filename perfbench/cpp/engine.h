// The engine configuration every workload uses, and the adapter through
// which the benchmark plans and executes SQL. Every plan the benchmark
// itself executes goes through Execute(), so a change to the engine's
// execution seam edits one call site here.
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "db/database.h"
#include "serve/service.h"
#include "shard/cluster.h"
#include "sql/ast.h"
#include "trace.h"

namespace perfbench {

namespace db = perfeval::db;
namespace serve = perfeval::serve;
namespace shard = perfeval::shard;
namespace sql = perfeval::sql;

inline constexpr db::ExecMode kExecMode = db::ExecMode::kOptimized;
inline constexpr db::SinkKind kSink = db::SinkKind::kDiscard;

/// Columnar, optimized mode, checked execution off, one intra-query thread,
/// radix join as the default the optimizer may override. The database's
/// own optimize knob stays off: PlanSelect calls the optimizer itself.
db::DatabaseOptions MakeDatabaseOptions(size_t buffer_pool_pages,
                                        db::DiskModel disk = db::DiskModel());

/// `workers` executor threads, the engine defaults above, and no result
/// fingerprints (the benchmark checks results itself).
serve::ServiceOptions MakeServiceOptions(int workers);

/// The configuration above as one JSON object, for provenance.
std::string EngineConfigJson();

/// Binds `statement` with the optimizer off (span "sql.bind"), then runs
/// opt::Optimize on the bound plan (span "opt.optimize") — the split
/// sql::PlanStatement makes when the database's optimize knob is on.
perfeval::Result<db::PlanPtr> PlanSelect(const sql::SelectStatement& statement,
                                         const db::Database& database,
                                         Tracer* tracer, uint64_t request,
                                         uint64_t parent);

/// sql::Parse (span "sql.parse") followed by PlanSelect.
perfeval::Result<db::PlanPtr> PlanSql(const std::string& text,
                                      const db::Database& database,
                                      Tracer* tracer, uint64_t request,
                                      uint64_t parent);

/// The execution adapter. May throw db::QueryError.
db::QueryResult Execute(db::Database& database, const db::PlanPtr& plan);
shard::ShardedResult Execute(shard::ShardCluster& cluster,
                             const db::PlanPtr& plan);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
