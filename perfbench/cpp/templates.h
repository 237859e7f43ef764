// SQL text the workloads send. Query templates take TPC-H-style
// substitution parameters drawn from a seeded pool, so one seed gives one
// set of statements; the engine only ever sees the generated text.
#ifndef PERFBENCH_TEMPLATES_H_
#define PERFBENCH_TEMPLATES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/value.h"

namespace perfbench {

struct SqlTemplate {
  std::string name;
  std::vector<std::string> pool;  ///< distinct instantiations.
};

/// TPC-H Q3, Q5, Q9, Q10, Q12, Q14 and Q19, written in the engine's SQL
/// subset (explicit JOIN ... ON; ORDER BY keys extended to a total order so
/// results compare exactly).
std::vector<SqlTemplate> OlapJoinTemplates(uint64_t seed, int instances);

/// Scan-aggregates without joins: Q1, Q6 and an l_shipmode GROUP BY over a
/// 90-day l_shipdate range.
std::vector<SqlTemplate> ScanAggTemplates(uint64_t seed, int instances);

/// Point lookups by order key.
std::string OrderLookupSql(int64_t orderkey);
std::string LineitemLookupSql(int64_t orderkey);

/// Columns the lookups select, in order (the expected answers are built
/// from the generated tables with them).
const std::vector<std::string>& OrderLookupColumns();
const std::vector<std::string>& LineitemLookupColumns();

/// orders ⋈ lineitem aggregate over the order keys at or above `min_key`.
std::string ReservedRangeAggSql(int64_t min_key);

/// orders ⋈ lineitem line count and quantity over the orders placed on or
/// after day `orderdate`.
std::string RecentJoinAggSql(int32_t orderdate);

/// "INSERT INTO <table> VALUES (...), (...)" for literal rows.
std::string InsertSql(const std::string& table,
                      const std::vector<std::vector<perfeval::db::Value>>& rows);
std::string DeleteByKeySql(const std::string& table,
                           const std::string& key_column, int64_t key);

}  // namespace perfbench

#endif  // PERFBENCH_TEMPLATES_H_
