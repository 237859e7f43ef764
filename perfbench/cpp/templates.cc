#include "templates.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>

#include "common/random.h"
#include "db/types.h"

namespace perfbench {
namespace {

using perfeval::Pcg32;
namespace db = perfeval::db;

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kColors[] = {"almond", "antique", "azure",  "beige",    "black",
                         "blue",   "brown",   "coral",  "cream",    "cyan",
                         "forest", "green",   "grey",   "ivory",    "khaki",
                         "lace",   "lemon",   "linen",  "magenta",  "maroon"};

template <size_t N>
const char* Pick(Pcg32& rng, const char* (&items)[N]) {
  return items[rng.NextBounded(static_cast<uint32_t>(N))];
}

std::string Date(int32_t days) { return "DATE '" + db::FormatDate(days) + "'"; }

int32_t Ymd(int year, int month, int day) {
  return db::DateFromYmd(year, month, day);
}

// First day of the month `months` after (year, month).
int32_t AddMonths(int year, int month, int months) {
  int index = year * 12 + (month - 1) + months;
  return Ymd(index / 12, index % 12 + 1, 1);
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

const char* kRevenue = "l_extendedprice * (1 - l_discount)";

std::string Q3(Pcg32& rng) {
  std::string date = Date(Ymd(1995, 3, 1) + rng.NextInRange(0, 30));
  return std::string("SELECT l_orderkey, sum(") + kRevenue +
         ") AS revenue, o_orderdate, o_shippriority FROM customer "
         "JOIN orders ON c_custkey = o_custkey "
         "JOIN lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = '" +
         Pick(rng, kSegments) + "' AND o_orderdate < " + date +
         " AND l_shipdate > " + date +
         " GROUP BY l_orderkey, o_orderdate, o_shippriority "
         "ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10";
}

std::string Q5(Pcg32& rng) {
  int year = static_cast<int>(rng.NextInRange(1993, 1997));
  return std::string("SELECT n_name, sum(") + kRevenue +
         ") AS revenue FROM customer JOIN orders ON c_custkey = o_custkey "
         "JOIN lineitem ON l_orderkey = o_orderkey "
         "JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = "
         "s_nationkey JOIN nation ON s_nationkey = n_nationkey "
         "JOIN region ON n_regionkey = r_regionkey WHERE r_name = '" +
         Pick(rng, kRegions) + "' AND o_orderdate >= " +
         Date(Ymd(year, 1, 1)) + " AND o_orderdate < " +
         Date(Ymd(year + 1, 1, 1)) +
         " GROUP BY n_name ORDER BY revenue DESC, n_name";
}

std::string Q9(Pcg32& rng) {
  return std::string("SELECT n_name, year(o_orderdate) AS o_year, sum(") +
         kRevenue +
         " - ps_supplycost * l_quantity) AS sum_profit FROM lineitem "
         "JOIN part ON p_partkey = l_partkey "
         "JOIN supplier ON s_suppkey = l_suppkey "
         "JOIN partsupp ON ps_partkey = l_partkey AND ps_suppkey = l_suppkey "
         "JOIN orders ON o_orderkey = l_orderkey "
         "JOIN nation ON s_nationkey = n_nationkey WHERE p_name LIKE '%" +
         Pick(rng, kColors) +
         "%' GROUP BY n_name, o_year ORDER BY n_name, o_year DESC";
}

std::string Q10(Pcg32& rng) {
  int month = static_cast<int>(rng.NextInRange(0, 23));
  return std::string("SELECT c_custkey, c_name, sum(") + kRevenue +
         ") AS revenue, c_acctbal, n_name, c_address, c_phone, c_comment "
         "FROM customer JOIN orders ON c_custkey = o_custkey "
         "JOIN lineitem ON l_orderkey = o_orderkey "
         "JOIN nation ON c_nationkey = n_nationkey WHERE o_orderdate >= " +
         Date(AddMonths(1993, 2, month)) + " AND o_orderdate < " +
         Date(AddMonths(1993, 2, month + 3)) +
         " AND l_returnflag = 'R' GROUP BY c_custkey, c_name, c_acctbal, "
         "c_phone, n_name, c_address, c_comment "
         "ORDER BY revenue DESC, c_custkey LIMIT 20";
}

std::string Q12(Pcg32& rng) {
  uint32_t first = rng.NextBounded(std::size(kShipModes));
  uint32_t second = (first + 1 + rng.NextBounded(std::size(kShipModes) - 1)) %
                    std::size(kShipModes);
  int year = static_cast<int>(rng.NextInRange(1993, 1997));
  return std::string(
             "SELECT l_shipmode, sum(CASE WHEN o_orderpriority = '1-URGENT' "
             "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS "
             "high_line_count, sum(CASE WHEN o_orderpriority <> '1-URGENT' "
             "AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS "
             "low_line_count FROM orders JOIN lineitem ON o_orderkey = "
             "l_orderkey WHERE l_shipmode IN ('") +
         kShipModes[first] + "', '" + kShipModes[second] +
         "') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
         "AND l_receiptdate >= " +
         Date(Ymd(year, 1, 1)) + " AND l_receiptdate < " +
         Date(Ymd(year + 1, 1, 1)) + " GROUP BY l_shipmode ORDER BY l_shipmode";
}

std::string Q14(Pcg32& rng) {
  int month = static_cast<int>(rng.NextInRange(0, 59));
  return std::string("SELECT 100.0 * sum(CASE WHEN p_type LIKE 'PROMO%' "
                     "THEN ") +
         kRevenue + " ELSE 0.0 END) / sum(" + kRevenue +
         ") AS promo_revenue FROM lineitem JOIN part ON l_partkey = "
         "p_partkey WHERE l_shipdate >= " +
         Date(AddMonths(1993, 1, month)) + " AND l_shipdate < " +
         Date(AddMonths(1993, 1, month + 1));
}

std::string Q19(Pcg32& rng) {
  auto brand = [&rng] {
    return "Brand#" + std::to_string(rng.NextInRange(1, 5)) +
           std::to_string(rng.NextInRange(1, 5));
  };
  auto branch = [&](const std::string& b, const char* containers,
                    int64_t quantity, int max_size) {
    return "(p_brand = '" + b + "' AND p_container IN (" + containers +
           ") AND l_quantity >= " + std::to_string(quantity) +
           " AND l_quantity <= " + std::to_string(quantity + 10) +
           " AND p_size BETWEEN 1 AND " + std::to_string(max_size) +
           " AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = "
           "'DELIVER IN PERSON')";
  };
  std::string b1 = brand(), b2 = brand(), b3 = brand();
  int64_t q1 = rng.NextInRange(1, 10);
  int64_t q2 = rng.NextInRange(10, 20);
  int64_t q3 = rng.NextInRange(20, 30);
  return std::string("SELECT sum(") + kRevenue +
         ") AS revenue FROM lineitem JOIN part ON p_partkey = l_partkey "
         "WHERE " +
         branch(b1, "'SM CASE', 'SM BOX', 'SM PACK', 'SM PKG'", q1, 5) +
         " OR " +
         branch(b2, "'MED BAG', 'MED BOX', 'MED PKG', 'MED PACK'", q2, 10) +
         " OR " +
         branch(b3, "'LG CASE', 'LG BOX', 'LG PACK', 'LG PKG'", q3, 15);
}

std::string Q1(Pcg32& rng) {
  int32_t cutoff = Ymd(1998, 12, 1) - static_cast<int32_t>(
                                          rng.NextInRange(60, 120));
  return "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
         "sum(l_extendedprice) AS sum_base_price, sum(" +
         std::string(kRevenue) +
         ") AS sum_disc_price, sum(" + kRevenue +
         " * (1 + l_tax)) AS sum_charge, avg(l_quantity) AS avg_qty, "
         "avg(l_extendedprice) AS avg_price, avg(l_discount) AS avg_disc, "
         "count(*) AS count_order FROM lineitem WHERE l_shipdate <= " +
         Date(cutoff) +
         " GROUP BY l_returnflag, l_linestatus "
         "ORDER BY l_returnflag, l_linestatus";
}

std::string Q6(Pcg32& rng) {
  int year = static_cast<int>(rng.NextInRange(1993, 1997));
  double discount = static_cast<double>(rng.NextInRange(2, 9)) / 100.0;
  int64_t quantity = rng.NextInRange(24, 25);
  return "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
         "WHERE l_shipdate >= " +
         Date(Ymd(year, 1, 1)) + " AND l_shipdate < " +
         Date(Ymd(year + 1, 1, 1)) + " AND l_discount BETWEEN " +
         Fmt("%.2f", discount - 0.01) + " AND " +
         Fmt("%.2f", discount + 0.01) +
         " AND l_quantity < " + std::to_string(quantity);
}

std::string ShipmodeRange(Pcg32& rng) {
  int32_t from = Ymd(1992, 1, 1) +
                 static_cast<int32_t>(rng.NextInRange(0, 6 * 365));
  return "SELECT l_shipmode, count(*) AS lines, sum(l_quantity) AS qty "
         "FROM lineitem WHERE l_shipdate >= " +
         Date(from) + " AND l_shipdate < " + Date(from + 90) +
         " GROUP BY l_shipmode ORDER BY l_shipmode";
}

using Generator = std::function<std::string(Pcg32&)>;

// `instances` distinct instantiations per template, each template drawing
// from its own seeded stream.
std::vector<SqlTemplate> Instantiate(
    uint64_t seed, int instances,
    const std::vector<std::pair<std::string, Generator>>& generators) {
  std::vector<SqlTemplate> out;
  uint64_t stream = 1;
  for (const auto& [name, generate] : generators) {
    Pcg32 rng(seed, stream++);
    SqlTemplate t{name, {}};
    for (int tries = 0;
         static_cast<int>(t.pool.size()) < instances && tries < 100 * instances;
         ++tries) {
      std::string sql = generate(rng);
      if (std::find(t.pool.begin(), t.pool.end(), sql) == t.pool.end()) {
        t.pool.push_back(std::move(sql));
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::vector<SqlTemplate> OlapJoinTemplates(uint64_t seed, int instances) {
  return Instantiate(seed, instances,
                     {{"Q3", Q3},
                      {"Q5", Q5},
                      {"Q9", Q9},
                      {"Q10", Q10},
                      {"Q12", Q12},
                      {"Q14", Q14},
                      {"Q19", Q19}});
}

std::vector<SqlTemplate> ScanAggTemplates(uint64_t seed, int instances) {
  return Instantiate(seed, instances,
                     {{"Q1", Q1}, {"Q6", Q6}, {"shipmode_range", ShipmodeRange}});
}

const std::vector<std::string>& OrderLookupColumns() {
  static const std::vector<std::string> columns = {
      "o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
      "o_orderdate"};
  return columns;
}

const std::vector<std::string>& LineitemLookupColumns() {
  static const std::vector<std::string> columns = {
      "l_orderkey", "l_linenumber", "l_partkey", "l_quantity",
      "l_extendedprice"};
  return columns;
}

namespace {

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : ", ") + item;
  }
  return out;
}

}  // namespace

std::string OrderLookupSql(int64_t orderkey) {
  return "SELECT " + Join(OrderLookupColumns()) +
         " FROM orders WHERE o_orderkey = " + std::to_string(orderkey);
}

std::string LineitemLookupSql(int64_t orderkey) {
  return "SELECT " + Join(LineitemLookupColumns()) +
         " FROM lineitem WHERE l_orderkey = " + std::to_string(orderkey);
}

std::string ReservedRangeAggSql(int64_t min_key) {
  return "SELECT count(*) AS lines, sum(l_quantity) AS qty FROM orders "
         "JOIN lineitem ON o_orderkey = l_orderkey WHERE o_orderkey >= " +
         std::to_string(min_key);
}

std::string RecentJoinAggSql(int32_t orderdate) {
  return "SELECT count(*) AS lines, sum(l_quantity) AS qty FROM orders "
         "JOIN lineitem ON o_orderkey = l_orderkey WHERE o_orderdate >= " +
         Date(orderdate);
}

std::string InsertSql(const std::string& table,
                      const std::vector<std::vector<db::Value>>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t r = 0; r < rows.size(); ++r) {
    sql += r == 0 ? "(" : ", (";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      const db::Value& v = rows[r][c];
      if (c > 0) {
        sql += ", ";
      }
      switch (v.type()) {
        case db::DataType::kString:
          sql += "'" + v.AsString() + "'";
          break;
        case db::DataType::kDate:
          sql += Date(v.AsDate());
          break;
        case db::DataType::kDouble:
          sql += Fmt("%.2f", v.AsDouble());
          break;
        default:
          sql += std::to_string(v.AsInt64());
      }
    }
    sql += ")";
  }
  return sql;
}

std::string DeleteByKeySql(const std::string& table,
                           const std::string& key_column, int64_t key) {
  return "DELETE FROM " + table + " WHERE " + key_column + " = " +
         std::to_string(key);
}

}  // namespace perfbench
