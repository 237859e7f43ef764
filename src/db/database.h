#ifndef PERFEVAL_DB_DATABASE_H_
#define PERFEVAL_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/measurement.h"
#include "db/backend_kind.h"
#include "db/plan.h"
#include "db/profile.h"
#include "db/sink.h"
#include "db/storage.h"
#include "db/table.h"
#include "db/table_stats.h"

namespace perfeval {
namespace db {

class RowStoreBackend;

/// Configuration of a Database instance. These knobs are the factors of the
/// engine-screening experiment (DESIGN.md, A1) and of the hot/cold and
/// output-channel reproductions.
struct DatabaseOptions {
  DiskModel disk;
  size_t buffer_pool_pages = 256;
  size_t rows_per_page = 4096;
  SinkModel sink_model;
  /// Worker threads for morsel-driven intra-query parallelism (<= 1 runs
  /// serially). A pure concurrency knob: result relations and reported
  /// StorageStats are bit-identical at any setting; only wall-clock time
  /// may change.
  int threads = 1;
  /// Morsel sizing and the adaptive go-parallel decision (serial below the
  /// cutoff). Defaults to the hwsim-calibrated MorselPolicy::Hardware()
  /// values; tests override it to move the serial/parallel boundary.
  MorselPolicy morsel;
  /// Physical algorithm for equi-join nodes; a performance knob, not a
  /// semantic one (see db/join.h).
  JoinAlgo join_algo = JoinAlgo::kRadix;
  /// Radix fan-out (log2 partitions) for JoinAlgo::kRadix; <= 0 derives it
  /// from the hwsim L2 cache profile (ChooseRadixBits).
  int radix_bits = 0;
  /// Checked execution: operators assert their own invariants and queries
  /// fail with QueryError on violation (see ExecContext::check). SQL shell
  /// `\check on`.
  bool check = false;
  /// Cost-based optimization: when set, the SQL planner hands its rule-
  /// built plan to opt::Optimize, which re-derives join order and picks a
  /// physical join algorithm per node from the table statistics. Opt-in
  /// (SQL shell `\opt on`, bench `--dbOpt=on`); results are oracle-diffed
  /// identical to the rule-only plans.
  bool optimize = false;
  /// Which execution backend Run() executes plans on (see
  /// db/backend_kind.h): the columnar executor, or the packed-tuple row
  /// store built from the catalog on the first row-store Run(). The row
  /// store honours `threads`, `check`, the storage geometry (disk,
  /// buffer_pool_pages, rows_per_page) and `sink_model`; `morsel`,
  /// `join_algo` and `radix_bits` are columnar kernels' knobs and it has
  /// no zone maps. SQL shell `\backend`, bench `--dbBackend=`.
  BackendKind backend = BackendKind::kColumnar;
};

/// A query's complete outcome: the result table, server-side timing split
/// the way the paper's slide-23 table splits it (server user/real vs client
/// real), operator traces, and the output-channel report.
struct QueryResult {
  std::shared_ptr<const Table> table;
  Profiler profile;

  /// Server-side execution only (plan execution).
  core::Measurement server;
  /// Client-side view: server plus finishing (the backend's native result
  /// into `table`), result rendering and sink stall.
  core::Measurement client;

  SinkReport sink;

  /// Buffer-pool activity attributable to this query (hits, misses, bytes
  /// read, stall) — the server-side "where did the time go" counters.
  StorageStats storage;

  /// Wall vs critical-path time of the query's parallel regions (see
  /// ParallelSim in db/plan.h).
  ParallelSim parallel;

  double ServerRealMs() const { return server.ObservedRealMs(); }
  double ServerUserMs() const { return server.user_ms(); }
  double ClientRealMs() const { return client.ObservedRealMs(); }

  /// Server time with every parallel region counted at its critical path
  /// (max per-worker busy time) instead of its measured wall time. On a
  /// host with enough idle cores the two coincide; on an oversubscribed
  /// host — where workers time-slice one core and measured wall cannot
  /// show scaling — this is the defensible "time with real cores" figure.
  /// Benches that report it must label it as modeled, next to the
  /// measured wall time and the host core count.
  int64_t ModeledServerNs() const {
    int64_t ns = server.ObservedRealNs() - parallel.region_wall_ns +
                 parallel.region_critical_ns;
    return ns < 0 ? 0 : ns;
  }
};

/// The engine facade: a catalog of named tables over a StorageManager, and
/// a Run() entry point — the one way a plan executes — that runs plans on
/// the configured backend under a chosen ExecMode and result sink, with
/// full timing.
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Adds a loaded table to the catalog and registers its pages with the
  /// storage manager. Aborts on duplicate names.
  void RegisterTable(const std::string& name, std::shared_ptr<Table> table);

  /// Swaps the catalog entry of an existing table for new contents with
  /// the same schema — the write path installing a freshly merged
  /// base+delta snapshot. Keeps the table id, re-registers pages and zone
  /// maps, and evicts the stale buffer-pool pages. Takes the exec gate
  /// exclusively, so it waits for in-flight queries and blocks new ones
  /// for the duration of the swap; the previous table object is kept
  /// alive, so references handed out earlier stay valid (tables are
  /// immutable once registered).
  void ReplaceTable(const std::string& name, std::shared_ptr<Table> table);

  /// Installs a hook run at the top of every Run() call, before the query
  /// executes — the write path uses it to fold freshly committed deltas
  /// into the catalog so every query sees the latest committed snapshot.
  /// The hook runs outside the exec gate and may call ReplaceTable.
  void SetRefreshHook(std::function<void()> hook);

  bool HasTable(const std::string& name) const;
  const Table& GetTable(const std::string& name) const;
  std::shared_ptr<const Table> GetTableShared(const std::string& name) const;
  uint32_t TableId(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  StorageManager& storage() { return *storage_; }
  const DatabaseOptions& options() const { return options_; }

  /// Intra-query parallelism knob; adjustable at runtime (SQL shell
  /// `\threads N`, bench `--dbThreads=N`). Clamped to >= 1.
  int threads() const { return options_.threads; }
  void set_threads(int threads) {
    options_.threads = threads < 1 ? 1 : threads;
  }

  /// Morsel policy knob: morsel size and the adaptive serial/parallel
  /// cutoff. Tests use it to place the decision boundary precisely.
  const MorselPolicy& morsel_policy() const { return options_.morsel; }
  void set_morsel_policy(const MorselPolicy& policy) {
    options_.morsel = policy;
  }

  /// Join algorithm knob; adjustable at runtime (SQL shell `\join ALGO`,
  /// bench `--dbJoin=ALGO`).
  JoinAlgo join_algo() const { return options_.join_algo; }
  void set_join_algo(JoinAlgo algo) { options_.join_algo = algo; }

  /// Radix fan-out override for JoinAlgo::kRadix (<= 0 = auto).
  int radix_bits() const { return options_.radix_bits; }
  void set_radix_bits(int bits) { options_.radix_bits = bits; }

  /// Checked execution knob; adjustable at runtime (SQL shell `\check`).
  bool check() const { return options_.check; }
  void set_check(bool check) { options_.check = check; }

  /// Cost-based optimization knob; adjustable at runtime (SQL shell
  /// `\opt on|off`, bench `--dbOpt=on|off`).
  bool optimize() const { return options_.optimize; }
  void set_optimize(bool optimize) { options_.optimize = optimize; }

  /// Execution-backend knob; adjustable at runtime between queries (SQL
  /// shell `\backend col|row`, bench `--dbBackend=`). Switching keeps the
  /// row store and its buffer pool for the next row-store Run().
  BackendKind backend() const { return options_.backend; }
  void set_backend(BackendKind backend) { options_.backend = backend; }

  /// Runs the refresh hook (if any) without executing a query: folds
  /// freshly committed write-path deltas into the catalog, as the start
  /// of every Run() does.
  void Refresh() {
    if (refresh_hook_) {
      refresh_hook_();
    }
  }

  /// Statistics of a catalog table, computed at RegisterTable and
  /// refreshed on every ReplaceTable (write-path snapshot install).
  /// Never null for a registered table.
  std::shared_ptr<const TableStats> GetTableStats(
      const std::string& name) const;

  /// Empties the buffer pools of both backends: the next run is a cold
  /// run (slide 32).
  void FlushCaches();

  /// Executes `plan` on the backend selected by options().backend: server
  /// phase (plan execution to the backend's native result), then client
  /// phase (finishing the native result into `table` — gathering a final
  /// selection, or unpacking the row store's tuples — and rendering it
  /// into `sink`). Profiling is always collected. `use_zone_maps` applies
  /// to the columnar backend only.
  QueryResult Run(const PlanPtr& plan, ExecMode mode = ExecMode::kOptimized,
                  SinkKind sink = SinkKind::kDiscard,
                  bool use_zone_maps = true);

  /// The row store, or null while no row-store Run() has built it. For
  /// inspection between queries; not synchronized with a running Run().
  const RowStoreBackend* row_store() const { return row_store_.get(); }

 private:
  DatabaseOptions options_;
  std::unique_ptr<StorageManager> storage_;

  /// Guards the catalog maps (lookup vs. ReplaceTable swap). Distinct from
  /// the exec gate: lookups are lock-then-copy and never block queries.
  mutable std::mutex catalog_mu_;
  /// Queries hold this shared for the server phase; ReplaceTable holds it
  /// exclusively so storage metadata (zone maps, chunk counts) is never
  /// swapped under a running scan.
  mutable std::shared_mutex exec_gate_;
  std::function<void()> refresh_hook_;

  /// The row-store copy of the catalog, built by the first row-store
  /// Run() and re-synced at each one; `row_mu_` guards building and
  /// syncing. A columnar-only database never touches either.
  std::mutex row_mu_;
  std::unique_ptr<RowStoreBackend> row_store_;

  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;
  std::unordered_map<std::string, uint32_t> table_ids_;
  /// Optimizer statistics per table; replaced wholesale on refresh so
  /// handed-out snapshots stay valid (like `retired_` for tables).
  std::unordered_map<std::string, std::shared_ptr<const TableStats>> stats_;
  std::vector<std::string> table_order_;
  /// Replaced table versions, kept alive so GetTable() references handed
  /// out before a swap never dangle (a handful of entries per session).
  std::vector<std::shared_ptr<Table>> retired_;
};

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_DATABASE_H_
