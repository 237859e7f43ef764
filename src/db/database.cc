#include "db/database.h"

#include "common/check.h"
#include "db/row_backend.h"

namespace perfeval {
namespace db {

Database::Database(DatabaseOptions options)
    : options_(options),
      storage_(std::make_unique<StorageManager>(options.disk,
                                                options.buffer_pool_pages,
                                                options.rows_per_page)) {}

Database::~Database() = default;

void Database::RegisterTable(const std::string& name,
                             std::shared_ptr<Table> table) {
  PERFEVAL_CHECK(table != nullptr);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  PERFEVAL_CHECK(tables_.find(name) == tables_.end())
      << "table " << name << " already registered";
  uint32_t id = static_cast<uint32_t>(table_order_.size());
  storage_->RegisterTable(id, *table);
  stats_[name] = std::make_shared<const TableStats>(
      ComputeTableStats(*table, storage_.get(), id));
  tables_[name] = std::move(table);
  table_ids_[name] = id;
  table_order_.push_back(name);
}

void Database::ReplaceTable(const std::string& name,
                            std::shared_ptr<Table> table) {
  PERFEVAL_CHECK(table != nullptr);
  // Exclusive gate first: wait out running queries, then swap catalog and
  // storage metadata together so a scan never sees one without the other.
  std::unique_lock<std::shared_mutex> gate(exec_gate_);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  PERFEVAL_CHECK(it != tables_.end()) << "no table named " << name;
  PERFEVAL_CHECK_EQ(it->second->schema().num_columns(),
                    table->schema().num_columns());
  storage_->ReplaceTable(table_ids_[name], *table);
  stats_[name] = std::make_shared<const TableStats>(
      ComputeTableStats(*table, storage_.get(), table_ids_[name]));
  retired_.push_back(std::move(it->second));
  it->second = std::move(table);
}

void Database::SetRefreshHook(std::function<void()> hook) {
  refresh_hook_ = std::move(hook);
}

bool Database::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return tables_.find(name) != tables_.end();
}

const Table& Database::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  PERFEVAL_CHECK(it != tables_.end()) << "no table named " << name;
  return *it->second;
}

std::shared_ptr<const Table> Database::GetTableShared(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  PERFEVAL_CHECK(it != tables_.end()) << "no table named " << name;
  return it->second;
}

uint32_t Database::TableId(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = table_ids_.find(name);
  PERFEVAL_CHECK(it != table_ids_.end()) << "no table named " << name;
  return it->second;
}

std::shared_ptr<const TableStats> Database::GetTableStats(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = stats_.find(name);
  PERFEVAL_CHECK(it != stats_.end()) << "no table named " << name;
  return it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return table_order_;
}

void Database::FlushCaches() {
  storage_->FlushCaches();
  std::lock_guard<std::mutex> lock(row_mu_);
  if (row_store_ != nullptr) {
    row_store_->FlushCaches();
  }
}

QueryResult Database::Run(const PlanPtr& plan, ExecMode mode, SinkKind sink,
                          bool use_zone_maps) {
  // Fold freshly committed write-path deltas into the catalog before
  // executing, so every query observes the latest committed snapshot. The
  // hook may call ReplaceTable, which takes the exec gate exclusively, so
  // it must run before this query acquires the gate in shared mode.
  if (refresh_hook_) {
    refresh_hook_();
  }
  QueryResult result;
  ExecContext ctx;
  ctx.mode = mode;
  ctx.database = this;
  ctx.storage = storage_.get();
  ctx.profiler = &result.profile;
  ctx.use_zone_maps = use_zone_maps;
  ctx.threads = threads();
  ctx.morsel = options_.morsel;
  ctx.parallel_sim = &result.parallel;
  ctx.join_algo = options_.join_algo;
  ctx.radix_bits = options_.radix_bits;
  ctx.check = options_.check;

  // Server phase: execute the plan to the backend's native result — a
  // columnar relation (possibly a selection over a base table), or a
  // packed row block.
  Relation relation;
  RowBlockPtr rows;
  if (options_.backend == BackendKind::kRowStore) {
    RowStoreBackend* row_store;
    {
      std::lock_guard<std::mutex> lock(row_mu_);
      if (row_store_ == nullptr) {
        RowStoreBackend::Options row_options;
        row_options.disk = options_.disk;
        row_options.buffer_pool_pages = options_.buffer_pool_pages;
        row_options.rows_per_page = options_.rows_per_page;
        row_store_ = std::make_unique<RowStoreBackend>(row_options);
      }
      row_store_->SyncFrom(*this);
      row_store = row_store_.get();
    }
    result.server = core::MeasureOnce([&] {
      rows = row_store->Execute(*plan, mode, threads(), check(),
                                &result.profile, &result.storage);
    });
    result.server.simulated_stall_ns = result.storage.stall_ns;
  } else {
    // Stats are read through the thread-safe snapshot so concurrent query
    // streams never race on the counters (the per-query deltas are then
    // only meaningful when streams run serially; the result table is
    // deterministic either way).
    StorageStats stats_before = storage_->StatsSnapshot();
    int64_t stall_before = storage_->total_stall_ns();
    {
      // Shared exec gate: storage metadata (zone maps, chunk counts) stays
      // stable for the whole server phase even while the write path swaps
      // tables between queries.
      std::shared_lock<std::shared_mutex> gate(exec_gate_);
      result.server =
          core::MeasureOnce([&] { relation = plan->Execute(ctx); });
    }
    result.server.simulated_stall_ns =
        storage_->total_stall_ns() - stall_before;
    StorageStats stats_after = storage_->StatsSnapshot();
    result.storage.page_hits = stats_after.page_hits - stats_before.page_hits;
    result.storage.page_misses =
        stats_after.page_misses - stats_before.page_misses;
    result.storage.bytes_read =
        stats_after.bytes_read - stats_before.bytes_read;
    result.storage.stall_ns = stats_after.stall_ns - stats_before.stall_ns;
  }

  // Client phase: finish the native result into a table the way a server
  // serializes it, then render it into the sink. Finishing is charged here
  // on both backends; a gather's parallel region stays out of the
  // server-side ParallelSim.
  ctx.parallel_sim = nullptr;
  core::Measurement client = core::MeasureOnce([&] {
    if (rows != nullptr) {
      result.table = UnpackToTable(*rows);
    } else if (relation.selection != nullptr) {
      result.table = GatherRows(ctx, *relation.table, *relation.selection);
    } else {
      result.table = relation.table;
    }
    result.sink = SendToSink(*result.table, sink, options_.sink_model);
  });
  client.simulated_stall_ns = result.sink.stall_ns;
  result.client = result.server + client;
  return result;
}

}  // namespace db
}  // namespace perfeval
