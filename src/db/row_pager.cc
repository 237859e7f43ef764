#include "db/row_pager.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace perfeval {
namespace db {
namespace {

uint64_t PageKey(uint32_t table_id, uint32_t page) {
  return (static_cast<uint64_t>(table_id) << 32) | page;
}

}  // namespace

RowPager::RowPager(DiskModel disk, size_t buffer_pool_pages,
                   size_t rows_per_page)
    : disk_(disk),
      buffer_pool_pages_(buffer_pool_pages),
      rows_per_page_(rows_per_page) {
  PERFEVAL_CHECK_GT(buffer_pool_pages_, 0u);
  PERFEVAL_CHECK_GT(rows_per_page_, 0u);
}

RowPager::TableMeta RowPager::MeasurePages(const RowBlock& block) const {
  TableMeta meta;
  size_t n = block.num_rows();
  size_t num_pages = (n + rows_per_page_ - 1) / rows_per_page_;
  meta.page_bytes.resize(num_pages, 0);
  std::vector<size_t> string_cols;
  for (size_t c = 0; c < block.schema().num_columns(); ++c) {
    if (block.schema().column(c).type == DataType::kString) {
      string_cols.push_back(c);
    }
  }
  for (size_t p = 0; p < num_pages; ++p) {
    size_t begin = p * rows_per_page_;
    size_t end = std::min(n, begin + rows_per_page_);
    size_t bytes = (end - begin) * block.layout().stride();
    for (size_t r = begin; r < end; ++r) {
      for (size_t c : string_cols) {
        if (!block.IsNull(r, c)) {
          bytes += StringHeap::SlotLength(block.RawSlotAt(r, c));
        }
      }
    }
    meta.page_bytes[p] = bytes;
  }
  return meta;
}

void RowPager::RegisterTable(uint32_t table_id, const RowBlock& block) {
  TableMeta meta = MeasurePages(block);
  std::lock_guard<std::mutex> lock(mu_);
  PERFEVAL_CHECK(tables_.find(table_id) == tables_.end())
      << "table id registered twice";
  tables_[table_id] = std::move(meta);
}

void RowPager::ReplaceTable(uint32_t table_id, const RowBlock& block) {
  TableMeta meta = MeasurePages(block);
  std::lock_guard<std::mutex> lock(mu_);
  auto table = tables_.find(table_id);
  PERFEVAL_CHECK(table != tables_.end())
      << "ReplaceTable on unregistered table id";
  table->second = std::move(meta);
  // Evict the stale pages and drop the stream head: the new version's
  // pages are cold, exactly as a freshly written file would be.
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (static_cast<uint32_t>(*it >> 32) == table_id) {
      resident_.erase(*it);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  stream_heads_.erase(table_id);
}

size_t RowPager::NumPages(uint32_t table_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table_id);
  PERFEVAL_CHECK(it != tables_.end()) << "unregistered table id";
  return it->second.page_bytes.size();
}

StorageStats RowPager::TouchRows(uint32_t table_id, size_t row_begin,
                                     size_t row_end) {
  if (row_begin >= row_end) {
    return {};
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto meta_it = tables_.find(table_id);
  PERFEVAL_CHECK(meta_it != tables_.end()) << "unregistered table id";
  const TableMeta& meta = meta_it->second;
  StorageStats before = stats_;
  uint32_t first = static_cast<uint32_t>(row_begin / rows_per_page_);
  uint32_t last = static_cast<uint32_t>((row_end - 1) / rows_per_page_);
  for (uint32_t p = first; p <= last; ++p) {
    uint64_t key = PageKey(table_id, p);
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      // Hit: MRU bump; the stream head advances so a warm page mid-scan
      // never makes the next miss pay a spurious seek (mirrors
      // StorageManager::TouchPageLocked).
      lru_.splice(lru_.begin(), lru_, it->second);
      stream_heads_[table_id] = p;
      ++stats_.page_hits;
      continue;
    }
    PERFEVAL_CHECK_LT(p, meta.page_bytes.size());
    size_t bytes = meta.page_bytes[p];
    auto head = stream_heads_.find(table_id);
    bool sequential = head != stream_heads_.end() && p == head->second + 1;
    int64_t stall = static_cast<int64_t>(bytes * disk_.ns_per_byte);
    if (!sequential) {
      stall += disk_.seek_ns;
    }
    stream_heads_[table_id] = p;
    ++stats_.page_misses;
    stats_.bytes_read += static_cast<int64_t>(bytes);
    stats_.stall_ns += stall;
    lru_.push_front(key);
    resident_[key] = lru_.begin();
    while (resident_.size() > buffer_pool_pages_) {
      uint64_t victim = lru_.back();
      lru_.pop_back();
      resident_.erase(victim);
    }
  }
  StorageStats delta = stats_;
  delta.page_hits -= before.page_hits;
  delta.page_misses -= before.page_misses;
  delta.bytes_read -= before.bytes_read;
  delta.stall_ns -= before.stall_ns;
  delta.bytes_written -= before.bytes_written;
  delta.fsyncs -= before.fsyncs;
  delta.write_stall_ns -= before.write_stall_ns;
  return delta;
}

void RowPager::FlushCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  resident_.clear();
  stream_heads_.clear();
}

StorageStats RowPager::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RowPager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = StorageStats();
}

}  // namespace db
}  // namespace perfeval
