// Spans recorded from outside the engine. The benchmark wraps each call
// into a module's public function in a span; spans stay in memory and are
// written out when the run ends. A span's layer is the part of its name
// before the first '.', e.g. "sql" for "sql.parse".
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds, the one clock every span and latency uses.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< shared by every span of one client request.
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(Span span);
  std::vector<Span> Snapshot() const;
  /// Writes one tab-separated line per span; false when the file cannot be
  /// written.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span. A null tracer makes it a no-op, so untraced runs pay one
/// branch per call site. `request` 0 makes the span its own request.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  uint64_t request() const { return request_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t request_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
