#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer), name_(name), parent_(parent) {
  if (tracer_ == nullptr) {
    return;
  }
  id_ = tracer_->NewId();
  request_ = request != 0 ? request : id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  Span span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = NowNs();
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  tracer_->Record(std::move(span));
}

std::unordered_map<uint64_t, int64_t> SelfTimes(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const Span* c : children[s.id]) {
      int64_t lo = std::max(c->start_ns, s.start_ns);
      int64_t hi = std::min(c->end_ns, s.end_ns);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[s.id] = s.duration_ns() - union_ns;
  }
  return self;
}

}  // namespace perfbench
