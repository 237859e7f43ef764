#include "stats.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace perfbench {
namespace {

// 0-based index of the nearest-rank q percentile: ceil(q * n) - 1.
size_t RankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

size_t MinSamplesFor(double q, size_t min_beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < min_beyond) {
    ++n;
  }
  return n;
}

perfeval::Result<double> TailPercentile(std::vector<double> values, double q,
                                        size_t min_beyond) {
  size_t n = values.size();
  if (SamplesBeyond(n, q) < min_beyond) {
    return perfeval::Status::FailedPrecondition(
        "p" + std::to_string(static_cast<int>(q * 100)) + " needs " +
        std::to_string(MinSamplesFor(q, min_beyond)) + " samples, have " +
        std::to_string(n));
  }
  std::sort(values.begin(), values.end());
  return values[RankIndex(n, q)];
}

double GeomeanOfMedians(
    const std::map<std::string, std::vector<double>>& per_template) {
  std::vector<double> medians;
  for (const auto& [name, samples] : per_template) {
    if (!samples.empty()) {
      medians.push_back(perfeval::stats::Median(samples));
    }
  }
  return medians.empty() ? 0.0 : perfeval::stats::GeometricMean(medians);
}

}  // namespace perfbench
