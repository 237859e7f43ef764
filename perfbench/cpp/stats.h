// Summary statistics the benchmark adds to perfeval's stats library: the
// tail percentile with its sample rule, and the TPC-H power-style geomean.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// Samples left strictly above the nearest-rank `q` percentile of `n`
/// samples.
size_t SamplesBeyond(size_t n, double q);

/// The smallest sample count that leaves `min_beyond` samples beyond the
/// `q` percentile (200 for p95 with 10 beyond).
size_t MinSamplesFor(double q, size_t min_beyond);

/// Nearest-rank percentile. Fails unless at least `min_beyond` samples lie
/// beyond it: a tail percentile read off fewer samples is one outlier.
perfeval::Result<double> TailPercentile(std::vector<double> values, double q,
                                        size_t min_beyond = 10);

/// Geometric mean, over templates, of each template's median: every
/// template counts once however often it ran (TPC-H power style).
double GeomeanOfMedians(
    const std::map<std::string, std::vector<double>>& per_template);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
