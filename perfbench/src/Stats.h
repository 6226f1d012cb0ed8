//===- perfbench/src/Stats.h - sample statistics ----------------*- C++ -*-===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Medians and tail percentiles. A tail percentile is reported only when
/// at least ten samples lie beyond it, so a "p99" is never the largest of
/// a handful of samples in disguise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
constexpr size_t MinTailSamples = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> V);

/// Nearest-rank \p P-th percentile (0 < P <= 100); 0 when empty.
double nearestRank(std::vector<double> V, double P);

/// The nearest-rank \p P-th percentile when at least MinTailSamples
/// samples lie beyond its rank, otherwise nothing.
std::optional<double> tailPercentile(std::vector<double> V, double P);

/// Fewest samples for which tailPercentile(_, P) yields a value.
size_t samplesNeededFor(double P);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
