//===- perfbench/src/Stats.cpp - sample statistics ------------------------===//
//
// Part of the alive-cpp project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

namespace {
/// 1-based nearest rank of the P-th percentile among N samples. The small
/// epsilon keeps exact products such as 0.99 * 1000 from rounding up.
size_t rankOf(double P, size_t N) {
  double R = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(R, 1.0)), 1, N);
}
} // namespace

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::nearestRank(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[rankOf(P, V.size()) - 1];
}

std::optional<double> perfbench::tailPercentile(std::vector<double> V,
                                                double P) {
  if (V.empty() || V.size() - rankOf(P, V.size()) < MinTailSamples)
    return std::nullopt;
  return nearestRank(std::move(V), P);
}

size_t perfbench::samplesNeededFor(double P) {
  size_t N = 1;
  while (N - rankOf(P, N) < MinTailSamples)
    ++N;
  return N;
}
