//===- perfbench/stats.h - Percentiles and medians for the benchmark -*- C++ -*-===//
//
// Percentiles follow the benchmark's reporting rule: a tail percentile is
// reported only when at least TailSamples samples lie beyond it, so p99
// needs at least 1000 samples. Ranks are nearest-rank and computed in
// integer per-mille, so 99.0% of 1000 samples is exactly rank 990.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_PERFBENCH_STATS_H
#define SNOWWHITE_PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t TailSamples = 10;

/// Zero-based nearest-rank index of the PerMille percentile of N samples:
/// ceil(N * PerMille / 1000) - 1, clamped to [0, N-1]. N must be > 0.
inline size_t rankIndex(size_t N, unsigned PerMille) {
  size_t Rank = (N * PerMille + 999) / 1000;
  return Rank == 0 ? 0 : std::min(Rank, N) - 1;
}

/// Samples strictly beyond the PerMille percentile of N samples.
inline size_t samplesBeyond(size_t N, unsigned PerMille) {
  return N == 0 ? 0 : N - (rankIndex(N, PerMille) + 1);
}

struct Percentile {
  double Value = 0.0;
  size_t Samples = 0; ///< Sample count behind the value.
  size_t Beyond = 0;  ///< Samples strictly beyond it.
  bool Supported = false; ///< Beyond >= TailSamples (always true for p50).
};

/// The PerMille percentile of Values (any order).
inline Percentile percentile(std::vector<double> Values, unsigned PerMille) {
  Percentile Out;
  Out.Samples = Values.size();
  if (Values.empty())
    return Out;
  size_t Index = rankIndex(Values.size(), PerMille);
  std::nth_element(Values.begin(), Values.begin() + static_cast<long>(Index),
                   Values.end());
  Out.Value = Values[Index];
  Out.Beyond = samplesBeyond(Values.size(), PerMille);
  Out.Supported = PerMille <= 500 || Out.Beyond >= TailSamples;
  return Out;
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

} // namespace perfbench

#endif // SNOWWHITE_PERFBENCH_STATS_H
