// Order statistics for the benchmark's reports. A percentile is reported
// only when enough samples rank above it to make it a measurement rather
// than one outlier: p50 needs 20 samples, p90 needs 100, p99 needs 1000.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`: the value at
/// rank ceil(q * n). Returns nullopt unless at least kMinTailSamples
/// samples rank above it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// The median (mean of the two middle values for an even count); 0 for
/// no samples. For small repeated measurements such as set-up time.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
