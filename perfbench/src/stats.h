// Clock, order statistics and process-level readings shared by the
// benchmark's workloads.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds; every timestamp the benchmark records uses it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Exact q-quantile (q in [0, 1]) with linear interpolation between the
/// two closest ranks; 0 for an empty sample. Takes a copy to sort.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The better quartile of per-round values: the 25th percentile of a
/// lower-is-better quantity, the 75th of a higher-is-better one. Other
/// tenants of the machine only ever slow a round down, and their load
/// drifts over tens of seconds, so this moves less with it than the
/// median does while still moving with every round the program slows.
inline double LowQuartile(std::vector<double> values) {
  return Quantile(std::move(values), 0.25);
}
inline double HighQuartile(std::vector<double> values) {
  return Quantile(std::move(values), 0.75);
}

double Sum(const std::vector<double>& values);

/// Peak resident set size since the last BeginRoundFootprint (or since
/// the process started), in MiB.
double PeakRssMb();

/// Starts measuring one round's memory footprint: returns freed heap
/// memory to the system (what earlier rounds' threads left cached in
/// their malloc arenas) and resets the kernel's peak-RSS counter, so
/// that PeakRssMb() then reads this round's peak. Where the reset is not
/// permitted the peak stays process-wide.
void BeginRoundFootprint();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
