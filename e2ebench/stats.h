// The benchmark's own arithmetic: percentiles with their sample-count
// validity, span self time, goodput under a latency limit, and open-loop
// generator lateness. Kept apart from the workloads so that
// stats_test.cc can check each function against hand-computed values.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank = ceil(p/100 * n), 1-based). p in [0, 100];
/// p = 0 gives the minimum. Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank position of the p-th percentile
/// in a sample of n: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// A percentile is reported as valid only when at least `min_beyond`
/// samples lie beyond it (p99 needs n >= 1000 for min_beyond = 10).
bool percentile_valid(std::size_t n, double p, std::size_t min_beyond = 10);

double median(std::vector<double> samples);

struct Interval {
  double start = 0;
  double end = 0;
};

/// Length of [start, end] covered by the union of `children`, each clipped
/// to the parent interval. Overlapping children count once.
double covered(double start, double end, std::vector<Interval> children);

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
double self_time(double start, double end, const std::vector<Interval>& children);

/// One answered operation as the goodput rule sees it.
struct Answer {
  double latency_ms = 0;
  /// Status ok/infeasible and the independent check passed.
  bool good = false;
};

/// Good answers that arrived within `limit_ms` (inclusive), per second of
/// `duration_s`. Failed, refused or late answers do not count.
double goodput(const std::vector<Answer>& answers, double limit_ms,
               double duration_s);

/// How late each send went out: actual - scheduled, in milliseconds,
/// floored at 0 (a send is never early). Both vectors are in seconds on the
/// same clock and have equal length.
std::vector<double> lateness_ms(const std::vector<double>& scheduled_s,
                                const std::vector<double>& sent_s);

}  // namespace e2e
