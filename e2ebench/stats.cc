#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

bool percentile_valid(std::size_t n, double p, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, p) >= min_beyond;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double covered(double start, double end, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, start);
    c.end = std::min(c.end, end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0;
  double reach = start;  // end of the union covered so far
  for (const Interval& c : children) {
    if (c.end <= c.start || c.end <= reach) continue;
    total += c.end - std::max(c.start, reach);
    reach = c.end;
  }
  return total;
}

double self_time(double start, double end,
                 const std::vector<Interval>& children) {
  return (end - start) - covered(start, end, children);
}

double goodput(const std::vector<Answer>& answers, double limit_ms,
               double duration_s) {
  if (duration_s <= 0) return 0;
  std::size_t good = 0;
  for (const Answer& a : answers)
    if (a.good && a.latency_ms <= limit_ms) ++good;
  return static_cast<double>(good) / duration_s;
}

std::vector<double> lateness_ms(const std::vector<double>& scheduled_s,
                                const std::vector<double>& sent_s) {
  std::vector<double> out(scheduled_s.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::max(0.0, (sent_s[i] - scheduled_s[i]) * 1e3);
  return out;
}

}  // namespace e2e
