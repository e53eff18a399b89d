// Named-counter registry for the observability subsystem.
//
// Pipeline stages report monotonic counters and high-water gauges (arena
// allocations and reuses, fold witness-test rejections, dichotomy raise
// attempts, covering nodes and components, budget truncations) into the
// MetricsRegistry installed on ExecContext. The registry is shared across
// threads: value updates are relaxed atomic adds, registration takes a
// mutex once per (stage call, name).
//
// Determinism contract: every metric registered with `in_fingerprint`
// (the default) must be a pure function of the solve inputs — the same
// names and values for every `threads` value and every scheduling. The
// structural *fingerprint* (sorted names + values, no timestamps) is
// checked bit-identical across thread counts by the differential fuzzer's
// `counters` agreement rule. Scheduling-dependent metrics (pool worker
// spawns, wall-clock-budget trips) must be registered with
// `in_fingerprint = false`, or reported through the separate process
// section of the telemetry report (util/thread_pool.h pool_counters()).
//
// Snapshot order is deterministic: samples are sorted by name (the
// registry is map-backed), so serialized reports are stable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "util/exec.h"

namespace encodesat {

class MetricsRegistry {
 public:
  /// One named value. Pointers are stable for the registry's lifetime
  /// (map-backed), so hot loops can resolve a metric once and add to it.
  class Metric {
   public:
    /// Constructed in place by the registry map (atomics are immovable);
    /// create metrics through MetricsRegistry::counter, not directly.
    explicit Metric(bool in_fingerprint) : in_fingerprint_(in_fingerprint) {}
    Metric(const Metric&) = delete;
    Metric& operator=(const Metric&) = delete;

    void add(std::uint64_t v) {
      value_.fetch_add(v, std::memory_order_relaxed);
    }
    /// High-water update (gauge semantics): value = max(value, v).
    void record_max(std::uint64_t v) {
      std::uint64_t cur = value_.load(std::memory_order_relaxed);
      while (v > cur && !value_.compare_exchange_weak(
                            cur, v, std::memory_order_relaxed)) {
      }
    }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }
    bool in_fingerprint() const { return in_fingerprint_; }

   private:
    std::atomic<std::uint64_t> value_{0};
    bool in_fingerprint_;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric named `name`, registering it (at value 0) on first
  /// use. The fingerprint flag is fixed by the first registration.
  Metric* counter(const std::string& name, bool in_fingerprint = true);

  /// Returns the histogram named `name`, registering it (empty) on first
  /// use. Same pointer-stability and fingerprint-flag rules as counter().
  /// Histograms observing deterministic values (work units, item counts)
  /// keep the default; duration-valued histograms must pass
  /// `in_fingerprint = false` — their bucket counts depend on wall time.
  Histogram* histogram(const std::string& name, bool in_fingerprint = true);

  struct Sample {
    std::string name;
    std::uint64_t value = 0;
    bool in_fingerprint = true;
  };
  /// All metrics, sorted by name — the deterministic serialization order.
  std::vector<Sample> snapshot() const;

  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    bool in_fingerprint = true;
    /// Sparse (bucket index, count), ascending by index.
    std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
  };
  /// All histograms, sorted by name.
  std::vector<HistogramSample> histogram_snapshot() const;

  /// Structural fingerprint: "name=value;..." over the fingerprint metrics
  /// in name order, followed by histogram_fingerprint() when any
  /// fingerprint histogram exists. Bit-identical across thread counts by
  /// the determinism contract above; no timestamps, no ordering dependence.
  std::string fingerprint() const;
  /// The histogram section alone: "name#bucket=count;..." over the
  /// nonzero buckets of fingerprint histograms in name order. Value sums
  /// are excluded by construction (they are wall-clock noise for duration
  /// histograms; counts are the deterministic part).
  std::string histogram_fingerprint() const;
  /// FNV-1a 64-bit hash of fingerprint(), for compact report embedding.
  std::uint64_t fingerprint_hash() const;

  /// Adds every metric of `other` into this registry (registering missing
  /// names with other's fingerprint flag). Used to aggregate per-run
  /// registries into a report-level one (e.g. across fuzz cases).
  void merge_from(const MetricsRegistry& other);

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Histogram> histograms_;
};

/// Call-site helpers: no-ops when the context carries no registry. The
/// registration happens even for v == 0 so the set of names — part of the
/// fingerprint — does not depend on which branches executed work.
inline void metric_add(const ExecContext& ctx, const char* name,
                       std::uint64_t v) {
  if (ctx.metrics) ctx.metrics->counter(name)->add(v);
}
inline void metric_max(const ExecContext& ctx, const char* name,
                       std::uint64_t v) {
  if (ctx.metrics) ctx.metrics->counter(name)->record_max(v);
}
/// Histogram observation. `in_fingerprint` follows the counter rules: keep
/// the default only for deterministically-valued observations.
inline void metric_observe(const ExecContext& ctx, const char* name,
                           std::uint64_t v, bool in_fingerprint = true) {
  if (ctx.metrics) ctx.metrics->histogram(name, in_fingerprint)->observe(v);
}

/// 64-bit FNV-1a over a byte string (the fingerprint hash primitive).
std::uint64_t fnv1a64(const std::string& bytes);

}  // namespace encodesat
