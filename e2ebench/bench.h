// Shared plumbing for the end-to-end benchmark's workloads: the
// command-line arguments, the result a workload hands back to main(), the
// clock, and the span log the traced runs record into.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/exec.h"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the serve workloads' unix socket and response spool.
  /// Keep it relative: a socket path must fit in 108 bytes.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  /// Reported on the JSON line of an untraced run.
  std::vector<Metric> end_to_end;
  /// Reported on the JSON line of a traced run.
  std::vector<Metric> per_layer;
  /// Printed by name, with unit, before the JSON line (every metric the
  /// workload defines, including the ones the JSON line does not carry).
  std::vector<Metric> report;
  /// Free-form lines printed after the metrics (layer shares, checks).
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the measurement itself is unusable (the load generator
  /// fell behind its schedule); main() then prints no result.
  bool valid = true;
  std::string invalid_reason;
};

/// Seconds on the steady clock since the first call.
double now_s();

/// A fixed CPU and memory workload that owes nothing to the library. Timed
/// next to the library's work, it measures how fast the host's core is at
/// that moment, so that the host's drift can be divided out.
void calibration_kernel();
/// Least time of calibration_kernel() on an idle core of the reference host
/// (a 4-vCPU Xeon VM). ops_per_s is reported at that speed.
constexpr double kCalibrationRefS = 0.0115;

/// CPU seconds the calling thread has used.
double thread_cpu_s();

/// Calls `sample` on a thread of its own, once every `period_s` until
/// stop(), and keeps what each call returns: a measurement taken through a
/// whole run rather than at one moment of it.
class PeriodicSampler {
 public:
  PeriodicSampler(double period_s, std::function<double()> sample);
  ~PeriodicSampler();
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  void stop();
  /// What the calls returned; valid after stop().
  const std::vector<double>& samples() const { return samples_; }
  /// CPU time of the sampling thread; valid after stop().
  double cpu_s() const { return cpu_s_; }

 private:
  void loop();

  const double period_s_;
  const std::function<double()> sample_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  double cpu_s_ = 0;
  std::thread thread_;  // last: it starts after the members it uses
};

/// Resets the peak resident set size to the current one, so that a later
/// peak_rss_mb() covers only what ran after this call.
void reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss()
/// (or since it started), in MB.
double peak_rss_mb();

/// One timed interval of a traced run. Spans of one machine or request
/// share `id`; `parent` indexes the enclosing span (-1 at the root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  int parent = -1;
  double start = 0;
  double end = 0;
  std::uint64_t work = 0;
  std::uint64_t items = 0;
};

class SpanLog {
 public:
  int add(std::string name, std::uint64_t id, int parent, double start,
          double end);
  /// Joins the children of a solve's StageStats tree under `parent`. A
  /// single-threaded solve runs its stages back to back, so each child is
  /// laid out from the end of its previous sibling, starting at `start`.
  void join_stages(const encodesat::StageStats& root, std::uint64_t id,
                   int parent, double start);

  /// Appends spans recorded elsewhere under `parent`: their root spans
  /// (parent -1) hang from it, the rest keep their relative structure.
  void graft(const std::vector<Span>& spans, int parent);

  /// Self time summed per span name: each span's duration minus the part
  /// of it that its children cover.
  std::map<std::string, double> self_seconds() const;
  /// Work and item counts summed per span name (StageStats stages only).
  std::map<std::string, std::uint64_t> work() const;
  std::map<std::string, std::uint64_t> items() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Appends "name  share%" lines for the self-time table of a traced run.
void add_share_notes(const std::map<std::string, double>& self,
                     std::vector<std::string>* notes);

/// Per-layer values of a traced run, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// Adds the solver's stage metrics (core.*, covering.*) from the
/// StageStats spans in `log`: self seconds, prime-generation work and
/// covering nodes, each multiplied by `scale`.
void add_stage_metrics(const SpanLog& log, double scale, LayerValues* values);

/// The per-layer metrics every traced run reports, in one fixed order and
/// with their units. A layer the workload never calls reports 0.
std::vector<Metric> per_layer_metrics(const LayerValues& values);

Result run_synth(const Args& args);
Result run_serve(const Args& args);

}  // namespace e2e
