// End-to-end benchmark for encodesat.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Workloads: synth_exact, synth_bounded (the KISS2 -> constraints ->
// encode -> ESPRESSO synthesis path) and serve_repeat, serve_unique (NDJSON
// over the in-process Server's unix socket -> Broker -> solve). Every
// metric is printed by name with its unit; the last stdout line is one
// JSON object {"correct","attempted","failed","metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every output passed its check, 1 when one failed,
// 2 on bad arguments, 3 when the measurement was invalid.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace e2e {

void reset_peak_rss() {
  // Writing "5" to clear_refs resets the VmHWM high-water mark to the
  // current resident set size (Linux 4.0 and later).
  std::ofstream f("/proc/self/clear_refs");
  if (!(f << "5" << std::flush))
    throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

PeriodicSampler::PeriodicSampler(double period_s, std::function<double()> sample)
    : period_s_(period_s), sample_(std::move(sample)), thread_([this] { loop(); }) {}

PeriodicSampler::~PeriodicSampler() { stop(); }

void PeriodicSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void PeriodicSampler::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const double v = sample_();
    lock.lock();
    samples_.push_back(v);
    cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                 [this] { return stop_; });
  }
  cpu_s_ = thread_cpu_s();
}

void calibration_kernel() {
  static thread_local std::vector<std::uint64_t> buf(1 << 18);
  std::uint64_t x = 1;
  for (int r = 0; r < 20; ++r)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      buf[(x >> 20) & (buf.size() - 1)] += x;
    }
  volatile std::uint64_t sink = buf[x & (buf.size() - 1)];
  (void)sink;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

}  // namespace e2e

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload synth_exact|synth_bounded|"
               "serve_repeat|serve_unique --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

void print_metrics_json(const std::vector<e2e::Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const e2e::Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(argv[i], "--workload") && has_value) {
      args.workload = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed") && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds") && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--trace") && has_value) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage();
      args.trace = t == "1";
      have_trace = true;
    } else if (!std::strcmp(argv[i], "--work-dir") && has_value) {
      args.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || !have_trace || !(args.seconds > 0))
    return usage();

  e2e::Result res;
  try {
    if (args.workload == "synth_exact" || args.workload == "synth_bounded")
      res = e2e::run_synth(args);
    else if (args.workload == "serve_repeat" || args.workload == "serve_unique")
      res = e2e::run_serve(args);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const e2e::Metric& m : res.report)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& line : res.notes) std::printf("  %s\n", line.c_str());
  if (!res.valid) {
    std::printf("INVALID RUN: %s\n", res.invalid_reason.c_str());
    std::fflush(stdout);
    return 3;
  }
  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_metrics_json(args.trace ? res.per_layer : res.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
