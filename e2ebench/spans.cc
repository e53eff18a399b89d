#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"
#include "stats.h"

namespace e2e {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

int SpanLog::add(std::string name, std::uint64_t id, int parent, double start,
                 double end) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::join_stages(const encodesat::StageStats& root, std::uint64_t id,
                          int parent, double start) {
  double t = start;
  for (const encodesat::StageStats& child : root.children) {
    const int idx = add(child.name, id, parent, t, t + child.elapsed_seconds);
    spans_[static_cast<std::size_t>(idx)].work = child.work;
    spans_[static_cast<std::size_t>(idx)].items = child.items;
    join_stages(child, id, idx, t);
    t += child.elapsed_seconds;
  }
}

void SpanLog::graft(const std::vector<Span>& spans, int parent) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : spans) {
    s.parent = s.parent < 0 ? parent : base + s.parent;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::vector<Interval>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self_time(spans_[i].start, spans_[i].end, kids[i]);
  return out;
}

std::map<std::string, std::uint64_t> SpanLog::work() const {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : spans_) out[s.name] += s.work;
  return out;
}

std::map<std::string, std::uint64_t> SpanLog::items() const {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : spans_) out[s.name] += s.items;
  return out;
}

void add_share_notes(const std::map<std::string, double>& self,
                     std::vector<std::string>* notes) {
  double total = 0;
  for (const auto& [name, secs] : self) total += secs;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, secs] : self) rows.push_back({secs, name});
  std::sort(rows.rbegin(), rows.rend());
  notes->push_back("self time by span (traced run):");
  for (const auto& [secs, name] : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %10.4f s %6.2f%%", name.c_str(),
                  secs, total > 0 ? 100.0 * secs / total : 0.0);
    notes->push_back(line);
  }
}

void add_stage_metrics(const SpanLog& log, double scale, LayerValues* values) {
  static const std::pair<const char*, const char*> kStageTimes[] = {
      {"bounded_encode", "core.bounded_s"},
      {"initial_dichotomies", "core.initial_dichotomies_s"},
      {"raise", "core.raise_s"},
      {"prime_generation", "core.prime_generation_s"},
      {"validate_primes", "core.validate_primes_s"},
      {"cover_table", "core.cover_table_s"},
      {"unate_cover", "covering.unate_s"},
      {"binate_cover", "covering.binate_s"},
  };
  const auto self = log.self_seconds();
  for (const auto& [stage, metric] : kStageTimes) {
    const auto it = self.find(stage);
    (*values)[metric] = it == self.end() ? 0 : it->second * scale;
  }
  const auto work = log.work();
  const auto items = log.items();
  auto count = [&](const std::map<std::string, std::uint64_t>& m,
                   const char* stage) {
    const auto it = m.find(stage);
    return it == m.end() ? 0.0 : static_cast<double>(it->second) * scale;
  };
  (*values)["core.prime_generation_work"] = count(work, "prime_generation");
  (*values)["covering.unate_nodes"] = count(items, "unate_cover");
  (*values)["covering.binate_nodes"] = count(items, "binate_cover");
}

std::vector<Metric> per_layer_metrics(const LayerValues& values) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"fsm.parse_kiss2_s", "s"},
      {"fsm.cgen_s", "s"},
      {"fsm.constraints", "count"},
      {"fsm.encode_fsm_s", "s"},
      {"logic.espresso_s", "s"},
      {"logic.pla_cubes_in", "count"},
      {"core.bounded_s", "s"},
      {"core.initial_dichotomies_s", "s"},
      {"core.raise_s", "s"},
      {"core.prime_generation_s", "s"},
      {"core.validate_primes_s", "s"},
      {"core.cover_table_s", "s"},
      {"core.prime_generation_work", "count"},
      {"core.valid_primes", "count"},
      {"core.truncated_ratio", "ratio"},
      {"covering.unate_s", "s"},
      {"covering.unate_nodes", "count"},
      {"covering.binate_s", "s"},
      {"covering.binate_nodes", "count"},
      {"cache.canonicalize_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.coalesced", "count"},
      {"cache.inserts", "count"},
      {"cache.evictions", "count"},
      {"cache.bytes", "bytes"},
      {"service.parse_us", "us"},
      {"service.render_us", "us"},
      {"service.queue_p50_ms", "ms"},
      {"service.queue_p99_ms", "ms"},
      {"service.solve_p50_ms", "ms"},
      {"service.solve_p99_ms", "ms"},
      {"service.transport_p50_ms", "ms"},
      {"service.transport_p99_ms", "ms"},
      {"service.queue_depth_max", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.scrape_ms", "ms"},
      {"loadgen.late_ms", "ms"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

}  // namespace e2e
