// Synthesis workloads: KISS2 text -> parse_kiss2 -> constraint generation
// -> Solver -> encode_fsm -> ESPRESSO, over a seeded draw of MCNC-like
// machines.
//
//  * synth_exact: the Table 1 flow (Table-1 constraint options, the exact
//    pipeline with max_terms 50000 and max_nodes 20000). Prime generation
//    and unate covering do nearly all the work; the deterministic budgets
//    make truncation points, and with them bits and proven minima,
//    reproducible across commits.
//  * synth_bounded: the CLI's default `encode` flow (default constraint
//    options, normalize, encode_bounded at minimum length). Constraint
//    generation and the heuristic's ESPRESSO-driven cost evaluation do
//    nearly all the work; primes and covering never run.
//
// A run repeats whole passes over the machine list on one lane per core.
// Only the library calls are timed; the independent checks
// (verify_encoding, the encoded-PLA equivalence walk, identical output on
// every pass and lane) run between them.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/bounded.h"
#include "core/normalize.h"
#include "core/solver.h"
#include "core/verify.h"
#include "fsm/constraints_gen.h"
#include "fsm/encode_fsm.h"
#include "fsm/mcnc_like.h"
#include "fsm/simulate.h"
#include "fuzz/generator.h"
#include "logic/espresso.h"
#include "stats.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace encodesat;

// The suite's machines themselves, not seeded re-draws: one machine's cost
// swings 0.1-4.5 s between draws of the same spec (mostly in unate
// covering), which moved machines_per_s by +-33% between seeds on a
// 10-machine list. The seed orders the list and seeds the equivalence
// walks. planet is left out of the bounded list: its 32 s of constraint
// generation is too long to repeat.
const std::vector<std::string> kExactNames = {"dk512", "master", "cse",
                                              "bbsse", "kirkman"};
const std::vector<std::string> kBoundedNames = {"dk16", "donfile", "sand",
                                                "tbk",  "styr",    "vmecont"};
// Set-up is timed once every this many seconds while the lanes run.
constexpr double kSetupPeriodS = 0.25;
constexpr std::uint64_t kEquivalenceSteps = 500;

struct Machine {
  std::string name;
  std::string kiss;
};

// What one machine produced; compared pass to pass for determinism.
struct Outcome {
  bool has_pla = false;
  bool minimal = false;
  bool truncated = false;
  int bits = 0;
  int cubes = 0;
  int literals = 0;
  int violated_faces = 0;
  std::size_t constraints = 0;
  std::size_t cubes_in = 0;
  std::size_t valid_primes = 0;
  std::string error;

  bool same_as(const Outcome& o) const {
    return has_pla == o.has_pla && minimal == o.minimal &&
           truncated == o.truncated && bits == o.bits && cubes == o.cubes &&
           literals == o.literals && violated_faces == o.violated_faces &&
           constraints == o.constraints;
  }
};

std::vector<Machine> build_machines(bool exact, std::uint64_t seed) {
  std::vector<Machine> out;
  for (const std::string& name : exact ? kExactNames : kBoundedNames)
    out.push_back({name, write_kiss2_string(make_mcnc_like(benchmark_spec(name)))});
  Rng rng(seed);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.next_below(i)]);
  return out;
}

// Runs one machine and returns the seconds spent in library calls. With a
// span log, records the machine's spans (id = machine index).
double run_machine(const Machine& m, std::uint64_t id, bool exact,
                   std::uint64_t walk_seed, SpanLog* log, Outcome* out) {
  const double t0 = now_s();
  const Fsm fsm = parse_kiss2_string(m.kiss);
  const double t1 = now_s();
  ConstraintSet cs;
  if (exact) {
    ConstraintGenOptions gopts;
    gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
    gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
    cs = generate_mixed_constraints(fsm, gopts);
  } else {
    cs = generate_mixed_constraints(fsm);
    normalize_constraints(cs);
  }
  const double t2 = now_s();
  Encoding enc;
  StageStats stats;
  int violated_reported = 0;
  if (exact) {
    SolveOptions opts;
    opts.pipeline = SolveOptions::Pipeline::kExact;
    opts.exact.prime_options.max_terms = 50000;
    opts.exact.cover_options.max_nodes = 20000;
    SolveResult r = Solver(cs).encode(opts);
    stats = std::move(r.stats);
    out->minimal = r.minimal;
    out->truncated = r.truncated;
    out->valid_primes = r.num_valid_primes;
    if (r.status == SolveResult::Status::kInfeasible)
      out->error = "generated constraints reported infeasible";
    if (r.encoded()) enc = std::move(r.encoding);
  } else {
    const BoundedEncodeResult r = Solver(cs).encode_bounded(
        minimum_code_length(fsm.num_states()), SolveOptions{}, &stats);
    out->truncated = r.truncation != Truncation::kNone;
    violated_reported = r.cost.violated_faces;
    enc = r.encoding;
  }
  const double t3 = now_s();
  double t4 = t3, t5 = t3;
  Pla pla;
  Cover minimized;
  if (!enc.codes.empty()) {
    pla = encode_fsm(fsm, enc);
    t4 = now_s();
    minimized = espresso(pla.on, pla.dc);
    t5 = now_s();
  }

  if (log) {
    const int root = log->add("machine", id, -1, t0, t5);
    log->add("parse_kiss2", id, root, t0, t1);
    log->add("generate_constraints", id, root, t1, t2);
    const int solve = log->add("solve", id, root, t2, t3);
    log->join_stages(stats, id, solve, t2);
    if (!enc.codes.empty()) {
      log->add("encode_fsm", id, root, t3, t4);
      log->add("espresso", id, root, t4, t5);
    }
  }

  // Independent checks, outside the timed calls.
  out->constraints = cs.faces().size() + cs.dominances().size() +
                     cs.disjunctives().size();
  if (enc.codes.empty()) return t5 - t0;
  out->has_pla = true;
  out->bits = enc.bits;
  out->cubes = static_cast<int>(minimized.size());
  out->literals = minimized.input_literals();
  out->cubes_in = pla.on.size();
  const std::vector<Violation> violations = verify_encoding(enc, cs);
  if (exact) {
    if (!violations.empty())
      out->error = "verify_encoding: " + violations.front().to_string();
  } else {
    // The P-3 heuristic may leave faces (and output constraints, which it
    // does not optimize) violated; codes must still be distinct, of
    // minimum length, and its violated-face count must match a recount.
    for (const Violation& v : violations)
      if (v.kind == Violation::Kind::kDuplicateCode)
        out->error = "verify_encoding: " + v.to_string();
    out->violated_faces =
        static_cast<int>(cs.faces().size()) - count_satisfied_faces(enc, cs);
    if (out->violated_faces != violated_reported)
      out->error = "violated faces reported " +
                   std::to_string(violated_reported) + ", recounted " +
                   std::to_string(out->violated_faces);
    if (enc.bits != minimum_code_length(fsm.num_states()))
      out->error = "code length is not the minimum";
  }
  const EquivalenceReport eq =
      check_encoded_equivalence(fsm, enc, minimized, kEquivalenceSteps, walk_seed);
  if (!eq.equivalent)
    out->error = "encoded PLA not equivalent: " + eq.first_mismatch;
  return t5 - t0;
}

// One pipeline lane: a thread that runs the machine list pass after pass,
// in step with the other lanes.
struct Lane {
  std::vector<double> calibration;  // seconds, one per machine run
  std::vector<std::vector<double>> untraced;  // seconds, per machine
  std::vector<std::vector<double>> traced;
  std::vector<Outcome> first;  // each machine's first outcome in this lane
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  int traced_passes = 0;
  SpanLog log;
};

// Lanes shared by one run: every lane runs the same machine at the same
// time, so each sample meets the same contention from its neighbours, and
// lane 0 decides after each pass whether another fits in --seconds.
struct LaneSync {
  explicit LaneSync(std::ptrdiff_t lanes) : barrier(lanes) {}
  std::barrier<> barrier;
  std::atomic<bool> stop{false};
  double start = 0;
};

// Whole passes until the next one would end past --seconds; a traced run
// alternates untraced and traced passes and needs one of each.
void run_lane(const std::vector<Machine>& machines, bool exact,
              const Args& args, std::size_t lane, LaneSync* sync, Lane* out) {
  const std::size_t n = machines.size();
  out->untraced.resize(n);
  out->traced.resize(n);
  out->first.resize(n);
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    for (std::size_t i = 0; i < n; ++i) {
      sync->barrier.arrive_and_wait();
      // Timed next to every machine: the host's speed drifts by tens of
      // percent over minutes, and dividing it out of the machines' times
      // halved the run-to-run spread of ops_per_s.
      const double tc = now_s();
      calibration_kernel();
      out->calibration.push_back(now_s() - tc);
      Outcome o;
      double t = 0;
      try {
        t = run_machine(machines[i], i, exact, fuzz_case_seed(args.seed, i),
                        traced ? &out->log : nullptr, &o);
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      ++out->attempted;
      if (pass == 0)
        out->first[i] = o;
      else if (o.error.empty() && !o.same_as(out->first[i]))
        o.error = "output differs from an earlier pass";
      if (!o.error.empty())
        out->errors.push_back(machines[i].name + ": " + o.error);
      else
        (traced ? out->traced : out->untraced)[i].push_back(t);
    }
    if (traced) ++out->traced_passes;
    sync->barrier.arrive_and_wait();
    if (lane == 0) {
      const double elapsed = now_s() - sync->start;
      const double per_pass = elapsed / (pass + 1);
      const bool need_traced = args.trace && out->traced_passes == 0;
      sync->stop = !need_traced && elapsed + per_pass > args.seconds;
    }
    sync->barrier.arrive_and_wait();
    if (sync->stop) break;
  }
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

}  // namespace

Result run_synth(const Args& args) {
  const bool exact = args.workload == "synth_exact";
  Result res;

  const std::vector<Machine> machines = build_machines(exact, args.seed);

  // Two lanes on two cores. Other tenants of a shared host slow a core
  // down in phases of several seconds that can cover a whole run; lanes on
  // different cores see different phases, and a machine's cost is the
  // least of its samples, since interference only ever adds time. (Four
  // lanes contend with each other for memory and spread more, not less.)
  const std::size_t n = machines.size();
  const unsigned lanes = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  std::vector<Lane> lane(lanes);
  reset_peak_rss();
  // Set-up: rendering the machines' KISS2 text, timed on a thread of its
  // own while the lanes run; the median of the samples. A set-up takes
  // under 0.2 ms, so repeats at one moment read the host's state at that
  // moment: back to back, before the lanes, they read about 57 or about
  // 80 us, a different one from run to run. Samples through the run see
  // the same host as the machines do.
  PeriodicSampler setup_sampler(kSetupPeriodS, [&] {
    const double t0 = now_s();
    build_machines(exact, args.seed);
    return now_s() - t0;
  });
  {
    LaneSync sync(lanes);
    sync.start = now_s();
    std::vector<std::thread> threads;
    for (unsigned l = 0; l < lanes; ++l)
      threads.emplace_back(run_lane, std::cref(machines), exact, std::cref(args),
                           l, &sync, &lane[l]);
    for (std::thread& t : threads) t.join();
  }
  const double peak_mb = peak_rss_mb();
  setup_sampler.stop();

  SpanLog log;
  int traced_passes = 0;
  std::vector<double> calibration;
  std::vector<double> untraced_min(n), traced_min(n);
  std::size_t samples = 0;
  for (const Lane& l : lane) {
    res.attempted += l.attempted;
    res.failed += l.errors.size();
    for (const std::string& e : l.errors) res.notes.push_back("FAILED " + e);
    log.graft(l.log.spans(), -1);
    calibration.insert(calibration.end(), l.calibration.begin(),
                       l.calibration.end());
    traced_passes += l.traced_passes;
  }
  int plas = 0, cubes = 0, literals = 0, bits = 0, proven = 0, violated = 0;
  std::vector<double> per_machine_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = lane[0].first[i];
    std::vector<double> untraced, traced;
    for (const Lane& l : lane) {
      if (!o.same_as(l.first[i])) {
        ++res.failed;
        res.notes.push_back("FAILED " + machines[i].name +
                            ": output differs between lanes");
      }
      untraced.insert(untraced.end(), l.untraced[i].begin(), l.untraced[i].end());
      traced.insert(traced.end(), l.traced[i].begin(), l.traced[i].end());
    }
    samples += untraced.size();
    untraced_min[i] = min_of(untraced);
    traced_min[i] = min_of(traced);
    plas += o.has_pla;
    cubes += o.cubes;
    literals += o.literals;
    bits += o.bits;
    proven += o.has_pla && o.minimal;
    violated += o.violated_faces;
    per_machine_ms.push_back(untraced_min[i] * 1e3);
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-8s %-4s bits %2d  pla %3d cubes %4d literals  %8.1f ms "
                  "(least of %zu, median %.1f)",
                  machines[i].name.c_str(),
                  !o.has_pla ? "*" : exact ? (o.minimal ? "min" : "ub") : "bnd",
                  o.bits, o.cubes, o.literals, per_machine_ms.back(),
                  untraced.size(), median(untraced) * 1e3);
    res.notes.push_back(line);
  }
  double list_s = 0;
  for (double t : untraced_min) list_s += t;
  const double machines_per_s = list_s > 0 ? plas / list_s : 0;
  // The least calibration time, like the least machine time, is the core
  // with the least interference; their ratio carries the library's speed.
  const double calibration_s = min_of(calibration);
  const double machines_per_ref_s =
      machines_per_s * calibration_s / kCalibrationRefS;
  const double setup_s = median(setup_sampler.samples());

  res.end_to_end = {{"setup_s", setup_s, "s"},
                    {"peak_rss_mb", peak_mb, "MB"},
                    {"ops_per_s", machines_per_ref_s, "1/s"}};
  res.report = res.end_to_end;
  res.report.push_back({"machines_per_s", machines_per_s, "1/s"});
  res.report.push_back({"calibration_ms", calibration_s * 1e3, "ms"});
  res.report.push_back({"machine_p50_ms", median(per_machine_ms), "ms"});
  res.report.push_back({"fail_ratio",
                        static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted),
                        "ratio"});
  res.report.push_back({"machines", static_cast<double>(n), "count"});
  res.report.push_back({"lanes", static_cast<double>(lanes), "count"});
  res.report.push_back({"samples", static_cast<double>(samples), "count"});
  res.report.push_back({"pla_cubes", static_cast<double>(cubes), "count"});
  res.report.push_back({"pla_literals", static_cast<double>(literals), "count"});
  if (exact) {
    res.report.push_back({"code_bits", static_cast<double>(bits), "bits"});
    res.report.push_back(
        {"proven_min_ratio", static_cast<double>(proven) / n, "ratio"});
  } else {
    res.report.push_back(
        {"violated_faces", static_cast<double>(violated), "count"});
  }

  if (args.trace && traced_passes > 0) {
    // Busy time per pass over the machine list.
    const double scale = 1.0 / traced_passes;
    const auto self = log.self_seconds();
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second * scale;
    };
    LayerValues v;
    v["fsm.parse_kiss2_s"] = self_of("parse_kiss2");
    v["fsm.cgen_s"] = self_of("generate_constraints");
    v["fsm.encode_fsm_s"] = self_of("encode_fsm");
    v["logic.espresso_s"] = self_of("espresso");
    add_stage_metrics(log, scale, &v);
    double constraints = 0, cubes_in = 0, valid_primes = 0, truncated = 0;
    for (const Outcome& o : lane[0].first) {
      constraints += static_cast<double>(o.constraints);
      cubes_in += static_cast<double>(o.cubes_in);
      valid_primes += static_cast<double>(o.valid_primes);
      truncated += o.truncated;
    }
    v["fsm.constraints"] = constraints;
    v["logic.pla_cubes_in"] = cubes_in;
    v["core.valid_primes"] = valid_primes;
    v["core.truncated_ratio"] = truncated / static_cast<double>(n);
    double traced_s = 0;
    for (double t : traced_min) traced_s += t;
    v["obs.trace_overhead_ratio"] = traced_s / list_s - 1;
    res.per_layer = per_layer_metrics(v);
    for (const Metric& m : res.per_layer)
      if (m.value != 0) res.report.push_back(m);
    add_share_notes(self, &res.notes);
  }
  return res;
}

}  // namespace e2e
