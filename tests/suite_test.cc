// Parameterized checks over the whole MCNC-like benchmark suite: machine
// dimensions, determinism, and constraint-generation sanity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/normalize.h"
#include "core/solver.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "fsm/reachability.h"

namespace encodesat {
namespace {

class SuiteMachines : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuiteMachines, DimensionsMatchSpec) {
  const BenchmarkSpec& spec = mcnc_like_suite()[GetParam()];
  const Fsm fsm = make_mcnc_like(spec);
  EXPECT_EQ(fsm.name, spec.name);
  EXPECT_EQ(static_cast<int>(fsm.num_states()), spec.states);
  EXPECT_EQ(fsm.num_inputs, spec.inputs);
  EXPECT_EQ(fsm.num_outputs, spec.outputs);
  EXPECT_GE(fsm.reset_state, 0);
}

TEST_P(SuiteMachines, DeterministicTransitionRelation) {
  // The generator's events partition the input space, so no two
  // transitions from the same state may have intersecting input cubes.
  const Fsm fsm = make_mcnc_like(mcnc_like_suite()[GetParam()]);
  auto intersects = [](const std::string& a, const std::string& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != '-' && b[i] != '-' && a[i] != b[i]) return false;
    return true;
  };
  std::vector<std::vector<const FsmTransition*>> by_state(fsm.num_states());
  for (const auto& t : fsm.transitions) by_state[t.from].push_back(&t);
  for (const auto& list : by_state)
    for (std::size_t i = 0; i < list.size(); ++i)
      for (std::size_t j = i + 1; j < list.size(); ++j)
        EXPECT_FALSE(intersects(list[i]->input, list[j]->input))
            << fsm.name << ": state has overlapping input cubes";
}

TEST_P(SuiteMachines, EveryStateHasOutgoingEdges) {
  const Fsm fsm = make_mcnc_like(mcnc_like_suite()[GetParam()]);
  std::set<std::uint32_t> sources;
  for (const auto& t : fsm.transitions) sources.insert(t.from);
  EXPECT_EQ(sources.size(), fsm.num_states());
}

TEST_P(SuiteMachines, InputConstraintsAreNonTrivial) {
  const BenchmarkSpec& spec = mcnc_like_suite()[GetParam()];
  const Fsm fsm = make_mcnc_like(spec);
  const ConstraintSet cs = generate_input_constraints(fsm);
  EXPECT_EQ(cs.num_symbols(), fsm.num_states());
  EXPECT_GE(cs.faces().size(), 1u) << spec.name;
  for (const auto& f : cs.faces()) {
    EXPECT_GE(f.members.size(), 2u);
    EXPECT_LT(f.members.size(), fsm.num_states());
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// "<machine> <default|table1>" -> hash, from tests/data/constraints_gen.golden.
const std::map<std::string, std::string>& constraint_goldens() {
  static const std::map<std::string, std::string> goldens = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(ENCODESAT_TESTS_DATA_DIR "/constraints_gen.golden");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string machine, options, hash;
      fields >> machine >> options >> hash;
      out[machine + " " + options] = hash;
    }
    return out;
  }();
  return goldens;
}

TEST_P(SuiteMachines, ConstraintSetsMatchGolden) {
  // The constraint-generation front end, byte for byte: default options
  // and the Table 1 flow's (max_dominance = 2n, max_disjunctive = n/4).
  const BenchmarkSpec& spec = mcnc_like_suite()[GetParam()];
  const Fsm fsm = make_mcnc_like(spec);
  ConstraintGenOptions table1;
  table1.max_dominance = static_cast<int>(fsm.num_states()) * 2;
  table1.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
  const std::pair<const char*, ConstraintGenOptions> runs[] = {
      {"default", ConstraintGenOptions{}}, {"table1", table1}};
  for (const auto& [label, opts] : runs) {
    const std::string key = spec.name + " " + label;
    const auto it = constraint_goldens().find(key);
    ASSERT_NE(it, constraint_goldens().end()) << "no golden for " << key;
    const std::string got =
        hex16(fnv1a64(generate_mixed_constraints(fsm, opts).to_string()));
    EXPECT_EQ(got, it->second) << key;
  }
}

// The Table 1 exact flow end to end on the synth_exact machines: Table 1
// constraint options, max_terms 50000, max_nodes 20000. The unate cover's
// node count, the code length, the minimality proof, the truncation reason
// and an FNV-1a 64 hash of the code table, one line per machine in
// tests/data/unate_cover.golden, so any change to the covering search tree
// shows up here.
class SynthExactCover : public ::testing::TestWithParam<const char*> {};

TEST_P(SynthExactCover, MatchesGolden) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(ENCODESAT_TESTS_DATA_DIR "/unate_cover.golden");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    goldens[line.substr(0, space)] = line.substr(space + 1);
  }
  const std::string machine = GetParam();

  const Fsm fsm = make_mcnc_like(benchmark_spec(machine));
  ConstraintGenOptions gopts;
  gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
  gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
  const ConstraintSet cs = generate_mixed_constraints(fsm, gopts);
  SolveOptions opts;
  opts.pipeline = SolveOptions::Pipeline::kExact;
  opts.exact.prime_options.max_terms = 50000;
  opts.exact.cover_options.max_nodes = 20000;
  const SolveResult r = Solver(cs).encode(opts);
  ASSERT_TRUE(r.encoded()) << machine;
  const std::string got =
      "nodes=" + std::to_string(r.nodes_explored) +
      " bits=" + std::to_string(r.encoding.bits) +
      " minimal=" + std::to_string(r.minimal ? 1 : 0) +
      " truncation=" + truncation_name(r.truncation) +
      " codes=" + hex16(fnv1a64(r.encoding.to_string(cs.symbols())));
  const auto it = goldens.find(machine);
  ASSERT_NE(it, goldens.end()) << "no golden for " << machine << " " << got;
  EXPECT_EQ(got, it->second) << machine;
}

// The CLI's default encode flow per suite machine: default constraint
// options, normalize_constraints, then P-3 bounded encoding at the minimum
// code length. Each line of tests/data/bounded_encode.golden holds the
// solve's work units and the bounded_encode stage's items (cost
// evaluations), an FNV-1a 64
// hash of the code table and the returned cubes, literals and violated
// faces, so any change to the heuristic's search or to the Fig. 9 cost it
// prices candidates by shows up here. Every machine but planet (whose
// constraint generation alone takes seconds) runs at kCubes; the six
// synth_bounded benchmark machines also run at kLiterals and kViolatedFaces.
class BoundedEncodeGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(BoundedEncodeGolden, MatchesGolden) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(ENCODESAT_TESTS_DATA_DIR "/bounded_encode.golden");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string machine, cost;
    fields >> machine >> cost;
    std::string rest;
    std::getline(fields, rest);
    goldens[machine + " " + cost] = rest.substr(rest.find_first_not_of(' '));
  }
  const std::string machine = GetParam();
  const std::set<std::string> synth_bounded = {"dk16", "donfile", "sand",
                                               "tbk",  "styr",    "vmecont"};

  const Fsm fsm = make_mcnc_like(benchmark_spec(machine));
  ConstraintSet cs = generate_mixed_constraints(fsm);
  normalize_constraints(cs);
  const int bits = minimum_code_length(fsm.num_states());
  std::vector<std::pair<const char*, CostKind>> kinds = {
      {"cubes", CostKind::kCubes}};
  if (synth_bounded.count(machine) != 0) {
    kinds.emplace_back("literals", CostKind::kLiterals);
    kinds.emplace_back("violated", CostKind::kViolatedFaces);
  }
  for (const auto& [label, kind] : kinds) {
    SolveOptions opts;
    opts.bounded.cost = kind;
    StageStats stats;
    const BoundedEncodeResult r =
        Solver(cs).encode_bounded(bits, opts, &stats);
    const StageStats* stage = stats.find("bounded_encode");
    ASSERT_NE(stage, nullptr);
    const std::string got =
        "work=" + std::to_string(stats.work) +
        " items=" + std::to_string(stage->items) +
        " codes=" + hex16(fnv1a64(r.encoding.to_string(cs.symbols()))) +
        " cubes=" + std::to_string(r.cost.cubes) +
        " literals=" + std::to_string(r.cost.literals) +
        " violated=" + std::to_string(r.cost.violated_faces);
    const std::string key = machine + " " + label;
    const auto it = goldens.find(key);
    if (it == goldens.end())
      ADD_FAILURE() << "no golden for " << key << " " << got;
    else
      EXPECT_EQ(got, it->second) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, BoundedEncodeGolden,
    ::testing::Values("bbsse", "cse", "dk16", "dk16x", "dk512", "donfile",
                      "ex1", "exlinp", "keyb", "kirkman", "master", "s1",
                      "s1a", "sand", "styr", "tbk", "viterbi", "vmecont"));

INSTANTIATE_TEST_SUITE_P(Table1, SynthExactCover,
                         ::testing::Values("dk512", "master", "cse", "bbsse",
                                           "kirkman"));

INSTANTIATE_TEST_SUITE_P(
    All, SuiteMachines,
    ::testing::Range<std::size_t>(0, mcnc_like_suite().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return mcnc_like_suite()[info.param].name;
    });

}  // namespace
}  // namespace encodesat
