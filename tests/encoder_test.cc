// Tests for the feasibility check (P-1) and the exact encoder (P-2),
// anchored on the paper's worked examples:
//  - the abstract's example (face + dominance + disjunctive, 2 bits),
//  - Figure 3 (input-only example, 4 prime columns),
//  - Figure 4 (infeasible mixed constraints; the local-consistency check
//    wrongly answers feasible),
//  - Figure 8 (exact mixed encoding, 2 bits),
//  - Section 8.1 (encoding don't-cares change the minimum from 4 to 3).
#include <gtest/gtest.h>

#include "core/encoder.h"
#include "core/local_check.h"
#include "core/output_rules.h"
#include "core/solver.h"
#include "core/verify.h"
#include "fuzz/generator.h"

namespace encodesat {
namespace {

ConstraintSet figure4_constraints() {
  return parse_constraints(R"(
    symbol s0
    symbol s1
    symbol s2
    symbol s3
    symbol s4
    symbol s5
    face s1 s5
    face s2 s5
    face s4 s5
    dominance s0 s1
    dominance s0 s2
    dominance s0 s3
    dominance s0 s5
    dominance s1 s3
    dominance s2 s3
    dominance s4 s5
    dominance s5 s2
    dominance s5 s3
    disjunctive s0 s1 s2
  )");
}

TEST(Feasibility, Figure4IsInfeasible) {
  const ConstraintSet cs = figure4_constraints();
  const FeasibilityResult res = Solver(cs).feasibility();
  EXPECT_FALSE(res.feasible);
  // The paper reports (s0; s1 s5) and (s1 s5; s0) as the uncovered initial
  // dichotomies.
  const Dichotomy want =
      Dichotomy::make(6, {0}, {1, 5});
  bool found_same = false, found_flip = false;
  for (std::size_t i : res.uncovered) {
    if (res.initial[i].dichotomy == want) found_same = true;
    if (res.initial[i].dichotomy == want.flipped()) found_flip = true;
  }
  EXPECT_TRUE(found_same);
  EXPECT_TRUE(found_flip);
}

TEST(Feasibility, Figure4InitialDichotomyCount) {
  // The paper lists 26 initial encoding-dichotomies for Figure 4.
  const auto init = generate_initial_dichotomies(figure4_constraints());
  EXPECT_EQ(init.size(), 26u);
}

TEST(Feasibility, LocalCheckIsFooledByFigure4) {
  // Section 6.2: the check of [9] answers "satisfiable" on Figure 4.
  EXPECT_TRUE(local_consistency_feasible(figure4_constraints()));
}

TEST(Feasibility, LocalCheckRejectsDirectConflicts) {
  ConstraintSet cs = parse_constraints(R"(
    dominance a b
    dominance b a
  )");
  EXPECT_FALSE(local_consistency_feasible(cs));
}

TEST(Feasibility, SatisfiableMixedSet) {
  const ConstraintSet cs = parse_constraints(R"(
    face b c
    face c d
    face b a
    face a d
    dominance b c
    dominance a c
    disjunctive a b d
  )");
  EXPECT_TRUE(Solver(cs).feasible());
}

TEST(ExactEncode, AbstractExampleTwoBits) {
  // From Section 1: (b,c), (c,d), (b,a), (a,d), b > c, a > c, a = b OR d
  // has minimum code length two (e.g. a=11 b=01 c=00 d=10).
  const ConstraintSet cs = parse_constraints(R"(
    face b c
    face c d
    face b a
    face a d
    dominance b c
    dominance a c
    disjunctive a b d
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_TRUE(res.minimal);
  EXPECT_EQ(res.encoding.bits, 2);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

TEST(ExactEncode, Figure8TwoBits) {
  const ConstraintSet cs = parse_constraints(R"(
    face s0 s1
    dominance s0 s1
    dominance s1 s2
    disjunctive s0 s1 s3
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.bits, 2);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
  // The paper's raised set yields 4 valid prime encoding-dichotomies.
  EXPECT_EQ(res.num_valid_primes, 4u);
}

TEST(ExactEncode, Figure3InputOnly) {
  // (s0,s2,s4), (s0,s1,s4), (s1,s2,s3), (s1,s3,s4) over five symbols;
  // the paper's minimum cover uses 4 prime encoding-dichotomies.
  const ConstraintSet cs = parse_constraints(R"(
    face s0 s2 s4
    face s0 s1 s4
    face s1 s2 s3
    face s1 s3 s4
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_TRUE(res.minimal);
  EXPECT_EQ(res.encoding.bits, 4);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

TEST(ExactEncode, Section81DontCares) {
  // (a,b), (a,c), (a,d), (a,b,[c,d],e): 3 bits suffice with the don't-cares
  // free; forcing them in or out of the face needs 4 bits.
  const ConstraintSet with_dc = parse_constraints(R"(
    face a b
    face a c
    face a d
    face a b [c d] e
    symbol f
  )");
  const SolveResult res_dc = Solver(with_dc).encode();
  ASSERT_EQ(res_dc.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res_dc.encoding.bits, 3);
  EXPECT_TRUE(verify_encoding(res_dc.encoding, with_dc).empty());

  const ConstraintSet forced_in = parse_constraints(R"(
    face a b
    face a c
    face a d
    face a b c d e
    symbol f
  )");
  const SolveResult res_in = Solver(forced_in).encode();
  ASSERT_EQ(res_in.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res_in.encoding.bits, 4);

  const ConstraintSet forced_out = parse_constraints(R"(
    face a b
    face a c
    face a d
    face a b e
    symbol f
  )");
  const SolveResult res_out = Solver(forced_out).encode();
  ASSERT_EQ(res_out.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res_out.encoding.bits, 4);
}

TEST(ExactEncode, UnconstrainedSymbolsGetMinimumLength) {
  ConstraintSet cs;
  for (const char* s : {"a", "b", "c", "d", "e"}) cs.symbols().intern(s);
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.bits, 3);  // ceil(log2 5)
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

TEST(ExactEncode, InfeasibleDominanceCycleReported) {
  const ConstraintSet cs = parse_constraints(R"(
    dominance a b
    dominance b a
  )");
  const SolveResult res = Solver(cs).encode();
  EXPECT_EQ(res.status, SolveResult::Status::kInfeasible);
  EXPECT_FALSE(res.uncovered.empty());
}

TEST(ExactEncode, SingleSymbol) {
  ConstraintSet cs;
  cs.symbols().intern("only");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.codes.size(), 1u);
}

TEST(ExactEncode, ExtendedDisjunctiveSatisfied) {
  const ConstraintSet cs = parse_constraints(R"(
    face a b
    extdisjunctive a : b c | d e
  )");
  const SolveResult res = Solver(cs).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_TRUE(verify_encoding(res.encoding, cs).empty());
}

// Reference for check_feasible's coverage stage: rebuilds the valid
// maximally raised set D from scratch and scans every initial dichotomy
// against all of D (O(|I| x |D|)), with none of the self-cover shortcut.
struct BruteForceFeasibility {
  std::vector<Dichotomy> raised;
  std::vector<std::size_t> uncovered;
  /// Initial dichotomies covered only by some other raise (their own raise
  /// was invalid): the cases the shortcut must still scan for.
  std::size_t covered_by_others = 0;
};

BruteForceFeasibility brute_force_feasibility(const ConstraintSet& cs) {
  BruteForceFeasibility ref;
  const std::vector<InitialDichotomy> initial =
      generate_initial_dichotomies(cs);
  std::vector<bool> raise_survived(initial.size(), false);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    Dichotomy d = initial[i].dichotomy;
    if (!dichotomy_valid(d, cs) || !raise_dichotomy(d, cs) ||
        !dichotomy_valid(d, cs))
      continue;
    ref.raised.push_back(std::move(d));
    raise_survived[i] = true;
  }
  dedupe_dichotomies(ref.raised);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    bool covered = false;
    for (const Dichotomy& d : ref.raised)
      if (d.covers(initial[i].dichotomy)) covered = true;
    if (!covered) ref.uncovered.push_back(i);
    if (covered && !raise_survived[i]) ++ref.covered_by_others;
  }
  return ref;
}

TEST(CheckFeasible, CoverageShortcutMatchesBruteForceOnFuzzCases) {
  struct Mix {
    const char* name;
    std::uint64_t run_seed;
    int cases;
  };
  std::size_t feasible = 0, infeasible = 0, covered_by_others = 0;
  for (const Mix& mix : {Mix{"default", 11, 300}, Mix{"output", 12, 150},
                         Mix{"infeasible", 13, 150}}) {
    const GeneratorOptions opts = *generator_mix(mix.name);
    for (int k = 0; k < mix.cases; ++k) {
      const ConstraintSet cs = generate_case(
          fuzz_case_seed(mix.run_seed, static_cast<std::uint64_t>(k)), opts);
      const FeasibilityResult res = check_feasible(cs, ExecContext{});
      const BruteForceFeasibility ref = brute_force_feasibility(cs);
      ASSERT_EQ(res.raised, ref.raised) << mix.name << " case " << k;
      ASSERT_EQ(res.uncovered, ref.uncovered) << mix.name << " case " << k;
      ASSERT_EQ(res.feasible, ref.uncovered.empty())
          << mix.name << " case " << k;
      (res.feasible ? feasible : infeasible) += 1;
      covered_by_others += ref.covered_by_others;
    }
  }
  // Both verdicts and the scan path past the shortcut are exercised.
  EXPECT_GT(feasible, 50u);
  EXPECT_GT(infeasible, 50u);
  EXPECT_GT(covered_by_others, 0u);
}

}  // namespace
}  // namespace encodesat
