// Tests for the Section 7 cost functions (Figure 9 semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bounded.h"
#include "core/cost.h"
#include "core/encoder.h"
#include "core/solver.h"
#include "core/verify.h"
#include "logic/espresso.h"
#include "logic/exact_minimize.h"
#include "util/rng.h"

namespace encodesat {
namespace {

// The Section 7 running example: (e,f,c), (e,d,g), (a,b,d), (a,g,f,d).
ConstraintSet section7_constraints() {
  return parse_constraints(R"(
    face e f c
    face e d g
    face a b d
    face a g f d
  )");
}

// The paper's 4-bit satisfying assignment for it.
Encoding section7_codes4() {
  const ConstraintSet cs = section7_constraints();
  Encoding enc;
  enc.bits = 4;
  enc.codes.assign(cs.num_symbols(), 0);
  auto set = [&](const char* name, std::uint64_t msb_first) {
    // The paper writes codes MSB-first; our bit 0 is column 0 (LSB).
    std::uint64_t code = 0;
    for (int b = 0; b < 4; ++b)
      if ((msb_first >> (3 - b)) & 1u) code |= std::uint64_t{1} << b;
    enc.codes[cs.symbols().at(name)] = code;
  };
  set("a", 0b1010);
  set("b", 0b0010);
  set("c", 0b0011);
  set("d", 0b1110);
  set("e", 0b0111);
  set("f", 0b1011);
  set("g", 0b1100);
  return enc;
}

TEST(Cost, Section7FourBitSolutionSatisfiesAll) {
  const ConstraintSet cs = section7_constraints();
  const Encoding enc = section7_codes4();
  EXPECT_EQ(count_satisfied_faces(enc, cs), 4);
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_EQ(cost.violated_faces, 0);
  // Every satisfied constraint minimizes to a single product term.
  EXPECT_EQ(cost.cubes, 4);
}

TEST(Cost, Section7NeedsFourBits) {
  // "To satisfy all the constraints, a code-length of 4 bits is required."
  const SolveResult res = Solver(section7_constraints()).encode();
  ASSERT_EQ(res.status, SolveResult::Status::kEncoded);
  EXPECT_EQ(res.encoding.bits, 4);
}

TEST(Cost, ThreeBitsMustViolateSomething) {
  // Any 3-bit encoding violates at least one face constraint; the paper's
  // Figure 9 example violates 3 of them with 7 cubes / 14 literals.
  const ConstraintSet cs = section7_constraints();
  BoundedEncodeOptions opts;
  opts.cost = CostKind::kCubes;
  const auto res = bounded_encode(cs, 3, opts);
  EXPECT_GT(res.cost.violated_faces, 0);
  // A violated constraint needs at least two product terms (Section 7), so
  // the minimized multi-output cover cannot be as small as the constraint
  // count would allow if everything were satisfied.
  EXPECT_GE(res.cost.cubes, 2);
  EXPECT_GE(res.cost.literals, res.cost.cubes);
}

TEST(Cost, SatisfiedFaceIsOneCube) {
  const ConstraintSet cs = parse_constraints("face a b\nsymbol c\nsymbol d");
  Encoding enc;
  enc.bits = 2;
  enc.codes = {0b00, 0b01, 0b10, 0b11};  // a,b share the x1=0 face
  EXPECT_EQ(count_satisfied_faces(enc, cs), 1);
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_EQ(cost.cubes, 1);
  EXPECT_EQ(cost.literals, 1);
}

TEST(Cost, ViolatedFaceNeedsAtLeastTwoCubes) {
  // Symbols intern in order of first mention: a, d, b, c.
  const ConstraintSet cs = parse_constraints("face a d\nsymbol b\nsymbol c");
  Encoding enc;
  enc.bits = 2;
  enc.codes = {0b00, 0b11, 0b01, 0b10};  // a=00, d=11: span is everything
  EXPECT_EQ(count_satisfied_faces(enc, cs), 0);
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_GE(cost.cubes, 2);
}

TEST(Cost, DontCareMembersRelaxTheFunction) {
  // (a, b, [c], d): c's code is a don't-care point of the constraint
  // function, so it can never break single-cube minimization.
  const ConstraintSet cs =
      parse_constraints("face a b [c] d\nsymbol e\nsymbol f\nsymbol g\nsymbol h");
  Encoding enc;
  enc.bits = 3;
  enc.codes = {0, 1, 2, 3, 4, 5, 6, 7};  // a,b,c,d = 000,001,010,011
  EXPECT_EQ(count_satisfied_faces(enc, cs), 1);
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_EQ(cost.cubes, 1);
}

TEST(Cost, UnusedCodesAreDontCares) {
  // Three symbols in 2 bits: the unused code 11 must be usable as DC.
  const ConstraintSet cs = parse_constraints("face a b\nsymbol c");
  Encoding enc;
  enc.bits = 2;
  enc.codes = {0b00, 0b10, 0b01};  // a=00, b=10 (x0 differs), c=01
  // Face of {a,b} spans x0; c=01 is outside; satisfied.
  EXPECT_EQ(count_satisfied_faces(enc, cs), 1);
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_EQ(cost.cubes, 1);
  // The single cube is x1' (one literal), only possible if 11 is DC.
  EXPECT_EQ(cost.literals, 1);
}

TEST(Cost, NoFacesZeroCost) {
  ConstraintSet cs;
  cs.symbols().intern("a");
  cs.symbols().intern("b");
  Encoding enc;
  enc.bits = 1;
  enc.codes = {0, 1};
  const EncodingCost cost = evaluate_encoding_cost(enc, cs);
  EXPECT_EQ(cost.cubes, 0);
  EXPECT_EQ(cost.literals, 0);
  EXPECT_EQ(cost.violated_faces, 0);
}


TEST(Cost, PerFaceCubesMatchExactOracleOnSmallSpaces) {
  // The per-face ESPRESSO evaluation should be optimal (or within one cube)
  // of the exact Quine-McCluskey minimizer on small code spaces.
  Rng rng(20240705);
  for (int trial = 0; trial < 10; ++trial) {
    ConstraintSet cs;
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(rng.next_below(3));
    for (std::uint32_t i = 0; i < n; ++i)
      cs.symbols().intern("s" + std::to_string(i));
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < n; ++s)
      if (rng.next_bool(0.45)) members.push_back(s);
    if (members.size() < 2 || members.size() >= n) continue;
    cs.add_face_ids(members);

    Encoding enc;
    enc.bits = 3;
    enc.codes.resize(n);
    // Random injective assignment into the 3-bit space.
    std::vector<std::uint64_t> codes{0, 1, 2, 3, 4, 5, 6, 7};
    for (std::size_t i = codes.size(); i > 1; --i)
      std::swap(codes[i - 1], codes[rng.next_below(i)]);
    for (std::uint32_t s = 0; s < n; ++s) enc.codes[s] = codes[s];

    const EncodingCost heur = evaluate_encoding_cost(enc, cs);

    // Exact oracle over the same per-face function.
    const Domain dom = Domain::binary(enc.bits, 1);
    Cover on(dom), dc(dom);
    Bitset out(1);
    out.set(0);
    std::vector<bool> used(8, false);
    for (std::uint32_t s = 0; s < n; ++s) used[enc.codes[s]] = true;
    for (auto m : cs.faces()[0].members) {
      Cube c(dom);
      for (int v = 0; v < 3; ++v)
        c.bits.set(static_cast<std::size_t>(
            dom.pos(v, static_cast<int>((enc.codes[m] >> v) & 1u))));
      c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
      on.add(c);
    }
    for (std::uint64_t code = 0; code < 8; ++code) {
      if (used[code]) continue;
      Cube c(dom);
      for (int v = 0; v < 3; ++v)
        c.bits.set(static_cast<std::size_t>(
            dom.pos(v, static_cast<int>((code >> v) & 1u))));
      c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
      dc.add(c);
    }
    const auto exact = exact_minimize(on, dc);
    ASSERT_EQ(exact.status, ExactMinimizeResult::Status::kMinimized);
    ASSERT_TRUE(exact.optimal);
    EXPECT_GE(heur.cubes, static_cast<int>(exact.cover.size()));
    EXPECT_LE(heur.cubes, static_cast<int>(exact.cover.size()) + 1);
    if (heur.violated_faces == 0) {
      EXPECT_EQ(static_cast<int>(exact.cover.size()), 1);
    }
  }
}


// Reference for evaluate_face_cost: the Fig. 9 per-face function minimized
// by espresso(on, dc), which takes the OFF-set as the URP complement of
// ON u DC.
FaceCost reference_face_cost(const Encoding& enc, const ConstraintSet& cs,
                             const FaceConstraint& f, const Cover& unused_dc,
                             bool fast) {
  const Domain& dom = unused_dc.domain();
  auto minterm = [&](std::uint64_t code) {
    Cube c(dom);
    for (int v = 0; v < dom.num_inputs(); ++v)
      c.bits.set(static_cast<std::size_t>(
          dom.pos(v, static_cast<int>((code >> v) & 1u))));
    c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
    return c;
  };
  FaceCost cost;
  cost.satisfied = face_satisfied(enc, cs, f);
  Cover on(dom);
  if (cost.satisfied) {
    Cube span = minterm(enc.codes[f.members[0]]);
    for (auto m : f.members) span = cube_supercube(span, minterm(enc.codes[m]));
    on.add(span);
  } else {
    for (auto m : f.members) on.add(minterm(enc.codes[m]));
  }
  Cover dc = unused_dc;
  for (auto d : f.dontcares) dc.add(minterm(enc.codes[d]));
  EspressoOptions opts;
  opts.single_pass = fast;
  const Cover minimized = espresso(on, dc, opts);
  cost.cubes = static_cast<int>(minimized.size());
  cost.literals = minimized.input_literals();
  return cost;
}

TEST(Cost, FaceCostMatchesComplementReference) {
  // Seeded random code tables, duplicates allowed, against the reference.
  // Some cases force an outside symbol onto a member's or a don't-care's
  // code; about a third have no don't-care symbols at all.
  Rng rng(0xface0ff5e7);
  int duplicates = 0, outside_on_member = 0, outside_on_dontcare = 0,
      no_dontcares = 0, satisfied = 0, violated = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(8));
    ConstraintSet cs;
    for (std::uint32_t i = 0; i < n; ++i)
      cs.symbols().intern("s" + std::to_string(i));
    Encoding enc;
    enc.bits = 1 + static_cast<int>(rng.next_below(4));
    const std::uint64_t space = std::uint64_t{1} << enc.bits;
    enc.codes.resize(n);
    if (space >= n && rng.next_bool()) {
      std::vector<std::uint64_t> codes(space);
      for (std::uint64_t c = 0; c < space; ++c) codes[c] = c;
      for (std::size_t i = codes.size(); i > 1; --i)
        std::swap(codes[i - 1], codes[rng.next_below(i)]);
      for (std::uint32_t s = 0; s < n; ++s) enc.codes[s] = codes[s];
    } else {
      for (std::uint32_t s = 0; s < n; ++s) enc.codes[s] = rng.next_below(space);
    }

    // Category per symbol: 2 member, 1 don't-care, 0 outside; at least one
    // member.
    std::vector<int> cat(n, 0);
    const bool with_dontcares = rng.next_below(3) != 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint64_t r = rng.next_below(10);
      cat[s] = r < 4 ? 2 : (with_dontcares && r < 6 ? 1 : 0);
    }
    cat[rng.next_below(n)] = 2;
    std::vector<std::uint32_t> members, dontcares, outside;
    for (std::uint32_t s = 0; s < n; ++s)
      (cat[s] == 2 ? members : cat[s] == 1 ? dontcares : outside).push_back(s);
    if (!outside.empty() && rng.next_below(3) == 0) {
      const std::uint32_t o = outside[rng.next_below(outside.size())];
      const auto& donors =
          !dontcares.empty() && rng.next_bool() ? dontcares : members;
      enc.codes[o] = enc.codes[donors[rng.next_below(donors.size())]];
    }
    for (auto o : outside) {
      for (auto m : members) outside_on_member += enc.codes[o] == enc.codes[m];
      for (auto d : dontcares)
        outside_on_dontcare += enc.codes[o] == enc.codes[d];
    }
    std::vector<std::uint64_t> sorted = enc.codes;
    std::sort(sorted.begin(), sorted.end());
    duplicates +=
        std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    no_dontcares += dontcares.empty();
    cs.add_face_ids(members, dontcares);

    const FaceConstraint& f = cs.faces()[0];
    const Cover unused_dc = unused_code_dontcares(enc);
    for (const bool fast : {true, false}) {
      const FaceCost got = evaluate_face_cost(enc, cs, f, unused_dc, fast);
      const FaceCost want = reference_face_cost(enc, cs, f, unused_dc, fast);
      EXPECT_EQ(got.satisfied, want.satisfied) << "trial " << trial;
      EXPECT_EQ(got.cubes, want.cubes) << "trial " << trial << " fast " << fast;
      EXPECT_EQ(got.literals, want.literals)
          << "trial " << trial << " fast " << fast;
      (want.satisfied ? satisfied : violated) += 1;
    }
  }
  // The draw reaches every case the OFF-set construction distinguishes.
  EXPECT_GT(duplicates, 50);
  EXPECT_GT(outside_on_member, 20);
  EXPECT_GT(outside_on_dontcare, 20);
  EXPECT_GT(no_dontcares, 100);
  EXPECT_GT(satisfied, 100);
  EXPECT_GT(violated, 100);
}

}  // namespace
}  // namespace encodesat
