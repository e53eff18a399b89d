// Tests for the ESPRESSO-style minimizer: equivalence is always checked
// against the original ON-set modulo the DC-set (the correctness contract),
// plus size expectations on classical examples.
#include <gtest/gtest.h>

#include "logic/espresso.h"
#include "logic/urp.h"
#include "util/rng.h"

namespace encodesat {
namespace {

Cube bcube(const Domain& dom, const std::string& in, const std::string& out) {
  return cube_from_string(dom, in, out);
}

TEST(Espresso, EmptyCover) {
  const Domain dom = Domain::binary(2, 1);
  EXPECT_TRUE(espresso(Cover(dom), Cover(dom)).empty());
}

TEST(Espresso, MergesAdjacentMinterms) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "00", "1"));
  on.add(bcube(dom, "01", "1"));
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "0- | 1");
}

TEST(Espresso, FullSpaceBecomesOneCube) {
  const Domain dom = Domain::binary(3, 1);
  Cover on(dom);
  for (int m = 0; m < 8; ++m) {
    std::string in = {char('0' + ((m >> 2) & 1)), char('0' + ((m >> 1) & 1)),
                      char('0' + (m & 1))};
    on.add(bcube(dom, in, "1"));
  }
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_input_literals(dom, min[0]), 0);
}

TEST(Espresso, UsesDontCares) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom), dc(dom);
  on.add(bcube(dom, "11", "1"));
  dc.add(bcube(dom, "10", "1"));
  const Cover min = espresso(on, dc);
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "1- | 1");
}

TEST(Espresso, XorIsIrreducible) {
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "01", "1"));
  on.add(bcube(dom, "10", "1"));
  const Cover min = espresso(on, Cover(dom));
  EXPECT_EQ(min.size(), 2u);
  EXPECT_TRUE(covers_equivalent(min, on, Cover(dom)));
}

TEST(Espresso, MultiOutputSharing) {
  const Domain dom = Domain::binary(2, 2);
  Cover on(dom);
  on.add(bcube(dom, "11", "10"));
  on.add(bcube(dom, "11", "01"));
  const Cover min = espresso(on, Cover(dom));
  // The two outputs share the single cube 11|11.
  ASSERT_EQ(min.size(), 1u);
  EXPECT_EQ(cube_to_string(dom, min[0]), "11 | 11");
}

TEST(Espresso, ClassicTrim) {
  // f = a'b' + a'b + ab = a' + b (2 cubes), starting from minterms.
  const Domain dom = Domain::binary(2, 1);
  Cover on(dom);
  on.add(bcube(dom, "00", "1"));
  on.add(bcube(dom, "01", "1"));
  on.add(bcube(dom, "11", "1"));
  const Cover min = espresso(on, Cover(dom));
  EXPECT_EQ(min.size(), 2u);
  EXPECT_TRUE(covers_equivalent(min, on, Cover(dom)));
}

TEST(Espresso, ResultIsIrredundantAndPrime) {
  const Domain dom = Domain::binary(4, 1);
  Rng rng(42);
  Cover on(dom);
  for (int i = 0; i < 10; ++i) {
    std::string in;
    for (int v = 0; v < 4; ++v)
      in += "01-"[rng.next_below(3)];
    on.add(bcube(dom, in, "1"));
  }
  Cover dc(dom);
  const Cover min = espresso(on, dc);
  EXPECT_TRUE(covers_equivalent(min, on, dc));
  // Irredundant: removing any cube changes the function.
  for (std::size_t i = 0; i < min.size(); ++i) {
    Cover rest(dom);
    for (std::size_t j = 0; j < min.size(); ++j)
      if (j != i) rest.add(min[j]);
    EXPECT_FALSE(cover_contains_cube(rest, min[i]))
        << "cube " << i << " is redundant";
  }
  // Prime: no single position of any cube can be raised.
  const Cover off = complement(on);
  for (const Cube& c : min) {
    for (std::size_t b = 0; b < c.bits.size(); ++b) {
      if (c.bits.test(b)) continue;
      Cube up = c;
      up.bits.set(b);
      bool hits_off = false;
      for (const Cube& r : off)
        if (cubes_intersect(dom, up, r)) {
          hits_off = true;
          break;
        }
      EXPECT_TRUE(hits_off) << "cube is not prime at position " << b;
    }
  }
}

TEST(Espresso, MultiValuedVariableMinimization) {
  // One MV(4) variable; ON for values {0,1} and {2,3} separately given as
  // single-value cubes should merge to the full literal.
  const Domain dom({4}, 1);
  Cover on(dom);
  for (int v = 0; v < 4; ++v) {
    Cube c(dom);
    c.bits.set(static_cast<std::size_t>(v));
    c.bits.set(static_cast<std::size_t>(dom.out_pos(0)));
    on.add(c);
  }
  const Cover min = espresso(on, Cover(dom));
  ASSERT_EQ(min.size(), 1u);
}

class EspressoRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EspressoRandomEquivalence, PreservesFunction) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int ni = 3 + static_cast<int>(rng.next_below(3));
  const int no = 1 + static_cast<int>(rng.next_below(3));
  const Domain dom = Domain::binary(ni, no);
  Cover on(dom), dc(dom);
  const int cubes = 3 + static_cast<int>(rng.next_below(12));
  for (int i = 0; i < cubes; ++i) {
    std::string in, out;
    for (int v = 0; v < ni; ++v) in += "01--"[rng.next_below(4)];
    for (int o = 0; o < no; ++o) out += "01"[rng.next_below(2)];
    if (out.find('1') == std::string::npos) out[0] = '1';
    if (rng.next_bool(0.2))
      dc.add(cube_from_string(dom, in, out));
    else
      on.add(cube_from_string(dom, in, out));
  }
  const Cover min = espresso(on, dc);
  EXPECT_TRUE(covers_equivalent(min, on, dc));
  EXPECT_LE(min.size(), on.size() == 0 ? 0 : on.size());

  // Any cover of the OFF-set gives the same result as its URP complement:
  // here, its minterms.
  Cover on_dc = on;
  on_dc.add_all(dc);
  const Cover off = complement(on_dc);
  Cover off_minterms(dom);
  for (int m = 0; m < (1 << ni); ++m)
    for (int o = 0; o < no; ++o) {
      std::string in, out(static_cast<std::size_t>(no), '0');
      for (int v = 0; v < ni; ++v) in += static_cast<char>('0' + ((m >> v) & 1));
      out[static_cast<std::size_t>(o)] = '1';
      const Cube point = cube_from_string(dom, in, out);
      for (const Cube& c : off)
        if (cube_contains(c, point)) {
          off_minterms.add(point);
          break;
        }
    }
  for (const bool single_pass : {false, true}) {
    EspressoOptions opts;
    opts.single_pass = single_pass;
    EXPECT_EQ(espresso(on, dc, off_minterms, opts).to_string(),
              espresso(on, dc, opts).to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspressoRandomEquivalence,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace encodesat
