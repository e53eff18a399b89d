#include "util/bitset.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace encodesat {
namespace {

TEST(Bitset, StartsEmpty) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.first(), 130u);
}

TEST(Bitset, SetResetTest) {
  Bitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetAllRespectsTail) {
  Bitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  Bitset c(64);
  c.set_all();
  EXPECT_EQ(c.count(), 64u);
}

TEST(Bitset, FirstNextIterate) {
  Bitset b(200);
  const std::set<std::size_t> expected = {3, 64, 65, 127, 128, 199};
  for (auto i : expected) b.set(i);
  std::set<std::size_t> seen;
  for (std::size_t i = b.first(); i < b.size(); i = b.next(i)) seen.insert(i);
  EXPECT_EQ(seen, expected);
}

TEST(Bitset, ForEachMatchesToVector) {
  Bitset b(90);
  b.set(1);
  b.set(89);
  b.set(42);
  std::vector<std::size_t> v;
  b.for_each([&](std::size_t i) { v.push_back(i); });
  EXPECT_EQ(v, b.to_vector());
  EXPECT_EQ(v, (std::vector<std::size_t>{1, 42, 89}));
}

TEST(Bitset, BooleanOps) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  EXPECT_EQ((a & b).to_vector(), (std::vector<std::size_t>{65}));
  EXPECT_EQ((a | b).to_vector(), (std::vector<std::size_t>{1, 2, 65}));
  EXPECT_EQ((a ^ b).to_vector(), (std::vector<std::size_t>{1, 2}));
  Bitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.to_vector(), (std::vector<std::size_t>{1}));
}

TEST(Bitset, SubsetAndIntersects) {
  Bitset a(70), b(70);
  a.set(5);
  b.set(5);
  b.set(66);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  Bitset c(70);
  c.set(7);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(Bitset(70).is_subset_of(a));
}

TEST(Bitset, EqualityAndOrdering) {
  Bitset a(10), b(10);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  EXPECT_TRUE(b < a);
  b.set(4);
  EXPECT_TRUE(a < b);
}

TEST(Bitset, ToString) {
  Bitset a(10);
  a.set(1);
  a.set(4);
  EXPECT_EQ(a.to_string(), "{1,4}");
  EXPECT_EQ(Bitset(3).to_string(), "{}");
}

TEST(Bitset, HashDiffersForDifferentSets) {
  Bitset a(64), b(64);
  a.set(0);
  b.set(1);
  EXPECT_NE(a.hash(), b.hash());
  Bitset c = a;
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(Bitset, MismatchedUniverseBinaryOpsThrow) {
  // Every binary set operation hard-errors on a universe mismatch in all
  // build modes, not just under debug asserts (see util/bitset.h).
  Bitset a(10), b(11);
  a.set(3);
  b.set(3);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW(a ^= b, std::invalid_argument);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW((void)a.is_subset_of(b), std::invalid_argument);
  EXPECT_THROW((void)a.intersects(b), std::invalid_argument);
  EXPECT_THROW((void)(a | b), std::invalid_argument);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
  EXPECT_THROW((void)(a ^ b), std::invalid_argument);
  // The failed operation must not corrupt the left operand.
  EXPECT_EQ(a.to_string(), "{3}");
  EXPECT_EQ(a.size(), 10u);
  // Word-count-equal but size-unequal universes still throw (the same word
  // loop would otherwise "work" silently).
  Bitset c(64), d(65);
  EXPECT_THROW(c |= d, std::invalid_argument);
  // Matching universes keep working after a failed attempt.
  Bitset e(10);
  e.set(4);
  a |= e;
  EXPECT_EQ(a.to_string(), "{3,4}");
}

// Storage: universes up to 128 live inline, larger ones on the heap. Every
// value operation must behave the same on both sides of that boundary and
// across it.
const std::size_t kStorageUniverses[] = {0, 1, 63, 64, 128, 129, 1000};

// A deterministic pattern touching the first, last and word-edge bits.
Bitset patterned(std::size_t n, std::size_t salt) {
  Bitset b(n);
  for (std::size_t i = 0; i < n; ++i)
    if ((i * 7 + salt) % 3 == 0 || i == 0 || i + 1 == n || i % 64 == 63)
      b.set(i);
  return b;
}

std::vector<std::size_t> expected_bits(std::size_t n, std::size_t salt) {
  std::vector<std::size_t> v;
  for (std::size_t i = 0; i < n; ++i)
    if ((i * 7 + salt) % 3 == 0 || i == 0 || i + 1 == n || i % 64 == 63)
      v.push_back(i);
  return v;
}

TEST(BitsetStorage, SizeDidNotGrow) {
  static_assert(sizeof(Bitset) <= 32);
  EXPECT_LE(sizeof(Bitset), 32u);
}

TEST(BitsetStorage, CopyMoveAndSelfAssign) {
  for (std::size_t n : kStorageUniverses) {
    SCOPED_TRACE(n);
    const Bitset a = patterned(n, 1);
    Bitset copy(a);
    EXPECT_EQ(copy, a);
    EXPECT_EQ(copy.to_vector(), expected_bits(n, 1));
    if (n > 0) {
      copy.reset(0);  // a deep copy: the original is untouched
      EXPECT_TRUE(a.test(0));
    }

    Bitset moved(std::move(copy));
    EXPECT_EQ(moved.size(), n);
    if (n > 0) {
      EXPECT_FALSE(moved.test(0));
    }

    Bitset self = a;
    Bitset& alias = self;
    self = alias;
    EXPECT_EQ(self, a);
    self = std::move(alias);
    EXPECT_EQ(self, a);
    EXPECT_EQ(self.count(), a.count());
  }
}

TEST(BitsetStorage, AssignAcrossInlineHeapBoundary) {
  for (std::size_t from : kStorageUniverses) {
    for (std::size_t to : kStorageUniverses) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      const Bitset src = patterned(from, 2);
      Bitset dst = patterned(to, 0);
      dst = src;
      EXPECT_EQ(dst, src);
      EXPECT_EQ(dst.size(), from);
      EXPECT_EQ(dst.to_vector(), expected_bits(from, 2));

      Bitset dst2 = patterned(to, 1);
      Bitset tmp = src;
      dst2 = std::move(tmp);
      EXPECT_EQ(dst2, src);
      EXPECT_EQ(dst2.hash(), src.hash());
    }
  }
}

TEST(BitsetStorage, MovedFromObjectIsReusable) {
  for (std::size_t n : kStorageUniverses) {
    SCOPED_TRACE(n);
    Bitset a = patterned(n, 0);
    Bitset b(std::move(a));
    EXPECT_EQ(b.to_vector(), expected_bits(n, 0));
    // The moved-from object is a valid empty universe...
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a, Bitset());
    // ...and takes new values of any size.
    for (std::size_t m : kStorageUniverses) {
      a = patterned(m, 1);
      EXPECT_EQ(a.to_vector(), expected_bits(m, 1));
      a |= patterned(m, 2);
      EXPECT_EQ(a, patterned(m, 1) | patterned(m, 2));
    }
    Bitset c;
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    b = Bitset(n);
    b.set_all();
    EXPECT_EQ(b.count(), n);
  }
}

TEST(BitsetStorage, OrderingHashAndMismatchAcrossSizes) {
  for (std::size_t n : kStorageUniverses) {
    SCOPED_TRACE(n);
    Bitset lo(n), hi(n);
    if (n > 0) {
      lo.set(0);
      hi.set(n - 1);
      if (n > 1) {
        EXPECT_TRUE(lo < hi);  // the highest word decides
        EXPECT_FALSE(hi < lo);
        EXPECT_NE(lo.hash(), hi.hash());
      }
    }
    EXPECT_FALSE(lo < lo);
    EXPECT_EQ(lo.hash(), Bitset(lo).hash());
    // Smaller universes order first regardless of contents.
    Bitset bigger(n + 1);
    EXPECT_TRUE(lo < bigger);
    EXPECT_THROW(lo |= bigger, std::invalid_argument);
    EXPECT_THROW((void)lo.is_subset_of(bigger), std::invalid_argument);
    EXPECT_THROW((void)bigger.intersects(lo), std::invalid_argument);
    // A failed operation leaves the operand intact.
    EXPECT_EQ(lo.size(), n);
    EXPECT_EQ(lo.count(), n > 0 ? 1u : 0u);
  }
}

TEST(BitsetStorage, HashMatchesWordFnv) {
  // The hash is FNV-1a over the words then the size; containers keyed on it
  // (and anything ordered by iteration over them) depend on it staying put.
  Bitset b(129);
  b.set(0);
  b.set(128);
  std::size_t h = 1469598103934665603ull;
  for (std::uint64_t w : {std::uint64_t{1}, std::uint64_t{0}, std::uint64_t{1}}) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  }
  h ^= 129;
  EXPECT_EQ(b.hash(), h);
}

}  // namespace
}  // namespace encodesat
