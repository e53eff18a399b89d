// AddressSanitizer + UndefinedBehaviorSanitizer smoke test for Bitset's
// storage: inline words for universes up to 128, one heap array above.
//
// Built with -fsanitize=address,undefined unconditionally (see
// tests/CMakeLists.txt) from src/util/bitset.cc alone and run as part of
// the regular ctest pass, so a leak, double free, use-after-free or
// out-of-bounds word access in the copy/move/assign paths fails the tier-1
// suite even when the main build is uninstrumented. Plain main, no gtest:
// the gtest libraries in the toolchain are not sanitizer-instrumented.
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bitset.h"

using namespace encodesat;

namespace {

int failures = 0;

void check(bool ok, const char* what, std::size_t n) {
  if (!ok) {
    std::fprintf(stderr, "FAIL (universe %zu): %s\n", n, what);
    ++failures;
  }
}

const std::size_t kUniverses[] = {0, 1, 63, 64, 65, 127, 128, 129, 1000};

Bitset patterned(std::size_t n, std::size_t salt) {
  Bitset b(n);
  for (std::size_t i = 0; i < n; ++i)
    if ((i * 5 + salt) % 4 == 0 || i + 1 == n) b.set(i);
  return b;
}

void copy_move_assign() {
  for (std::size_t n : kUniverses) {
    const Bitset a = patterned(n, 1);
    Bitset b(a);
    check(b == a, "copy equals source", n);
    Bitset c(std::move(b));
    check(c == a && b.size() == 0 && b.empty(), "move leaves empty", n);
    b = c;  // reuse the moved-from object
    check(b == a, "moved-from takes a copy", n);
    Bitset& alias = b;
    b = alias;
    b = std::move(alias);
    check(b == a, "self-assign keeps the value", n);
    for (std::size_t m : kUniverses) {
      Bitset d = patterned(m, 3);
      d = a;  // every size pair crosses or stays on one side of the boundary
      check(d == a, "copy-assign across sizes", n);
      Bitset e = patterned(m, 2);
      Bitset f = a;
      e = std::move(f);
      check(e == a && f.size() == 0, "move-assign across sizes", n);
      f = patterned(m, 0);
      check(f.size() == m, "moved-from reused at another size", n);
    }
  }
}

void word_ops_stay_in_bounds() {
  for (std::size_t n : kUniverses) {
    Bitset a = patterned(n, 0), b = patterned(n, 1);
    Bitset all(n);
    all.set_all();
    check(all.count() == n, "set_all respects the tail", n);
    check((a | b).is_subset_of(all), "union within the universe", n);
    check(!(a & b).intersects(a ^ b), "and/xor disjoint", n);
    Bitset d = a;
    d.subtract(b);
    check(!d.intersects(b), "subtract", n);
    std::size_t seen = 0;
    for (std::size_t i = a.first(); i < a.size(); i = a.next(i)) ++seen;
    check(seen == a.count(), "first/next walk", n);
    check(a.to_vector().size() == a.count(), "to_vector", n);
    check(a.hash() == Bitset(a).hash(), "hash of a copy", n);
    check(!(a < a), "strict order", n);
    bool threw = false;
    try {
      a |= Bitset(n + 1);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    check(threw && a == patterned(n, 0), "mismatch throws, operand intact",
          n);
  }
}

void containers_reallocate() {
  // Vector growth moves elements with the noexcept move constructor.
  std::vector<Bitset> v;
  for (int round = 0; round < 3; ++round)
    for (std::size_t n : kUniverses) v.push_back(patterned(n, v.size()));
  std::vector<Bitset> w = v;
  v.erase(v.begin(), v.begin() + 5);
  w.insert(w.begin() + 3, patterned(200, 7));
  check(w[3] == patterned(200, 7), "vector insert", 200);
  check(v.size() + 5 + 1 == w.size(), "vector sizes", 0);
}

}  // namespace

int main() {
  copy_move_assign();
  word_ops_stay_in_bounds();
  containers_reallocate();
  if (failures != 0) {
    std::fprintf(stderr, "bitset asan smoke: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("bitset asan smoke: all checks passed\n");
  return 0;
}
