// Checks the benchmark's arithmetic against hand-computed values. Exits 0
// when every check holds; prints each failing check and exits 1 otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void expect_true(const char* what, bool ok) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace e2e;

  // Percentile with sample count. In 1..1000 the nearest rank of p99 is
  // ceil(990) = 990, so p99 = 990 with exactly 10 samples (991..1000)
  // beyond it: valid. In 1..999 the rank is ceil(989.01) = 990 with only
  // 9 beyond: invalid.
  expect_near("p99 of 1..1000", percentile(one_to(1000), 99), 990);
  expect_true("beyond p99, n=1000", samples_beyond(1000, 99) == 10);
  expect_true("p99 valid at n=1000", percentile_valid(1000, 99));
  expect_true("beyond p99, n=999", samples_beyond(999, 99) == 9);
  expect_true("p99 invalid at n=999", !percentile_valid(999, 99));
  // p50 of 1..10: rank 5 -> 5; of 1..11: rank ceil(5.5) = 6 -> 6.
  expect_near("p50 of 1..10", percentile(one_to(10), 50), 5);
  expect_near("p50 of 1..11", percentile(one_to(11), 50), 6);
  expect_near("p0 is the minimum", percentile(one_to(7), 0), 1);
  expect_near("p100 is the maximum", percentile(one_to(7), 100), 7);
  expect_near("percentile of nothing", percentile({}, 50), 0);
  expect_near("median of 1..10", median(one_to(10)), 5.5);

  // Self time with nested children. Parent [0, 10]; children [1, 3],
  // [2, 5] (overlapping: union [1, 5] = 4), [6, 7] (1), and [9, 12]
  // clipped to [9, 10] (1); a grandchild inside [1, 3] is the child's
  // business, not the parent's. Covered 6 -> self 4.
  const std::vector<Interval> kids = {{6, 7}, {1, 3}, {9, 12}, {2, 5}};
  expect_near("covered", covered(0, 10, kids), 6);
  expect_near("self time", self_time(0, 10, kids), 4);
  // A child inside an earlier sibling adds nothing: [1, 5] and [2, 3]
  // cover 4 of [0, 10] -> self 6.
  expect_near("nested siblings", self_time(0, 10, {{1, 5}, {2, 3}}), 6);
  // The child [1, 3] with grandchild [1.5, 2]: self 1.5.
  expect_near("child self time", self_time(1, 3, {{1.5, 2}}), 1.5);
  // Children entirely outside the parent cover nothing.
  expect_near("outside children", self_time(0, 10, {{-3, -1}, {11, 12}}), 10);
  expect_near("leaf self time", self_time(2.5, 4, {}), 1.5);

  // Goodput over a limit: 6 answers in 2 s with limit 100 ms. Good and
  // within: 10, 100 (inclusive), 40 -> 3; good but late: 101; failed: 5
  // and 50 -> 3 / 2 s = 1.5 per second.
  const std::vector<Answer> answers = {{10, true},  {100, true}, {101, true},
                                       {5, false},  {40, true},  {50, false}};
  expect_near("goodput", goodput(answers, 100, 2), 1.5);
  expect_near("goodput with no time", goodput(answers, 100, 0), 0);

  // Lateness: scheduled 1.000, 1.010, 1.020 s; sent 1.0005, 1.010 (on
  // time), 1.0231 -> 0.5, 0, 3.1 ms; a send recorded before its schedule
  // (clock granularity) is floored to 0.
  const std::vector<double> late =
      lateness_ms({1.000, 1.010, 1.020, 1.030}, {1.0005, 1.010, 1.0231, 1.0299});
  expect_near("late[0]", late[0], 0.5);
  expect_near("late[1]", late[1], 0);
  expect_near("late[2]", late[2], 3.1);
  expect_near("late[3]", late[3], 0);
  expect_near("late p99", percentile(late, 99), 3.1);

  if (failures) return 1;
  std::printf("stats_test: all checks passed\n");
  return 0;
}
