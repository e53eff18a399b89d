// Tests for the unate and binate covering solvers, including brute-force
// optimality cross-checks on random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "covering/binate.h"
#include "covering/unate.h"
#include "util/rng.h"
#include "util/term_arena.h"

namespace encodesat {
namespace {

UnateCoverProblem make_unate(std::size_t cols,
                             const std::vector<std::vector<std::size_t>>& rows) {
  UnateCoverProblem p;
  p.num_columns = cols;
  for (const auto& r : rows) {
    Bitset row(cols);
    for (auto c : r) row.set(c);
    p.rows.push_back(std::move(row));
  }
  return p;
}

TEST(UnateCover, EmptyProblemIsFeasibleZeroCost) {
  UnateCoverProblem p;
  p.num_columns = 3;
  const auto sol = solve_unate_cover(p);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 0);
  EXPECT_TRUE(sol.columns.empty());
}

TEST(UnateCover, EmptyRowInfeasible) {
  auto p = make_unate(2, {{0}, {}});
  EXPECT_FALSE(solve_unate_cover(p).feasible);
  EXPECT_FALSE(greedy_unate_cover(p).feasible);
}

TEST(UnateCover, EssentialColumnsPicked) {
  auto p = make_unate(3, {{0}, {1}, {0, 1, 2}});
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{0, 1}));
}

TEST(UnateCover, GreedyTrapExactEscapes) {
  // Greedy prefers column 0 (covers 3 rows) but the optimum is {1, 2}.
  auto p = make_unate(3, {{0, 1}, {0, 1}, {0, 2}, {1}, {2}});
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

TEST(UnateCover, RespectsWeights) {
  auto p = make_unate(3, {{0, 1}, {0, 2}});
  p.weights = {5, 1, 1};  // column 0 covers both rows but costs more
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

int brute_force_unate(const UnateCoverProblem& p) {
  int best = -1;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << p.num_columns);
       ++mask) {
    bool ok = true;
    for (const auto& row : p.rows) {
      bool covered = false;
      row.for_each([&](std::size_t c) {
        if ((mask >> c) & 1u) covered = true;
      });
      if (!covered && !row.empty()) {
        ok = false;
        break;
      }
      if (row.empty()) ok = false;
    }
    if (!ok) continue;
    int cost = 0;
    for (std::size_t c = 0; c < p.num_columns; ++c)
      if ((mask >> c) & 1u)
        cost += p.weights.empty() ? 1 : p.weights[c];
    if (best < 0 || cost < best) best = cost;
  }
  return best;
}

class UnateRandom : public ::testing::TestWithParam<int> {};

TEST_P(UnateRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 5);
  const std::size_t cols = 4 + rng.next_below(8);
  const std::size_t rows = 2 + rng.next_below(10);
  UnateCoverProblem p;
  p.num_columns = cols;
  for (std::size_t r = 0; r < rows; ++r) {
    Bitset row(cols);
    for (std::size_t c = 0; c < cols; ++c)
      if (rng.next_bool(0.3)) row.set(c);
    if (row.empty()) row.set(rng.next_below(cols));
    p.rows.push_back(std::move(row));
  }
  if (GetParam() % 3 == 0) {
    p.weights.resize(cols);
    for (auto& w : p.weights) w = 1 + static_cast<int>(rng.next_below(4));
  }
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  ASSERT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, brute_force_unate(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnateRandom, ::testing::Range(0, 30));

// --- Reference engine --------------------------------------------------------
//
// The branch-and-bound that recomputed every uncovered row's available
// columns from `excluded`/`covered` masks at every node, copied verbatim
// (do not modernise it), with the same root column reduction, greedy seed
// and component split around it. solve_unate_cover must explore the same
// tree node for node, so it has to match this engine on nodes, cost,
// columns, optimality and truncation — for full searches and for searches
// cut mid-tree by a small node limit.
namespace reference {

int column_weight(const UnateCoverProblem& p, std::size_t c) {
  return p.weights.empty() ? 1 : p.weights[c];
}

// Search state shared across the branch-and-bound recursion. Rows are
// immutable; a node is characterized by the set of excluded columns and the
// set of still-uncovered rows.
//
// All working sets live in two TermArenas (util/term_arena.h): `col_sets`
// holds column sets (the immutable row→columns table, the exclusion set and
// the per-node available-column sets), `row_sets` holds row sets (the
// covered-rows mask). Each solve() frame owns the refs it receives and the
// per-node scratch it allocates; TermGuard returns them to the free list on
// every exit path, so the recursion performs no per-node heap allocation
// for set data — the arena high-water mark is O(depth · active rows).
struct Search {
  const UnateCoverProblem& p;
  const UnateCoverOptions& opts;
  ExecContext ctx;
  TermArena col_sets;
  TermArena row_sets;
  std::vector<TermRef> row_cols;  // row -> its column set (immutable)
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Truncation truncation = Truncation::kNone;
  int best_cost = std::numeric_limits<int>::max();
  std::vector<std::size_t> best_columns;

  Search(const UnateCoverProblem& problem, const UnateCoverOptions& options,
         const ExecContext& context)
      : p(problem),
        opts(options),
        ctx(context),
        col_sets(problem.num_columns, problem.rows.size() + 64),
        row_sets(problem.rows.size(), 64) {
    row_cols.reserve(p.rows.size());
    for (const Bitset& r : p.rows) row_cols.push_back(col_sets.from_bitset(r));
  }

  void record(const std::vector<std::size_t>& selected, int cost) {
    if (cost < best_cost) {
      best_cost = cost;
      best_columns = selected;
    }
  }

  // Greedy maximal-independent-set lower bound: a set of pairwise
  // column-disjoint uncovered rows; any cover pays at least the cheapest
  // column of each row in the set. `acount` caches the avail popcounts.
  int lower_bound(const std::vector<TermRef>& avail,
                  const std::vector<std::uint32_t>& acount,
                  std::vector<std::size_t>& order, TermRef used) {
    // Consider short rows first: they are more likely to be independent and
    // carry tighter bounds.
    order.resize(avail.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return acount[a] < acount[b];
    });
    int bound = 0;
    for (std::size_t i : order) {
      if (col_sets.intersects(avail[i], used)) continue;
      col_sets.or_into(used, avail[i]);
      int cheapest = std::numeric_limits<int>::max();
      col_sets.for_each(avail[i], [&](std::size_t c) {
        cheapest = std::min(cheapest, column_weight(p, c));
      });
      bound += cheapest;
    }
    return bound;
  }

  // Takes ownership of `excluded` (col_sets) and `covered` (row_sets).
  void solve(TermRef excluded, TermRef covered,
             std::vector<std::size_t> selected, int cost) {
    TermGuard cguard(col_sets);
    TermGuard rguard(row_sets);
    cguard.track(excluded);
    rguard.track(covered);
    if (budget_exhausted) return;
    if (++nodes > opts.max_nodes) {
      budget_exhausted = true;
      truncation = Truncation::kNodeLimit;
      return;
    }
    // Shared-budget checks: a cheap exhaustion flag every node (catches a
    // limit tripped by a sibling component's thread), a clock poll every
    // 1024 nodes. Either way the greedy/best-so-far cover stays valid.
    if (ctx.exhausted() || ((nodes & 1023u) == 0 && !ctx.poll())) {
      budget_exhausted = true;
      truncation = ctx.reason();
      return;
    }

    // --- Reductions to fixpoint -----------------------------------------
    const TermRef tmp = cguard.track(col_sets.alloc());
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t r = 0; r < p.rows.size(); ++r) {
        if (row_sets.test(covered, r)) continue;
        col_sets.andnot_of(tmp, row_cols[r], excluded);
        const std::size_t n = col_sets.count(tmp);
        if (n == 0) return;  // row uncoverable: dead branch
        if (n == 1) {
          // Essential column.
          const std::size_t c = col_sets.first(tmp);
          selected.push_back(c);
          cost += column_weight(p, c);
          if (cost >= best_cost) return;
          for (std::size_t q = 0; q < p.rows.size(); ++q)
            if (!row_sets.test(covered, q) && p.rows[q].test(c))
              row_sets.set(covered, q);
          changed = true;
        }
      }
    }

    // Collect active rows and their available column sets.
    std::vector<std::size_t> active;
    std::vector<TermRef> avail;
    std::vector<std::uint32_t> acount;
    for (std::size_t r = 0; r < p.rows.size(); ++r) {
      if (!row_sets.test(covered, r)) {
        const TermRef a = cguard.track(col_sets.alloc());
        col_sets.andnot_of(a, row_cols[r], excluded);
        active.push_back(r);
        avail.push_back(a);
        acount.push_back(static_cast<std::uint32_t>(col_sets.count(a)));
      }
    }
    if (active.empty()) {
      record(selected, cost);
      return;
    }

    // Row dominance: if avail[i] ⊆ avail[j], covering row i covers row j,
    // so row j can be dropped. Quadratic — only worth it on smallish sets.
    if (active.size() <= 512) {
      std::vector<bool> drop(active.size(), false);
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (drop[i]) continue;
        for (std::size_t j = 0; j < active.size(); ++j) {
          if (i == j || drop[j]) continue;
          if (acount[i] > acount[j]) continue;
          if (col_sets.is_subset(avail[i], avail[j]) &&
              !(acount[i] == acount[j] &&
                col_sets.equal(avail[i], avail[j]) && i > j))
            drop[j] = true;
        }
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < active.size(); ++i)
        if (!drop[i]) {
          active[kept] = active[i];
          avail[kept] = avail[i];
          acount[kept] = acount[i];
          ++kept;
        }
      active.resize(kept);
      avail.resize(kept);
      acount.resize(kept);
    }

    {
      const TermRef used = cguard.track(col_sets.alloc());
      std::vector<std::size_t> order;
      if (cost + lower_bound(avail, acount, order, used) >= best_cost)
        return;
    }

    // Branch on the most-covering column of the shortest row.
    std::size_t pivot_row = 0;
    for (std::size_t i = 1; i < avail.size(); ++i)
      if (acount[i] < acount[pivot_row]) pivot_row = i;

    std::size_t branch_col = p.num_columns;
    std::size_t best_score = 0;
    col_sets.for_each(avail[pivot_row], [&](std::size_t c) {
      std::size_t score = 0;
      for (std::size_t i = 0; i < avail.size(); ++i)
        if (col_sets.test(avail[i], c)) ++score;
      if (branch_col == p.num_columns || score > best_score ||
          (score == best_score && c < branch_col)) {
        best_score = score;
        branch_col = c;
      }
    });
    assert(branch_col < p.num_columns);

    // Branch 1: select the column.
    {
      const TermRef cov = row_sets.clone(covered);
      for (std::size_t q = 0; q < p.rows.size(); ++q)
        if (!row_sets.test(cov, q) && p.rows[q].test(branch_col))
          row_sets.set(cov, q);
      auto sel = selected;
      sel.push_back(branch_col);
      solve(col_sets.clone(excluded), cov, std::move(sel),
            cost + column_weight(p, branch_col));
    }
    // Branch 2: exclude the column.
    {
      const TermRef exc = col_sets.clone(excluded);
      col_sets.set(exc, branch_col);
      solve(exc, row_sets.clone(covered), std::move(selected), cost);
    }
  }
};

// Root-level column reduction: a column is dominated when another column
// covers a superset of its rows at no greater weight; dominated columns can
// never be needed in an optimal cover. This typically collapses thousands
// of prime-dichotomy columns to a few hundred distinct useful ones.
struct ReducedProblem {
  UnateCoverProblem problem;
  std::vector<std::size_t> column_map;  // reduced column -> original column
};

ReducedProblem reduce_columns(const UnateCoverProblem& p) {
  const std::size_t rows = p.rows.size();
  // Coverage set per column.
  std::vector<Bitset> coverage(p.num_columns, Bitset(rows));
  for (std::size_t r = 0; r < rows; ++r)
    p.rows[r].for_each([&](std::size_t c) { coverage[c].set(r); });

  auto weight = [&](std::size_t c) { return column_weight(p, c); };

  // Sort candidates by (coverage size desc, weight asc) so a dominating
  // column precedes the columns it dominates; then a forward keep-scan.
  std::vector<std::size_t> order;
  order.reserve(p.num_columns);
  for (std::size_t c = 0; c < p.num_columns; ++c)
    if (coverage[c].any()) order.push_back(c);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t ca = coverage[a].count(), cb = coverage[b].count();
    if (ca != cb) return ca > cb;
    if (weight(a) != weight(b)) return weight(a) < weight(b);
    return a < b;
  });
  std::vector<std::size_t> kept;
  for (std::size_t c : order) {
    bool dominated = false;
    for (std::size_t k : kept) {
      if (weight(k) <= weight(c) && coverage[c].is_subset_of(coverage[k])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(c);
  }

  ReducedProblem out;
  out.column_map = kept;
  out.problem.num_columns = kept.size();
  if (!p.weights.empty()) {
    out.problem.weights.reserve(kept.size());
    for (std::size_t c : kept) out.problem.weights.push_back(p.weights[c]);
  }
  out.problem.rows.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    Bitset row(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i)
      if (p.rows[r].test(kept[i])) row.set(i);
    out.problem.rows.push_back(std::move(row));
  }
  return out;
}


UnateCoverSolution solve_reduced(const UnateCoverProblem& q,
                                 const UnateCoverOptions& options) {
  UnateCoverSolution greedy = greedy_unate_cover(q);
  if (!greedy.feasible) return greedy;
  UnateCoverSolution sol;
  sol.feasible = true;
  sol.cost = greedy.cost;
  sol.columns = greedy.columns;
  if (options.max_nodes > 0) {
    Search search(q, options, ExecContext{});
    search.best_cost = greedy.cost;
    search.best_columns = greedy.columns;
    search.solve(search.col_sets.alloc(), search.row_sets.alloc(), {}, 0);
    sol.optimal = !search.budget_exhausted;
    sol.truncation = search.truncation;
    sol.columns = search.best_columns;
    sol.cost = search.best_cost;
    sol.nodes_explored = search.nodes;
  } else {
    sol.truncation = Truncation::kNodeLimit;
  }
  return sol;
}

// Union-find with path halving over the reduced columns.
std::size_t dsu_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

// solve_unate_cover's driver, run sequentially (components are independent,
// so the merged result does not depend on scheduling).
UnateCoverSolution solve(const UnateCoverProblem& p,
                         const UnateCoverOptions& options) {
  for (const Bitset& r : p.rows)
    if (r.empty()) return UnateCoverSolution{};
  const ReducedProblem reduced = reduce_columns(p);
  const UnateCoverProblem& q = reduced.problem;
  std::vector<std::size_t> parent(q.num_columns);
  std::iota(parent.begin(), parent.end(), 0);
  for (const Bitset& row : q.rows) {
    const std::size_t first = dsu_find(parent, row.first());
    row.for_each([&](std::size_t c) { parent[dsu_find(parent, c)] = first; });
  }
  std::vector<std::size_t> comp_of_col(q.num_columns);
  std::vector<std::size_t> roots;
  for (std::size_t c = 0; c < q.num_columns; ++c) {
    const std::size_t r = dsu_find(parent, c);
    auto it = std::find(roots.begin(), roots.end(), r);
    if (it == roots.end()) {
      roots.push_back(r);
      it = roots.end() - 1;
    }
    comp_of_col[c] = static_cast<std::size_t>(it - roots.begin());
  }
  UnateCoverSolution sol;
  if (roots.size() <= 1) {
    sol = solve_reduced(q, options);
  } else {
    std::vector<UnateCoverProblem> subs(roots.size());
    std::vector<std::vector<std::size_t>> col_maps(roots.size());
    std::vector<std::size_t> local_of_col(q.num_columns);
    for (std::size_t c = 0; c < q.num_columns; ++c) {
      auto& map = col_maps[comp_of_col[c]];
      local_of_col[c] = map.size();
      map.push_back(c);
    }
    for (std::size_t k = 0; k < roots.size(); ++k) {
      subs[k].num_columns = col_maps[k].size();
      for (std::size_t c : col_maps[k])
        if (!q.weights.empty()) subs[k].weights.push_back(q.weights[c]);
    }
    for (const Bitset& row : q.rows) {
      const std::size_t k = comp_of_col[row.first()];
      Bitset local(subs[k].num_columns);
      row.for_each([&](std::size_t c) { local.set(local_of_col[c]); });
      subs[k].rows.push_back(std::move(local));
    }
    sol.feasible = true;
    sol.optimal = true;
    for (std::size_t k = 0; k < roots.size(); ++k) {
      const UnateCoverSolution r = solve_reduced(subs[k], options);
      if (!r.feasible) return UnateCoverSolution{};
      sol.cost += r.cost;
      sol.nodes_explored += r.nodes_explored;
      sol.optimal = sol.optimal && r.optimal;
      if (sol.truncation == Truncation::kNone) sol.truncation = r.truncation;
      for (std::size_t c : r.columns) sol.columns.push_back(col_maps[k][c]);
    }
  }
  for (auto& c : sol.columns) c = reduced.column_map[c];
  std::sort(sol.columns.begin(), sol.columns.end());
  sol.truncated = sol.truncation != Truncation::kNone;
  return sol;
}

}  // namespace reference

// Random table for the differential test: each row draws its columns with
// a per-row density, so some rows are nearly essential and others wide.
UnateCoverProblem random_unate(Rng& rng, std::size_t rows, std::size_t cols,
                               bool weighted) {
  UnateCoverProblem p;
  p.num_columns = cols;
  if (weighted) {
    p.weights.resize(cols);
    for (auto& w : p.weights) w = static_cast<int>(rng.next_below(6));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    Bitset row(cols);
    const std::size_t width = 1 + rng.next_below(2 + cols / 12);
    for (std::size_t k = 0; k < width; ++k) row.set(rng.next_below(cols));
    p.rows.push_back(std::move(row));
  }
  return p;
}

TEST(UnateCover, MatchesReferenceSearch) {
  // Same tree node for node: node counts, costs, columns, optimality and
  // truncation agree with the reference engine on full searches and on
  // searches cut mid-tree by small node limits.
  const std::uint64_t limits[] = {1, 7, 50, 500};
  Rng rng(20261017);
  int truncated = 0;
  for (int i = 0; i < 320; ++i) {
    const std::size_t rows = 20 + rng.next_below(101);
    const std::size_t cols = 30 + rng.next_below(371);
    const UnateCoverProblem p = random_unate(rng, rows, cols, i % 2 == 1);
    UnateCoverOptions opts;
    // Every 20th instance runs to 5000 nodes: enough to reach deep
    // subtrees while keeping the reference engine's share near a second.
    opts.max_nodes = i % 20 == 19 ? 5000 : limits[i % 4];
    SCOPED_TRACE("instance " + std::to_string(i) + ": " +
                 std::to_string(rows) + "x" + std::to_string(cols) +
                 ", max_nodes " + std::to_string(opts.max_nodes));
    const UnateCoverSolution want = reference::solve(p, opts);
    const UnateCoverSolution got = solve_unate_cover(p, opts);
    ASSERT_TRUE(want.feasible);
    ASSERT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.nodes_explored, want.nodes_explored);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.columns, want.columns);
    EXPECT_EQ(got.optimal, want.optimal);
    EXPECT_EQ(got.truncation, want.truncation);
    EXPECT_EQ(got.truncated, want.truncated);
    if (want.truncated) ++truncated;
  }
  // The limits must actually cut searches short, or the mid-tree states
  // go untested.
  EXPECT_GE(truncated, 100);
}

TEST(UnateCover, NodeBudgetTruncation) {
  Rng rng(7);
  const UnateCoverProblem p = random_unate(rng, 80, 200, false);
  UnateCoverOptions tiny;
  tiny.max_nodes = 10;
  const auto sol = solve_unate_cover(p, tiny);
  ASSERT_TRUE(sol.feasible);  // the greedy seed is always a valid cover
  EXPECT_FALSE(sol.optimal);
  EXPECT_TRUE(sol.truncated);
  EXPECT_EQ(sol.truncation, Truncation::kNodeLimit);
  EXPECT_GT(sol.nodes_explored, tiny.max_nodes);
  // Never worse than the greedy seed the search starts from, which is what
  // a node budget of 0 returns.
  UnateCoverOptions greedy_only;
  greedy_only.max_nodes = 0;
  EXPECT_LE(sol.cost, solve_unate_cover(p, greedy_only).cost);
  for (const Bitset& row : p.rows) {
    bool covered = false;
    for (std::size_t c : sol.columns) covered = covered || row.test(c);
    EXPECT_TRUE(covered);
  }
}

TEST(UnateCover, ComponentsBitIdenticalAcrossThreadCounts) {
  // Four independent random blocks: each component runs single-threaded
  // with a private node budget, so every counter is a function of the
  // instance, whatever the thread count.
  Rng rng(97);
  UnateCoverProblem p;
  const std::size_t blocks = 4, block_cols = 24;
  p.num_columns = blocks * block_cols;
  p.weights.resize(p.num_columns);
  for (auto& w : p.weights) w = 1 + static_cast<int>(rng.next_below(3));
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t r = 0; r < 2 * block_cols; ++r) {
      Bitset row(p.num_columns);
      for (int k = 0; k < 3; ++k)
        row.set(b * block_cols + rng.next_below(block_cols));
      p.rows.push_back(std::move(row));
    }
  for (const std::uint64_t max_nodes : {std::uint64_t{2'000'000},
                                        std::uint64_t{5}}) {
    UnateCoverOptions opts;
    opts.max_nodes = max_nodes;
    const auto a = solve_unate_cover(p, opts);
    ASSERT_TRUE(a.feasible);
    EXPECT_EQ(a.components, blocks);
    EXPECT_EQ(a.optimal, max_nodes > 5);
    for (const int threads : {2, 4}) {
      ExecContext ctx;
      ctx.num_threads = threads;
      const auto b = solve_unate_cover(p, opts, ctx);
      SCOPED_TRACE("threads " + std::to_string(threads) + ", max_nodes " +
                   std::to_string(max_nodes));
      EXPECT_EQ(a.columns, b.columns);
      EXPECT_EQ(a.cost, b.cost);
      EXPECT_EQ(a.optimal, b.optimal);
      EXPECT_EQ(a.truncation, b.truncation);
      EXPECT_EQ(a.components, b.components);
      EXPECT_EQ(a.nodes_explored, b.nodes_explored);
      EXPECT_EQ(a.arena_allocs, b.arena_allocs);
      EXPECT_EQ(a.arena_reuses, b.arena_reuses);
      EXPECT_EQ(a.peak_arena_bytes, b.peak_arena_bytes);
    }
  }
}

TEST(UnateCover, SolveValidatesWeightSize) {
  auto p = make_unate(3, {{0, 1}});
  p.weights = {1, 2};  // shorter than num_columns
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3, 4};  // longer
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3};
  EXPECT_TRUE(solve_unate_cover(p).feasible);
  EXPECT_TRUE(greedy_unate_cover(p).feasible);
}

TEST(UnateCover, SolveValidatesRowUniverse) {
  auto p = make_unate(3, {{0, 1}});
  p.rows.push_back(Bitset(5));  // larger universe than num_columns
  p.rows.back().set(4);
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
  p.rows.back() = Bitset(2);  // smaller
  p.rows.back().set(1);
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
}

TEST(UnateCover, RejectsNegativeWeights) {
  // Bound pruning assumes a partial cover never gets cheaper as columns
  // are added.
  auto p = make_unate(3, {{0, 1}, {2}});
  p.weights = {1, -1, 1};
  EXPECT_THROW(solve_unate_cover(p), std::invalid_argument);
  EXPECT_THROW(greedy_unate_cover(p), std::invalid_argument);
  p.weights = {1, 0, 1};  // zero is a legal weight
  const auto sol = solve_unate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 1);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1, 2}));
}

TEST(BinateCover, PurePositiveMatchesUnate) {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 1);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1}));
}

TEST(BinateCover, NegativeLiteralSatisfiedByDeselection) {
  BinateCoverProblem p;
  p.num_columns = 2;
  p.add_row({}, {0});  // forbid column 0
  p.add_row({0, 1}, {});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.columns, (std::vector<std::size_t>{1}));
}

TEST(BinateCover, ConflictIsInfeasible) {
  BinateCoverProblem p;
  p.num_columns = 1;
  p.add_row({0}, {});
  p.add_row({}, {0});
  EXPECT_FALSE(solve_binate_cover(p).feasible);
}

TEST(BinateCover, ImplicationChainPropagates) {
  // Select 0 -> must select 1 -> must select 2; row forces 0.
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0}, {});
  p.add_row({1}, {0});
  p.add_row({2}, {1});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.cost, 3);
}

int brute_force_binate(const BinateCoverProblem& p) {
  int best = -1;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << p.num_columns);
       ++mask) {
    bool ok = true;
    for (const auto& row : p.rows) {
      bool sat = false;
      row.pos.for_each([&](std::size_t c) {
        if ((mask >> c) & 1u) sat = true;
      });
      row.neg.for_each([&](std::size_t c) {
        if (!((mask >> c) & 1u)) sat = true;
      });
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    int cost = 0;
    for (std::size_t c = 0; c < p.num_columns; ++c)
      if ((mask >> c) & 1u)
        cost += p.weights.empty() ? 1 : p.weights[c];
    if (best < 0 || cost < best) best = cost;
  }
  return best;
}

class BinateRandom : public ::testing::TestWithParam<int> {};

TEST_P(BinateRandom, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  const std::size_t cols = 3 + rng.next_below(8);
  const std::size_t rows = 2 + rng.next_below(12);
  BinateCoverProblem p;
  p.num_columns = cols;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> pos, neg;
    for (std::size_t c = 0; c < cols; ++c) {
      const double x = rng.next_double();
      if (x < 0.2) pos.push_back(c);
      else if (x < 0.3) neg.push_back(c);
    }
    if (pos.empty() && neg.empty()) pos.push_back(rng.next_below(cols));
    p.add_row(pos, neg);
  }
  const int expected = brute_force_binate(p);
  const auto sol = solve_binate_cover(p);
  if (expected < 0) {
    EXPECT_FALSE(sol.feasible);
  } else {
    ASSERT_TRUE(sol.feasible);
    ASSERT_TRUE(sol.optimal);
    EXPECT_EQ(sol.cost, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinateRandom, ::testing::Range(0, 30));

// A triangle of pure-positive rows: no unit rows, no row or column
// dominance, so the solver must actually branch. Minimum cover is any two
// columns (cost 2).
BinateCoverProblem binate_triangle() {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  p.add_row({0, 2}, {});
  return p;
}

TEST(BinateCover, NodeBudgetTruncationIsNotInfeasibility) {
  const BinateCoverProblem p = binate_triangle();
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto sol = solve_binate_cover(p, tiny);
  EXPECT_FALSE(sol.feasible);
  EXPECT_TRUE(sol.truncated);
  EXPECT_EQ(sol.truncation, Truncation::kNodeLimit);
  EXPECT_FALSE(sol.proven_infeasible());
  EXPECT_EQ(sol.cost, -1);

  // The same instance solves — and proves optimality — with budget.
  const auto full = solve_binate_cover(p);
  ASSERT_TRUE(full.feasible);
  EXPECT_TRUE(full.optimal);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.truncation, Truncation::kNone);
  EXPECT_EQ(full.cost, 2);
}

TEST(BinateCover, ProvenInfeasibilityIsNotTruncation) {
  BinateCoverProblem p;
  p.num_columns = 2;
  p.add_row({}, {});  // empty clause: unsatisfiable by any selection
  p.add_row({0, 1}, {});
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;  // infeasibility must still be proven at the root
  const auto sol = solve_binate_cover(p, tiny);
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(sol.truncated);
  EXPECT_EQ(sol.truncation, Truncation::kNone);
  EXPECT_TRUE(sol.proven_infeasible());
  EXPECT_EQ(sol.cost, -1);
}

TEST(BinateCover, AddRowValidatesColumnIndices) {
  BinateCoverProblem p;
  p.num_columns = 2;
  EXPECT_THROW(p.add_row({2}, {}), std::invalid_argument);
  EXPECT_THROW(p.add_row({}, {5}), std::invalid_argument);
  EXPECT_TRUE(p.rows.empty());  // failed adds leave no partial row behind
  p.add_row({0}, {1});
  EXPECT_EQ(p.rows.size(), 1u);
}

TEST(BinateCover, SolveValidatesWeightSize) {
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0, 1}, {});
  p.weights = {1, 2};  // shorter than num_columns
  EXPECT_THROW(solve_binate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3, 4};  // longer
  EXPECT_THROW(solve_binate_cover(p), std::invalid_argument);
  p.weights = {1, 2, 3};
  EXPECT_TRUE(solve_binate_cover(p).feasible);
}

TEST(BinateCover, ComponentsBitIdenticalAcrossThreadCounts) {
  // Two disjoint triangles plus an implication pair: three independent
  // components (the pair solves at cost 0 by deselecting both columns).
  BinateCoverProblem p;
  p.num_columns = 8;
  p.add_row({0, 1}, {});
  p.add_row({1, 2}, {});
  p.add_row({0, 2}, {});
  p.add_row({3, 4}, {});
  p.add_row({4, 5}, {});
  p.add_row({3, 5}, {});
  p.add_row({6}, {7});
  p.add_row({7}, {6});
  ExecContext seq;
  ExecContext par;
  par.num_threads = 4;
  const auto a = solve_binate_cover(p, {}, seq);
  const auto b = solve_binate_cover(p, {}, par);
  ASSERT_TRUE(a.feasible);
  EXPECT_TRUE(a.optimal);
  EXPECT_EQ(a.components, 3u);
  EXPECT_EQ(a.cost, 4);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.prune_hits, b.prune_hits);
  EXPECT_EQ(a.truncation, b.truncation);

  // Node-budget truncation points are per-component and deterministic, so
  // truncated runs stay bit-identical too.
  BinateCoverOptions tiny;
  tiny.max_nodes = 1;
  const auto ta = solve_binate_cover(p, tiny, seq);
  const auto tb = solve_binate_cover(p, tiny, par);
  EXPECT_FALSE(ta.feasible);
  EXPECT_TRUE(ta.truncated);
  EXPECT_EQ(ta.truncation, Truncation::kNodeLimit);
  EXPECT_EQ(ta.nodes_explored, tb.nodes_explored);
  EXPECT_EQ(ta.truncation, tb.truncation);
  EXPECT_EQ(ta.feasible, tb.feasible);
}

TEST(BinateCover, CancellationSurfacesAsTruncation) {
  Budget budget;
  CancelToken token;
  token.cancel();
  budget.set_cancel_token(&token);
  ExecContext ctx;
  ctx.budget = &budget;
  const auto sol = solve_binate_cover(binate_triangle(), {}, ctx);
  EXPECT_FALSE(sol.feasible);
  EXPECT_TRUE(sol.truncated);
  EXPECT_EQ(sol.truncation, Truncation::kCancelled);
  EXPECT_FALSE(sol.proven_infeasible());
}

TEST(BinateCover, RootReductionSolvesWithoutSearch) {
  // Forced chain: every assignment is unit-propagated at the root, so no
  // search nodes are spent and the result is optimal by construction.
  BinateCoverProblem p;
  p.num_columns = 3;
  p.add_row({0}, {});
  p.add_row({1}, {0});
  p.add_row({2}, {1});
  const auto sol = solve_binate_cover(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(sol.optimal);
  EXPECT_EQ(sol.cost, 3);
  EXPECT_EQ(sol.nodes_explored, 0u);
  EXPECT_GE(sol.propagations, 3u);
}

}  // namespace
}  // namespace encodesat
