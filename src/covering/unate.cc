#include "covering/unate.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

int column_weight(const UnateCoverProblem& p, std::size_t c) {
  return p.weights.empty() ? 1 : p.weights[c];
}

// Rejects a malformed problem before anything indexes it: the weights must
// match the columns and be non-negative (bound pruning and the single
// essentials check assume a partial cover never gets cheaper as columns are
// added), and every row must be a set over exactly the columns.
void validate_problem(const UnateCoverProblem& p, const char* who) {
  if (!p.weights.empty() && p.weights.size() != p.num_columns)
    throw std::invalid_argument(
        std::string(who) + ": weights has " + std::to_string(p.weights.size()) +
        " entries for " + std::to_string(p.num_columns) + " columns");
  for (std::size_t c = 0; c < p.weights.size(); ++c)
    if (p.weights[c] < 0)
      throw std::invalid_argument(std::string(who) + ": column " +
                                  std::to_string(c) + " has negative weight " +
                                  std::to_string(p.weights[c]));
  for (const Bitset& r : p.rows)
    if (r.size() != p.num_columns)
      throw std::invalid_argument(std::string(who) +
                                  ": row universe does not match num_columns");
}

// Search state shared across the branch-and-bound recursion. A node is the
// list of its uncovered rows, in row order, each with the set of columns
// still available to cover it and that set's size. The sets live in one
// TermArena (util/term_arena.h) and are never mutated once built, so a
// child shares its parent's set for every row its branch leaves unchanged:
// selecting column c only drops the rows whose set holds c, and excluding
// c clones (and clears c in) just those rows. A node therefore costs in
// proportion to what its branch changed, not to the size of the table. The
// root rows are the immutable table itself; the only arena traffic is the
// exclude branch's clones, released when that child returns. Scratch
// vectors are per depth (the row lists) or per search (the rest), so a
// node allocates nothing once the search has reached its depth.
struct Search {
  struct Row {
    TermRef avail;        // columns still available to cover the row
    std::uint32_t count;  // |avail|
  };
  struct Frame {
    std::vector<Row> rows;        // the node's uncovered rows (parent-built)
    std::vector<TermRef> clones;  // exclude-branch sets this node created
  };

  const UnateCoverProblem& p;
  const UnateCoverOptions& opts;
  ExecContext ctx;
  TermArena col_sets;
  std::deque<Frame> frames;  // by depth; a deque keeps references stable
  std::vector<std::size_t> selected;
  std::vector<char> is_essential;  // per column, clear between nodes
  std::vector<Row> kept;           // rows surviving row dominance
  std::vector<char> drop;
  std::vector<std::size_t> order;
  TermRef used = 0;  // lower-bound scratch
  // Arena footprint of the table and scratch, so the reported counters
  // measure the search's clones only.
  std::uint64_t table_allocs = 0;
  std::size_t table_bytes = 0;
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
        frames(1),
        is_essential(problem.num_columns, 0) {
    frames[0].rows.reserve(p.rows.size());
    for (const Bitset& r : p.rows)
      frames[0].rows.push_back({col_sets.from_bitset(r),
                                static_cast<std::uint32_t>(r.count())});
    used = col_sets.alloc();
    table_allocs = col_sets.total_allocs();
    table_bytes = col_sets.peak_bytes();
  }

  void record(int cost) {
    if (cost < best_cost) {
      best_cost = cost;
      best_columns = selected;
    }
  }

  // Greedy maximal-independent-set lower bound: a set of pairwise
  // column-disjoint uncovered rows; any cover pays at least the cheapest
  // column of each row in the set.
  int lower_bound(const std::vector<Row>& rows) {
    // Consider short rows first: they are more likely to be independent and
    // carry tighter bounds.
    order.resize(rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rows[a].count < rows[b].count;
    });
    std::fill_n(col_sets.data(used), col_sets.words(), 0);
    int bound = 0;
    for (std::size_t i : order) {
      if (col_sets.intersects(rows[i].avail, used)) continue;
      col_sets.or_into(used, rows[i].avail);
      int cheapest = std::numeric_limits<int>::max();
      col_sets.for_each(rows[i].avail, [&](std::size_t c) {
        cheapest = std::min(cheapest, column_weight(p, c));
      });
      bound += cheapest;
    }
    return bound;
  }

  // Essential columns: a row with one available column forces it.
  // Selecting one never shrinks another row's set, so taking them all at
  // once is the fixpoint of taking them one at a time, and with
  // non-negative weights a single cost check prunes exactly when any
  // intermediate one would. Appends them to `selected`, adds their weight
  // to `cost` and drops the rows they cover; false ends the branch.
  bool take_essentials(std::vector<Row>& rows, int& cost) {
    const std::size_t first = selected.size();
    bool dead = false;
    for (const Row& r : rows) {
      if (r.count == 0) dead = true;  // row uncoverable
      if (r.count != 1) continue;
      const std::size_t c = col_sets.first(r.avail);
      if (is_essential[c]) continue;
      is_essential[c] = 1;
      selected.push_back(c);
      cost += column_weight(p, c);
    }
    for (std::size_t i = first; i < selected.size(); ++i)
      is_essential[selected[i]] = 0;
    if (dead) return false;
    if (selected.size() == first) return true;
    if (cost >= best_cost) return false;
    std::erase_if(rows, [&](const Row& r) {
      for (std::size_t i = first; i < selected.size(); ++i)
        if (col_sets.test(r.avail, selected[i])) return true;
      return false;
    });
    return true;
  }

  // Row dominance into `kept`: if avail[i] ⊆ avail[j], covering row i
  // covers row j, so row j can be dropped (of two equal rows the later
  // one). Quadratic — only worth it on smallish sets. The dropped rows stay
  // uncovered for the children, so `rows` itself is left alone.
  void drop_dominated(const std::vector<Row>& rows) {
    kept = rows;
    if (kept.size() > 512) return;
    drop.assign(kept.size(), 0);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (drop[i]) continue;
      for (std::size_t j = 0; j < kept.size(); ++j) {
        if (i == j || drop[j]) continue;
        if (kept[i].count > kept[j].count) continue;
        if (col_sets.is_subset(kept[i].avail, kept[j].avail) &&
            !(kept[i].count == kept[j].count &&
              col_sets.equal(kept[i].avail, kept[j].avail) && i > j))
          drop[j] = 1;
      }
    }
    std::size_t n = 0;
    for (std::size_t i = 0; i < kept.size(); ++i)
      if (!drop[i]) kept[n++] = kept[i];
    kept.resize(n);
  }

  // The column to branch on: of the first shortest kept row's columns, the
  // one in the most kept rows (ties to the lowest column).
  std::size_t branch_column() const {
    std::size_t pivot_row = 0;
    for (std::size_t i = 1; i < kept.size(); ++i)
      if (kept[i].count < kept[pivot_row].count) pivot_row = i;
    std::size_t best = p.num_columns;
    std::size_t best_score = 0;
    col_sets.for_each(kept[pivot_row].avail, [&](std::size_t c) {
      std::size_t score = 0;
      for (const Row& r : kept)
        if (col_sets.test(r.avail, c)) ++score;
      if (best == p.num_columns || score > best_score) {
        best_score = score;
        best = c;
      }
    });
    assert(best < p.num_columns);
    return best;
  }

  // Searches the node whose uncovered rows are frames[depth].rows (the node
  // may rewrite that list: its parent rebuilds it before the next child).
  void solve(std::size_t depth, int cost) {
    const std::size_t mark = selected.size();
    expand(depth, cost);
    selected.resize(mark);
  }

  void expand(std::size_t depth, int cost) {
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
    Frame& frame = frames[depth];
    std::vector<Row>& rows = frame.rows;
    if (!take_essentials(rows, cost)) return;
    if (rows.empty()) {
      record(cost);
      return;
    }
    drop_dominated(rows);
    if (cost + lower_bound(kept) >= best_cost) return;
    const std::size_t branch_col = branch_column();

    if (frames.size() == depth + 1) frames.emplace_back();
    std::vector<Row>& child = frames[depth + 1].rows;

    // Branch 1: select the column; the rows it covers drop out.
    child.clear();
    for (const Row& r : rows)
      if (!col_sets.test(r.avail, branch_col)) child.push_back(r);
    selected.push_back(branch_col);
    solve(depth + 1, cost + column_weight(p, branch_col));
    selected.pop_back();

    // Branch 2: exclude the column from the rows that offered it.
    child.clear();
    for (const Row& r : rows) {
      if (!col_sets.test(r.avail, branch_col)) {
        child.push_back(r);
        continue;
      }
      const TermRef t = col_sets.clone(r.avail);
      col_sets.reset(t, branch_col);
      frame.clones.push_back(t);
      child.push_back({t, r.count - 1});
    }
    solve(depth + 1, cost);
    for (const TermRef t : frame.clones) col_sets.release(t);
    frame.clones.clear();
  }
};

}  // namespace

UnateCoverSolution greedy_unate_cover(const UnateCoverProblem& p) {
  validate_problem(p, "greedy_unate_cover");
  UnateCoverSolution sol;
  Bitset covered(p.rows.size());
  std::size_t remaining = p.rows.size();
  for (const Bitset& r : p.rows)
    if (r.empty()) return sol;  // infeasible

  while (remaining > 0) {
    // Pick the column covering the most uncovered rows per unit weight.
    std::vector<std::size_t> cover_count(p.num_columns, 0);
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      if (!covered.test(r))
        p.rows[r].for_each([&](std::size_t c) { ++cover_count[c]; });
    std::size_t best = p.num_columns;
    double best_ratio = -1.0;
    for (std::size_t c = 0; c < p.num_columns; ++c) {
      if (cover_count[c] == 0) continue;
      const double ratio =
          static_cast<double>(cover_count[c]) / column_weight(p, c);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = c;
      }
    }
    if (best == p.num_columns) return sol;  // cannot make progress
    sol.columns.push_back(best);
    sol.cost += column_weight(p, best);
    for (std::size_t r = 0; r < p.rows.size(); ++r)
      if (!covered.test(r) && p.rows[r].test(best)) {
        covered.set(r);
        --remaining;
      }
  }
  sol.feasible = true;
  std::sort(sol.columns.begin(), sol.columns.end());
  return sol;
}

namespace {

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

}  // namespace

namespace {

// Greedy seed + branch-and-bound over an already column-reduced problem;
// columns are returned in the reduced space. Runs single-threaded — the
// parallelism lives one level up, across independent components.
UnateCoverSolution solve_reduced(const UnateCoverProblem& q,
                                 const UnateCoverOptions& options,
                                 const ExecContext& ctx) {
  TRACE_SCOPE(ctx, "unate_component");
  UnateCoverSolution greedy = greedy_unate_cover(q);
  if (!greedy.feasible) return greedy;

  UnateCoverSolution sol;
  sol.feasible = true;
  sol.cost = greedy.cost;
  sol.columns = greedy.columns;
  sol.columns_after_reduction = q.num_columns;
  if (options.max_nodes > 0) {
    Search search(q, options, ctx);
    search.best_cost = greedy.cost;
    search.best_columns = greedy.columns;
    search.solve(0, 0);
    sol.optimal = !search.budget_exhausted;
    sol.truncation = search.truncation;
    sol.columns = search.best_columns;
    sol.cost = search.best_cost;
    sol.nodes_explored = search.nodes;
    sol.arena_allocs = search.col_sets.total_allocs() - search.table_allocs;
    sol.arena_reuses = search.col_sets.total_reuses();
    sol.peak_arena_bytes = search.col_sets.peak_bytes() - search.table_bytes;
  } else {
    // Greedy only, by configuration: no optimality proof was attempted.
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

}  // namespace

UnateCoverSolution solve_unate_cover(const UnateCoverProblem& p,
                                     const UnateCoverOptions& options,
                                     const ExecContext& ctx) {
  validate_problem(p, "solve_unate_cover");
  StageScope stage(ctx, "unate_cover");
  for (const Bitset& r : p.rows)
    if (r.empty()) return UnateCoverSolution{};  // infeasible

  ReducedProblem reduced;
  {
    TRACE_SCOPE(stage.ctx(), "reduce_columns");
    reduced = reduce_columns(p);
  }
  const UnateCoverProblem& q = reduced.problem;

  // Independent-subproblem fan-out: rows that share no columns (after
  // reduction) can be covered independently, and the union of the
  // per-component optima is a global optimum. Components are discovered by
  // union-find over the columns of each row.
  std::vector<std::size_t> parent(q.num_columns);
  std::iota(parent.begin(), parent.end(), 0);
  for (const Bitset& row : q.rows) {
    const std::size_t first = dsu_find(parent, row.first());
    row.for_each([&](std::size_t c) { parent[dsu_find(parent, c)] = first; });
  }
  // Number components in column order so the decomposition — and therefore
  // the merged solution — is independent of scheduling.
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
  const std::size_t num_components = roots.size();

  UnateCoverSolution sol;
  if (num_components <= 1) {
    sol = solve_reduced(
        q, options,
        ExecContext{ctx.budget, nullptr, 1, ctx.tracer, ctx.metrics});
  } else {
    // Build one subproblem per component (columns and rows renumbered).
    std::vector<UnateCoverProblem> subs(num_components);
    std::vector<std::vector<std::size_t>> col_maps(num_components);
    std::vector<std::size_t> local_of_col(q.num_columns);
    for (std::size_t c = 0; c < q.num_columns; ++c) {
      auto& map = col_maps[comp_of_col[c]];
      local_of_col[c] = map.size();
      map.push_back(c);
    }
    for (std::size_t k = 0; k < num_components; ++k) {
      subs[k].num_columns = col_maps[k].size();
      if (!q.weights.empty()) {
        subs[k].weights.reserve(col_maps[k].size());
        for (std::size_t c : col_maps[k])
          subs[k].weights.push_back(q.weights[c]);
      }
    }
    for (const Bitset& row : q.rows) {
      const std::size_t k = comp_of_col[row.first()];
      Bitset local(subs[k].num_columns);
      row.for_each([&](std::size_t c) { local.set(local_of_col[c]); });
      subs[k].rows.push_back(std::move(local));
    }

    // Each component gets the full node budget and a private result slot,
    // so the merged outcome is bit-identical for every thread count (only
    // wall-clock deadlines can break the tie, by design).
    std::vector<UnateCoverSolution> results(num_components);
    const ExecContext sub_ctx{ctx.budget, nullptr, 1, ctx.tracer,
                              ctx.metrics};
    parallel_for(num_components, ctx.num_threads, [&](std::size_t k) {
      results[k] = solve_reduced(subs[k], options, sub_ctx);
    });

    sol.feasible = true;
    sol.optimal = true;
    for (std::size_t k = 0; k < num_components; ++k) {
      const UnateCoverSolution& r = results[k];
      if (!r.feasible) return UnateCoverSolution{};
      sol.cost += r.cost;
      sol.nodes_explored += r.nodes_explored;
      sol.arena_allocs += r.arena_allocs;
      sol.arena_reuses += r.arena_reuses;
      sol.peak_arena_bytes = std::max(sol.peak_arena_bytes,
                                      r.peak_arena_bytes);
      sol.optimal = sol.optimal && r.optimal;
      if (sol.truncation == Truncation::kNone) sol.truncation = r.truncation;
      for (std::size_t c : r.columns) sol.columns.push_back(col_maps[k][c]);
    }
  }
  sol.columns_after_reduction = q.num_columns;
  sol.components = num_components == 0 ? 1 : num_components;

  for (auto& c : sol.columns) c = reduced.column_map[c];
  std::sort(sol.columns.begin(), sol.columns.end());
  sol.truncated = sol.truncation != Truncation::kNone;
  stage.add_items(sol.nodes_explored);
  stage.set_truncation(sol.truncation);
  // Per-component node/arena totals are deterministic (private budgets,
  // summed in component order), so they are fingerprint-safe.
  metric_add(ctx, "cover.nodes", sol.nodes_explored);
  metric_add(ctx, "cover.components", sol.components);
  metric_add(ctx, "cover.arena_allocs", sol.arena_allocs);
  metric_add(ctx, "cover.arena_reuses", sol.arena_reuses);
  metric_max(ctx, "cover.peak_arena_bytes", sol.peak_arena_bytes);
  return sol;
}

}  // namespace encodesat
