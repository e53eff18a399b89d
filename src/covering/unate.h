// Exact and heuristic unate covering.
//
// The final step of the paper's exact encoder (Fig. 7) selects a minimum
// set of prime encoding-dichotomies covering every initial
// encoding-dichotomy — a classical unate covering problem. The solver uses
// the standard reductions (essential columns, row dominance, column
// dominance) plus a maximal-independent-set lower bound inside
// branch-and-bound, with a node budget so callers can fall back to the
// greedy solution on pathological instances.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/exec.h"

namespace encodesat {

struct UnateCoverProblem {
  /// Number of selectable columns.
  std::size_t num_columns = 0;
  /// Per-column weights; empty means unit weights.
  std::vector<int> weights;
  /// rows[i] = the set of columns that cover row i (universe num_columns).
  std::vector<Bitset> rows;
};

struct UnateCoverOptions {
  /// Branch-and-bound node budget; 0 means greedy only.
  std::uint64_t max_nodes = 2'000'000;
};

struct UnateCoverSolution {
  bool feasible = false;
  /// True when branch-and-bound proved optimality within the node budget.
  bool optimal = false;
  std::vector<std::size_t> columns;
  int cost = 0;
  std::uint64_t nodes_explored = 0;
  /// Columns surviving the root coverage-dominance reduction (the search
  /// ran over these; see the ablation bench).
  std::size_t columns_after_reduction = 0;
  /// Independent connected components the root decomposed the search into.
  std::size_t components = 1;
  /// Search-arena traffic, summed over components: fresh slot creations
  /// and free-list reuses for the available-column sets the search clones
  /// when it excludes a column (the immutable row table is not counted).
  /// Deterministic across thread counts — each component runs
  /// single-threaded with a private budget.
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_reuses = 0;
  /// Largest single-component clone footprint in bytes.
  std::size_t peak_arena_bytes = 0;
  /// Uniform truncation shape (see docs/API.md): `truncated` always mirrors
  /// `truncation != Truncation::kNone`.
  bool truncated = false;
  /// Why optimality was not proved (kNone when `optimal`): kNodeLimit for
  /// the node budget, kDeadline/kWorkBudget/kCancelled for a shared Budget.
  Truncation truncation = Truncation::kNone;
};

/// Solves min-cost column selection such that every row contains a selected
/// column. Infeasible iff some row is empty. After the root reduction the
/// problem splits into its connected components (rows sharing no columns),
/// each searched independently with its own `max_nodes` budget — and, when
/// `ctx.num_threads` > 1, concurrently. The selected columns are identical
/// for every thread count; `ctx.budget` (deadline/cancellation, polled
/// every 1024 nodes) only affects whether optimality is proved. Throws
/// std::invalid_argument when `weights` is neither empty nor one per
/// column, a weight is negative, or a row's universe is not `num_columns`.
UnateCoverSolution solve_unate_cover(const UnateCoverProblem& problem,
                                     const UnateCoverOptions& options = {},
                                     const ExecContext& ctx = {});

/// Greedy (largest cover-count / weight first) — used as the upper bound
/// seed and as the standalone heuristic solver. Validates its input like
/// solve_unate_cover.
UnateCoverSolution greedy_unate_cover(const UnateCoverProblem& problem);

}  // namespace encodesat
