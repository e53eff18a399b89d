#include "core/primes.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/term_arena.h"
#include "util/thread_pool.h"

namespace encodesat {

namespace {

// The fold's input must be the adjacency of a simple undirected graph: a
// row over another universe would index past the peeling state, a self-loop
// (x + x) breaks the minimality tests of the fold, and an asymmetric pair
// names no sum at all.
void validate_two_cnf(const std::vector<Bitset>& incompat) {
  const std::size_t m = incompat.size();
  const std::string who = "two_cnf_to_minimal_sop: ";
  for (std::size_t i = 0; i < m; ++i)
    if (incompat[i].size() != m)
      throw std::invalid_argument(
          who + "row " + std::to_string(i) + " has universe " +
          std::to_string(incompat[i].size()) + ", expected " +
          std::to_string(m));
  for (std::size_t i = 0; i < m; ++i) {
    if (incompat[i].test(i))
      throw std::invalid_argument(who + "self-loop on variable " +
                                  std::to_string(i));
    incompat[i].for_each([&](std::size_t j) {
      if (!incompat[j].test(i))
        throw std::invalid_argument(who + "row " + std::to_string(i) +
                                    " holds " + std::to_string(j) +
                                    " but row " + std::to_string(j) +
                                    " does not hold " + std::to_string(i));
    });
  }
}

// True iff every v ∈ t ∩ border has an H-neighbour outside t ∪ N, i.e.
// keeps a private edge. `adj` holds H's rows of `words` words each.
bool every_vertex_has_witness(const std::uint64_t* t, const std::uint64_t* nbr,
                              const std::uint64_t* border,
                              const std::uint64_t* adj, std::size_t words) {
  for (std::size_t k = 0; k < words; ++k)
    for (std::uint64_t rest = t[k] & border[k]; rest != 0; rest &= rest - 1) {
      const std::uint64_t* row =
          adj + (k * 64 + static_cast<std::size_t>(std::countr_zero(rest))) *
                    words;
      std::size_t j = 0;
      while (j < words && (row[j] & ~(t[j] | nbr[j])) == 0) ++j;
      if (j == words) return false;
    }
  return true;
}

}  // namespace

std::vector<Bitset> two_cnf_to_minimal_sop(const std::vector<Bitset>& incompat,
                                           std::size_t max_terms,
                                           bool* truncated,
                                           std::uint64_t max_work,
                                           const ExecContext& ctx,
                                           Truncation* reason,
                                           SopFoldStats* fold_stats) {
  validate_two_cnf(incompat);
  const std::size_t m = incompat.size();
  if (truncated) *truncated = false;
  if (reason) *reason = Truncation::kNone;
  // Stage-local limits (terms, the local work option) are reported to the
  // caller but never tripped into the shared budget: a truncated stage must
  // not poison budget checks in unrelated later stages.
  auto truncate = [&](Truncation why) -> std::vector<Bitset> {
    if (truncated) *truncated = true;
    if (reason) *reason = why;
    return {};
  };

  // Peel variables one at a time (the cs recursion, iteratively): at each
  // step remove the remaining variable x of maximum residual degree
  // together with its incident sums, remembering (x, neighbours(x)).
  std::vector<Bitset> residual = incompat;
  std::vector<std::pair<std::size_t, Bitset>> splits;
  std::vector<std::size_t> degree(m, 0);
  for (std::size_t i = 0; i < m; ++i) degree[i] = residual[i].count();

  while (true) {
    std::size_t x = m;
    std::size_t best = 0;
    for (std::size_t i = 0; i < m; ++i)
      if (degree[i] > best) {
        best = degree[i];
        x = i;
      }
    if (x == m) break;  // no edges left
    splits.emplace_back(x, residual[x]);
    // Remove every sum containing x (the rows are symmetric, so each
    // neighbour loses exactly the sum (x + j)).
    residual[x].for_each([&](std::size_t j) {
      residual[j].reset(x);
      --degree[j];
    });
    residual[x] = Bitset(m);
    degree[x] = 0;
  }

  // Fold back: SOP := ps(x + Π N, SOP) from the innermost split outwards.
  // Before the fold of (x, N) the SOP is the set of minimal vertex covers
  // of H, the graph of the edges folded so far, and x is not a vertex of H
  // (its edges to later splits are exactly x–N). The fold adds the edges
  // x–N; each old term t offers t ∪ {x} and t ∪ N, and each offer is kept
  // or dropped by a test on t alone instead of by pairwise containment:
  //
  //  * t ∪ {x} is minimal iff N ⊄ t. If N ⊆ t, then t ∪ N = t absorbs it;
  //    otherwise x keeps a private edge into N \ t, and every v ∈ t keeps
  //    its private H-edge (x is not an H-neighbour).
  //  * t ∪ N is minimal iff every v ∈ t \ N still has an H-neighbour outside
  //    t ∪ N; each vertex of N has x as its private neighbour.
  //
  // The new SOP lists the kept t ∪ {x} in SOP order, then the kept t ∪ N of
  // the terms meeting N sorted by (count, signature, word-lex) of t \ N with
  // duplicates dropped, then those of the terms disjoint from N in SOP
  // order: the order the pairwise minimization used to produce.
  //
  // The working terms live in a flat TermArena (util/term_arena.h); the
  // Bitset vectors at this function's boundary are conversion shims only.
  const std::size_t words = (m + 63) / 64;
  TermArena arena(m, /*reserve_terms=*/256);
  // H's adjacency: one row of `words` words per variable.
  std::vector<std::uint64_t> adj(m * words, 0);
  std::vector<std::uint64_t> nbr(words), border(words), dead(words);
  struct Touched {
    std::uint32_t count;  // |t \ N|
    std::uint64_t sig;    // folded signature of t \ N
    TermRef ref;          // t ∪ N
  };
  std::vector<Touched> touched;
  std::vector<TermRef> sop, next, disjoint;
  sop.push_back(arena.alloc());  // cs of the empty expression: constant 1

  std::uint64_t work = 0;
  std::uint64_t witness_rejects = 0;
  auto fill_fold_stats = [&] {
    if (!fold_stats) return;
    fold_stats->peak_arena_bytes = arena.peak_bytes();
    fold_stats->arena_allocs = arena.total_allocs();
    fold_stats->arena_reuses = arena.total_reuses();
    fold_stats->witness_rejects = witness_rejects;
  };
  auto truncate_fold = [&](Truncation why) {
    fill_fold_stats();
    return truncate(why);
  };
  for (auto it = splits.rbegin(); it != splits.rend(); ++it) {
    TRACE_SCOPE(ctx, "sop_fold");
    const std::size_t x = it->first;
    const Bitset& n_set = it->second;
    // Work accounting (in bitset word operations): |SOP|^2 * 3/2 pairwise
    // subset checks of `words` words each, the bound of a pairwise
    // absorption pass. The fold itself is one pass over the SOP plus a
    // sort, but the charged units keep this scale: budgets, and with them
    // Table 1's truncation points, are set in these units.
    const std::uint64_t fold_work =
        (static_cast<std::uint64_t>(sop.size()) * sop.size() * 3 / 2) * words;
    work += fold_work;
    if (fold_stats) {
      fold_stats->work = work;
      ++fold_stats->folds;
    }
    if (work > max_work) return truncate_fold(Truncation::kWorkBudget);
    // The shared budget sees the same work units; its deadline and
    // cancellation flag are polled once per fold, bounding the latency of a
    // truncated return by one fold.
    if (!ctx.charge(fold_work)) return truncate_fold(ctx.reason());
    if (!ctx.poll()) return truncate_fold(ctx.reason());
    // Bail out before paying for the fold on a hopeless blow-up: a fold at
    // most halves the set, so 2x over budget cannot recover.
    if (sop.size() > max_terms) return truncate_fold(Truncation::kTermLimit);

    // Only a vertex v ∉ N with an H-neighbour in N (the border) can lose
    // its last private neighbour to t ∪ N: every v ∈ t has one outside t,
    // and for v off the border it is outside N too. A border vertex whose
    // whole H-neighbourhood lies in N (dead) fails every term holding it.
    std::copy_n(n_set.words(), words, nbr.begin());
    std::fill(border.begin(), border.end(), 0);
    std::fill(dead.begin(), dead.end(), 0);
    n_set.for_each([&](std::size_t u) {
      const std::uint64_t* row = &adj[u * words];
      for (std::size_t k = 0; k < words; ++k) border[k] |= row[k];
    });
    for (std::size_t k = 0; k < words; ++k) {
      border[k] &= ~nbr[k];
      for (std::uint64_t b = border[k]; b != 0; b &= b - 1) {
        const std::uint64_t* row =
            &adj[(k * 64 + static_cast<std::size_t>(std::countr_zero(b))) *
                 words];
        std::size_t j = 0;
        while (j < words && (row[j] & ~nbr[j]) == 0) ++j;
        if (j == words) dead[k] |= b & -b;
      }
    }

    next.clear();
    touched.clear();
    disjoint.clear();
    for (const TermRef t : sop) {
      const std::uint64_t* tw = arena.data(t);
      std::uint64_t meets = 0, missing = 0, on_dead = 0;
      for (std::size_t k = 0; k < words; ++k) {
        meets |= tw[k] & nbr[k];
        missing |= nbr[k] & ~tw[k];
        on_dead |= tw[k] & dead[k];
      }
      const bool keep_x = missing != 0;
      const bool keep_n =
          on_dead == 0 && every_vertex_has_witness(tw, nbr.data(),
                                                   border.data(), adj.data(),
                                                   words);
      if (keep_n) {
        // The sort key of a term meeting N is read off t \ N before a
        // second slot is taken: clone() may move the arena's buffer, so
        // `tw` is not read past it.
        std::uint32_t count = 0;
        std::uint64_t sig = 0;
        if (meets != 0)
          for (std::size_t k = 0; k < words; ++k) {
            const std::uint64_t rest = tw[k] & ~nbr[k];
            count += static_cast<std::uint32_t>(std::popcount(rest));
            sig |= rest;
          }
        const TermRef w = keep_x ? arena.clone(t) : t;
        std::uint64_t* ww = arena.data(w);
        for (std::size_t k = 0; k < words; ++k) ww[k] |= nbr[k];
        if (meets != 0)
          touched.push_back({count, sig, w});
        else
          disjoint.push_back(w);
      } else {
        ++witness_rejects;
      }
      if (keep_x) {
        arena.set(t, x);
        next.push_back(t);
      } else if (!keep_n) {
        arena.release(t);
      }
    }
    // Every N-half term contains N, so word-lex order and equality of t ∪ N
    // are those of t \ N.
    std::sort(touched.begin(), touched.end(),
              [&](const Touched& a, const Touched& b) {
                if (a.count != b.count) return a.count < b.count;
                if (a.sig != b.sig) return a.sig < b.sig;
                return arena.less(a.ref, b.ref);
              });
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const TermRef w = touched[i].ref;
      if (i > 0 && arena.equal(next.back(), w)) {
        arena.release(w);
        continue;
      }
      next.push_back(w);
    }
    next.insert(next.end(), disjoint.begin(), disjoint.end());

    // H gains the edges x–N.
    std::uint64_t* x_row = &adj[x * words];
    for (std::size_t k = 0; k < words; ++k) x_row[k] |= nbr[k];
    n_set.for_each([&](std::size_t v) {
      adj[v * words + (x >> 6)] |= std::uint64_t{1} << (x & 63);
    });
    if (next.size() > max_terms) return truncate_fold(Truncation::kTermLimit);
    sop.swap(next);
  }

  if (fold_stats) fold_stats->num_terms = sop.size();
  fill_fold_stats();
  std::vector<Bitset> result;
  result.reserve(sop.size());
  for (TermRef r : sop) result.push_back(arena.to_bitset(r));
  return result;
}

PrimeGenResult generate_prime_dichotomies(const std::vector<Dichotomy>& ds,
                                          const PrimeGenOptions& opts,
                                          const ExecContext& ctx) {
  PrimeGenResult result;
  if (ds.empty()) return result;
  StageScope stage(ctx, "prime_generation");
  const std::size_t m = ds.size();

  // Pairwise incompatibility matrix. Each task fills only the upper
  // triangle of its own row, so the fan-out is race-free and the mirrored
  // result is independent of the thread count.
  std::vector<Bitset> incompat(m, Bitset(m));
  {
    TRACE_SCOPE(stage.ctx(), "incompat_matrix");
    parallel_for(m, m >= 128 ? ctx.num_threads : 1, [&](std::size_t i) {
      for (std::size_t j = i + 1; j < m; ++j)
        if (!ds[i].compatible(ds[j])) incompat[i].set(j);
    });
    for (std::size_t i = 0; i < m; ++i)
      incompat[i].for_each([&](std::size_t j) {
        if (j > i) incompat[j].set(i);
      });
  }

  bool truncated = false;
  Truncation reason = Truncation::kNone;
  const std::uint64_t work_before = ctx.budget ? ctx.budget->work_used() : 0;
  std::vector<Bitset> sop =
      two_cnf_to_minimal_sop(incompat, opts.max_terms, &truncated,
                             opts.max_work, stage.ctx(), &reason,
                             &result.fold);
  if (ctx.budget) stage.add_work(ctx.budget->work_used() - work_before);
  // Fold counters are deterministic: the fold is a sequential stage, so the
  // values are thread-count invariant and safe for the fingerprint.
  metric_add(ctx, "primes.folds", result.fold.folds);
  metric_add(ctx, "primes.fold_work", result.fold.work);
  metric_add(ctx, "primes.arena_allocs", result.fold.arena_allocs);
  metric_add(ctx, "primes.arena_reuses", result.fold.arena_reuses);
  metric_add(ctx, "primes.witness_rejects", result.fold.witness_rejects);
  metric_add(ctx, "primes.sop_terms", result.fold.num_terms);
  metric_max(ctx, "primes.peak_arena_bytes", result.fold.peak_arena_bytes);
  if (truncated) {
    result.truncated = true;
    result.truncation = reason;
    stage.set_truncation(reason);
    return result;
  }
  result.num_terms = sop.size();
  stage.add_items(sop.size());

  // Each SOP term is a minimal deletion set; the variables missing from it
  // form a maximal compatible whose union is a prime encoding-dichotomy.
  result.primes.reserve(sop.size());
  for (const Bitset& term : sop) {
    Dichotomy prime(ds[0].universe());
    for (std::size_t i = 0; i < m; ++i) {
      if (term.test(i)) continue;
      prime.left |= ds[i].left;
      prime.right |= ds[i].right;
    }
    result.primes.push_back(std::move(prime));
  }
  dedupe_dichotomies(result.primes);
  return result;
}

}  // namespace encodesat
