// Tests for prime encoding-dichotomy generation (Section 5.1, Figure 2),
// anchored on the paper's worked examples and cross-checked against the
// iterated-consensus baseline on random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "baseline/consensus_primes.h"
#include "core/encoder.h"
#include "core/primes.h"
#include "fsm/constraints_gen.h"
#include "fsm/mcnc_like.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/term_arena.h"

namespace encodesat {
namespace {

Dichotomy d(std::size_t n, std::vector<std::uint32_t> l,
            std::vector<std::uint32_t> r) {
  return Dichotomy::make(n, l, r);
}

std::set<std::vector<std::size_t>> term_sets(const std::vector<Bitset>& sop) {
  std::set<std::vector<std::size_t>> out;
  for (const auto& t : sop) out.insert(t.to_vector());
  return out;
}

// --- Reference fold ---------------------------------------------------------
//
// The cs/ps fold as it stood when each fold minimized its {t ∪ N} half by
// pairwise single-cube containment over signature-pruned candidate pairs.
// It is kept verbatim (only the stats struct is local to this file) as the
// oracle of the FoldMatchesReference tests: the production fold must return
// the same terms in the same order, charge the same work, and truncate at
// the same fold for the same reason.
namespace reference {

struct FoldStats {
  std::uint64_t work = 0;
  std::size_t peak_arena_bytes = 0;
  std::size_t num_terms = 0;
  std::size_t folds = 0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_reuses = 0;
  std::uint64_t prune_sig_hits = 0;
};

// The working SOP of the fold: arena refs with cached popcounts and folded
// containment signatures in parallel arrays, so the containment scans read
// contiguous memory and only touch the full terms on signature survivors.
// The vectors are reused across folds; after the first few folds the loop
// performs no heap allocation at all.
struct TermList {
  std::vector<TermRef> refs;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> sigs;

  std::size_t size() const { return refs.size(); }
  void clear() {
    refs.clear();
    counts.clear();
    sigs.clear();
  }
  void push(TermRef r, std::uint32_t c, std::uint64_t s) {
    refs.push_back(r);
    counts.push_back(c);
    sigs.push_back(s);
  }
  void swap(TermList& o) {
    refs.swap(o.refs);
    counts.swap(o.counts);
    sigs.swap(o.sigs);
  }
};

// Keeps only the minimal terms (no kept term is a superset of another):
// absorption x + xy = x for a unate SOP, i.e. single-cube containment.
// Terms are sorted by (popcount, word-lex); adjacent duplicates are
// released, and the subset scan for a term only runs over kept terms of
// strictly smaller popcount (an equal-count absorber would equal the
// deduplicated term) that also pass the folded-signature test — most
// candidate pairs are rejected on the popcount bucket or the one-word
// signature without touching the full terms. Output is count-ascending.
void keep_minimal_terms(TermArena& arena, TermList& terms,
                        std::vector<std::uint32_t>& order, TermList& out,
                        std::uint64_t& sig_hits) {
  const std::size_t n = terms.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (terms.counts[a] != terms.counts[b])
                return terms.counts[a] < terms.counts[b];
              // One-word signature compare settles most ties; the full
              // word-lex order is only consulted on signature collisions,
              // so duplicates (equal count *and* signature) stay adjacent.
              if (terms.sigs[a] != terms.sigs[b])
                return terms.sigs[a] < terms.sigs[b];
              return arena.less(terms.refs[a], terms.refs[b]);
            });

  out.clear();
  std::size_t eq_start = 0;  // first kept index with the current popcount
  std::uint32_t run_count = ~0u;
  bool have_prev = false;
  TermRef prev = 0;
  for (std::uint32_t i : order) {
    const TermRef r = terms.refs[i];
    const std::uint32_t c = terms.counts[i];
    const std::uint64_t s = terms.sigs[i];
    // Duplicates are adjacent in the sort order.
    if (have_prev && c == run_count && arena.equal(prev, r)) {
      arena.release(r);
      continue;
    }
    if (c != run_count) {
      eq_start = out.size();
      run_count = c;
    }
    have_prev = true;
    prev = r;
    bool absorbed = false;
    for (std::size_t j = 0; j < eq_start; ++j) {
      if ((out.sigs[j] & ~s) != 0) {
        ++sig_hits;
        continue;
      }
      if (arena.is_subset(out.refs[j], r)) {
        absorbed = true;
        break;
      }
    }
    if (absorbed)
      arena.release(r);
    else
      out.push(r, c, s);
  }
  terms.swap(out);
}

std::vector<Bitset> two_cnf_to_minimal_sop(const std::vector<Bitset>& incompat,
                                           std::size_t max_terms,
                                           bool* truncated,
                                           std::uint64_t max_work,
                                           const ExecContext& ctx,
                                           Truncation* reason,
                                           FoldStats* fold_stats) {
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
    // Remove every sum containing x.
    residual[x].for_each([&](std::size_t j) {
      residual[j].reset(x);
      degree[j] = residual[j].count();
    });
    residual[x] = Bitset(m);
    degree[x] = 0;
  }

  // Fold back: SOP := ps(x_expr, SOP) from the innermost split outwards.
  // x_expr = x + Π neighbours(x), so each term either gains {x} or gains
  // the neighbour set; single-cube containment keeps the result minimal.
  //
  // The working terms live in a flat TermArena (util/term_arena.h): one
  // contiguous buffer, O(1) free-list reuse, popcounts and folded
  // signatures cached in parallel arrays. The Bitset vectors at this
  // function's boundary are conversion shims only.
  TermArena arena(m, /*reserve_terms=*/256);
  TermList sop, with_nbrs, scratch, d_half;
  std::vector<std::uint32_t> order, d_idx;
  sop.push(arena.alloc(), 0, 0);  // cs of the empty expression: constant 1

  std::uint64_t work = 0;
  std::uint64_t sig_hits = 0;
  const std::uint64_t words = (m + 63) / 64;
  auto fill_fold_stats = [&] {
    if (!fold_stats) return;
    fold_stats->peak_arena_bytes = arena.peak_bytes();
    fold_stats->arena_allocs = arena.total_allocs();
    fold_stats->arena_reuses = arena.total_reuses();
    fold_stats->prune_sig_hits = sig_hits;
  };
  auto truncate_fold = [&](Truncation why) {
    fill_fold_stats();
    return truncate(why);
  };
  for (auto it = splits.rbegin(); it != splits.rend(); ++it) {
    TRACE_SCOPE(ctx, "sop_fold");
    const std::size_t x = it->first;
    // Work accounting (in bitset word operations, upper bound): the
    // absorption scans below cost at most |B|^2/2 + |A|*|B| pairwise subset
    // checks of `words` words each for this fold. The signature/popcount
    // pruning makes the *measured* cost much lower, but the charged units
    // keep the pre-arena scale so budget trip points stay comparable.
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
    // truncated return by one absorption scan.
    if (!ctx.charge(fold_work)) return truncate_fold(ctx.reason());
    if (!ctx.poll()) return truncate_fold(ctx.reason());
    // Bail out before paying the absorption scan on a hopeless blow-up:
    // absorption at most halves the set, so 2x over budget cannot recover.
    if (sop.size() > max_terms) return truncate_fold(Truncation::kTermLimit);

    const TermRef nbr = arena.from_bitset(it->second);
    const std::uint64_t nbr_sig = arena.signature(nbr);
    const std::uint32_t nbr_count =
        static_cast<std::uint32_t>(arena.count(nbr));
    const std::uint64_t x_bit = std::uint64_t{1} << (x & 63);

    // next = {t ∪ {x}} ∪ {t ∪ N}. Structure exploited for absorption:
    // terms never contain x before this fold (x was peeled first), so the
    // {t ∪ {x}} half inherits the SOP's pairwise incomparability verbatim
    // and no term of it can absorb a {t ∪ N} term (those lack x). Only the
    // {t ∪ N} half needs internal minimization — and since *every* term of
    // that half contains N, t1 ∪ N ⊆ t2 ∪ N iff t1\N ⊆ t2\N: minimize the
    // stripped terms {t \ N} instead and OR N back into the survivors.
    //
    // Stripping changes only terms that intersect N. Because the old SOP is
    // pairwise incomparable, an absorber among the stripped terms must have
    // *lost* elements (t1\N ⊆ t2\N with t1 ⊄ t2 forces t1 ∩ N ≠ ∅), so
    // N-disjoint terms never absorb anything and are never duplicates —
    // the quadratic minimization runs over the touched subset only, and
    // each N-disjoint term just needs one absorbed-by-kept-touched scan.
    with_nbrs.clear();
    d_idx.clear();
    for (std::size_t i = 0; i < sop.size(); ++i) {
      if ((sop.sigs[i] & nbr_sig) != 0 &&
          arena.intersects(sop.refs[i], nbr)) {
        const TermRef w = arena.alloc();
        arena.andnot_of(w, sop.refs[i], nbr);
        with_nbrs.push(w, static_cast<std::uint32_t>(arena.count(w)),
                       arena.signature(w));
      } else {
        d_idx.push_back(static_cast<std::uint32_t>(i));
      }
    }
    keep_minimal_terms(arena, with_nbrs, order, scratch, sig_hits);

    // Surviving N-disjoint terms join the {t ∪ N} half as clones (their
    // originals are still needed for the {t ∪ {x}} half below). An absorber
    // with equal count would equal the term, which stripping rules out, so
    // the ≤-count scan bound is exact.
    d_half.clear();
    for (std::uint32_t i : d_idx) {
      const TermRef t = sop.refs[i];
      const std::uint32_t c = sop.counts[i];
      const std::uint64_t s = sop.sigs[i];
      bool absorbed = false;
      for (std::size_t j = 0;
           j < with_nbrs.size() && with_nbrs.counts[j] <= c; ++j) {
        if ((with_nbrs.sigs[j] & ~s) != 0) {
          ++sig_hits;
          continue;
        }
        if (arena.is_subset(with_nbrs.refs[j], t)) {
          absorbed = true;
          break;
        }
      }
      if (!absorbed) d_half.push(arena.clone(t), c, s);
    }

    // The {t ∪ {x}} half, built by mutating the old SOP terms in place.
    // Since x is in no {t ∪ N} term, b ⊆ t ∪ {x} iff b ⊆ t; and every
    // b = sb ∪ N contains N, so b ⊆ t requires N ⊆ t — one signature test
    // plus one subset check gates the whole scan per term, and in the
    // common case (t misses some neighbour of x) nothing is scanned.
    // Under the gate, b ⊆ t iff sb ⊆ t with |sb| ≤ |t| - |N| (sb ∩ N = ∅),
    // so the count-ascending stripped list is scanned only up to that
    // bound (b == t, i.e. sb = t\N, absorbs too and sits at the bound).
    // d_half never absorbs here: its sb is itself an old SOP term, and
    // sb ⊆ t contradicts the old SOP's pairwise incomparability.
    scratch.clear();
    for (std::size_t i = 0; i < sop.size(); ++i) {
      const TermRef t = sop.refs[i];
      const std::uint32_t c = sop.counts[i];
      const std::uint64_t s = sop.sigs[i];
      bool absorbed = false;
      if ((nbr_sig & ~s) == 0 && arena.is_subset(nbr, t)) {
        const std::uint32_t limit = c - nbr_count;
        for (std::size_t j = 0;
             j < with_nbrs.size() && with_nbrs.counts[j] <= limit; ++j) {
          if ((with_nbrs.sigs[j] & ~s) != 0) {
            ++sig_hits;
            continue;
          }
          if (arena.is_subset(with_nbrs.refs[j], t)) {
            absorbed = true;
            break;
          }
        }
      }
      if (absorbed) {
        arena.release(t);
        continue;
      }
      arena.set(t, x);
      scratch.push(t, c + 1, s | x_bit);
    }
    // Reconstitute the {t ∪ N} half from the kept stripped terms.
    for (std::size_t j = 0; j < with_nbrs.size(); ++j) {
      const TermRef w = with_nbrs.refs[j];
      arena.or_into(w, nbr);
      scratch.push(w, with_nbrs.counts[j] + nbr_count,
                   with_nbrs.sigs[j] | nbr_sig);
    }
    for (std::size_t j = 0; j < d_half.size(); ++j) {
      const TermRef w = d_half.refs[j];
      arena.or_into(w, nbr);
      scratch.push(w, d_half.counts[j] + nbr_count,
                   d_half.sigs[j] | nbr_sig);
    }
    with_nbrs.clear();
    d_half.clear();
    arena.release(nbr);
    if (scratch.size() > max_terms) return truncate_fold(Truncation::kTermLimit);
    sop.swap(scratch);
  }

  if (fold_stats) fold_stats->num_terms = sop.size();
  fill_fold_stats();
  std::vector<Bitset> result;
  result.reserve(sop.size());
  for (TermRef r : sop.refs) result.push_back(arena.to_bitset(r));
  return result;
}

}  // namespace reference

TEST(TwoCnfSop, PaperSection51Example) {
  // Incompatibilities (a+b)(a+c)(b+c)(c+d)(d+e) over a..e (indices 0..4).
  // The paper's example gives the SOP as acd + ace + bcd + bce and the
  // maximal compatibles as {b,e}, {b,d}, {a,e}, {a,d} — but that list is
  // incomplete: abd is also a minimal product term ((a+b)(a+c)(b+c)(c+d)
  // (d+e) multiplied out is ac d + ace + bcd + bce + abd), giving the fifth
  // maximal compatible {c,e}, which is indeed compatible (no (c+e) sum is
  // listed) and maximal. We assert the mathematically complete answer; see
  // EXPERIMENTS.md "Errata".
  std::vector<Bitset> inc(5, Bitset(5));
  auto edge = [&](std::size_t i, std::size_t j) {
    inc[i].set(j);
    inc[j].set(i);
  };
  edge(0, 1);
  edge(0, 2);
  edge(1, 2);
  edge(2, 3);
  edge(3, 4);
  bool truncated = true;
  const auto sop = two_cnf_to_minimal_sop(inc, 1000, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(term_sets(sop),
            (std::set<std::vector<std::size_t>>{
                {0, 2, 3}, {0, 2, 4}, {1, 2, 3}, {1, 2, 4}, {0, 1, 3}}));
}

TEST(TwoCnfSop, NoEdgesGivesConstantOne) {
  std::vector<Bitset> inc(4, Bitset(4));
  bool truncated = true;
  const auto sop = two_cnf_to_minimal_sop(inc, 10, &truncated);
  EXPECT_FALSE(truncated);
  ASSERT_EQ(sop.size(), 1u);
  EXPECT_TRUE(sop[0].empty());
}

TEST(TwoCnfSop, TriangleNeedsTwoDeletions) {
  // (a+b)(a+c)(b+c): minimal vertex covers are any pair.
  std::vector<Bitset> inc(3, Bitset(3));
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      if (i != j) inc[i].set(j);
  bool truncated = true;
  const auto sop = two_cnf_to_minimal_sop(inc, 10, &truncated);
  EXPECT_EQ(term_sets(sop), (std::set<std::vector<std::size_t>>{
                                {0, 1}, {0, 2}, {1, 2}}));
}

TEST(TwoCnfSop, TruncatesAtLimit) {
  // A perfect matching on 2k vertices yields 2^k minimal covers.
  const std::size_t k = 10;
  std::vector<Bitset> inc(2 * k, Bitset(2 * k));
  for (std::size_t i = 0; i < k; ++i) {
    inc[2 * i].set(2 * i + 1);
    inc[2 * i + 1].set(2 * i);
  }
  bool truncated = false;
  const auto sop = two_cnf_to_minimal_sop(inc, 100, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(sop.empty());
}

TEST(TwoCnfSop, RejectsRowOverAnotherUniverse) {
  // Two variables, but row 0 is an 8-element set holding element 5.
  std::vector<Bitset> inc(2, Bitset(2));
  inc[0] = Bitset(8);
  inc[0].set(5);
  bool truncated = false;
  EXPECT_THROW(two_cnf_to_minimal_sop(inc, 100, &truncated),
               std::invalid_argument);
}

TEST(TwoCnfSop, RejectsSelfLoop) {
  // (x0 + x0)(x0 + x1)
  std::vector<Bitset> inc(2, Bitset(2));
  inc[0].set(0);
  inc[0].set(1);
  inc[1].set(0);
  bool truncated = false;
  EXPECT_THROW(two_cnf_to_minimal_sop(inc, 100, &truncated),
               std::invalid_argument);
}

TEST(TwoCnfSop, RejectsAsymmetricRows) {
  // Row 0 names the sum (x0 + x2), row 2 does not.
  std::vector<Bitset> inc(3, Bitset(3));
  inc[0].set(1);
  inc[1].set(0);
  inc[0].set(2);
  bool truncated = false;
  EXPECT_THROW(two_cnf_to_minimal_sop(inc, 100, &truncated),
               std::invalid_argument);
}

TEST(Primes, SingleDichotomyIsItsOwnPrime) {
  const auto res = generate_prime_dichotomies({d(3, {0}, {1})});
  ASSERT_EQ(res.primes.size(), 1u);
  EXPECT_EQ(res.primes[0], d(3, {0}, {1}));
}

TEST(Primes, CompatiblePairMergesToOnePrime) {
  const auto res =
      generate_prime_dichotomies({d(4, {0}, {1}), d(4, {2}, {3})});
  ASSERT_EQ(res.primes.size(), 1u);
  EXPECT_EQ(res.primes[0], d(4, {0, 2}, {1, 3}));
}

TEST(Primes, FlippedPairGivesTwoPrimes) {
  const auto a = d(2, {0}, {1});
  const auto res = generate_prime_dichotomies({a, a.flipped()});
  EXPECT_EQ(res.primes.size(), 2u);
}

TEST(Primes, EveryPrimeCoversEveryInputItIsCompatibleWith) {
  // Definition 3.5: a prime is incompatible with every dichotomy it does
  // not cover.
  Rng rng(321);
  std::vector<Dichotomy> ds;
  const std::size_t n = 6;
  for (int i = 0; i < 10; ++i) {
    Dichotomy x(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      const double r = rng.next_double();
      if (r < 0.3) x.left.set(s);
      else if (r < 0.6) x.right.set(s);
    }
    if (x.left.empty() || x.right.empty()) continue;
    ds.push_back(std::move(x));
  }
  ASSERT_FALSE(ds.empty());
  const auto res = generate_prime_dichotomies(ds);
  ASSERT_FALSE(res.truncated);
  for (const auto& p : res.primes)
    for (const auto& x : ds) {
      if (!p.compatible(x)) continue;
      EXPECT_TRUE(p.left.is_subset_of(p.union_with(x).left) &&
                  p.union_with(x).left == p.left &&
                  p.union_with(x).right == p.right)
          << "prime is not maximal";
    }
}

class PrimesVsConsensus : public ::testing::TestWithParam<int> {};

TEST_P(PrimesVsConsensus, SamePrimeSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  const std::size_t n = 4 + rng.next_below(4);
  std::vector<Dichotomy> ds;
  for (int i = 0; i < 8; ++i) {
    Dichotomy x(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      const double r = rng.next_double();
      if (r < 0.35) x.left.set(s);
      else if (r < 0.7) x.right.set(s);
    }
    if (x.left.empty() && x.right.empty()) continue;
    ds.push_back(std::move(x));
  }
  if (ds.empty()) return;
  auto fast = generate_prime_dichotomies(ds);
  auto slow = consensus_prime_dichotomies(ds);
  ASSERT_FALSE(fast.truncated);
  ASSERT_FALSE(slow.truncated);
  auto key = [](const Dichotomy& x) {
    return std::make_pair(x.left.to_vector(), x.right.to_vector());
  };
  std::set<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>> a, b;
  for (const auto& p : fast.primes) a.insert(key(p));
  for (const auto& p : slow.primes) b.insert(key(p));
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimesVsConsensus, ::testing::Range(0, 20));

// --- Differential tests against the reference fold -------------------------

struct FoldOutcome {
  std::vector<std::vector<std::size_t>> terms;  // in returned order
  std::uint64_t work = 0;
  std::size_t folds = 0;
  bool truncated = false;
  Truncation reason = Truncation::kNone;
};

FoldOutcome run_fold(const std::vector<Bitset>& adj, std::size_t max_terms,
                     std::uint64_t max_work) {
  FoldOutcome out;
  SopFoldStats stats;
  const auto sop = two_cnf_to_minimal_sop(adj, max_terms, &out.truncated,
                                          max_work, ExecContext{}, &out.reason,
                                          &stats);
  for (const Bitset& t : sop) out.terms.push_back(t.to_vector());
  out.work = stats.work;
  out.folds = stats.folds;
  return out;
}

FoldOutcome run_reference_fold(const std::vector<Bitset>& adj,
                               std::size_t max_terms, std::uint64_t max_work) {
  FoldOutcome out;
  reference::FoldStats stats;
  const auto sop = reference::two_cnf_to_minimal_sop(
      adj, max_terms, &out.truncated, max_work, ExecContext{}, &out.reason,
      &stats);
  for (const Bitset& t : sop) out.terms.push_back(t.to_vector());
  out.work = stats.work;
  out.folds = stats.folds;
  return out;
}

// Runs both folds on one input and returns the (shared) truncation reason.
Truncation expect_same_fold(const std::vector<Bitset>& adj,
                            std::size_t max_terms, std::uint64_t max_work,
                            const std::string& label) {
  const FoldOutcome got = run_fold(adj, max_terms, max_work);
  const FoldOutcome want = run_reference_fold(adj, max_terms, max_work);
  EXPECT_EQ(got.terms, want.terms) << label;
  EXPECT_EQ(got.work, want.work) << label;
  EXPECT_EQ(got.folds, want.folds) << label;
  EXPECT_EQ(got.truncated, want.truncated) << label;
  EXPECT_EQ(got.reason, want.reason) << label;
  return want.reason;
}

TEST(TwoCnfSop, FoldMatchesReferenceOnRandomGraphs) {
  // Sizes 2..90 at densities 0..1, with term limits and work budgets drawn
  // so that both truncation reasons trip on a fair share of the inputs.
  Rng rng(2026);
  std::size_t completed = 0, term_limit = 0, work_budget = 0;
  for (int g = 0; g < 320; ++g) {
    const std::size_t n = rng.next_in(2, 90);
    const double p = rng.next_double();
    std::vector<Bitset> adj(n, Bitset(n));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng.next_bool(p)) {
          adj[i].set(j);
          adj[j].set(i);
        }
    const std::size_t max_terms = rng.next_in(8, 2000);
    const std::uint64_t max_work =
        rng.next_bool(0.5) ? ~0ull : rng.next_in(1000, 20'000'000);
    const std::string label = "graph " + std::to_string(g) + " (n=" +
                              std::to_string(n) + ", p=" + std::to_string(p) +
                              ")";
    switch (expect_same_fold(adj, max_terms, max_work, label)) {
      case Truncation::kNone: ++completed; break;
      case Truncation::kTermLimit: ++term_limit; break;
      case Truncation::kWorkBudget: ++work_budget; break;
      default: ADD_FAILURE() << label << ": unexpected truncation reason";
    }
  }
  EXPECT_GE(completed, 100u);
  EXPECT_GE(term_limit, 10u);
  EXPECT_GE(work_budget, 10u);
}

// The incompatibility graph that exact encoding hands to the fold for a
// suite machine (constraint options as in the exact synthesis benchmark).
std::vector<Bitset> machine_incompat(const char* machine) {
  const Fsm fsm = make_mcnc_like(benchmark_spec(machine));
  ConstraintGenOptions gopts;
  gopts.max_dominance = static_cast<int>(fsm.num_states()) * 2;
  gopts.max_disjunctive = static_cast<int>(fsm.num_states()) / 4;
  const ConstraintSet cs = generate_mixed_constraints(fsm, gopts);
  const std::vector<Dichotomy> ds = check_feasible(cs, ExecContext{}).raised;
  std::vector<Bitset> adj(ds.size(), Bitset(ds.size()));
  for (std::size_t i = 0; i < ds.size(); ++i)
    for (std::size_t j = i + 1; j < ds.size(); ++j)
      if (!ds[i].compatible(ds[j])) {
        adj[i].set(j);
        adj[j].set(i);
      }
  return adj;
}

TEST(TwoCnfSop, FoldMatchesReferenceOnSuiteMachines) {
  for (const char* machine : {"dk512", "master", "cse"}) {
    const auto adj = machine_incompat(machine);
    EXPECT_EQ(expect_same_fold(adj, 50000, PrimeGenOptions{}.max_work, machine),
              Truncation::kNone)
        << machine;
  }
}

}  // namespace
}  // namespace encodesat
