#include "logic/cube.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace encodesat {

namespace {

// Word-parallel part tests over a PartMask; see logic/domain.h.
bool part_full(const std::uint64_t* w, const PartMask& m) {
  if ((w[m.first_word] & m.first_mask) != m.first_mask) return false;
  for (std::uint32_t k = m.first_word + 1; k < m.last_word; ++k)
    if (w[k] != ~std::uint64_t{0}) return false;
  return m.first_word == m.last_word ||
         (w[m.last_word] & m.last_mask) == m.last_mask;
}

// True iff the cube whose k-th word is word(k) admits some value of the
// part.
template <typename WordAt>
bool part_nonempty(WordAt word, const PartMask& m) {
  if ((word(m.first_word) & m.first_mask) != 0) return true;
  for (std::uint32_t k = m.first_word + 1; k < m.last_word; ++k)
    if (word(k) != 0) return true;
  return m.first_word != m.last_word && (word(m.last_word) & m.last_mask) != 0;
}

// Number of empty parts of the cube whose k-th word is word(k); with
// kFirstOnly, stops at the first (returns 0 or 1). Binary inputs are
// tested a word at a time through the domain's pair masks, the remaining
// parts one by one.
template <bool kFirstOnly, typename WordAt>
int count_empty_parts(const Domain& dom, WordAt word) {
  int n = 0;
  const std::uint64_t* pairs = dom.pair_masks();
  for (int k = 0; k < dom.num_pair_words(); ++k) {
    const std::uint64_t x = word(static_cast<std::uint32_t>(k));
    const std::uint64_t empty = ~(x | (x >> 1)) & pairs[k];
    if (empty == 0) continue;
    if constexpr (kFirstOnly) return 1;
    n += std::popcount(empty);
  }
  for (int p : dom.wide_parts()) {
    if (part_nonempty(word, dom.part_mask(p))) continue;
    if constexpr (kFirstOnly) return 1;
    ++n;
  }
  return n;
}

void require_same_width(const Cube& a, const Cube& b, const char* op) {
  if (a.bits.size() != b.bits.size())
    throw std::invalid_argument(std::string(op) + ": cube width mismatch (" +
                                std::to_string(a.bits.size()) + " vs " +
                                std::to_string(b.bits.size()) + ")");
}

}  // namespace

Cube full_cube(const Domain& dom) {
  Cube c(dom);
  c.bits.set_all();
  return c;
}

bool cube_is_empty(const Domain& dom, const Cube& c) {
  const std::uint64_t* w = c.bits.words();
  return count_empty_parts<true>(dom, [w](std::uint32_t k) { return w[k]; });
}

bool cube_contains(const Cube& outer, const Cube& inner) {
  return inner.bits.is_subset_of(outer.bits);
}

std::optional<Cube> cube_intersect(const Domain& dom, const Cube& a,
                                   const Cube& b) {
  Cube r = a;
  r.bits &= b.bits;
  if (cube_is_empty(dom, r)) return std::nullopt;
  return r;
}

bool cubes_intersect(const Domain& dom, const Cube& a, const Cube& b) {
  require_same_width(a, b, "cubes_intersect");
  const std::uint64_t* aw = a.bits.words();
  const std::uint64_t* bw = b.bits.words();
  return count_empty_parts<true>(
             dom, [aw, bw](std::uint32_t k) { return aw[k] & bw[k]; }) == 0;
}

int cube_distance(const Domain& dom, const Cube& a, const Cube& b) {
  require_same_width(a, b, "cube_distance");
  const std::uint64_t* aw = a.bits.words();
  const std::uint64_t* bw = b.bits.words();
  return count_empty_parts<false>(
      dom, [aw, bw](std::uint32_t k) { return aw[k] & bw[k]; });
}

std::optional<Cube> cube_cofactor(const Domain& dom, const Cube& c,
                                  const Cube& p) {
  if (!cubes_intersect(dom, c, p)) return std::nullopt;
  // r = c | ~p, computed part-free since the layout is uniform; the bits
  // past the universe stay clear.
  Cube r = c;
  std::uint64_t* w = r.bits.words();
  const std::uint64_t* pw = p.bits.words();
  const std::size_t n = r.bits.num_words();
  for (std::size_t k = 0; k < n; ++k) w[k] |= ~pw[k];
  if (const std::size_t rem = r.bits.size() & 63; n > 0 && rem != 0)
    w[n - 1] &= (std::uint64_t{1} << rem) - 1;
  return r;
}

std::vector<Cube> cube_complement(const Domain& dom, const Cube& c) {
  std::vector<Cube> out;
  const std::uint64_t* cw = c.bits.words();
  for (int p = 0; p < dom.num_parts(); ++p) {
    const PartMask& m = dom.part_mask(p);
    if (part_full(cw, m)) continue;
    // Full everywhere, and the complement of c inside part p.
    Cube r = full_cube(dom);
    std::uint64_t* rw = r.bits.words();
    rw[m.first_word] ^= cw[m.first_word] & m.first_mask;
    for (std::uint32_t k = m.first_word + 1; k < m.last_word; ++k)
      rw[k] ^= cw[k];
    if (m.last_word != m.first_word)
      rw[m.last_word] ^= cw[m.last_word] & m.last_mask;
    out.push_back(std::move(r));
  }
  return out;
}

Cube cube_supercube(const Cube& a, const Cube& b) {
  Cube r = a;
  r.bits |= b.bits;
  return r;
}

bool cube_part_full(const Domain& dom, const Cube& c, int part) {
  return part_full(c.bits.words(), dom.part_mask(part));
}

bool input_part_full(const Domain& dom, const Cube& c, int var) {
  return cube_part_full(dom, c, var);
}

int cube_input_literals(const Domain& dom, const Cube& c) {
  // One literal per input part that is not full: count the full binary
  // pairs a word at a time, then test the wide input parts (every wide
  // part but the trailing output part).
  const std::uint64_t* w = c.bits.words();
  const std::uint64_t* pairs = dom.pair_masks();
  int full_pairs = 0;
  for (int k = 0; k < dom.num_pair_words(); ++k)
    full_pairs += std::popcount(w[k] & (w[k] >> 1) & pairs[k]);
  int n = dom.num_pair_inputs() - full_pairs;
  const std::vector<int>& wide = dom.wide_parts();
  for (std::size_t i = 0; i + 1 < wide.size(); ++i)
    if (!part_full(w, dom.part_mask(wide[i]))) ++n;
  return n;
}

std::string cube_to_string(const Domain& dom, const Cube& c) {
  std::string s;
  for (int v = 0; v < dom.num_inputs(); ++v) {
    if (dom.input_size(v) == 2) {
      const bool b0 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 0)));
      const bool b1 = c.bits.test(static_cast<std::size_t>(dom.pos(v, 1)));
      s += (b0 && b1) ? '-' : (b1 ? '1' : (b0 ? '0' : '~'));
    } else {
      s += '[';
      for (int j = 0; j < dom.input_size(v); ++j)
        s += c.bits.test(static_cast<std::size_t>(dom.pos(v, j))) ? '1' : '0';
      s += ']';
    }
  }
  s += " | ";
  for (int o = 0; o < dom.num_outputs(); ++o)
    s += c.bits.test(static_cast<std::size_t>(dom.out_pos(o))) ? '1' : '0';
  return s;
}

Cube cube_from_string(const Domain& dom, const std::string& inputs,
                      const std::string& outputs) {
  if (static_cast<int>(inputs.size()) != dom.num_inputs())
    throw std::invalid_argument("cube_from_string: bad input width");
  if (static_cast<int>(outputs.size()) != dom.num_outputs())
    throw std::invalid_argument("cube_from_string: bad output width");
  Cube c(dom);
  for (int v = 0; v < dom.num_inputs(); ++v) {
    if (dom.input_size(v) != 2)
      throw std::invalid_argument("cube_from_string: MV variable in text cube");
    switch (inputs[static_cast<std::size_t>(v)]) {
      case '0': c.bits.set(static_cast<std::size_t>(dom.pos(v, 0))); break;
      case '1': c.bits.set(static_cast<std::size_t>(dom.pos(v, 1))); break;
      case '-':
      case '2':
        c.bits.set(static_cast<std::size_t>(dom.pos(v, 0)));
        c.bits.set(static_cast<std::size_t>(dom.pos(v, 1)));
        break;
      default:
        throw std::invalid_argument("cube_from_string: bad input char");
    }
  }
  for (int o = 0; o < dom.num_outputs(); ++o) {
    const char ch = outputs[static_cast<std::size_t>(o)];
    if (ch == '1')
      c.bits.set(static_cast<std::size_t>(dom.out_pos(o)));
    else if (ch != '0' && ch != '-' && ch != '~')
      throw std::invalid_argument("cube_from_string: bad output char");
  }
  return c;
}

}  // namespace encodesat
