// Dynamic fixed-universe bitset used throughout the encoding framework.
//
// Dichotomy blocks, prime-generation SOP terms, covering-table rows and
// multi-valued cube parts are all sets over a small dense universe, so one
// word-packed bitset with set-algebra operations serves every subsystem.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace encodesat {

/// A set over the universe {0, ..., size()-1}, packed 64 elements per word.
///
/// All binary operations require both operands to have the same universe
/// size; a mismatch throws std::invalid_argument in every build mode (a
/// mismatched universe is always a caller bug, and the word loops would
/// otherwise silently truncate). The value semantics keep the algorithm
/// code free of aliasing concerns, and they are cheap: universes of up to
/// kInlineWords * 64 elements — every cube of the face-cost and
/// constraint-generation domains, every dichotomy over <= 128 symbols —
/// keep their words inline and never touch the heap. Larger universes own
/// one heap array. Bits past size() are always zero.
class Bitset {
 public:
  static constexpr std::size_t kInlineWords = 2;

  Bitset() = default;
  explicit Bitset(std::size_t size);
  Bitset(const Bitset& o);
  Bitset(Bitset&& o) noexcept;
  Bitset& operator=(const Bitset& o);
  Bitset& operator=(Bitset&& o) noexcept;
  ~Bitset() { release(); }

  /// Universe size (number of addressable positions), not the popcount.
  std::size_t size() const { return size_; }

  /// Raw word access (num_words() words, 64 elements each, bits past
  /// size() zero) for word-parallel kernels such as the cube operations.
  /// Writers must keep the tail bits clear.
  std::size_t num_words() const { return words_for(size_); }
  const std::uint64_t* words() const { return on_heap() ? heap_ : inline_; }
  std::uint64_t* words() { return on_heap() ? heap_ : inline_; }

  bool test(std::size_t i) const {
    return (words()[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words()[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    words()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void assign(std::size_t i, bool v) { v ? set(i) : reset(i); }

  void clear();
  void set_all();

  /// Number of elements present.
  std::size_t count() const;
  bool empty() const;
  bool any() const { return !empty(); }

  /// Index of the lowest set bit, or size() if empty.
  std::size_t first() const;
  /// Index of the lowest set bit strictly greater than i, or size() if none.
  std::size_t next(std::size_t i) const;

  Bitset& operator|=(const Bitset& o);
  Bitset& operator&=(const Bitset& o);
  Bitset& operator^=(const Bitset& o);
  /// Set difference: removes every element of o from this set.
  Bitset& subtract(const Bitset& o);

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator^(Bitset a, const Bitset& b) { return a ^= b; }

  bool operator==(const Bitset& o) const;
  bool operator!=(const Bitset& o) const { return !(*this == o); }
  /// Lexicographic order on the word representation; used for canonical
  /// sorting and dedup of dichotomies and SOP terms.
  bool operator<(const Bitset& o) const;

  /// True if this set is a subset of (or equal to) o.
  bool is_subset_of(const Bitset& o) const;
  bool intersects(const Bitset& o) const;

  /// Calls f(i) for each element i in increasing order.
  void for_each(const std::function<void(std::size_t)>& f) const;
  std::vector<std::size_t> to_vector() const;

  /// "{1,4,7}" rendering for diagnostics.
  std::string to_string() const;

  std::size_t hash() const;

 private:
  static std::size_t words_for(std::size_t size) { return (size + 63) >> 6; }
  bool on_heap() const { return size_ > kInlineWords * 64; }
  void release() {
    if (on_heap()) delete[] heap_;
  }

  std::size_t size_ = 0;
  union {
    std::uint64_t inline_[kInlineWords] = {};
    std::uint64_t* heap_;
  };
};

static_assert(sizeof(Bitset) <= 32, "Bitset must stay a small value type");

struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.hash(); }
};

}  // namespace encodesat
