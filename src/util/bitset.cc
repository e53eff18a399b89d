#include "util/bitset.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace encodesat {

namespace {
// Mask selecting only the bits that belong to the universe in the last word.
std::uint64_t tail_mask(std::size_t size) {
  const std::size_t rem = size & 63;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

// Binary set operations are only meaningful over a shared universe; a
// mismatch is always a caller bug, so it throws in every build mode (the
// word loops below would otherwise silently truncate or read out of range).
// Kept out of line and cold so the callers — some sit in O(n²) loops —
// pay only a predictable compare on the match path.
[[gnu::cold, gnu::noinline]] void throw_universe_mismatch(std::size_t a,
                                                          std::size_t b,
                                                          const char* op) {
  throw std::invalid_argument(std::string("Bitset::") + op +
                              ": universe mismatch (" + std::to_string(a) +
                              " vs " + std::to_string(b) + ")");
}

inline void check_same_universe(std::size_t a, std::size_t b, const char* op) {
  if (a != b) throw_universe_mismatch(a, b, op);
}
}  // namespace

Bitset::Bitset(std::size_t size) : size_(size) {
  if (on_heap()) heap_ = new std::uint64_t[words_for(size)]();
}

Bitset::Bitset(const Bitset& o) : size_(o.size_) {
  if (on_heap()) {
    heap_ = new std::uint64_t[words_for(size_)];
    std::memcpy(heap_, o.heap_, words_for(size_) * sizeof(std::uint64_t));
  } else {
    std::memcpy(inline_, o.inline_, sizeof(inline_));
  }
}

// A moved-from Bitset is left as the empty universe, ready for reuse.
Bitset::Bitset(Bitset&& o) noexcept : size_(o.size_) {
  if (on_heap())
    heap_ = o.heap_;
  else
    std::memcpy(inline_, o.inline_, sizeof(inline_));
  o.size_ = 0;
  std::memset(o.inline_, 0, sizeof(o.inline_));
}

Bitset& Bitset::operator=(const Bitset& o) {
  if (this == &o) return *this;
  const std::size_t n = words_for(o.size_);
  if (o.on_heap()) {
    // Reuse an existing heap array of the same word count.
    if (!on_heap() || words_for(size_) != n) {
      std::uint64_t* fresh = new std::uint64_t[n];
      release();
      heap_ = fresh;
    }
    std::memcpy(heap_, o.heap_, n * sizeof(std::uint64_t));
  } else {
    release();
    std::memcpy(inline_, o.inline_, sizeof(inline_));
  }
  size_ = o.size_;
  return *this;
}

Bitset& Bitset::operator=(Bitset&& o) noexcept {
  if (this == &o) return *this;
  release();
  size_ = o.size_;
  if (on_heap())
    heap_ = o.heap_;
  else
    std::memcpy(inline_, o.inline_, sizeof(inline_));
  o.size_ = 0;
  std::memset(o.inline_, 0, sizeof(o.inline_));
  return *this;
}

void Bitset::clear() {
  std::memset(words(), 0, num_words() * sizeof(std::uint64_t));
}

void Bitset::set_all() {
  const std::size_t n = num_words();
  if (n == 0) return;
  std::uint64_t* w = words();
  for (std::size_t k = 0; k < n; ++k) w[k] = ~std::uint64_t{0};
  w[n - 1] &= tail_mask(size_);
}

std::size_t Bitset::count() const {
  const std::uint64_t* w = words();
  const std::size_t nw = num_words();
  std::size_t n = 0;
  for (std::size_t k = 0; k < nw; ++k)
    n += static_cast<std::size_t>(std::popcount(w[k]));
  return n;
}

bool Bitset::empty() const {
  const std::uint64_t* w = words();
  const std::size_t nw = num_words();
  for (std::size_t k = 0; k < nw; ++k)
    if (w[k] != 0) return false;
  return true;
}

std::size_t Bitset::first() const {
  const std::uint64_t* w = words();
  const std::size_t nw = num_words();
  for (std::size_t k = 0; k < nw; ++k)
    if (w[k] != 0)
      return k * 64 + static_cast<std::size_t>(std::countr_zero(w[k]));
  return size_;
}

std::size_t Bitset::next(std::size_t i) const {
  ++i;
  if (i >= size_) return size_;
  const std::uint64_t* words_p = words();
  const std::size_t nw = num_words();
  std::size_t k = i >> 6;
  std::uint64_t w = words_p[k] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (w != 0) return k * 64 + static_cast<std::size_t>(std::countr_zero(w));
    if (++k == nw) return size_;
    w = words_p[k];
  }
}

Bitset& Bitset::operator|=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator|=");
  std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) w[k] |= ow[k];
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator&=");
  std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) w[k] &= ow[k];
  return *this;
}

Bitset& Bitset::operator^=(const Bitset& o) {
  check_same_universe(size_, o.size_, "operator^=");
  std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) w[k] ^= ow[k];
  return *this;
}

Bitset& Bitset::subtract(const Bitset& o) {
  check_same_universe(size_, o.size_, "subtract");
  std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) w[k] &= ~ow[k];
  return *this;
}

bool Bitset::operator==(const Bitset& o) const {
  return size_ == o.size_ &&
         std::memcmp(words(), o.words(),
                     num_words() * sizeof(std::uint64_t)) == 0;
}

bool Bitset::operator<(const Bitset& o) const {
  if (size_ != o.size_) return size_ < o.size_;
  const std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = num_words(); k-- > 0;)
    if (w[k] != ow[k]) return w[k] < ow[k];
  return false;
}

bool Bitset::is_subset_of(const Bitset& o) const {
  check_same_universe(size_, o.size_, "is_subset_of");
  const std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k)
    if ((w[k] & ~ow[k]) != 0) return false;
  return true;
}

bool Bitset::intersects(const Bitset& o) const {
  check_same_universe(size_, o.size_, "intersects");
  const std::uint64_t* w = words();
  const std::uint64_t* ow = o.words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k)
    if ((w[k] & ow[k]) != 0) return true;
  return false;
}

void Bitset::for_each(const std::function<void(std::size_t)>& f) const {
  const std::uint64_t* words_p = words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) {
    std::uint64_t w = words_p[k];
    while (w != 0) {
      const int b = std::countr_zero(w);
      f(k * 64 + static_cast<std::size_t>(b));
      w &= w - 1;
    }
  }
}

std::vector<std::size_t> Bitset::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::string Bitset::to_string() const {
  std::string s = "{";
  bool firstItem = true;
  for_each([&](std::size_t i) {
    if (!firstItem) s += ',';
    s += std::to_string(i);
    firstItem = false;
  });
  s += '}';
  return s;
}

std::size_t Bitset::hash() const {
  // FNV-1a over words; adequate for hash-set dedup of terms/dichotomies.
  std::size_t h = 1469598103934665603ull;
  const std::uint64_t* w = words();
  for (std::size_t k = 0, n = num_words(); k < n; ++k) {
    h ^= static_cast<std::size_t>(w[k]);
    h *= 1099511628211ull;
  }
  h ^= size_;
  return h;
}

}  // namespace encodesat
