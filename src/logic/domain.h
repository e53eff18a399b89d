// Variable domain for multi-valued, multi-output logic covers in
// positional-cube notation (Brayton et al., "Logic Minimization Algorithms
// for VLSI Synthesis", 1984).
//
// A Domain describes k multi-valued input variables (a binary variable is
// the 2-valued special case) and one output "variable" with one position per
// output function. Every cube over the domain is a single Bitset with one
// bit per (variable, value) pair followed by one bit per output; bit set
// means the value is admitted (inputs) or the output is asserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bitset.h"

namespace encodesat {

/// The words of a cube that hold one part, with the bits of the part in
/// each: `first_mask` selects the part within word `first_word`,
/// `last_mask` within `last_word`, and any word in between belongs to the
/// part entirely. A part inside one word has first_word == last_word and
/// equal masks. Lets cube kernels test a whole part with a few word ops.
struct PartMask {
  std::uint32_t first_word = 0;
  std::uint32_t last_word = 0;
  std::uint64_t first_mask = 0;
  std::uint64_t last_mask = 0;
};

/// Copying a Domain (and hence a Cover) shares its immutable layout rather
/// than copying it, so a Domain is as cheap to pass by value as a pointer.
class Domain {
 public:
  Domain();
  // Copy-only on purpose: a "moved-from" Domain keeps its layout, so a
  // moved-from Cover still answers domain queries.
  Domain(const Domain&) = default;
  Domain& operator=(const Domain&) = default;

  /// input_sizes[v] is the number of values of input variable v (>= 2);
  /// num_outputs >= 1 output positions form the trailing output part.
  Domain(std::vector<int> input_sizes, int num_outputs);

  /// Convenience: n binary inputs, m outputs.
  static Domain binary(int num_inputs, int num_outputs);

  int num_inputs() const {
    return static_cast<int>(layout_->input_sizes.size());
  }
  int num_outputs() const { return layout_->num_outputs; }
  int input_size(int var) const { return layout_->input_sizes[var]; }

  /// First bit position of input variable var.
  int input_offset(int var) const { return layout_->offsets[var]; }
  /// First bit position of the output part.
  int output_offset() const { return layout_->output_offset; }
  /// Total bit positions of a cube over this domain.
  int total_parts() const { return layout_->total_parts; }

  /// Bit position of value `value` of input variable `var`.
  int pos(int var, int value) const { return layout_->offsets[var] + value; }
  /// Bit position of output `out`.
  int out_pos(int out) const { return layout_->output_offset + out; }

  /// Uniform view of the parts: num_inputs() input parts followed by the
  /// output part, addressed by part index 0..num_inputs().
  int num_parts() const { return num_inputs() + 1; }
  int part_offset(int part) const {
    return part < num_inputs() ? input_offset(part) : output_offset();
  }
  int part_size(int part) const {
    return part < num_inputs() ? input_size(part) : num_outputs();
  }
  const PartMask& part_mask(int part) const { return layout_->masks[part]; }

  /// Binary input variables whose two bits share a word (an even offset)
  /// are tested all at once: bit `pos(v, 0)` is set in pair_masks()[k]
  /// for each such variable in word k, so with x a cube word,
  /// `~(x | x >> 1) & pair_masks()[k]` flags its empty binary parts.
  /// num_pair_words() words, all others zero.
  const std::uint64_t* pair_masks() const { return layout_->pair_masks.data(); }
  int num_pair_words() const {
    return static_cast<int>(layout_->pair_masks.size());
  }
  /// Number of input variables covered by pair_masks().
  int num_pair_inputs() const { return layout_->num_pair_inputs; }
  /// The parts not covered by pair_masks(): multi-valued inputs, binary
  /// inputs at odd offsets, and the output part (always last).
  const std::vector<int>& wide_parts() const { return layout_->wide_parts; }

  bool operator==(const Domain& o) const {
    return layout_ == o.layout_ ||
           (layout_->input_sizes == o.layout_->input_sizes &&
            layout_->num_outputs == o.layout_->num_outputs);
  }
  bool operator!=(const Domain& o) const { return !(*this == o); }

  /// Number of input minterms = product of input sizes (useful only for
  /// small domains; callers guard against overflow by construction).
  unsigned long long num_input_minterms() const;

 private:
  struct Layout {
    std::vector<int> input_sizes;
    int num_outputs = 0;
    std::vector<int> offsets;
    int output_offset = 0;
    int total_parts = 0;
    std::vector<PartMask> masks;  ///< one per part (inputs, then output)
    std::vector<std::uint64_t> pair_masks;
    int num_pair_inputs = 0;
    std::vector<int> wide_parts;
  };
  std::shared_ptr<const Layout> layout_;
};

}  // namespace encodesat
