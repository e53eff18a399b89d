#include "logic/domain.h"

#include <cassert>

namespace encodesat {

namespace {

PartMask part_mask_for(int off, int len) {
  PartMask m;
  if (len <= 0) return m;  // no bits: always empty and always full
  const auto first = static_cast<std::uint32_t>(off), last =
      static_cast<std::uint32_t>(off + len - 1);
  m.first_word = first >> 6;
  m.last_word = last >> 6;
  m.first_mask = ~std::uint64_t{0} << (first & 63);
  m.last_mask = ~std::uint64_t{0} >> (63 - (last & 63));
  if (m.first_word == m.last_word) m.first_mask = m.last_mask &= m.first_mask;
  return m;
}

}  // namespace

Domain::Domain() {
  // No inputs and no outputs: one zero-width output part.
  static const std::shared_ptr<const Layout> kEmpty = [] {
    auto layout = std::make_shared<Layout>();
    layout->masks.emplace_back();
    layout->wide_parts.push_back(0);
    return layout;
  }();
  layout_ = kEmpty;
}

Domain::Domain(std::vector<int> input_sizes, int num_outputs) {
  auto layout = std::make_shared<Layout>();
  layout->input_sizes = std::move(input_sizes);
  layout->num_outputs = num_outputs;
  assert(num_outputs >= 1);
  layout->offsets.reserve(layout->input_sizes.size());
  int off = 0;
  for (int s : layout->input_sizes) {
    assert(s >= 2);
    layout->offsets.push_back(off);
    layout->masks.push_back(part_mask_for(off, s));
    off += s;
  }
  layout->output_offset = off;
  layout->masks.push_back(part_mask_for(off, num_outputs));
  layout->total_parts = off + num_outputs;
  const int num_vars = static_cast<int>(layout->input_sizes.size());
  for (int v = 0; v < num_vars; ++v) {
    const int at = layout->offsets[static_cast<std::size_t>(v)];
    if (layout->input_sizes[static_cast<std::size_t>(v)] != 2 || at % 2 != 0) {
      layout->wide_parts.push_back(v);
      continue;
    }
    const auto word = static_cast<std::size_t>(at >> 6);
    if (layout->pair_masks.size() <= word) layout->pair_masks.resize(word + 1, 0);
    layout->pair_masks[word] |= std::uint64_t{1} << (at & 63);
    ++layout->num_pair_inputs;
  }
  layout->wide_parts.push_back(num_vars);  // the output part
  layout_ = std::move(layout);
}

Domain Domain::binary(int num_inputs, int num_outputs) {
  return Domain(std::vector<int>(static_cast<std::size_t>(num_inputs), 2),
                num_outputs);
}

unsigned long long Domain::num_input_minterms() const {
  unsigned long long n = 1;
  for (int s : layout_->input_sizes) n *= static_cast<unsigned long long>(s);
  return n;
}

}  // namespace encodesat
