#include "sccpipe/support/reference.hpp"

#include <array>

namespace sccpipe::reference {

namespace {

/// Byte-at-a-time table for the reflected IEEE polynomial, generated once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  std::uint32_t state = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ p[i]) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

}  // namespace sccpipe::reference
