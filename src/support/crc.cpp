#include "sccpipe/support/crc.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace sccpipe {

namespace {

/// Slicing-by-16 tables for the reflected IEEE polynomial, built at compile
/// time. kTables[0] is the classic byte-at-a-time table; kTables[k][b] is
/// the CRC of byte b followed by k zero bytes, so one step can fold 16
/// input bytes with 16 independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load from any alignment; memcpy keeps it free of
/// alignment and aliasing UB and compiles to one plain load.
std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  return v;
}

/// Folds one little-endian word whose first byte meets table \p k (the
/// word's last byte meets table k - 3).
std::uint32_t fold(std::uint32_t w, std::size_t k) {
  return kTables[k][w & 0xffu] ^ kTables[k - 1][(w >> 8) & 0xffu] ^
         kTables[k - 2][(w >> 16) & 0xffu] ^ kTables[k - 3][w >> 24];
}

std::uint32_t advance(std::uint32_t state, const void* data,
                      std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 16; size -= 16, p += 16) {
    state = fold(load_le32(p) ^ state, 15) ^ fold(load_le32(p + 4), 11) ^
            fold(load_le32(p + 8), 7) ^ fold(load_le32(p + 12), 3);
  }
  for (; size > 0; --size, ++p) {
    state = kTables[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  return advance(seed ^ 0xffffffffu, data, size) ^ 0xffffffffu;
}

void Crc32::update(const void* data, std::size_t size) {
  state_ = advance(state_, data, size);
}

}  // namespace sccpipe
