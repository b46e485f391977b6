#pragma once

/// \file reference.hpp
/// Naive reference CRC-32: the byte-at-a-time table loop that the
/// slicing-by-16 kernel in crc.cpp replaced. Kept compiled for the
/// golden-equivalence test (crc32 must equal it on every length, offset
/// and seed chain) and for bench/perf_baseline's optimised-vs-reference
/// ratio. See filters/reference.hpp for the rationale; the same "do not
/// optimise this" rule applies.

#include <cstddef>
#include <cstdint>

namespace sccpipe::reference {

/// Same contract as sccpipe::crc32 (reflected IEEE polynomial 0xEDB88320,
/// \p seed chains multi-buffer checksums).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace sccpipe::reference
