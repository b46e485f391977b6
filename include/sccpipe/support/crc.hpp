#pragma once

/// \file crc.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for end-to-end
/// payload integrity. The transports stamp every FrameToken / host-link
/// datagram with a checksum at the sender and verify it at the consumer,
/// so a PayloadCorrupt fault injected anywhere along the path is *detected*
/// rather than silently propagated — detection turns corruption into the
/// same retransmit path a dropped message takes (docs/MODEL.md §6).
///
/// This is the functional-correctness net only; the simulated *cost* of
/// computing the checksum is folded into the transports' per-message
/// overhead cycles and is not modelled separately.
///
/// The host-side kernel is a portable slicing-by-16: sixteen 256-entry
/// tables (16 KB, built at compile time) fold 16 input bytes per step with
/// 16 independent lookups, and a byte-at-a-time loop takes the tail. That
/// is ~0.4 ns/byte (~0.22 ms per 400x400 RGBA frame on a 4-vCPU x86-64
/// guest) against ~2.8 ns/byte for the byte-at-a-time loop it replaced,
/// which stays as reference::crc32 (support/reference.hpp) for the
/// equivalence test and bench/perf_baseline. Functional mode checksums 16
/// full-frame equivalents per HostRenderer k=4 frame (docs/PERF.md §6).

#include <cstddef>
#include <cstdint>

namespace sccpipe {

/// One-shot CRC-32 of a buffer. \p seed chains multi-buffer checksums:
/// crc32(b, n2, crc32(a, n1)) == crc32(concat(a, b), n1 + n2).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Incremental helper for checksumming a header plus a pixel buffer
/// without concatenating them.
class Crc32 {
 public:
  void update(const void* data, std::size_t size);
  /// Finalised checksum; update() may continue afterwards (value() is pure).
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace sccpipe
