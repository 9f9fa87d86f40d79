// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to protect every
// record in the checkpoint container format against torn writes. Computed
// table-driven, slicing-by-8 (eight bytes per step, byte loop for the tail);
// the value is the standard CRC-32 whatever the host byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace numarck::util {

/// One-shot CRC of a buffer.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// Incremental CRC, chainable: crc32_update(crc32_update(init, a), b).
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) noexcept;

/// Initial value for incremental use (pass results back unmodified).
inline constexpr std::uint32_t kCrc32Init = 0u;

}  // namespace numarck::util
