// CRC32C (Castagnoli) page checksums.
//
// Every page image carries a CRC32C trailer maintained out of band by the
// simulated disk (the way T10 DIF keeps 8 protection bytes per sector
// outside the logical payload), so the full page_size stays available to
// records and simulated costs are unaffected. The buffer manager computes
// the checksum over the payload it hands down on write-back and verifies
// it on every miss read, turning silently corrupted page images into
// Status::Corruption instead of undefined navigation behaviour.
//
// Crc32c picks its implementation once, at first use: on x86-64 CPUs with
// SSE4.2 it uses the crc32 instruction, 8 bytes at a time; everywhere else
// it uses a portable slice-by-8 table loop. Both compute the same
// Castagnoli CRC, so checksums (and saved files) are identical across
// hosts. The check is a host-side cost only; it charges no simulated time.
#ifndef NAVPATH_STORAGE_CHECKSUM_H_
#define NAVPATH_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace navpath {

/// CRC32C of `n` bytes, seeded with `init` (chainable: pass a previous
/// result to continue a running checksum).
std::uint32_t Crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t init = 0);

/// The portable slice-by-8 implementation Crc32c falls back to; same
/// contract and same values as Crc32c.
std::uint32_t Crc32cPortable(const std::byte* data, std::size_t n,
                             std::uint32_t init = 0);

/// True if Crc32c runs on the CPU's CRC32C instruction on this host.
bool Crc32cUsesHardware();

/// The per-page trailer: checksum plus a reserved word kept for future
/// integrity metadata (epoch / media-error flags). 8 bytes, like a DIF
/// protection-information field.
struct PageTrailer {
  std::uint32_t crc32c = 0;
  std::uint32_t reserved = 0;
};

constexpr std::size_t kPageTrailerBytes = 8;

}  // namespace navpath

#endif  // NAVPATH_STORAGE_CHECKSUM_H_
