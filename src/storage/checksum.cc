#include "storage/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace navpath {
namespace {

// Castagnoli polynomial, reflected.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Slice-by-8 tables: kTables[k][b] is the CRC register after feeding byte
// b followed by k zero bytes, so eight table lookups advance the CRC by
// one 8-byte word.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr SliceTables kTables = BuildTables();

// Little-endian 32-bit load, independent of host byte order.
std::uint32_t LoadLe32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::byte* data, std::size_t n, std::uint32_t init) {
  std::uint64_t crc = ~init;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return ~crc32;
}
#endif

using CrcFn = std::uint32_t (*)(const std::byte*, std::size_t,
                                std::uint32_t);

CrcFn ChooseCrc() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

CrcFn SelectedCrc() {
  static const CrcFn fn = ChooseCrc();
  return fn;
}

}  // namespace

std::uint32_t Crc32cPortable(const std::byte* data, std::size_t n,
                             std::uint32_t init) {
  std::uint32_t crc = ~init;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(data) ^ crc;
    const std::uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = (crc >> 8) ^
          kTables[0][(crc ^ static_cast<std::uint32_t>(*data)) & 0xFF];
  }
  return ~crc;
}

std::uint32_t Crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t init) {
  return SelectedCrc()(data, n, init);
}

bool Crc32cUsesHardware() { return SelectedCrc() != &Crc32cPortable; }

}  // namespace navpath
