// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to checksum the
// records of util/codec.h (WAL and wire frames). Header-only: the table is
// built once per process on first use.
//
// Crc32("123456789") == 0xCBF43926 (the standard check value).

#ifndef CONSENTDB_UTIL_CRC32_H_
#define CONSENTDB_UTIL_CRC32_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace consentdb {

namespace internal {

inline const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace internal

// Extends a running CRC with `data`; seed with `Crc32(data)` for one-shot use.
inline uint32_t ExtendCrc32(uint32_t crc, std::string_view data) {
  const std::array<uint32_t, 256>& table = internal::Crc32Table();
  crc = ~crc;
  for (char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

inline uint32_t Crc32(std::string_view data) { return ExtendCrc32(0, data); }

}  // namespace consentdb

#endif  // CONSENTDB_UTIL_CRC32_H_
