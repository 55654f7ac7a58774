#include "util/snapshot_io.h"

#include <array>
#include <cstring>

namespace mrts {
namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table and
/// kCrcTables[k][b] is the CRC register after b is followed by k zero bytes,
/// so one step folds 8 input bytes with 8 independent lookups (8 KiB).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = t[k - 1][n];
      t[k][n] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Four bytes as a host-order word, in one unaligned load; crc32_update
/// calls it only on little-endian hosts, where that is the LE word.
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t c = ~crc;
  // The 8-byte step reads its input as two little-endian words; big-endian
  // hosts take the bytewise loop for the whole buffer.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; data += 8, size -= 8) {
      const std::uint32_t lo = load_le32(data) ^ c;
      const std::uint32_t hi = load_le32(data + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0, data, size);
}

}  // namespace mrts
