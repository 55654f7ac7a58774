#include "util/snapshot_io.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Four bytes as a host-order word, in one unaligned load; the table loop
/// calls it only on little-endian hosts, where that is the LE word.
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

#if defined(__x86_64__)

/// Whole 16-byte blocks folded by carry-less multiplication (Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009; the bit-reflected constants of zlib's and
/// Chromium's crc32_simd): four 128-bit lanes over 64-byte blocks, then
/// single 16-byte blocks, then Barrett reduction to 32 bits. \p crc and the
/// result are the raw register (the complement of a CRC); \p size is a
/// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t crc, const std::uint8_t* data, std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // Carries lane x forward over the distance k encodes (its two 64-bit
  // halves times k's two constants) and adds the block \p next. A lambda
  // does not inherit its function's target, so it names pclmul itself.
  auto fold = [](__m128i x, __m128i k, __m128i next)
                  __attribute__((target("pclmul"))) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
  };

  __m128i x1 =
      _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  for (data += 64, size -= 64; size >= 64; data += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(data));
    x2 = fold(x2, k1k2, load(data + 16));
    x3 = fold(x3, k1k2, load(data + 32));
    x4 = fold(x4, k1k2, load(data + 48));
  }
  x1 = fold(fold(fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) x1 = fold(x1, k3k4, load(data));

  // 128 bits to 64, then to 32 + 32 for the reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction: the quotient by the polynomial, times it, leaves the
  // remainder in the second 32-bit lane.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

/// Whether this CPU folds: asked once, on the first CRC of the process.
/// __builtin_cpu_init comes first because a static initializer may run
/// before libgcc's own.
bool cpu_folds() {
  static const bool folds = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return folds;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32_update_portable(std::uint32_t crc,
                                    const std::uint8_t* data,
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

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
#if defined(__x86_64__)
  // The fold takes the whole 16-byte blocks of a buffer of 64 bytes or
  // more; the table loop takes the tail and every shorter buffer.
  if (size >= 64 && cpu_folds()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = ~crc32_fold(~crc, data, folded);
    data += folded;
    size -= folded;
  }
#endif
  return crc32_update_portable(crc, data, size);
}

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0, data, size);
}

}  // namespace mrts
