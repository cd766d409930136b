#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QBISM_X86_SIMD_DISPATCH 1
#include <immintrin.h>
#endif

namespace qbism {

namespace {

constexpr std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kCrcTable = BuildCrcTable();

// The kernels below run on the raw shift register (the CRC before its
// final inversion); the public functions invert on the way in and out.

uint32_t ScalarRegister(uint32_t c, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef QBISM_X86_SIMD_DISPATCH

#define QBISM_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

QBISM_CRC_FOLD_TARGET inline __m128i Load128(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// `acc` advanced by the distance `k` encodes, folded onto `next`: the
/// low and high 64-bit halves each multiply by their own constant.
QBISM_CRC_FOLD_TARGET inline __m128i Fold(__m128i acc, __m128i k,
                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the register
/// with carry-less multiplies: four 128-bit accumulators advance 512
/// bits per step, collapse to one, take the remaining 16-byte blocks,
/// and Barrett-reduce to 32 bits. The constants are the bit-reflected
/// x^n mod P of Gopal et al. (2009), the values zlib and Linux use for
/// this polynomial: k1/k2 fold across 4 x 128 bits, k3/k4 across 128
/// bits, k5 takes 64 bits to 32, and P'/mu drive the Barrett step.
QBISM_CRC_FOLD_TARGET uint32_t FoldRegister(uint32_t c, const uint8_t* p,
                                            size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits of remainder-to-be.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuHasFolding() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

#endif  // QBISM_X86_SIMD_DISPATCH

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  uint32_t c = ~crc;
#ifdef QBISM_X86_SIMD_DISPATCH
  if (size >= 64 && CpuHasFolding()) {
    const size_t blocks = size & ~size_t{15};
    c = FoldRegister(c, data, blocks);
    data += blocks;
    size -= blocks;
  }
#endif
  return ~ScalarRegister(c, data, size);
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Extend(0, data, size);
}

uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

uint32_t Crc32Scalar(const uint8_t* data, size_t size) {
  return ~ScalarRegister(0xFFFFFFFFu, data, size);
}

}  // namespace qbism
