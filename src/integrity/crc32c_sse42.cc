// SSE4.2 CRC32 instruction path — compiled with -msse4.2 in its own
// TU (the gf_simd_* pattern), selected at runtime by Crc32c() when the
// active ISA level implies the CPU has it.
//
// The crc32 instruction accepts one input per cycle but has a 3-cycle
// latency, so a single dependent chain runs at a third of its
// throughput. The kernel keeps three independent chains in flight over
// three equal, adjacent sub-blocks — 8 KiB each while 24 KiB remain,
// then 256 B each while 768 B remain — and a single chain takes the
// tail. CRC is linear over GF(2), so the register after A||B is
// shift(reg(A), |B|) ^ reg(B started from zero), where shift advances a
// register over |B| zero bytes. That shift is a 32x32 GF(2) matrix,
// applied a byte of the register at a time through four 256-entry
// tables per sub-block size, built once (Mark Adler's public-domain
// crc32c.c method). The result is bit-identical to slicing-by-8.
#include <cstddef>
#include <cstdint>
#include <cstring>

#include <nmmintrin.h>

namespace integrity {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/// `mat` times `vec` over GF(2); mat[i] is the image of bit i.
std::uint32_t Gf2Times(const std::uint32_t* mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (; vec != 0; vec >>= 1, ++mat) {
    if ((vec & 1u) != 0) sum ^= *mat;
  }
  return sum;
}

/// Advances a CRC register over `len` zero bytes (`len` a power of
/// two) with four byte-indexed lookups.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t len) {
    // The operator for one zero bit, squared up to len * 8 bits.
    std::uint32_t op[32];
    op[0] = kPoly;
    for (int i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
    for (std::size_t bits = 1; bits < len * 8; bits <<= 1) {
      std::uint32_t sq[32];
      for (int i = 0; i < 32; ++i) sq[i] = Gf2Times(op, op[i]);
      std::memcpy(op, sq, sizeof(op));
    }
    for (std::uint32_t v = 0; v < 256; ++v) {
      for (int b = 0; b < 4; ++b) table_[b][v] = Gf2Times(op, v << (8 * b));
    }
  }

  std::uint32_t operator()(std::uint64_t crc) const {
    return table_[0][crc & 0xFFu] ^ table_[1][(crc >> 8) & 0xFFu] ^
           table_[2][(crc >> 16) & 0xFFu] ^ table_[3][(crc >> 24) & 0xFFu];
  }

 private:
  std::uint32_t table_[4][256];
};

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// Consumes every whole 3 * kBlock run at *p, three chains at a time,
/// and returns the register folded over all of them.
template <std::size_t kBlock>
std::uint64_t ThreeChains(std::uint64_t crc, const unsigned char** p,
                          std::size_t* n, const ZeroShift& shift) {
  const unsigned char* next = *p;
  for (; *n >= 3 * kBlock; *n -= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (const unsigned char* end = next + kBlock; next < end; next += 8) {
      crc = _mm_crc32_u64(crc, Load64(next));
      crc1 = _mm_crc32_u64(crc1, Load64(next + kBlock));
      crc2 = _mm_crc32_u64(crc2, Load64(next + 2 * kBlock));
    }
    crc = shift(crc) ^ crc1;
    crc = shift(crc) ^ crc2;
    next += 2 * kBlock;
  }
  *p = next;
  return crc;
}

struct Shifts {
  ZeroShift long_block{kLongBlock};
  ZeroShift short_block{kShortBlock};
};

}  // namespace

bool Crc32cHardwareCpuOk() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::uint32_t Crc32cHardware(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = 0xFFFFFFFFu;
  // Up to seven leading bytes, so no word load splits a cache line.
  while (n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
    --n;
  }
  if (n >= 3 * kShortBlock) {
    static const Shifts shifts;
    crc = ThreeChains<kLongBlock>(crc, &p, &n, shifts.long_block);
    crc = ThreeChains<kShortBlock>(crc, &p, &n, shifts.short_block);
  }
  for (; n >= 8; n -= 8, p += 8) crc = _mm_crc32_u64(crc, Load64(p));
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n-- != 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
  }
  return crc32 ^ 0xFFFFFFFFu;
}

}  // namespace integrity
