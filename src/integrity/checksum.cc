#include "integrity/checksum.h"

#include <array>
#include <cstring>

#include "gf/gf_simd.h"
#include "obs/metrics.h"

namespace integrity {

namespace {

/// CRC-32C slicing-by-8 tables (Castagnoli polynomial 0x1EDC6F41,
/// reflected 0x82F63B78), built once. Table 0 is the classic byte-wise
/// table; table t shifts a byte t further through the register.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  Crc32cTables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

/// Hardware path selection: the build must carry the SSE4.2 TU and the
/// active gf level must be kAvx2/kAvx512/kGfni — every CPU at those
/// levels has SSE4.2, and pinning DIALGA_ISA to scalar/ssse3 pins the
/// software path for differential runs.
bool WantHardware() {
  if (!Crc32cHardwareAvailable()) return false;
  switch (gf::active_isa()) {
    case gf::IsaLevel::kAvx2:
    case gf::IsaLevel::kAvx512:
    case gf::IsaLevel::kGfni:
      return true;
    case gf::IsaLevel::kScalar:
    case gf::IsaLevel::kSsse3:
      return false;
  }
  return false;
}

}  // namespace

std::uint32_t Crc32cSoftware(const void* data, std::size_t n) {
  const auto& tbl = Tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    word ^= crc;  // little-endian: low 4 bytes absorb the register
    crc = tbl[7][word & 0xFFu] ^ tbl[6][(word >> 8) & 0xFFu] ^
          tbl[5][(word >> 16) & 0xFFu] ^ tbl[4][(word >> 24) & 0xFFu] ^
          tbl[3][(word >> 32) & 0xFFu] ^ tbl[2][(word >> 40) & 0xFFu] ^
          tbl[1][(word >> 48) & 0xFFu] ^ tbl[0][(word >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    crc = tbl[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if !DIALGA_HAVE_SSE42
// The hardware TU is compiled only when the toolchain accepts
// -msse4.2; these stubs keep the link honest elsewhere.
std::uint32_t Crc32cHardware(const void*, std::size_t) { return 0; }
bool Crc32cHardwareCpuOk() { return false; }
#else
// Defined in crc32c_sse42.cc.
std::uint32_t Crc32cHardware(const void* data, std::size_t n);
bool Crc32cHardwareCpuOk();
#endif

bool Crc32cHardwareAvailable() {
#if DIALGA_HAVE_SSE42
  static const bool ok = Crc32cHardwareCpuOk();
  return ok;
#else
  return false;
#endif
}

bool Crc32cUsesHardware() { return WantHardware(); }

std::uint32_t Crc32c(const void* data, std::size_t n) {
  if (WantHardware()) {
    Metrics::Get().checksum_bytes(true, n);
    return Crc32cHardware(data, n);
  }
  Metrics::Get().checksum_bytes(false, n);
  return Crc32cSoftware(data, n);
}

struct Metrics::Impl {
  // Indexed by Layer.
  static constexpr const char* kLayers[2] = {"shard", "cluster"};

  obs::Counter* verify[2];
  obs::Counter* corrupt[2];
  obs::Counter* heal_ok[2];
  obs::Counter* heal_failed[2];
  obs::Counter* quarantine[2];
  obs::Counter* bytes[2];  // [impl: sw=0, hw=1]

  static int LayerIndex(Layer layer) { return static_cast<int>(layer); }
};

Metrics::Metrics() : impl_(new Impl) {
  auto& reg = obs::Registry::Global();
  for (int i = 0; i < 2; ++i) {
    const std::string layer = Impl::kLayers[i];
    impl_->verify[i] = &reg.counter(
        "dialga_integrity_verify_total", {{"layer", layer}},
        "Blocks checksum-verified on a read path");
    impl_->corrupt[i] = &reg.counter(
        "dialga_integrity_corrupt_total", {{"layer", layer}},
        "Checksum mismatches detected by verify-on-read or scrub");
    impl_->heal_ok[i] = &reg.counter(
        "dialga_integrity_heal_total", {{"layer", layer}, {"outcome", "ok"}},
        "Read-repair heal attempts by outcome");
    impl_->heal_failed[i] = &reg.counter(
        "dialga_integrity_heal_total",
        {{"layer", layer}, {"outcome", "failed"}},
        "Read-repair heal attempts by outcome");
    impl_->quarantine[i] = &reg.counter(
        "dialga_integrity_quarantine_total", {{"layer", layer}},
        "Stripes/shards quarantined after exceeding the heal-retry cap");
  }
  const char* impls[2] = {"sw", "hw"};
  for (int im = 0; im < 2; ++im) {
    impl_->bytes[im] = &reg.counter("dialga_integrity_checksum_bytes_total",
                                    {{"impl", impls[im]}},
                                    "Bytes hashed per CRC-32C implementation");
  }
}

Metrics& Metrics::Get() {
  static Metrics m;
  return m;
}

void Metrics::verify(Layer layer, std::uint64_t n) {
  impl_->verify[Impl::LayerIndex(layer)]->inc(n);
}

void Metrics::corrupt(Layer layer, std::uint64_t n) {
  impl_->corrupt[Impl::LayerIndex(layer)]->inc(n);
}

void Metrics::heal(Layer layer, bool ok, std::uint64_t n) {
  const int i = Impl::LayerIndex(layer);
  (ok ? impl_->heal_ok[i] : impl_->heal_failed[i])->inc(n);
}

void Metrics::quarantine(Layer layer, std::uint64_t n) {
  impl_->quarantine[Impl::LayerIndex(layer)]->inc(n);
}

void Metrics::checksum_bytes(bool hw, std::uint64_t n) {
  impl_->bytes[hw ? 1 : 0]->inc(n);
}

}  // namespace integrity
