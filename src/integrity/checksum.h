// CRC-32C block checksums with hardware dispatch — the datapath
// integrity primitive behind verify-on-read, and the only checksum
// algorithm this code reads or writes. CRC-32C (Castagnoli, the
// iSCSI/ext4 polynomial) is runtime-dispatched onto the SSE4.2 CRC32
// instruction when the active gf::IsaLevel implies it, with a
// slicing-by-8 software path that is bit-identical — DIALGA_ISA=scalar
// pins the software path, so the CI ISA matrix doubles as a
// hardware/software differential test.
//
// Stored sums (manifest tables, chunk trailers) are u64
// fields holding the CRC zero-extended. Data sealed with any other
// algorithm fails closed at its format's parser (docs/integrity.md).
//
// Dispatch rides the existing gf runtime-dispatch infrastructure
// rather than a private cpuid probe: levels at or above kAvx2 (every
// such CPU has SSE4.2) select the hardware path when the build enabled
// it; kScalar and kSsse3 select software. set_active_isa()/DIALGA_ISA
// therefore steer checksums and GF kernels together.
#pragma once

#include <cstddef>
#include <cstdint>

namespace integrity {

/// CRC-32C, dispatched per the active gf ISA level (see header note).
std::uint32_t Crc32c(const void* data, std::size_t n);

/// The portable slicing-by-8 reference — always available, used by the
/// differential tests as ground truth.
std::uint32_t Crc32cSoftware(const void* data, std::size_t n);

/// True when the build carries the SSE4.2 path and this CPU executes
/// it (independent of the active ISA level).
bool Crc32cHardwareAvailable();

/// True when a Crc32c() call right now would take the hardware path.
bool Crc32cUsesHardware();

/// The read path a dialga_integrity_* series is attributed to; exported
/// as the `layer` label ("shard", "cluster").
enum class Layer { kShard, kCluster };

/// Eagerly registered dialga_integrity_* metrics. Every family/label
/// combination is created at first Get(), so exporters (and the CI
/// metrics gate) see the whole schema at zero from the first scrape.
/// Heal outcomes: ok, failed.
struct Metrics {
  static Metrics& Get();

  /// dialga_integrity_verify_total{layer}: blocks checksum-verified on
  /// a read path.
  void verify(Layer layer, std::uint64_t n = 1);
  /// dialga_integrity_corrupt_total{layer}: verification mismatches.
  void corrupt(Layer layer, std::uint64_t n = 1);
  /// dialga_integrity_heal_total{layer,outcome}: read-repair attempts.
  void heal(Layer layer, bool ok, std::uint64_t n = 1);
  /// dialga_integrity_quarantine_total{layer}: stripes/shards given up
  /// on after the heal-retry cap.
  void quarantine(Layer layer, std::uint64_t n = 1);
  /// dialga_integrity_checksum_bytes_total{impl}: bytes hashed.
  void checksum_bytes(bool hw, std::uint64_t n);

 private:
  Metrics();
  struct Impl;
  Impl* impl_;  // leaked with the process-lifetime registry entries
};

}  // namespace integrity
