// A miniature erasure-coded key-value store on simulated persistent
// memory — the kind of fault-tolerant PM system the paper's
// introduction motivates (NOVA-Fortis / Pangolin style redundancy).
//
// Values are striped RS(k, m) across k+m PM "DIMM regions"; a
// background scrubber injects media bit flips (via a checksum check)
// and repairs the affected blocks with the DIALGA codec. The demo also
// runs a timed encode of the same configuration on the memory-hierarchy
// simulator to show the throughput the prefetcher scheduling recovers.
#include <array>
#include <cstring>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench_util/runner.h"
#include "dialga/dialga.h"
#include "integrity/checksum.h"
#include "simmem/address_space.h"

namespace {

constexpr std::size_t kK = 8;
constexpr std::size_t kM = 3;
constexpr std::size_t kBlock = 1024;
constexpr std::size_t kStripeBytes = kK * kBlock;

/// One erasure-coded stripe of PM, holding up to kStripeBytes of value
/// data, with per-block CRC-32C checksums for scrub.
class Stripe {
 public:
  explicit Stripe(simmem::AddressSpace& space) {
    for (std::size_t i = 0; i < kK + kM; ++i) {
      blocks_[i] =
          space.alloc(simmem::MemKind::kPm, kBlock, simmem::kPageBytes, true);
    }
  }

  void write(const std::vector<std::byte>& value,
             const dialga::DialgaCodec& codec) {
    std::size_t off = 0;
    for (std::size_t i = 0; i < kK; ++i) {
      const std::size_t n = std::min(kBlock, value.size() - std::min(off, value.size()));
      std::memset(blocks_[i].host, 0, kBlock);
      if (n > 0) std::memcpy(blocks_[i].host, value.data() + off, n);
      off += kBlock;
    }
    std::vector<const std::byte*> data;
    std::vector<std::byte*> parity;
    for (std::size_t i = 0; i < kK; ++i) data.push_back(blocks_[i].host);
    for (std::size_t j = 0; j < kM; ++j)
      parity.push_back(blocks_[kK + j].host);
    codec.encode(kBlock, data, parity);
    for (std::size_t i = 0; i < kK + kM; ++i) {
      checksum_[i] = integrity::Crc32c(blocks_[i].host, kBlock);
    }
  }

  std::vector<std::byte> read(std::size_t size) const {
    std::vector<std::byte> out(size);
    std::size_t off = 0;
    for (std::size_t i = 0; i < kK && off < size; ++i) {
      const std::size_t n = std::min(kBlock, size - off);
      std::memcpy(out.data() + off, blocks_[i].host, n);
      off += n;
    }
    return out;
  }

  void flip_bit(std::size_t block, std::size_t byte, unsigned bit) {
    blocks_[block].host[byte] ^= static_cast<std::byte>(1u << bit);
  }

  /// Scrub: find blocks whose checksum no longer matches, repair them.
  /// Returns the number of repaired blocks, or -1 if unrecoverable.
  int scrub(const dialga::DialgaCodec& codec) {
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < kK + kM; ++i) {
      if (integrity::Crc32c(blocks_[i].host, kBlock) != checksum_[i]) {
        bad.push_back(i);
      }
    }
    if (bad.empty()) return 0;
    std::vector<std::byte*> all;
    for (auto& b : blocks_) all.push_back(b.host);
    if (!codec.decode(kBlock, all, bad)) return -1;
    for (const std::size_t i : bad) {
      if (integrity::Crc32c(blocks_[i].host, kBlock) != checksum_[i]) return -1;
    }
    return static_cast<int>(bad.size());
  }

 private:
  std::array<simmem::Region, kK + kM> blocks_{};
  std::array<std::uint32_t, kK + kM> checksum_{};
};

}  // namespace

int main() {
  simmem::AddressSpace space;
  const dialga::DialgaCodec codec(kK, kM);
  std::map<std::string, std::pair<Stripe, std::size_t>> store;

  // --- PUT a few values --------------------------------------------
  std::mt19937_64 rng(7);
  std::map<std::string, std::vector<std::byte>> golden;
  for (const std::string key : {"alpha", "beta", "gamma"}) {
    std::vector<std::byte> value(1 + rng() % kStripeBytes);
    for (auto& b : value) b = static_cast<std::byte>(rng());
    golden[key] = value;
    auto [it, _] = store.try_emplace(key, Stripe(space), value.size());
    it->second.first.write(value, codec);
    std::cout << "PUT " << key << " (" << value.size() << " B)\n";
  }

  // --- Inject PM media faults --------------------------------------
  auto& beta = store.at("beta").first;
  beta.flip_bit(0, 100, 3);   // data block bit flip
  beta.flip_bit(5, 900, 6);   // another data block
  beta.flip_bit(kK + 1, 0, 0);  // parity block corruption
  std::cout << "injected 3 media bit flips into 'beta'\n";

  // --- Scrub & repair ----------------------------------------------
  int repaired_total = 0;
  for (auto& [key, entry] : store) {
    const int repaired = entry.first.scrub(codec);
    if (repaired < 0) {
      std::cerr << "stripe '" << key << "' unrecoverable\n";
      return 1;
    }
    if (repaired > 0) {
      std::cout << "scrub repaired " << repaired << " blocks of '" << key
                << "'\n";
      repaired_total += repaired;
    }
  }

  // --- Verify GETs --------------------------------------------------
  for (const auto& [key, value] : golden) {
    const auto got = store.at(key).first.read(value.size());
    if (got != value) {
      std::cerr << "GET " << key << " mismatch\n";
      return 1;
    }
  }
  std::cout << "all GETs verified after repair (" << repaired_total
            << " blocks restored)\n";

  // --- Timed view: what the adaptive scheduling buys on this config --
  simmem::SimConfig cfg;
  bench_util::WorkloadConfig wl;
  wl.k = kK;
  wl.m = kM;
  wl.block_size = kBlock;
  wl.total_data_bytes = 8ull << 20;
  const ec::IsalCodec baseline(kK, kM);
  const auto base = bench_util::RunEncode(cfg, wl, baseline);
  auto provider = codec.make_encode_provider({kK, kM, kBlock, 1}, cfg);
  const auto ours = bench_util::RunTimed(cfg, wl, *provider);
  std::cout << "simulated PM encode throughput: ISA-L " << base.gbps
            << " GB/s -> DIALGA " << ours.gbps << " GB/s ("
            << static_cast<int>((ours.gbps / base.gbps - 1.0) * 100)
            << "% faster)\n";
  return 0;
}
