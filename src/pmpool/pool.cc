#include "pmpool/pool.h"

#include <cassert>
#include <cstring>

#include "fault/injector.h"
#include "integrity/checksum.h"

namespace pmpool {

Pool::Pool(const PoolConfig& cfg)
    : cfg_(cfg),
      codec_(cfg.k, cfg.m),
      updater_(codec_.inner()) {}

std::optional<std::size_t> Pool::new_stripe() {
  // Fault site: a firing plan models the PM region allocator running
  // out — the put degrades instead of wedging the pool.
  if (fault::Fires("pmpool.alloc")) return std::nullopt;
  Stripe s;
  s.blocks.reserve(cfg_.k + cfg_.m);
  for (std::size_t i = 0; i < cfg_.k + cfg_.m; ++i) {
    s.blocks.push_back(space_.alloc(simmem::MemKind::kPm, cfg_.block_size,
                                    simmem::kPageBytes, /*backed=*/true));
  }
  s.checksums.assign(cfg_.k + cfg_.m, 0);
  stripes_.push_back(std::move(s));
  return stripes_.size() - 1;
}

void Pool::encode_stripe(Stripe& s) {
  std::vector<const std::byte*> data;
  std::vector<std::byte*> parity;
  for (std::size_t i = 0; i < cfg_.k; ++i) data.push_back(s.blocks[i].host);
  for (std::size_t j = 0; j < cfg_.m; ++j) {
    parity.push_back(s.blocks[cfg_.k + j].host);
  }
  codec_.encode(cfg_.block_size, data, parity);
  reseal(s);
}

void Pool::reseal(Stripe& s) {
  for (std::size_t i = 0; i < cfg_.k + cfg_.m; ++i) {
    s.checksums[i] = seal(s, i);
  }
}

std::uint64_t Pool::seal(const Stripe& s, std::size_t block) const {
  return integrity::Crc32c(s.blocks[block].host, cfg_.block_size);
}

bool Pool::heal_stripe(Stripe& s) const {
  auto& im = integrity::Metrics::Get();
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < cfg_.k + cfg_.m; ++i) {
    im.verify("pmpool");
    if (seal(s, i) != s.checksums[i]) bad.push_back(i);
  }
  im.corrupt("pmpool", bad.size());
  bool healed = false;
  if (!bad.empty() && bad.size() <= cfg_.m) {
    std::vector<std::byte*> all;
    all.reserve(cfg_.k + cfg_.m);
    for (auto& b : s.blocks) all.push_back(b.host);
    if (codec_.decode(cfg_.block_size, all, bad)) {
      // Only sealed-checksum-confirmed reconstructions count: a decode
      // poisoned by an undetected bad survivor must not pass as clean.
      healed = true;
      for (const std::size_t i : bad) {
        if (seal(s, i) != s.checksums[i]) {
          healed = false;
          break;
        }
      }
    }
  }
  if (healed || bad.empty()) {
    if (!bad.empty()) im.heal("pmpool", true);
    s.heal_attempts = 0;
    return true;
  }
  im.heal("pmpool", false);
  if (++s.heal_attempts >= cfg_.heal_retry_cap) {
    s.quarantined = true;
    im.quarantine("pmpool");
  }
  return false;
}

Pool::ObjectId Pool::put(std::span<const std::byte> value) {
  const std::optional<ObjectId> id = try_put(value);
  return id.has_value() ? *id : kPutFailed;
}

std::optional<Pool::ObjectId> Pool::try_put(std::span<const std::byte> value) {
  const std::size_t first_stripe = stripes_.size();
  Object obj;
  obj.size = value.size();
  std::size_t off = 0;
  do {
    const std::optional<std::size_t> maybe_si = new_stripe();
    if (!maybe_si.has_value()) {
      // All-or-nothing: drop the stripes this object already carved so
      // scrub/stats never see a partially stored object.
      stripes_.resize(first_stripe);
      return std::nullopt;
    }
    const std::size_t si = *maybe_si;
    Stripe& s = stripes_[si];
    obj.stripes.push_back(si);
    for (std::size_t i = 0; i < cfg_.k; ++i) {
      std::byte* dst = s.blocks[i].host;
      std::memset(dst, 0, cfg_.block_size);
      if (off < value.size()) {
        const std::size_t n =
            std::min(cfg_.block_size, value.size() - off);
        std::memcpy(dst, value.data() + off, n);
        off += n;
      }
    }
    encode_stripe(s);
  } while (off < value.size());
  objects_.push_back(std::move(obj));
  return objects_.size() - 1;
}

std::optional<std::vector<std::byte>> Pool::get(ObjectId id) const {
  if (id >= objects_.size()) return std::nullopt;
  const Object& obj = objects_[id];
  std::vector<std::byte> out(obj.size);
  std::size_t off = 0;
  for (const std::size_t si : obj.stripes) {
    Stripe& s = stripes_[si];
    if (s.quarantined) return std::nullopt;  // damage, named — not bytes
    // Corruption drill first (models PM rot discovered at read time),
    // then verify the data blocks this read consumes; any mismatch
    // triggers a whole-stripe heal before a byte is copied out.
    bool suspect = false;
    std::size_t probe = off;
    for (std::size_t i = 0; i < cfg_.k && probe < obj.size; ++i) {
      fault::MaybeCorrupt("pmpool.get.corrupt", s.blocks[i].host,
                          cfg_.block_size);
      if (cfg_.verify_on_read) {
        integrity::Metrics::Get().verify("pmpool");
        if (seal(s, i) != s.checksums[i]) suspect = true;
      }
      probe += std::min(cfg_.block_size, obj.size - probe);
    }
    if (suspect && !heal_stripe(s)) return std::nullopt;
    for (std::size_t i = 0; i < cfg_.k && off < obj.size; ++i) {
      const std::size_t n = std::min(cfg_.block_size, obj.size - off);
      std::memcpy(out.data() + off, s.blocks[i].host, n);
      off += n;
    }
  }
  return out;
}

bool Pool::update(ObjectId id, std::size_t offset,
                  std::span<const std::byte> bytes) {
  if (id >= objects_.size()) return false;
  const Object& obj = objects_[id];
  if (offset + bytes.size() > obj.size) return false;

  std::size_t consumed = 0;
  while (consumed < bytes.size()) {
    const std::size_t pos = offset + consumed;
    const std::size_t stripe_idx = pos / cfg_.stripe_payload();
    const std::size_t in_stripe = pos % cfg_.stripe_payload();
    const std::size_t block = in_stripe / cfg_.block_size;
    const std::size_t in_block = in_stripe % cfg_.block_size;
    const std::size_t n = std::min(bytes.size() - consumed,
                                   cfg_.block_size - in_block);

    Stripe& s = stripes_[obj.stripes[stripe_idx]];
    std::vector<std::byte*> parity;
    for (std::size_t j = 0; j < cfg_.m; ++j) {
      parity.push_back(s.blocks[cfg_.k + j].host);
    }
    updater_.apply(cfg_.block_size, block, in_block,
                   bytes.subspan(consumed, n), s.blocks[block].host,
                   parity);
    reseal(s);
    consumed += n;
  }
  return true;
}

ScrubReport Pool::scrub() {
  ScrubReport report;
  auto& im = integrity::Metrics::Get();
  for (Stripe& s : stripes_) {
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < cfg_.k + cfg_.m; ++i) {
      ++report.blocks_checked;
      im.verify("pmpool");
      if (seal(s, i) != s.checksums[i]) bad.push_back(i);
    }
    report.blocks_damaged += bad.size();
    im.corrupt("pmpool", bad.size());
    if (bad.empty()) {
      // A clean pass over a quarantined stripe lifts the quarantine —
      // scrub is the rehabilitation path.
      if (s.quarantined) {
        s.quarantined = false;
        s.heal_attempts = 0;
        ++report.stripes_unquarantined;
      }
      continue;
    }
    if (bad.size() > cfg_.m) {
      ++report.objects_lost;
      im.heal("pmpool", false);
      continue;
    }
    std::vector<std::byte*> all;
    for (auto& b : s.blocks) all.push_back(b.host);
    if (!codec_.decode(cfg_.block_size, all, bad)) {
      ++report.objects_lost;
      im.heal("pmpool", false);
      continue;
    }
    // Only count blocks whose repaired bytes match the sealed checksum.
    std::size_t confirmed = 0;
    for (const std::size_t i : bad) {
      if (seal(s, i) == s.checksums[i]) ++confirmed;
    }
    report.blocks_repaired += confirmed;
    im.heal("pmpool", confirmed == bad.size());
    if (confirmed == bad.size() && s.quarantined) {
      s.quarantined = false;
      s.heal_attempts = 0;
      ++report.stripes_unquarantined;
    }
  }
  return report;
}

std::size_t Pool::quarantined_stripes() const {
  std::size_t n = 0;
  for (const Stripe& s : stripes_) {
    if (s.quarantined) ++n;
  }
  return n;
}

PoolStats Pool::stats() const {
  PoolStats st;
  st.objects = objects_.size();
  st.stripes = stripes_.size();
  for (const Object& o : objects_) st.payload_bytes += o.size;
  st.pm_bytes = stripes_.size() * (cfg_.k + cfg_.m) * cfg_.block_size;
  return st;
}

void Pool::inject_fault(ObjectId id, std::size_t stripe_of_object,
                        std::size_t block, std::size_t byte_offset) {
  assert(id < objects_.size());
  const Object& obj = objects_[id];
  assert(stripe_of_object < obj.stripes.size());
  Stripe& s = stripes_[obj.stripes[stripe_of_object]];
  assert(block < cfg_.k + cfg_.m && byte_offset < cfg_.block_size);
  s.blocks[block].host[byte_offset] ^= std::byte{0x04};
}

}  // namespace pmpool
