#include "cluster/wire.h"

#include <cstring>

#include "integrity/checksum.h"

namespace cluster {

namespace {

/// Body bytes before the placement table: seq, stripe, shard, status,
/// aux and the four geometry fields.
constexpr std::size_t kFixedBodyBytes = 8 + 8 + 4 + 4 + 8 + 4 * 4;

void PutU16(std::vector<std::byte>* out, std::uint16_t v) {
  out->push_back(static_cast<std::byte>(v & 0xff));
  out->push_back(static_cast<std::byte>((v >> 8) & 0xff));
}

void PutU32(std::vector<std::byte>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::vector<std::byte>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian reader over the frame body.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : in_(in) {}

  bool u32(std::uint32_t* v) {
    if (in_.size() - pos_ < 4) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<std::uint32_t>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool u64(std::uint64_t* v) {
    if (in_.size() - pos_ < 8) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<std::uint64_t>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool bytes(std::size_t n, std::vector<std::byte>* out) {
    if (in_.size() - pos_ < n) return false;
    out->assign(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ValidMsgType(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kEncode) &&
         t <= static_cast<std::uint8_t>(MsgType::kHeartbeatResp);
}

const char* type_name(MsgType t) {
  switch (t) {
    case MsgType::kEncode: return "encode";
    case MsgType::kEncodeResp: return "encode-resp";
    case MsgType::kRead: return "read";
    case MsgType::kReadResp: return "read-resp";
    case MsgType::kDegradedRead: return "degraded-read";
    case MsgType::kDegradedReadResp: return "degraded-read-resp";
    case MsgType::kRepair: return "repair";
    case MsgType::kRepairResp: return "repair-resp";
    case MsgType::kStore: return "store";
    case MsgType::kStoreResp: return "store-resp";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatResp: return "heartbeat-resp";
  }
  return "?";
}

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kNotFound: return "not-found";
    case WireStatus::kCorrupt: return "corrupt";
    case WireStatus::kNeedGlobal: return "need-global";
    case WireStatus::kStoreFailed: return "store-failed";
    case WireStatus::kUnrecoverable: return "unrecoverable";
    case WireStatus::kBadRequest: return "bad-request";
  }
  return "?";
}

std::vector<std::byte> EncodeFrame(const Frame& f) {
  // Size the body first so header, body and the patched body CRC land
  // in one buffer of exactly the frame's size, each byte written once.
  std::size_t body_len = kFixedBodyBytes + 4 + 4 * f.placement.size() + 4;
  for (const Blob& b : f.blocks) body_len += 8 + b.bytes.size();

  std::vector<std::byte> out;
  out.reserve(kWireHeaderBytes + body_len);
  PutU16(&out, kWireMagic);
  out.push_back(static_cast<std::byte>(kWireVersion));
  out.push_back(static_cast<std::byte>(f.type));
  PutU32(&out, static_cast<std::uint32_t>(body_len));
  PutU32(&out, 0);  // body CRC, patched below
  PutU64(&out, f.seq);
  PutU64(&out, f.stripe);
  PutU32(&out, f.shard);
  PutU32(&out, static_cast<std::uint32_t>(f.status));
  PutU64(&out, f.aux);
  PutU32(&out, f.geom.k);
  PutU32(&out, f.geom.global);
  PutU32(&out, f.geom.local);
  PutU32(&out, f.geom.block_size);
  PutU32(&out, static_cast<std::uint32_t>(f.placement.size()));
  for (const NodeId n : f.placement) PutU32(&out, n);
  PutU32(&out, static_cast<std::uint32_t>(f.blocks.size()));
  for (const Blob& b : f.blocks) {
    PutU32(&out, b.index);
    PutU32(&out, static_cast<std::uint32_t>(b.bytes.size()));
    out.insert(out.end(), b.bytes.begin(), b.bytes.end());
  }

  const std::uint32_t sum =
      integrity::Crc32c(out.data() + kWireHeaderBytes, body_len);
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<std::byte>((sum >> (8 * i)) & 0xff);
  }
  return out;
}

ParseStatus DecodeFrame(std::span<const std::byte> in, Frame* out,
                        std::size_t* consumed) {
  // Magic, version, type and length (the first 8 bytes) are judged as
  // soon as they arrive, so a hostile length is rejected before the
  // rest of the header.
  if (in.size() < 8) return ParseStatus::kTruncated;
  const std::uint16_t magic = static_cast<std::uint16_t>(in[0]) |
                              (static_cast<std::uint16_t>(in[1]) << 8);
  if (magic != kWireMagic) return ParseStatus::kMalformed;
  if (static_cast<std::uint8_t>(in[2]) != kWireVersion) {
    return ParseStatus::kMalformed;
  }
  const std::uint8_t type = static_cast<std::uint8_t>(in[3]);
  if (!ValidMsgType(type)) return ParseStatus::kMalformed;
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i) {
    body_len |= static_cast<std::uint32_t>(in[4 + i]) << (8 * i);
  }
  if (body_len > kMaxWireBody) return ParseStatus::kMalformed;
  if (in.size() < kWireHeaderBytes ||
      in.size() - kWireHeaderBytes < body_len) {
    return ParseStatus::kTruncated;
  }
  std::uint32_t want = 0;
  for (int i = 0; i < 4; ++i) {
    want |= static_cast<std::uint32_t>(in[8 + i]) << (8 * i);
  }
  // Verify the body CRC-32C before any field is trusted — a flipped
  // payload bit (even inside a chunk's bytes) is kMalformed here, not
  // corrupt data downstream.
  if (integrity::Crc32c(in.data() + kWireHeaderBytes, body_len) != want) {
    return ParseStatus::kMalformed;
  }

  Reader r(in.subspan(kWireHeaderBytes, body_len));
  Frame f;
  f.type = static_cast<MsgType>(type);
  std::uint32_t status = 0;
  if (!r.u64(&f.seq) || !r.u64(&f.stripe) || !r.u32(&f.shard) ||
      !r.u32(&status) || !r.u64(&f.aux) || !r.u32(&f.geom.k) ||
      !r.u32(&f.geom.global) || !r.u32(&f.geom.local) ||
      !r.u32(&f.geom.block_size)) {
    return ParseStatus::kMalformed;
  }
  if (status > static_cast<std::uint32_t>(WireStatus::kBadRequest)) {
    return ParseStatus::kMalformed;
  }
  f.status = static_cast<WireStatus>(status);

  std::uint32_t n_placement = 0;
  if (!r.u32(&n_placement)) return ParseStatus::kMalformed;
  // Count bounded both by the protocol limit and by the bytes actually
  // present — a hostile count cannot drive the reserve below.
  if (n_placement > kMaxWireShards || r.remaining() < n_placement * 4ull) {
    return ParseStatus::kMalformed;
  }
  f.placement.reserve(n_placement);
  for (std::uint32_t i = 0; i < n_placement; ++i) {
    std::uint32_t n = 0;
    if (!r.u32(&n)) return ParseStatus::kMalformed;
    f.placement.push_back(n);
  }

  std::uint32_t n_blocks = 0;
  if (!r.u32(&n_blocks)) return ParseStatus::kMalformed;
  if (n_blocks > kMaxWireShards || r.remaining() < n_blocks * 8ull) {
    return ParseStatus::kMalformed;
  }
  f.blocks.reserve(n_blocks);
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    Blob b;
    std::uint32_t len = 0;
    if (!r.u32(&b.index) || !r.u32(&len)) return ParseStatus::kMalformed;
    if (len > kMaxWireBlock || len > r.remaining()) {
      return ParseStatus::kMalformed;
    }
    if (!r.bytes(len, &b.bytes)) return ParseStatus::kMalformed;
    f.blocks.push_back(std::move(b));
  }
  if (!r.done()) return ParseStatus::kMalformed;  // trailing garbage

  *out = std::move(f);
  if (consumed != nullptr) {
    *consumed = kWireHeaderBytes + static_cast<std::size_t>(body_len);
  }
  return ParseStatus::kOk;
}

}  // namespace cluster
