// Versioned, length-prefixed wire format for the cluster RPCs —
// parsed with the same hostility assumptions as shard::Manifest:
// truncated, corrupt, or adversarial frames must never crash the
// parser or make it allocate unbounded memory (wire_fuzz_test holds it
// to that).
//
// Frame layout (all integers little-endian):
//
//   magic   u16   0xDC17
//   version u8    kWireVersion (2) — bumped on incompatible change;
//                 any other version is kMalformed (fail closed)
//   type    u8    MsgType
//   length  u32   body byte count (bounded by kMaxWireBody)
//   bodysum u32   CRC-32C of the body: a frame whose payload rotted in
//                 flight is kMalformed at the receiver, never
//                 silently-wrong chunk bytes
//   body:
//     seq      u64   caller-chosen correlation id (echoed in responses)
//     stripe   u64
//     shard    u32   target shard index (reads / repair)
//     status   u32   WireStatus (responses)
//     aux      u64   per-type extra: repair destination node, heartbeat
//                    chunk count, degraded-read scope
//     geometry u32×4 k, global, local, block_size
//     placement u32 count, then count u32 node ids (home per shard)
//     blocks    u32 count, then per block: u32 shard index, u32 byte
//               length, payload bytes
//
// Every count and length is bounds-checked against both its own limit
// and the remaining body bytes before any allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/placement.h"

namespace cluster {

inline constexpr std::uint16_t kWireMagic = 0xDC17;
inline constexpr std::uint8_t kWireVersion = 2;
/// Header bytes before the body: magic, version, type, length, bodysum.
inline constexpr std::size_t kWireHeaderBytes = 12;
/// Hard parser bounds: shards per stripe, bytes per block, bytes per
/// frame body. A frame claiming more is malformed, not a bigger
/// allocation.
inline constexpr std::uint32_t kMaxWireShards = 4096;
inline constexpr std::uint32_t kMaxWireBlock = 64u << 20;
inline constexpr std::uint64_t kMaxWireBody = 1ull << 30;

enum class MsgType : std::uint8_t {
  kEncode = 1,        ///< coordinator -> primary: k data blocks + table
  kEncodeResp = 2,    ///< parity blobs + per-shard store failures
  kRead = 3,          ///< fetch one shard chunk
  kReadResp = 4,
  kDegradedRead = 5,  ///< reconstruct a shard inside its local group
  kDegradedReadResp = 6,
  kRepair = 7,        ///< reconstruct + store to `aux` destination node
  kRepairResp = 8,
  kStore = 9,         ///< store one shard chunk (encode fan-out, repair)
  kStoreResp = 10,
  kHeartbeat = 11,
  kHeartbeatResp = 12,
};

bool ValidMsgType(std::uint8_t t);
const char* type_name(MsgType t);

/// Response status carried in Frame::status.
enum class WireStatus : std::uint32_t {
  kOk = 0,
  kNotFound = 1,      ///< chunk missing on the addressed node
  kCorrupt = 2,       ///< chunk present but failed its checksum
  kNeedGlobal = 3,    ///< local group cannot reconstruct; go global
  kStoreFailed = 4,   ///< one or more fan-out stores failed (see frame)
  kUnrecoverable = 5, ///< fewer than k survivors reachable
  kBadRequest = 6,
};

const char* to_string(WireStatus s);

struct Blob {
  std::uint32_t index = 0;  ///< shard index the payload belongs to
  std::vector<std::byte> bytes;
};

/// One RPC message, request or response. Unused fields stay zeroed —
/// the codec writes and reads every field regardless of type, keeping
/// the parser a single straight-line bounds-checked routine.
struct Frame {
  MsgType type = MsgType::kHeartbeat;
  std::uint64_t seq = 0;
  std::uint64_t stripe = 0;
  std::uint32_t shard = 0;
  WireStatus status = WireStatus::kOk;
  std::uint64_t aux = 0;
  Geometry geom;
  std::vector<NodeId> placement;
  std::vector<Blob> blocks;
};

std::vector<std::byte> EncodeFrame(const Frame& f);

enum class ParseStatus {
  kOk,
  kTruncated,  ///< need more bytes (a stream transport would wait)
  kMalformed,  ///< bad magic/version/type or bounds violation
};

/// Parse one frame from `in`. On kOk, `*out` is fully populated and
/// `*consumed` (when non-null) holds the frame's total byte length.
/// Never throws, never reads past `in`, never allocates more than the
/// frame's declared (and bounds-checked) sizes.
ParseStatus DecodeFrame(std::span<const std::byte> in, Frame* out,
                        std::size_t* consumed = nullptr);

}  // namespace cluster
