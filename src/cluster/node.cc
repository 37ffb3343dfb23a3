#include "cluster/node.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "aio/datapath.h"
#include "dialga/dialga.h"
#include "ec/lrc.h"
#include "fault/injector.h"

namespace cluster {

namespace {

// Trailer appended to every persisted chunk: the payload's CRC-32C
// (zero-extended to u64) + the "DIALGA2" magic, so a restarted node
// never trusts a torn, truncated or foreign chunk file — any other
// magic is simply not loaded, and scrub rebuilds the chunk.
constexpr std::uint64_t kChunkMagic = 0x32414741'4c414944ull;  // "DIALGA2"
constexpr std::size_t kTrailerBytes = 16;

void PutTrailerU64(std::vector<std::byte>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t GetTrailerU64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

Frame MakeResp(const Frame& req, MsgType type, WireStatus status) {
  Frame resp;
  resp.type = type;
  resp.seq = req.seq;
  resp.stripe = req.stripe;
  resp.shard = req.shard;
  resp.status = status;
  resp.geom = req.geom;
  return resp;
}

bool ValidGeomFrame(const Frame& req) {
  return req.geom.valid() &&
         req.geom.block_size <= kMaxWireBlock;
}

}  // namespace

Node::Node(NodeConfig cfg, LoopbackTransport* transport)
    : cfg_(std::move(cfg)), transport_(transport) {
  if (!cfg_.data_dir.empty()) LoadDir();
  if (transport_ != nullptr) {
    transport_->register_handler(
        cfg_.id, [this](Frame&& req, Frame* resp) {
          return handle(std::move(req), resp);
        });
  }
}

Node::~Node() {
  if (transport_ != nullptr) transport_->unregister_handler(cfg_.id);
}

std::filesystem::path Node::ChunkPath(std::uint64_t stripe,
                                      std::uint32_t shard) const {
  char name[64];
  std::snprintf(name, sizeof(name), "s%016" PRIx64 "_%04u.chunk", stripe,
                shard);
  return cfg_.data_dir / name;
}

void Node::LoadDir() {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.data_dir, ec);
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg_.data_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::uint64_t stripe = 0;
    std::uint32_t shard = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "s%016" SCNx64 "_%04u.chunk", &stripe,
                    &shard) != 2) {
      continue;
    }
    std::vector<std::byte> raw;
    if (const auto st = aio::ReadFileFull(entry.path(), &raw); !st.ok()) {
      continue;  // unreadable => missing; scrub rebuilds it
    }
    if (raw.size() < kTrailerBytes) continue;
    const std::size_t payload = raw.size() - kTrailerBytes;
    const std::uint64_t sum = GetTrailerU64(raw.data() + payload);
    const std::uint64_t magic = GetTrailerU64(raw.data() + payload + 8);
    if (magic != kChunkMagic) continue;  // torn trailer / foreign file
    integrity::Metrics::Get().verify(integrity::Layer::kCluster);
    if (integrity::Crc32c(raw.data(), payload) != sum) {
      integrity::Metrics::Get().corrupt(integrity::Layer::kCluster);
      continue;  // bit rot
    }
    raw.resize(payload);
    std::lock_guard<std::mutex> lk(mu_);
    chunks_[{stripe, shard}] = Chunk{std::move(raw), sum};
  }
}

bool Node::PersistChunk(std::uint64_t stripe, std::uint32_t shard,
                        const Chunk& c) const {
  if (cfg_.data_dir.empty()) return true;
  std::vector<std::byte> out = c.bytes;
  PutTrailerU64(&out, c.sum);
  PutTrailerU64(&out, kChunkMagic);
  aio::Transfer xfer(aio::SelectBackend(aio::ModeFromEnv()));
  return aio::WriteFileDurable(xfer, ChunkPath(stripe, shard), out).ok();
}

bool Node::PutChunk(std::uint64_t stripe, std::uint32_t shard,
                    std::vector<std::byte> bytes) {
  Chunk c;
  c.sum = integrity::Crc32c(bytes.data(), bytes.size());
  c.bytes = std::move(bytes);
  const bool persisted = PersistChunk(stripe, shard, c);
  std::lock_guard<std::mutex> lk(mu_);
  chunks_[{stripe, shard}] = std::move(c);
  return persisted;
}

WireStatus Node::FetchChunk(std::uint64_t stripe, std::uint32_t shard,
                            std::vector<std::byte>* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = chunks_.find({stripe, shard});
  if (it == chunks_.end()) return WireStatus::kNotFound;
  const Chunk& c = it->second;
  integrity::Metrics::Get().verify(integrity::Layer::kCluster);
  if (integrity::Crc32c(c.bytes.data(), c.bytes.size()) != c.sum) {
    integrity::Metrics::Get().corrupt(integrity::Layer::kCluster);
    return WireStatus::kCorrupt;
  }
  *out = c.bytes;
  return WireStatus::kOk;
}

std::size_t Node::chunk_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chunks_.size();
}

bool Node::has_chunk(std::uint64_t stripe, std::uint32_t shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  return chunks_.count({stripe, shard}) != 0;
}

bool Node::get_chunk(std::uint64_t stripe, std::uint32_t shard,
                     std::vector<std::byte>* out) const {
  return FetchChunk(stripe, shard, out) == WireStatus::kOk;
}

bool Node::corrupt_chunk(std::uint64_t stripe, std::uint32_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = chunks_.find({stripe, shard});
  if (it == chunks_.end() || it->second.bytes.empty()) return false;
  it->second.bytes[0] ^= std::byte{0xff};
  // The stored checksum stays at its pre-flip value, so FetchChunk
  // reports kCorrupt — and the persisted trailer (written from that
  // same stale sum) fails verification on reload too.
  if (!cfg_.data_dir.empty()) PersistChunk(stripe, shard, it->second);
  return true;
}

bool Node::drop_chunk(std::uint64_t stripe, std::uint32_t shard) {
  std::lock_guard<std::mutex> lk(mu_);
  if (chunks_.erase({stripe, shard}) == 0) return false;
  if (!cfg_.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove(ChunkPath(stripe, shard), ec);
  }
  return true;
}

const ec::Codec& Node::CodecFor(const Geometry& geom) {
  std::lock_guard<std::mutex> lk(codec_mu_);
  const auto key = std::make_tuple(geom.k, geom.global, geom.local);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    std::unique_ptr<const ec::Codec> codec;
    if (geom.local > 0) {
      codec = std::make_unique<ec::LrcCodec>(geom.k, geom.global, geom.local);
    } else {
      // Plain RS gets this node's own DIALGA codec — an independent
      // adaptive planner per node.
      codec = std::make_unique<dialga::DialgaCodec>(geom.k, geom.global);
    }
    it = codecs_.emplace(key, std::move(codec)).first;
  }
  return *it->second;
}

WireStatus Node::FetchRemote(const Frame& ctx, std::uint32_t shard,
                             std::vector<std::byte>* out) {
  if (shard >= ctx.placement.size()) return WireStatus::kBadRequest;
  const NodeId home = ctx.placement[shard];
  if (home == cfg_.id) return FetchChunk(ctx.stripe, shard, out);
  if (transport_ == nullptr) return WireStatus::kNotFound;
  Frame req;
  req.type = MsgType::kRead;
  req.stripe = ctx.stripe;
  req.shard = shard;
  req.geom = ctx.geom;
  Frame resp;
  if (transport_->call(cfg_.id, home, req, &resp) != 0) {
    return WireStatus::kNotFound;
  }
  if (resp.status != WireStatus::kOk || resp.blocks.size() != 1) {
    return resp.status == WireStatus::kOk ? WireStatus::kNotFound
                                          : resp.status;
  }
  *out = std::move(resp.blocks[0].bytes);
  return WireStatus::kOk;
}

WireStatus Node::Reconstruct(const Frame& ctx, std::uint32_t target,
                             std::vector<std::byte>* out,
                             std::uint64_t* scope) {
  const Geometry& geom = ctx.geom;
  const std::size_t bs = geom.block_size;

  // Local-group XOR first: the group's local parity is the XOR of its
  // data shards, so any single missing member is the XOR of the rest —
  // group_size reads instead of k, all inside one failure domain.
  const int group = geom.group_of(target);
  if (group >= 0) {
    std::vector<std::byte> acc(bs, std::byte{0});
    bool all_present = true;
    for (const std::uint32_t member :
         geom.group_members(static_cast<std::uint32_t>(group))) {
      if (member == target) continue;
      std::vector<std::byte> chunk;
      if (FetchRemote(ctx, member, &chunk) != WireStatus::kOk ||
          chunk.size() != bs) {
        all_present = false;
        break;
      }
      for (std::size_t i = 0; i < bs; ++i) acc[i] ^= chunk[i];
    }
    if (all_present) {
      *out = std::move(acc);
      *scope = 0;  // local
      return WireStatus::kOk;
    }
  }

  // Global path: gather every reachable shard, mark the rest erased,
  // and run the full decode when >= k survive.
  const std::uint32_t total = geom.total_shards();
  std::vector<std::vector<std::byte>> buffers(total);
  std::vector<std::byte*> blocks(total);
  std::vector<std::size_t> erasures;
  for (std::uint32_t j = 0; j < total; ++j) {
    buffers[j].assign(bs, std::byte{0});
    blocks[j] = buffers[j].data();
    if (j == target) {
      erasures.push_back(j);
      continue;
    }
    std::vector<std::byte> chunk;
    if (FetchRemote(ctx, j, &chunk) == WireStatus::kOk &&
        chunk.size() == bs) {
      buffers[j] = std::move(chunk);
      blocks[j] = buffers[j].data();
    } else {
      erasures.push_back(j);
    }
  }
  if (total - erasures.size() < geom.k) return WireStatus::kUnrecoverable;

  if (!CodecFor(geom).decode(bs, std::span<std::byte* const>(blocks),
                             std::span<const std::size_t>(erasures))) {
    return WireStatus::kUnrecoverable;
  }
  *out = std::move(buffers[target]);
  *scope = 1;  // global
  return WireStatus::kOk;
}

Frame Node::HandleStore(Frame&& req) {
  if (req.blocks.size() != 1 ||
      req.blocks[0].bytes.size() != req.geom.block_size) {
    return MakeResp(req, MsgType::kStoreResp, WireStatus::kBadRequest);
  }
  const bool ok = PutChunk(req.stripe, req.blocks[0].index,
                           std::move(req.blocks[0].bytes));
  return MakeResp(req, MsgType::kStoreResp,
                  ok ? WireStatus::kOk : WireStatus::kStoreFailed);
}

Frame Node::HandleRead(const Frame& req) {
  std::vector<std::byte> bytes;
  const WireStatus st = FetchChunk(req.stripe, req.shard, &bytes);
  Frame resp = MakeResp(req, MsgType::kReadResp, st);
  if (st == WireStatus::kOk) {
    resp.blocks.push_back({req.shard, std::move(bytes)});
  }
  return resp;
}

Frame Node::HandleEncode(Frame&& req) {
  const Geometry& geom = req.geom;
  if (!ValidGeomFrame(req) ||
      req.placement.size() != geom.total_shards() ||
      req.blocks.size() != geom.k) {
    return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
  }
  // Shard j's payload for j < k: the request blob carrying index j.
  std::vector<std::vector<std::byte>*> data_bufs(geom.k, nullptr);
  std::vector<const std::byte*> data(geom.k, nullptr);
  for (Blob& b : req.blocks) {
    if (b.index >= geom.k || b.bytes.size() != geom.block_size ||
        data[b.index] != nullptr) {
      return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
    }
    data_bufs[b.index] = &b.bytes;
    data[b.index] = b.bytes.data();
  }
  for (const std::byte* p : data) {
    if (p == nullptr) {
      return MakeResp(req, MsgType::kEncodeResp, WireStatus::kBadRequest);
    }
  }

  const std::uint32_t parities = geom.global + geom.local;
  std::vector<std::vector<std::byte>> parity_bufs(parities);
  std::vector<std::byte*> parity(parities);
  for (std::uint32_t j = 0; j < parities; ++j) {
    parity_bufs[j].assign(geom.block_size, std::byte{0});
    parity[j] = parity_bufs[j].data();
  }
  CodecFor(geom).encode(geom.block_size,
                        std::span<const std::byte* const>(data),
                        std::span<std::byte* const>(parity));

  // Fan the k + m chunks out to their homes (self included). Each
  // payload is moved into its store frame; this node's own chunk is
  // copied, so a failed local persist can still report it. Failures
  // are reported — with their payloads — so the coordinator can retry
  // the stores directly instead of re-encoding.
  Frame resp = MakeResp(req, MsgType::kEncodeResp, WireStatus::kOk);
  for (std::uint32_t j = 0; j < geom.total_shards(); ++j) {
    std::vector<std::byte>& payload =
        j < geom.k ? *data_bufs[j] : parity_bufs[j - geom.k];
    bool ok;
    if (req.placement[j] == cfg_.id) {
      ok = PutChunk(req.stripe, j, payload);
    } else if (transport_ != nullptr) {
      Frame store;
      store.type = MsgType::kStore;
      store.stripe = req.stripe;
      store.geom = geom;
      store.blocks.push_back({j, std::move(payload)});
      Frame store_resp;
      ok = transport_->call(cfg_.id, req.placement[j], store,
                            &store_resp) == 0 &&
           store_resp.status == WireStatus::kOk;
      // call() only reads the frame: the failure report takes the
      // bytes back from it.
      if (!ok) payload = std::move(store.blocks[0].bytes);
    } else {
      ok = false;
    }
    if (!ok) {
      resp.status = WireStatus::kStoreFailed;
      resp.placement.push_back(j);  // failed shard indices
      resp.blocks.push_back({j, std::move(payload)});
    }
  }
  return resp;
}

Frame Node::HandleDegradedRead(const Frame& req) {
  const Geometry& geom = req.geom;
  if (!ValidGeomFrame(req) || req.shard >= geom.total_shards() ||
      req.placement.size() != geom.total_shards()) {
    return MakeResp(req, MsgType::kDegradedReadResp,
                    WireStatus::kBadRequest);
  }
  // This RPC is the LOCAL path only: a group member reconstructs the
  // target from its group. Anything needing the global parities is the
  // coordinator's job (kNeedGlobal), so the scope accounting — and the
  // locality invariant the chaos tests check — stays honest.
  if (geom.group_of(req.shard) < 0) {
    return MakeResp(req, MsgType::kDegradedReadResp,
                    WireStatus::kNeedGlobal);
  }
  std::vector<std::byte> acc(geom.block_size, std::byte{0});
  for (const std::uint32_t member : geom.group_members(
           static_cast<std::uint32_t>(geom.group_of(req.shard)))) {
    if (member == req.shard) continue;
    std::vector<std::byte> chunk;
    if (FetchRemote(req, member, &chunk) != WireStatus::kOk ||
        chunk.size() != geom.block_size) {
      return MakeResp(req, MsgType::kDegradedReadResp,
                      WireStatus::kNeedGlobal);
    }
    for (std::size_t i = 0; i < chunk.size(); ++i) acc[i] ^= chunk[i];
  }
  Frame resp = MakeResp(req, MsgType::kDegradedReadResp, WireStatus::kOk);
  resp.aux = 0;  // local scope
  resp.blocks.push_back({req.shard, std::move(acc)});
  return resp;
}

Frame Node::HandleRepair(const Frame& req) {
  const Geometry& geom = req.geom;
  if (!ValidGeomFrame(req) || req.shard >= geom.total_shards() ||
      req.placement.size() != geom.total_shards()) {
    return MakeResp(req, MsgType::kRepairResp, WireStatus::kBadRequest);
  }
  std::vector<std::byte> rebuilt;
  std::uint64_t scope = 1;
  const WireStatus st = Reconstruct(req, req.shard, &rebuilt, &scope);
  if (st != WireStatus::kOk) {
    return MakeResp(req, MsgType::kRepairResp, st);
  }
  const NodeId dest = static_cast<NodeId>(req.aux);
  bool stored;
  if (dest == cfg_.id) {
    stored = PutChunk(req.stripe, req.shard, rebuilt);
  } else if (transport_ != nullptr) {
    Frame store;
    store.type = MsgType::kStore;
    store.stripe = req.stripe;
    store.geom = geom;
    store.blocks.push_back({req.shard, std::move(rebuilt)});
    Frame store_resp;
    stored = transport_->call(cfg_.id, dest, store, &store_resp) == 0 &&
             store_resp.status == WireStatus::kOk;
  } else {
    stored = false;
  }
  Frame resp = MakeResp(req, MsgType::kRepairResp,
                        stored ? WireStatus::kOk : WireStatus::kStoreFailed);
  resp.aux = scope;
  return resp;
}

Frame Node::HandleHeartbeat(const Frame& req) {
  Frame resp = MakeResp(req, MsgType::kHeartbeatResp, WireStatus::kOk);
  resp.aux = chunk_count();
  return resp;
}

int Node::handle(Frame&& req, Frame* resp) {
  switch (req.type) {
    case MsgType::kStore:
      *resp = HandleStore(std::move(req));
      return 0;
    case MsgType::kRead:
      *resp = HandleRead(req);
      return 0;
    case MsgType::kEncode:
      *resp = HandleEncode(std::move(req));
      return 0;
    case MsgType::kDegradedRead:
      *resp = HandleDegradedRead(req);
      return 0;
    case MsgType::kRepair:
      *resp = HandleRepair(req);
      return 0;
    case MsgType::kHeartbeat:
      *resp = HandleHeartbeat(req);
      return 0;
    default:
      // Response-typed frames are not requests.
      *resp = MakeResp(req, MsgType::kHeartbeatResp, WireStatus::kBadRequest);
      return 0;
  }
}

}  // namespace cluster
