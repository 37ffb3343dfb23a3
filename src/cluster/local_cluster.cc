#include "cluster/local_cluster.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace cluster {

namespace {

std::vector<NodeInfo> Membership(const LocalClusterConfig& cfg) {
  std::vector<NodeInfo> infos;
  infos.reserve(cfg.nodes);
  const std::size_t domains = cfg.domains == 0 ? cfg.nodes : cfg.domains;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    infos.push_back({LocalCluster::id_of(i),
                     static_cast<std::uint32_t>(i % domains)});
  }
  return infos;
}

}  // namespace

LocalCluster::LocalCluster(LocalClusterConfig cfg)
    : cfg_(std::move(cfg)), placement_(Membership(cfg_)) {
  const std::size_t domains =
      cfg_.domains == 0 ? cfg_.nodes : cfg_.domains;
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    NodeConfig nc;
    nc.id = id_of(i);
    nc.domain = static_cast<std::uint32_t>(i % domains);
    if (!cfg_.data_root.empty()) {
      std::string dir = "n";
      dir += std::to_string(i);
      nc.data_dir = cfg_.data_root / dir;
    }
    nodes_.push_back(std::make_unique<Node>(nc, &transport_));
  }
  CoordinatorConfig cc;
  cc.geom = cfg_.geom;
  cc.scrub_rate_bps = cfg_.scrub_rate_bps;
  cc.rebuild_rate_bps = cfg_.rebuild_rate_bps;
  cc.rate_burst_bytes = cfg_.rate_burst_bytes;
  cc.store_retry = cfg_.store_retry;
  cc.time = cfg_.time;
  coordinator_ = std::make_unique<Coordinator>(cc, &placement_, &transport_);
}

LocalCluster::~LocalCluster() {
  coordinator_.reset();  // before the nodes its RPCs target
  nodes_.clear();
}

void LocalCluster::partition(const std::vector<std::size_t>& a,
                             const std::vector<std::size_t>& b) {
  std::vector<NodeId> ga, gb;
  for (const std::size_t i : a) ga.push_back(id_of(i));
  for (const std::size_t i : b) gb.push_back(id_of(i));
  transport_.partition(ga, gb);
}

std::string ClusterManifest::serialize() const {
  std::ostringstream os;
  os << "version 1\n";
  os << "nodes " << nodes << "\n";
  os << "domains " << domains << "\n";
  os << "k " << geom.k << "\n";
  os << "global " << geom.global << "\n";
  os << "local " << geom.local << "\n";
  os << "block_size " << geom.block_size << "\n";
  os << "file_size " << file_size << "\n";
  os << "stripes";
  for (const std::uint64_t s : stripes) os << " " << s;
  os << "\n";
  return os.str();
}

bool ClusterManifest::parse(const std::string& text, ClusterManifest* out) {
  ClusterManifest m;
  bool saw_version = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    auto read_u64 = [&ls](std::uint64_t* v) { return bool(ls >> *v); };
    std::uint64_t v = 0;
    if (key == "version") {
      if (!read_u64(&v) || v != 1) return false;
      saw_version = true;
    } else if (key == "nodes") {
      if (!read_u64(&v)) return false;
      m.nodes = static_cast<std::size_t>(v);
    } else if (key == "domains") {
      if (!read_u64(&v)) return false;
      m.domains = static_cast<std::size_t>(v);
    } else if (key == "k") {
      if (!read_u64(&v)) return false;
      m.geom.k = static_cast<std::uint32_t>(v);
    } else if (key == "global") {
      if (!read_u64(&v)) return false;
      m.geom.global = static_cast<std::uint32_t>(v);
    } else if (key == "local") {
      if (!read_u64(&v)) return false;
      m.geom.local = static_cast<std::uint32_t>(v);
    } else if (key == "block_size") {
      if (!read_u64(&v)) return false;
      m.geom.block_size = static_cast<std::uint32_t>(v);
    } else if (key == "file_size") {
      if (!read_u64(&v)) return false;
      m.file_size = v;
    } else if (key == "stripes") {
      while (ls >> v) m.stripes.push_back(v);
    }
    // unknown keys: skipped, so old binaries read newer manifests
  }
  if (!saw_version || m.nodes == 0 || !m.geom.valid()) return false;
  if (out != nullptr) *out = std::move(m);
  return true;
}

bool ClusterManifest::save(const std::filesystem::path& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << serialize();
  return bool(os.flush());
}

bool ClusterManifest::load(const std::filesystem::path& path,
                           ClusterManifest* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str(), out);
}

}  // namespace cluster
