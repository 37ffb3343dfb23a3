#include "ec/codec_util.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "obs/metrics.h"

namespace ec {

namespace {

/// Per-(isa, fused) byte counters, all series registered up front so
/// the family is present in every scrape and steady-state increments
/// never touch the registry map. One relaxed add per chunk group.
obs::Counter& kernel_bytes(gf::IsaLevel isa, bool fused) {
  static const auto* slots = [] {
    auto* s = new std::array<obs::Counter*, gf::kNumIsaLevels * 2>;
    for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
      for (int f = 0; f < 2; ++f) {
        (*s)[l * 2 + f] = &obs::Registry::Global().counter(
            "dialga_gf_kernel_bytes_total",
            {{"fused", f != 0 ? "true" : "false"},
             {"isa", gf::isa_name(static_cast<gf::IsaLevel>(l))}},
            "GF multiply-accumulate region bytes executed by the host "
            "kernels (source bytes x destinations)");
      }
    }
    return s;
  }();
  return *(*slots)[static_cast<std::size_t>(isa) * 2 + (fused ? 1 : 0)];
}

/// Fused-driver invocations per ISA backend.
obs::Counter& dispatch_count(gf::IsaLevel isa) {
  static const auto* slots = [] {
    auto* s = new std::array<obs::Counter*, gf::kNumIsaLevels>;
    for (std::size_t l = 0; l < gf::kNumIsaLevels; ++l) {
      (*s)[l] = &obs::Registry::Global().counter(
          "dialga_gf_dispatch_total",
          {{"isa", gf::isa_name(static_cast<gf::IsaLevel>(l))}},
          "Fused kernel driver invocations per active ISA backend");
    }
    return s;
  }();
  return *(*slots)[static_cast<std::size_t>(isa)];
}

obs::Histogram& encode_bytes_hist() {
  static obs::Histogram& h = obs::Registry::Global().histogram(
      "dialga_gf_encode_bytes", obs::Pow2Bounds(30), {},
      "Block bytes per fused encode/decode driver call");
  return h;
}

std::size_t chunk_of(const HostKernelOptions& opts) {
  const std::size_t chunk = opts.chunk_bytes & ~std::size_t{63};
  return chunk == 0 ? 64 : chunk;
}

}  // namespace

CoeffCache::CoeffCache(const gf::Matrix& mat, std::size_t row0,
                       std::size_t nrows, std::size_t cols)
    : nrows_(nrows), cols_(cols), coeffs_(nrows * cols) {
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = 0; j < nrows; ++j) {
      coeffs_[i * nrows + j] = gf::prepare_coeff(mat.at(row0 + j, i));
    }
  }
}

CoeffCache::CoeffCache(const gf::Matrix& mat,
                       std::span<const std::size_t> row_list,
                       std::size_t cols)
    : nrows_(row_list.size()), cols_(cols), coeffs_(row_list.size() * cols) {
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = 0; j < nrows_; ++j) {
      coeffs_[i * nrows_ + j] = gf::prepare_coeff(mat.at(row_list[j], i));
    }
  }
}

std::size_t BuildPrefetchTable(std::span<const std::byte* const> srcs,
                               std::size_t block_size, std::size_t distance,
                               const std::byte** table) {
  const std::size_t k = srcs.size();
  if (distance == 0 || k == 0) return 0;
  const std::size_t rows = (block_size + 63) / 64;
  const std::size_t q = distance / k;
  const std::size_t r = distance % k;
  // Row `row`'s last task targets row + ceil(d / k); rows from
  // rows - ceil(d / k) on would reach past the block end.
  const std::size_t ahead = q + (r != 0 ? 1 : 0);
  if (ahead >= rows) return 0;
  for (std::size_t s = 0; s < k - r; ++s) table[s] = srcs[s + r] + 64 * q;
  for (std::size_t s = k - r; s < k; ++s) {
    table[s] = srcs[s + r - k] + 64 * (q + 1);
  }
  return (rows - ahead) * 64;
}

void FusedEncode(const CoeffCache& cache, std::size_t block_size,
                 std::span<const std::byte* const> srcs,
                 std::span<std::byte* const> dsts,
                 const HostKernelOptions& opts) {
  const std::size_t k = cache.cols();
  const std::size_t m = cache.rows();
  assert(srcs.size() == k && dsts.size() == m);
  assert(k < gf::kFieldSize);
  if (m == 0 || block_size == 0) return;
  if (k == 0) {
    for (std::byte* dst : dsts) std::memset(dst, 0, block_size);
    return;
  }

  const gf::IsaLevel isa = gf::active_isa();
  dispatch_count(isa).inc();
  encode_bytes_hist().observe(static_cast<double>(block_size));
  obs::Counter& bytes = kernel_bytes(isa, /*fused=*/true);

  const std::size_t chunk = chunk_of(opts);
  // Both tables advance with the chunk: chunk_srcs[s] is source s at the
  // chunk start, pf[s] that chunk's first-row prefetch target. Chunks
  // end at pf_end, the first row whose targets would leave the block,
  // and run plain from there (the plan's tail revert).
  const std::byte* chunk_srcs[gf::kFieldSize];
  const std::byte* pf[gf::kFieldSize];
  std::copy(srcs.begin(), srcs.end(), chunk_srcs);
  const std::size_t pf_end =
      BuildPrefetchTable(srcs, block_size, opts.prefetch_distance, pf);

  for (std::size_t off = 0, n = 0; off < block_size; off += n) {
    const bool prefetch = off < pf_end;
    n = std::min(chunk, (prefetch ? pf_end : block_size) - off);
    for (std::size_t j0 = 0; j0 < m; j0 += gf::kMaxFusedDst) {
      const std::size_t g = std::min(gf::kMaxFusedDst, m - j0);
      std::byte* group[gf::kMaxFusedDst];
      for (std::size_t t = 0; t < g; ++t) group[t] = dsts[j0 + t] + off;
      // One dot-product call per parity group: all g accumulators live
      // in registers across the whole source loop (SET semantics, so
      // no pre-zeroing pass either).
      gf::mul_dot_multi(cache.data() + j0, cache.stride(), chunk_srcs, k,
                        group, g, n, prefetch ? pf : nullptr);
      bytes.inc(static_cast<std::uint64_t>(n) * g * k);
    }
    for (std::size_t i = 0; i < k; ++i) chunk_srcs[i] += n;
    if (off + n < pf_end) {
      for (std::size_t i = 0; i < k; ++i) pf[i] += n;
    }
  }
}

void FusedXorInto(std::span<const std::byte* const> srcs, std::byte* dst,
                  std::size_t block_size, const HostKernelOptions& opts) {
  if (block_size == 0 || srcs.empty()) return;
  const std::size_t chunk = chunk_of(opts);
  obs::Counter& bytes = kernel_bytes(gf::active_isa(), /*fused=*/true);
  for (std::size_t off = 0; off < block_size; off += chunk) {
    const std::size_t n = std::min(chunk, block_size - off);
    for (const std::byte* src : srcs) {
      gf::xor_acc(src + off, dst + off, n);
    }
    bytes.inc(static_cast<std::uint64_t>(n) * srcs.size());
  }
}

void NaiveSystematicEncode(const gf::Matrix& gen, std::size_t k,
                           std::size_t m, std::size_t block_size,
                           std::span<const std::byte* const> data,
                           std::span<std::byte* const> parity) {
  assert(data.size() == k && parity.size() == m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      const gf::u8 c = gen.at(k + j, i);
      if (i == 0) {
        gf::mul_set(c, data[i], parity[j], block_size);
      } else {
        gf::mul_acc(c, data[i], parity[j], block_size);
      }
    }
  }
  kernel_bytes(gf::active_isa(), /*fused=*/false)
      .inc(static_cast<std::uint64_t>(block_size) * k * m);
}

void SystematicEncode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<const std::byte* const> data,
                      std::span<std::byte* const> parity,
                      const HostKernelOptions& opts) {
  assert(data.size() == k && parity.size() == m);
  const CoeffCache cache(gen, k, m, k);
  FusedEncode(cache, block_size, data, parity, opts);
}

bool SystematicDecode(const gf::Matrix& gen, std::size_t k, std::size_t m,
                      std::size_t block_size,
                      std::span<std::byte* const> blocks,
                      std::span<const std::size_t> erasures,
                      const HostKernelOptions& opts) {
  assert(blocks.size() == k + m);
  if (erasures.size() > m) return false;

  std::vector<bool> erased(k + m, false);
  for (const std::size_t e : erasures) {
    assert(e < k + m);
    if (erased[e]) return false;
    erased[e] = true;
  }

  std::vector<std::size_t> present;
  present.reserve(k);
  for (std::size_t i = 0; i < k + m && present.size() < k; ++i) {
    if (!erased[i]) present.push_back(i);
  }
  if (present.size() < k) return false;

  std::vector<std::size_t> erased_data;
  for (std::size_t i = 0; i < k; ++i) {
    if (erased[i]) erased_data.push_back(i);
  }

  if (!erased_data.empty()) {
    const auto dm = gf::decode_matrix(gen, present, erased_data);
    if (!dm) return false;
    const CoeffCache cache(*dm, 0, erased_data.size(), k);
    std::vector<const std::byte*> src_blocks(k);
    std::vector<std::byte*> out_blocks(erased_data.size());
    for (std::size_t c = 0; c < k; ++c) src_blocks[c] = blocks[present[c]];
    for (std::size_t r = 0; r < erased_data.size(); ++r) {
      out_blocks[r] = blocks[erased_data[r]];
    }
    FusedEncode(cache, block_size, src_blocks, out_blocks, opts);
  }

  std::vector<std::size_t> erased_parity_rows;
  std::vector<std::byte*> parity_out;
  for (std::size_t j = 0; j < m; ++j) {
    if (!erased[k + j]) continue;
    erased_parity_rows.push_back(k + j);
    parity_out.push_back(blocks[k + j]);
  }
  if (!erased_parity_rows.empty()) {
    const CoeffCache cache(gen, erased_parity_rows, k);
    std::vector<const std::byte*> src_blocks(blocks.begin(),
                                             blocks.begin() + k);
    FusedEncode(cache, block_size, src_blocks, parity_out, opts);
  }
  return true;
}

}  // namespace ec
