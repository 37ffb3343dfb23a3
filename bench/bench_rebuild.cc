// Extension: node-rebuild throughput. When a device dies, the system
// re-reads k survivors of every stripe and regenerates the lost blocks
// — a decode-heavy, highly concurrent workload (the scenario behind the
// paper's decode analysis, Fig. 14, pushed to full-system scale). The
// rebuild read path has the same k-stream shape as encoding, so
// DIALGA's scheduling applies directly.
#include "fig_common.h"

int main(int argc, char** argv) {
  fig::FigureBench figure(
      "Extension  rebuild (single device loss) throughput, 1KB blocks, PM",
      {"code", "threads", "ISA-L GB/s", "DIALGA GB/s", "gain",
       "media_amp(DIALGA)"});

  struct Shape {
    std::size_t k, m;
  };
  const Shape shapes[] = {{12, 4}, {28, 24}};
  for (const Shape& sh : shapes) {
    for (const std::size_t threads : {1u, 4u, 8u, 12u, 18u}) {
      simmem::SimConfig cfg;
      bench_util::WorkloadConfig wl;
      wl.k = sh.k;
      wl.m = sh.m;
      wl.block_size = 1024;
      wl.threads = threads;
      wl.total_data_bytes = (8 + 2 * threads) * fig::kMiB;
      // One device lost: a single erased block per stripe.
      const std::vector<std::size_t> erasures{0};

      const auto base =
          fig::RunDecodeSystem(fig::System::kIsal, cfg, wl, erasures);
      const auto ours =
          fig::RunDecodeSystem(fig::System::kDialga, cfg, wl, erasures);
      const std::string code =
          "RS(" + std::to_string(sh.k) + "," + std::to_string(sh.m) + ")";
      figure.point(
          "rebuild/" + code + "/threads:" + std::to_string(threads),
          {code, std::to_string(threads), bench_util::Table::num(base.gbps),
           bench_util::Table::num(ours.gbps),
           bench_util::Table::pct(ours.gbps / base.gbps - 1.0),
           bench_util::Table::num(ours.media_amplification())},
          ours, {{"isal_GBps", base.gbps}});
    }
  }

  // Host-pool rebuild: the same single-device-loss decode executed
  // functionally (real buffers, real repair) on the persistent pool,
  // reused across both shapes; a failure count of zero pins the clean
  // path.
  {
    figure.host_series_title("host work-stealing pool, functional rebuild");
    bool all_repaired = true;
    for (const Shape& sh : {Shape{12, 4}, Shape{28, 24}}) {
      const ec::IsalCodec host_codec(sh.k, sh.m);
      bench_util::WorkloadConfig hwl;
      hwl.k = sh.k;
      hwl.m = sh.m;
      hwl.block_size = 1024;
      hwl.total_data_bytes = 2 * fig::kMiB;
      const std::vector<std::size_t> erasures{0};
      const auto hr = bench_util::RunHostScrub(hwl, host_codec, erasures,
                                               fig::HostPool());
      all_repaired &= hr.failed_stripes == 0;
      const std::string code =
          "RS(" + std::to_string(sh.k) + "," + std::to_string(sh.m) + ")";
      figure.host_point("rebuild/host_pool/" + code, code, hr,
                        fig::HostPool().worker_count());
    }
    figure.check("host rebuild repairs every stripe", all_repaired);
  }
  return figure.run(argc, argv);
}
