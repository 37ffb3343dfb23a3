// eccli's usage text and exit-code contract, extracted into a header
// the help test can compile against: the --help output, the exit-code
// constants, and docs/usage.md are pinned to each other, so the table
// cannot drift from the codes the tool actually returns (it had drifted
// once already — the help text stopped at 4 while the tool exited 5/6).
#pragma once

namespace cli {

// Exit codes. Stable public contract — scripts branch on them.
inline constexpr int kExitOk = 0;        ///< success
inline constexpr int kExitDamaged = 1;   ///< damage beyond parity
inline constexpr int kExitUsage = 2;     ///< bad command line / fault plan
inline constexpr int kExitIo = 3;        ///< environmental I/O error
inline constexpr int kExitDeadline = 4;  ///< deadline / retry budget spent
inline constexpr int kExitQuorum = 5;    ///< < k shard homes reachable
inline constexpr int kExitHealed = 6;    ///< damage found AND fully healed

/// One line per exit code, `  <code>  <meaning>` — the help test walks
/// this table and requires every kExit* constant above to appear.
inline constexpr char kUsageExitCodes[] =
    "exit codes:\n"
    "  0  success\n"
    "  1  data damaged beyond what parity can repair\n"
    "  2  usage error\n"
    "  3  I/O error (errno reported on stderr; environmental, worth "
    "retrying)\n"
    "  4  deadline exceeded or retry budget exhausted "
    "(--deadline-ms/--retries)\n"
    "  5  cluster quorum loss: fewer than k shard homes reachable "
    "(--cluster-nodes)\n"
    "  6  corruption detected and healed in place (verify --heal); "
    "the data is\n"
    "     intact again but the run DID see damage — alert-worthy, "
    "not an error\n";

inline constexpr char kUsageText[] =
    "usage:\n"
    "  eccli encode --k K --m M [--block BYTES] <input> <shard-dir>\n"
    "  eccli verify [--heal] <shard-dir>\n"
    "  eccli repair <shard-dir>\n"
    "  eccli decode <shard-dir> <output>\n"
    "  eccli --help\n"
    "options:\n"
    "  --help, -h        print this help on stdout and exit 0\n"
    "  --heal            verify only: rewrite checksum-failing "
    "shards in place\n"
    "                    from the survivors and report what was "
    "healed; exits 6\n"
    "                    when corruption was found and fully "
    "healed\n"
    "  --serial          bypass the stripe service, encode/decode "
    "serially\n"
    "  --threads N       worker threads for the stripe service "
    "(default: hardware)\n"
    "  --qos             enable the bandwidth governor on the\n"
    "                    stripe service: degraded reads are shielded "
    "from bulk\n"
    "                    encode traffic by byte-denominated watermarks "
    "(see\n"
    "                    docs/qos.md); off by default — without it the "
    "service\n"
    "                    path is byte-for-byte the pre-QoS behavior\n"
    "  --deadline-ms N   per-stripe service deadline; expiry fails "
    "the command\n"
    "                    with exit 4 instead of falling back to the "
    "serial path\n"
    "  --retries N       bounded backoff-retry budget for rejected "
    "stripe\n"
    "                    submissions and transient read errors "
    "(EINTR/EAGAIN);\n"
    "                    exhaustion fails with exit 4\n"
    "  --fault-plan S    install a deterministic fault-injection "
    "plan, e.g.\n"
    "                    'seed=7;shard.read:p=0.01,err=EINTR;"
    "svc.admission:nth=2+5'\n"
    "                    (also read from DIALGA_FAULT_PLAN / "
    "DIALGA_FAULT_SEED)\n"
    "  --fault-plan-dump print the fully-resolved effective fault "
    "plan (seed +\n"
    "                    per-site specs, corruption modes included) "
    "and exit —\n"
    "                    feed it back to --fault-plan to reproduce "
    "a run\n"
    "  --metrics-out F   dump the process metrics registry on exit; "
    "'.json'/'.jsonl'\n"
    "                    select JSON-lines, anything else Prometheus "
    "text\n"
    "                    (also read from DIALGA_METRICS_OUT)\n"
    "  --trace-out F     enable stripe-lifecycle tracing and dump "
    "completed spans\n"
    "                    as JSON-lines on exit (also read from "
    "DIALGA_TRACE_OUT)\n"
    "  --isa LEVEL       pin the GF region-kernel backend: scalar, "
    "ssse3, avx2,\n"
    "                    avx512, or gfni (also read from DIALGA_ISA; "
    "unsupported\n"
    "                    levels clamp to the best available with a "
    "warning)\n"
    "  --aio MODE        file-I/O backend: uring, stdio, or auto "
    "(default; also\n"
    "                    read from DIALGA_AIO; a forced uring on a "
    "kernel without\n"
    "                    io_uring falls back to stdio with a warning)\n"
    "cluster mode:\n"
    "  --cluster-nodes N run the command against an in-process "
    "cluster of N\n"
    "                    storage nodes persisted under <shard-dir>/"
    "n<i>;\n"
    "                    encode writes a cluster.txt manifest so "
    "verify/repair/\n"
    "                    decode in later invocations rebuild the "
    "same placement\n"
    "  --local L         LRC local-parity count (one XOR parity per "
    "local group;\n"
    "                    degraded reads are served inside the group "
    "first);\n"
    "                    0 (default) = plain RS(k, m)\n"
    "  --domains D       spread the nodes over D failure domains "
    "(round-robin);\n"
    "                    0 (default) = one domain per node\n"
    "  Each mode reads only its own flags. With --cluster-nodes, "
    "--serial,\n"
    "  --threads, --qos, --deadline-ms and --retries (the stripe "
    "service's) are\n"
    "  a usage error; without it, so are --local and --domains.\n";

}  // namespace cli
