/**
 * @file
 * pfm_perfbench: one benchmark run of one workload.
 *
 *   pfm_perfbench --workload native-mix|trace-replay|daemon-sweep
 *                 --seed N --seconds S --trace 0|1 [--smoke]
 *   pfm_perfbench --selftest trace-native
 *
 * Runs in the current directory, which it uses for its work files
 * (trace, checkpoints, daemon socket and cache, spans). Lines starting
 * with "# " are information; the last line of stdout is the result
 * object {"correct", "attempted", "failed", "metrics"}, with every
 * end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
 * perfbench/run.py builds this binary and runs it; see README.md there.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "pfm_perfbench: %s\n"
                 "usage: pfm_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n"
                 "       pfm_perfbench --selftest trace-native\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string& flag, const std::string& v)
{
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0')
        usage(("bad value for " + flag + ": '" + v + "'").c_str());
    return n;
}

} // namespace

int
main(int argc, char** argv)
{
    RunConfig cfg;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            cfg.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--selftest") {
            if (v != "trace-native")
                usage("unknown self-test");
            return selftestTraceMatchesNative();
        } else if (a == "--workload") {
            cfg.workload = v;
        } else if (a == "--seed") {
            cfg.seed = parseU64(a, v);
            have_seed = true;
        } else if (a == "--seconds") {
            cfg.seconds = static_cast<double>(parseU64(a, v));
            have_seconds = cfg.seconds > 0;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = v == "1";
            have_trace = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (> 0) and --trace are required");

    info("simulated speedups below are information only, never gated; "
         "apart from the paper's shapes the model is unvalidated against "
         "hardware");
    Report rep;
    Tracer tr;
    if (cfg.workload == "native-mix")
        runNativeMix(cfg, rep, tr);
    else if (cfg.workload == "trace-replay")
        runTraceReplay(cfg, rep, tr);
    else if (cfg.workload == "daemon-sweep")
        runDaemonSweep(cfg, rep, tr);
    else
        usage(("unknown workload '" + cfg.workload + "'").c_str());

    if (cfg.trace) {
        const std::string path = "spans-" + cfg.workload + ".json";
        if (tr.write(path))
            info("%zu spans written to %s", tr.size(), path.c_str());
        else
            rep.fail("cannot write " + path);
    }
    rep.printResult(cfg.trace);
    return 0;
}
