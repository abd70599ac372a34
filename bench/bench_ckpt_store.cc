/**
 * @file
 * Checkpoint-store harness: the fig17-style farm pattern (N measurement
 * configs, each checkpointing its warmup to its own path) saved into one
 * compressed content-addressed store, then restored. Reports bytes on
 * disk against the logical section bytes the checkpoints hold, save and
 * restore wall time, and the dedup ratio; lands in BENCH_ckpt_store.json
 * with size_bytes/restore_ms columns perf_diff tracks informationally.
 *
 * Hard failures (exit 1), because they are correctness claims, not perf:
 *  - a leg restored from the store differs from the same leg run
 *    without a checkpoint;
 *  - the store fails the ROADMAP's >= 5x byte reduction on this sweep.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench_util.h"
#include "sim/checkpoint.h"

using namespace pfm;

namespace {

struct Cfg {
    const char* tokens;
    std::uint64_t warmup; ///< two distinct lengths => two unique images
};

std::uint64_t
fileBytes(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
        ? static_cast<std::uint64_t>(st.st_size)
        : 0;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char** argv)
{
    (void)argc;
    (void)argv;
    const std::uint64_t budget = defaultInstructionBudget();

    // Eight lbm prefetcher configs over two warmup lengths: the per-config
    // save pattern a 1000-config farm scales up. Within one warmup length
    // the bare warmup state is identical, so the store should keep one
    // blob set per length plus a tiny manifest per config.
    const Cfg kConfigs[] = {
        {"clk4_w4 delay0", budget / 10},
        {"clk4_w4 delay8", budget / 10},
        {"clk8_w1 delay0", budget / 10},
        {"clk8_w1 delay8", budget / 10},
        {"clk4_w4 delay0 queue8", budget / 5},
        {"clk4_w4 delay0 queue32", budget / 5},
        {"clk8_w1 delay8 portLS1", budget / 5},
        {"clk4_w4 delay0 portALL", budget / 5},
    };
    const std::size_t kN = sizeof kConfigs / sizeof kConfigs[0];

    std::string dir = ".";
    if (const char* env = std::getenv("PFM_CKPT_DIR"))
        dir = env;
    const std::string scratch =
        dir + "/pfm_ckpt_bench_" +
        std::to_string(static_cast<unsigned long>(::getpid()));
    ::mkdir(scratch.c_str(), 0755);

    auto ckptPath = [&](std::size_t i) {
        return scratch + "/store_" + std::to_string(i) + ".ckpt";
    };
    auto legOptions = [&](std::size_t i) {
        SimOptions o = benchOptions("lbm", "auto", kConfigs[i].tokens);
        o.defer_component = true;
        o.warmup_instructions = kConfigs[i].warmup;
        return o;
    };

    // Phase 1: per-config warmup saves into one store.
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kN; ++i) {
        SimOptions o = benchOptions("lbm", "none");
        o.warmup_instructions = kConfigs[i].warmup;
        o.max_instructions = 0;
        o.checkpoint_save = ckptPath(i);
        o.ckpt_store = "store_blobs";
        Simulator sim(o);
        sim.run();
    }
    const double save_ms = msSince(t0);
    // Logical bytes: the section payloads the N checkpoints hold, what
    // N undeduplicated, uncompressed copies would cost.
    std::uint64_t logical_bytes = 0;
    std::uint64_t size_bytes = ckptStoreDirBytes(scratch + "/store_blobs");
    for (std::size_t i = 0; i < kN; ++i) {
        size_bytes += fileBytes(ckptPath(i));
        logical_bytes += inspectCkptFile(ckptPath(i)).logical_bytes;
    }

    // Phase 2: restore every measurement leg from the store.
    std::vector<SimResult> restored;
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kN; ++i) {
        SimOptions o = legOptions(i);
        o.checkpoint_load = ckptPath(i);
        Simulator sim(o);
        restored.push_back(sim.run());
    }
    const double restore_ms = msSince(t0);

    // Phase 3 (untimed): the same legs run without a checkpoint are the
    // identity reference every restore must reproduce.
    int failures = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        Simulator sim(legOptions(i));
        const SimResult ref = sim.run();
        const SimResult& got = restored[i];
        if (ref.cycles != got.cycles || ref.instructions != got.instructions ||
            ref.ipc != got.ipc || ref.mpki != got.mpki) {
            std::fprintf(stderr,
                         "FAIL: config '%s' diverged between the store "
                         "restore and the uninterrupted run (cycles %llu "
                         "vs %llu)\n",
                         kConfigs[i].tokens,
                         static_cast<unsigned long long>(got.cycles),
                         static_cast<unsigned long long>(ref.cycles));
            ++failures;
        }
    }

    const double dedup_ratio =
        size_bytes ? static_cast<double>(logical_bytes) /
                         static_cast<double>(size_bytes)
                   : 0;
    if (dedup_ratio < 5.0) {
        std::fprintf(stderr,
                     "FAIL: store used %llu bytes for %llu logical bytes — "
                     "%.2fx, below the 5x floor\n",
                     static_cast<unsigned long long>(size_bytes),
                     static_cast<unsigned long long>(logical_bytes),
                     dedup_ratio);
        ++failures;
    }

    reportHeader("Checkpoint store: bytes + save/restore wall time");
    reportRow("logical_bytes", static_cast<double>(logical_bytes) / 1024,
              " KiB");
    reportRow("store_bytes", static_cast<double>(size_bytes) / 1024, " KiB");
    reportRow("dedup_ratio", dedup_ratio, "x");
    reportRow("save_store", save_ms, " ms");
    reportRow("restore_store", restore_ms, " ms");

    std::string json_dir = ".";
    if (const char* env = std::getenv("PFM_BENCH_JSON_DIR"))
        json_dir = env;
    const std::string json_path = json_dir + "/BENCH_ckpt_store.json";
    std::ofstream os(json_path);
    if (os) {
        os << "{\n  \"bench\": \"ckpt_store\",\n";
        os << "  \"configs\": " << kN << ",\n";
        os << "  \"dedup_ratio\": " << dedup_ratio << ",\n";
        os << "  \"total_wall_ms\": " << save_ms + restore_ms
           << ",\n  \"rows\": [\n";
        os << "    {\"label\": \"save_store\", \"wall_ms\": " << save_ms
           << ", \"size_bytes\": " << size_bytes << "},\n";
        os << "    {\"label\": \"restore_store\", \"wall_ms\": "
           << restore_ms << ", \"restore_ms\": " << restore_ms / kN
           << "}\n  ]\n}\n";
    }

    // Scratch cleanup: manifests, blobs, then the directory itself.
    for (std::size_t i = 0; i < kN; ++i)
        std::remove(ckptPath(i).c_str());
    ckptStoreRemoveDir(scratch + "/store_blobs");
    ::rmdir(scratch.c_str());

    return failures ? 1 : 0;
}
