/**
 * @file
 * Trace-frontend tests.
 *
 * Identity property: a run replayed from a recorded trace
 * (--workload=trace:<path>) is indistinguishable from the native run
 * that recorded it — byte-identical BENCH JSON rows and stat dumps —
 * across fastfwd on/off and bare-core/component configurations, and a
 * replay sharded through a warmup checkpoint (trace cursor serialized)
 * matches the uninterrupted replay. Registry property: every name in
 * workloadNames() builds. Corruption property: every malformed trace
 * (missing file, bad magic, truncation, bit flips) dies through
 * pfm_fatal naming the trace — never a crash or a silent misload.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/stats_io.h"
#include "sim/sweep.h"
#include "trace_fe/trace_format.h"
#include "trace_fe/trace_source.h"
#include "workloads/registry.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

bool
fileExists(const std::string& path)
{
    std::ifstream is(path);
    return is.good();
}

std::vector<unsigned char>
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(is),
                                      std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::vector<unsigned char>& data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Every stat registry the simulator owns, dumped to one string. */
std::string
dumpAllStats(Simulator& sim)
{
    std::ostringstream os;
    sim.core().stats().dump(os);
    sim.memory().stats().dump(os);
    if (sim.pfm())
        sim.pfm()->stats().dump(os);
    return os.str();
}

/** The deterministic BENCH JSON row for a finished run (no wall time). */
std::string
benchRow(const std::string& label, const SimResult& r)
{
    return formatBenchJsonRow(benchJsonRow(label, r), /*include_wall=*/false);
}

SimOptions
smallOptions(const std::string& workload, const std::string& component)
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = 5'000;
    o.max_instructions = 20'000;
    return o;
}

// --------------------------------------------------------------- registry

TEST(WorkloadRegistry, EveryListedNameBuilds)
{
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        Workload w = makeWorkload(name);
        EXPECT_EQ(w.name, name);
        EXPECT_NE(w.mem, nullptr);
        EXPECT_GT(w.program.size(), 0u);
        EXPECT_TRUE(w.program.contains(w.entry));
    }
}

// ------------------------------------------------------ record -> replay

struct ReplayConfig {
    const char* name;
    const char* component;
    bool fastfwd;
};

class TraceReplayIdentity : public ::testing::TestWithParam<ReplayConfig> {
};

TEST_P(TraceReplayIdentity, ReplayMatchesNativeByteForByte)
{
    const ReplayConfig& cfg = GetParam();
    const std::string trace_path =
        tmpPath(std::string("trace_id_") + cfg.name + ".pfmtrace");

    SimOptions native = smallOptions("bfs-roads", cfg.component);
    native.fastfwd = cfg.fastfwd;
    native.record_trace = trace_path;

    std::string native_row, native_stats;
    {
        Simulator sim(native);
        SimResult r = sim.run();
        native_row = benchRow("leg", r);
        native_stats = dumpAllStats(sim);
    }
    ASSERT_TRUE(fileExists(trace_path));
    EXPECT_FALSE(fileExists(trace_path + ".tmp"));

    SimOptions replay = smallOptions("trace:" + trace_path, cfg.component);
    replay.fastfwd = cfg.fastfwd;
    {
        Simulator sim(replay);
        EXPECT_EQ(sim.workload().name, "bfs-roads");
        SimResult r = sim.run();
        EXPECT_EQ(benchRow("leg", r), native_row);
        EXPECT_EQ(dumpAllStats(sim), native_stats);
    }
    std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TraceReplayIdentity,
    ::testing::Values(ReplayConfig{"bare_ff", "none", true},
                      ReplayConfig{"bare_noff", "none", false},
                      ReplayConfig{"comp_ff", "auto", true},
                      ReplayConfig{"comp_noff", "auto", false}),
    [](const ::testing::TestParamInfo<ReplayConfig>& info) {
        return info.param.name;
    });

TEST(TraceRecord, RecordingIsDeterministic)
{
    const std::string p1 = tmpPath("trace_det_1.pfmtrace");
    const std::string p2 = tmpPath("trace_det_2.pfmtrace");
    for (const std::string& p : {p1, p2}) {
        SimOptions o = smallOptions("bfs-roads", "none");
        o.record_trace = p;
        runSim(o);
    }
    EXPECT_EQ(readFile(p1), readFile(p2));
    EXPECT_EQ(trace::traceFileId(p1), trace::traceFileId(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceReplay, RunsDryCleanlyUnderALargerBudget)
{
    const std::string path = tmpPath("trace_dry.pfmtrace");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = path;
    runSim(rec);

    TraceSource src(path);
    const std::uint64_t recorded = src.header().instret;
    ASSERT_GT(recorded, 0u);

    // A budget far past the recording: the replay must terminate on
    // end-of-stream (Core::done() once every produced record retired),
    // retiring exactly the recorded stream.
    SimOptions replay = smallOptions("trace:" + path, "none");
    replay.max_instructions = recorded * 10;
    SimResult r = runSim(replay);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.instructions, recorded);
    std::remove(path.c_str());
}

// ------------------------------------------------- cursor checkpointing

TEST(TraceCheckpoint, ShardedReplayMatchesUninterrupted)
{
    const std::string trace_path = tmpPath("trace_shard.pfmtrace");
    const std::string ckpt_path = tmpPath("trace_shard.ckpt");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = trace_path;
    runSim(rec);

    SimOptions replay = smallOptions("trace:" + trace_path, "none");
    std::string whole_row, whole_stats;
    {
        Simulator sim(replay);
        SimResult r = sim.run();
        whole_row = benchRow("leg", r);
        whole_stats = dumpAllStats(sim);
    }

    SimOptions save = replay;
    save.checkpoint_save = ckpt_path;
    runSim(save);

    SimOptions load = replay;
    load.checkpoint_load = ckpt_path;
    {
        Simulator sim(load);
        SimResult r = sim.run();
        EXPECT_EQ(benchRow("leg", r), whole_row);
        EXPECT_EQ(dumpAllStats(sim), whole_stats);
    }
    std::remove(trace_path.c_str());
    std::remove(ckpt_path.c_str());
}

TEST(TraceCheckpointDeathTest, ReRecordedTraceDiesByFingerprint)
{
    const std::string trace_path = tmpPath("trace_refp.pfmtrace");
    const std::string ckpt_path = tmpPath("trace_refp.ckpt");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = trace_path;
    runSim(rec);

    SimOptions save = smallOptions("trace:" + trace_path, "none");
    save.checkpoint_save = ckpt_path;
    runSim(save);

    // Re-record with a different length: same path, different content id.
    SimOptions rec2 = smallOptions("bfs-roads", "none");
    rec2.record_trace = trace_path;
    rec2.max_instructions = 30'000;
    runSim(rec2);

    SimOptions load = smallOptions("trace:" + trace_path, "none");
    load.checkpoint_load = ckpt_path;
    EXPECT_EXIT(runSim(load), ::testing::ExitedWithCode(1),
                "config fingerprint");
    std::remove(trace_path.c_str());
    std::remove(ckpt_path.c_str());
}

// -------------------------------------------------- flag incompatibility

TEST(TraceRecordDeathTest, RecordingForbidsCheckpointing)
{
    SimOptions o = smallOptions("bfs-roads", "none");
    o.record_trace = tmpPath("trace_excl.pfmtrace");
    o.checkpoint_save = tmpPath("trace_excl.ckpt");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "exclusive");
}

TEST(TraceRecordDeathTest, RecordingAReplayIsRejected)
{
    const std::string path = tmpPath("trace_rerec.pfmtrace");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = path;
    runSim(rec);

    SimOptions o = smallOptions("trace:" + path, "none");
    o.record_trace = tmpPath("trace_rerec2.pfmtrace");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "re-record");
    std::remove(path.c_str());
}

// ------------------------------------------------------------ corruption

/** A small recorded trace for the corruption tests. */
std::string
recordSmallTrace(const std::string& name)
{
    const std::string path = tmpPath(name);
    SimOptions o = smallOptions("bfs-roads", "none");
    o.record_trace = path;
    runSim(o);
    return path;
}

TEST(TraceCorruptionDeathTest, MissingFileIsFatal)
{
    SimOptions o = smallOptions(
        "trace:" + tmpPath("trace_does_not_exist.pfmtrace"), "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "cannot open");
}

TEST(TraceCorruptionDeathTest, BadMagicIsFatal)
{
    const std::string path = recordSmallTrace("trace_badmagic.pfmtrace");
    auto bytes = readFile(path);
    bytes[0] ^= 0xFF;
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, HeaderBitFlipIsFatal)
{
    const std::string path = recordSmallTrace("trace_hdrflip.pfmtrace");
    auto bytes = readFile(path);
    bytes[9] ^= 0x01; // inside the version/ISA region, caught by CRC
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, TruncationIsFatal)
{
    const std::string path = recordSmallTrace("trace_trunc.pfmtrace");
    auto bytes = readFile(path);
    bytes.resize(bytes.size() / 2);
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, PayloadBitFlipIsFatalByRun)
{
    const std::string path = recordSmallTrace("trace_payload.pfmtrace");
    auto bytes = readFile(path);
    // Flip one byte well into the file: lands in a block payload (CRC
    // mismatch on decode) or a block header (framing violation at open).
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT(
        {
            Simulator sim(o);
            sim.run();
        },
        ::testing::ExitedWithCode(1), "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, TrailingGarbageIsFatal)
{
    const std::string path = recordSmallTrace("trace_trailing.pfmtrace");
    auto bytes = readFile(path);
    bytes.push_back(0xAB);
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trailing bytes");
    std::remove(path.c_str());
}

} // namespace
} // namespace pfm
