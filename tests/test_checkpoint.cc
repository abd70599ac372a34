/**
 * @file
 * Checkpoint/restore subsystem tests.
 *
 * Property: for a spread of configurations (bare core vs PFM component,
 * fastfwd on/off, short/long warmups) a run that saves a checkpoint at
 * the warmup boundary and a second run that restores it must together be
 * indistinguishable from one uninterrupted run — same SimResult, byte-
 * identical stat dumps. Corruption tests: every malformed checkpoint
 * (truncated manifest, bit-flipped blob, wrong version, reordered
 * sections, trailing garbage, config drift, a retired whole-image file)
 * dies through pfm_fatal naming the checkpoint and the offending section
 * — never a crash or a silent misload. The checked-in fixture
 * astar_bare.ckpt + astar_bare_blobs/ + astar_bare.digest pins the
 * on-disk format (regenerate with PFM_REGEN_FIXTURES=1 on a format bump).
 * (Store internals — codec, dedup, blob corruption — are covered in
 * test_ckpt_store.cc.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "sim/checkpoint.h"
#include "sim/ckpt_store.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/**
 * Each test saves into its own blob directory: concurrent test processes
 * never share one, and a corruption test's tampered blob stays its own.
 */
std::string
storeOf(const std::string& name)
{
    return name + "_blobs";
}

/** Remove tmpPath(name + ".ckpt") and its blob directory. */
void
removeCkpt(const std::string& name)
{
    std::remove(tmpPath(name + ".ckpt").c_str());
    ckptStoreRemoveDir(tmpPath(storeOf(name)));
}

std::uint64_t
fileSize(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
        ? static_cast<std::uint64_t>(st.st_size)
        : 0;
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

// ---------------------------------------------------------------- identity

struct CkConfig {
    const char* name;
    const char* workload;
    const char* component;
    const char* tokens;
    std::uint64_t warmup;
    bool fastfwd;
};

// Spread over the axes the checkpoint has to survive: bare core vs every
// FSM-prefetcher workload family, fastfwd on and off, short and long
// warmups, slow RF clocks and port policies. (astar/bfs "auto" components
// rely on warmup-snooped configuration and refuse to checkpoint; they are
// covered by the negative tests below.)
const CkConfig kConfigs[] = {
    {"astar_bare_ff", "astar", "none", "", 6000, true},
    {"astar_bare_noff_shortwarm", "astar", "none", "", 3000, false},
    {"bfs_bare_ff", "bfs-roads", "none", "", 6000, true},
    {"libq_pf_ff", "libquantum", "auto", "clk4_w4 delay0 queue32 portALL",
     6000, true},
    {"libq_pf_noff", "libquantum", "auto", "clk4_w4 delay0 queue32 portALL",
     6000, false},
    {"lbm_pf_slow_ff", "lbm", "auto", "clk8_w1 delay8 queue8 portLS1",
     12000, true},
    {"milc_pf_ff_longwarm", "milc", "auto", "", 12000, true},
    {"bwaves_pf_noff", "bwaves", "auto", "", 3000, false},
    {"leslie_pf_ff_nol1pf", "leslie", "auto", "noL1pf", 6000, true},
    // PMP adds the cache-observation tap plus the accounting tables to
    // the pfm section; both fastfwd flavours must round-trip.
    {"lbm_pmp_ff", "lbm", "pmp", "clk4_w4 delay0 queue32 portALL", 6000,
     true},
    {"astar_pmp_noff", "astar", "pmp", "", 3000, false},
};

SimOptions
ckOptions(const CkConfig& cfg)
{
    SimOptions o;
    o.workload = cfg.workload;
    o.component = cfg.component;
    o.warmup_instructions = cfg.warmup;
    o.max_instructions = 24'000;
    o.fastfwd = cfg.fastfwd;
    if (cfg.tokens[0] != '\0')
        applyTokens(o, cfg.tokens);
    return o;
}

TEST(Checkpoint, RoundTripIdentityAcrossConfigs)
{
    for (const CkConfig& cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        const std::string name = std::string("ckpt_rt_") + cfg.name;
        const std::string path = tmpPath(name + ".ckpt");

        Simulator ref(ckOptions(cfg));
        SimResult r_ref = ref.run();

        SimOptions save_opt = ckOptions(cfg);
        save_opt.checkpoint_save = path;
        save_opt.ckpt_store = storeOf(name);
        Simulator saver(save_opt);
        SimResult r_save = saver.run();

        // The store pays for itself on every single config: manifest +
        // compressed blobs below the logical section bytes (the
        // sweep-level dedup win on top of this is bench_ckpt_store's).
        EXPECT_LT(fileSize(path) + ckptStoreDirBytes(tmpPath(storeOf(name))),
                  inspectCkptFile(path).logical_bytes);

        SimOptions load_opt = ckOptions(cfg);
        load_opt.checkpoint_load = path;
        Simulator loader(load_opt);
        SimResult r_load = loader.run();

        // Saving must not perturb the run it happens in...
        EXPECT_EQ(r_ref.cycles, r_save.cycles);
        EXPECT_EQ(r_ref.ipc, r_save.ipc);
        // ...and the restored run must be indistinguishable from the
        // uninterrupted one.
        EXPECT_EQ(r_ref.cycles, r_load.cycles);
        EXPECT_EQ(r_ref.instructions, r_load.instructions);
        EXPECT_EQ(r_ref.ipc, r_load.ipc);
        EXPECT_EQ(r_ref.mpki, r_load.mpki);
        EXPECT_EQ(r_ref.rst_hit_pct, r_load.rst_hit_pct);
        EXPECT_EQ(r_ref.fst_hit_pct, r_load.fst_hit_pct);
        EXPECT_EQ(r_ref.finished, r_load.finished);
        EXPECT_EQ(dumpAllStats(ref), dumpAllStats(loader));

        removeCkpt(name);
    }
}

TEST(Checkpoint, WarmupOnlyLegPlusMeasurementLegMatchesUninterrupted)
{
    // The sharded-sweep shape with the component attached throughout: a
    // warmup-only leg (max_instructions = 0) saves, a measurement leg
    // restores, and together they must reproduce the uninterrupted run.
    const std::string path = tmpPath("ckpt_warmleg.ckpt");
    SimOptions base;
    base.workload = "libquantum";
    base.component = "auto";
    base.warmup_instructions = 6000;
    base.max_instructions = 24'000;

    Simulator ref(base);
    SimResult r_ref = ref.run();

    SimOptions warm = base;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    warm.ckpt_store = storeOf("ckpt_warmleg");
    Simulator warmer(warm);
    warmer.run();

    SimOptions meas = base;
    meas.checkpoint_load = path;
    Simulator loader(meas);
    SimResult r_load = loader.run();

    EXPECT_EQ(r_ref.cycles, r_load.cycles);
    EXPECT_EQ(r_ref.ipc, r_load.ipc);
    EXPECT_EQ(dumpAllStats(ref), dumpAllStats(loader));
    removeCkpt("ckpt_warmleg");
}

TEST(Checkpoint, BareWarmupSharedAcrossDeferredConfigs)
{
    // One bare-core warmup checkpoint must serve deferred-component
    // measurement legs of *different* PFM parameters, each matching its
    // own uninterrupted deferred-attach reference.
    const std::string path = tmpPath("ckpt_shared.ckpt");
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    warm.ckpt_store = storeOf("ckpt_shared");
    Simulator warmer(warm);
    warmer.run();

    for (const char* tokens : {"clk4_w4 delay0 queue32 portALL",
                               "clk8_w1 delay8 queue8 portLS1"}) {
        SCOPED_TRACE(tokens);
        SimOptions leg;
        leg.workload = "lbm";
        leg.component = "auto";
        leg.defer_component = true;
        leg.warmup_instructions = 4000;
        leg.max_instructions = 16'000;
        applyTokens(leg, tokens);

        Simulator ref(leg);
        SimResult r_ref = ref.run();

        SimOptions load = leg;
        load.checkpoint_load = path;
        Simulator loader(load);
        SimResult r_load = loader.run();

        EXPECT_EQ(r_ref.cycles, r_load.cycles);
        EXPECT_EQ(r_ref.ipc, r_load.ipc);
        EXPECT_EQ(dumpAllStats(ref), dumpAllStats(loader));
    }
    removeCkpt("ckpt_shared");
}

TEST(Checkpoint, PmpWarmupAndDeferredAttachIdentity)
{
    // PMP has static configuration, so it is deferral-eligible: a
    // bare-core warmup checkpoint plus a deferred PMP measurement leg
    // must match the uninterrupted deferred PMP run — including the
    // pattern tables and accounting state that begin empty at the
    // boundary ROI begin.
    const std::string path = tmpPath("ckpt_pmp_defer.ckpt");
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    warm.ckpt_store = storeOf("ckpt_pmp_defer");
    Simulator warmer(warm);
    warmer.run();

    SimOptions leg;
    leg.workload = "lbm";
    leg.component = "pmp";
    leg.defer_component = true;
    leg.warmup_instructions = 4000;
    leg.max_instructions = 16'000;

    Simulator ref(leg);
    SimResult r_ref = ref.run();

    SimOptions load = leg;
    load.checkpoint_load = path;
    Simulator loader(load);
    SimResult r_load = loader.run();

    EXPECT_EQ(r_ref.cycles, r_load.cycles);
    EXPECT_EQ(r_ref.ipc, r_load.ipc);
    EXPECT_EQ(dumpAllStats(ref), dumpAllStats(loader));
    removeCkpt("ckpt_pmp_defer");
}

TEST(Checkpoint, SavedFilesAreByteIdentical)
{
    // Determinism of the writer itself: two identical runs must produce
    // bit-for-bit identical manifests and blobs (hash-stable golden
    // fixtures depend on this; unordered containers are serialized
    // sorted). Each run saves into its own directory so the second save
    // cannot just dedup against the first one's blobs.
    const std::string d1 = tmpPath("ckpt_det_1");
    const std::string d2 = tmpPath("ckpt_det_2");
    ::mkdir(d1.c_str(), 0755);
    ::mkdir(d2.c_str(), 0755);
    SimOptions o;
    o.workload = "libquantum";
    o.component = "auto";
    o.warmup_instructions = 5000;
    o.max_instructions = 0;
    o.ckpt_store = "blobs";

    o.checkpoint_save = d1 + "/c.ckpt";
    Simulator a(o);
    a.run();
    o.checkpoint_save = d2 + "/c.ckpt";
    Simulator b(o);
    b.run();

    EXPECT_EQ(readFile(d1 + "/c.ckpt"), readFile(d2 + "/c.ckpt"));
    const CkptFileInfo info = inspectCkptFile(d1 + "/c.ckpt");
    ASSERT_EQ(4u, info.blobs.size()); // engine, memory, core, pfm
    for (const CkptBlobRef& blob : info.blobs) {
        const std::string name = blob.path.substr(blob.path.rfind('/'));
        EXPECT_EQ(readFile(d1 + "/blobs" + name),
                  readFile(d2 + "/blobs" + name))
            << name;
    }
    for (const std::string& d : {d1, d2}) {
        std::remove((d + "/c.ckpt").c_str());
        ckptStoreRemoveDir(d + "/blobs");
        ::rmdir(d.c_str());
    }
}

TEST(Checkpoint, SweepRunnerShardedMatchesSerialReference)
{
    // End-to-end through the two-phase SweepRunner: a warmup leg plus a
    // measurement leg must reproduce the uninterrupted deferred run, with
    // the runner assigning and cleaning up the checkpoint path.
    auto leg = []() {
        SimOptions o;
        o.workload = "lbm";
        o.component = "auto";
        o.defer_component = true;
        o.warmup_instructions = 4000;
        o.max_instructions = 16'000;
        applyTokens(o, "clk4_w4 delay0 queue32 portALL");
        return o;
    };
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;

    SweepSpec spec;
    RunHandle w = spec.addWarmup("warmup/lbm", warm);
    RunHandle serial = spec.add("serial/lbm", leg());
    RunHandle shard = spec.addMeasurement("sharded/lbm", leg(), w);

    SweepRunner runner(2);
    runner.run(spec);

    const SimResult& a = runner.sim(serial);
    const SimResult& b = runner.sim(shard);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    // The warmup leg retired exactly the warmup budget and measured
    // nothing.
    EXPECT_EQ(0.0, runner.sim(w).ipc);
}

// ------------------------------------------------------------- serializer

TEST(Checkpoint, WriterReaderPrimitivesRoundTrip)
{
    const std::string path = tmpPath("ckpt_prims.ckpt");
    CkptHeader h;
    h.fingerprint = 0xDEADBEEFCAFEF00Dull;
    h.workload = "wl";
    h.component = "comp";
    h.retired = 1234;

    CkptWriter w(path, storeOf("ckpt_prims"));
    w.writeHeader(h);
    w.beginSection("alpha");
    w.put<std::uint32_t>(7);
    w.putString("hello");
    w.putVec(std::vector<std::uint64_t>{1, 2, 3});
    w.endSection();
    w.beginSection("beta");
    std::deque<std::int16_t> dq{-5, 6};
    w.putDeque(dq);
    w.endSection();
    w.finish();

    CkptReader r(path);
    CkptHeader got = r.readHeader();
    EXPECT_EQ(kCkptFormatVersion, got.version);
    EXPECT_EQ(h.fingerprint, got.fingerprint);
    EXPECT_EQ(h.workload, got.workload);
    EXPECT_EQ(h.component, got.component);
    EXPECT_EQ(h.retired, got.retired);

    r.beginSection("alpha");
    EXPECT_EQ(7u, r.get<std::uint32_t>());
    EXPECT_EQ("hello", r.getString());
    std::vector<std::uint64_t> v;
    r.getVec(v);
    EXPECT_EQ((std::vector<std::uint64_t>{1, 2, 3}), v);
    r.endSection();
    r.beginSection("beta");
    std::deque<std::int16_t> dq2;
    r.getDeque(dq2);
    EXPECT_EQ(dq, dq2);
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    removeCkpt("ckpt_prims");
}

// ------------------------------------------------------------ atomic write

/**
 * Minimal valid checkpoint via the primitives (no simulator run needed),
 * its blobs in storeOf(@p name).
 */
void
writeTinyCheckpoint(const std::string& path, const std::string& name,
                    std::uint32_t payload)
{
    CkptHeader h;
    h.fingerprint = 1;
    h.workload = "wl";
    h.component = "comp";
    h.retired = 0;
    CkptWriter w(path, storeOf(name));
    w.writeHeader(h);
    w.beginSection("alpha");
    w.put<std::uint32_t>(payload);
    w.endSection();
    w.finish();
}

bool
fileExists(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return is.good();
}

TEST(Checkpoint, SuccessfulSaveLeavesNoTempFile)
{
    const std::string path = tmpPath("ckpt_atomic_clean.ckpt");
    writeTinyCheckpoint(path, "ckpt_atomic_clean", 7);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    removeCkpt("ckpt_atomic_clean");
}

TEST(Checkpoint, StaleTempFromInterruptedWriteIsInvisible)
{
    // A writer killed between fwrite and rename leaves only <path>.tmp.
    // Readers must never see it — the final path stays absent — and a
    // later save replaces the stale temp and publishes atomically.
    const std::string path = tmpPath("ckpt_atomic_stale.ckpt");
    writeFile(path + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});
    EXPECT_FALSE(fileExists(path));
    writeTinyCheckpoint(path, "ckpt_atomic_stale", 42);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    CkptReader r(path);
    r.readHeader();
    r.beginSection("alpha");
    EXPECT_EQ(42u, r.get<std::uint32_t>());
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    removeCkpt("ckpt_atomic_stale");
}

// ------------------------------------------------------------- corruption

using CheckpointDeathTest = ::testing::Test;

/** Small bare-core config so corruption tests stay fast. */
SimOptions
smallBareOptions()
{
    SimOptions o;
    o.workload = "astar";
    o.component = "none";
    o.warmup_instructions = 2000;
    o.max_instructions = 0;
    o.core.bp_kind = BpKind::kBimodal;
    o.mem.l2 = CacheParams{"l2", 64 * 1024, 8, 10, 16};
    o.mem.l3 = CacheParams{"l3", 256 * 1024, 16, 30, 16};
    return o;
}

/** Save tmpPath(@p name + ".ckpt"), blobs in storeOf(@p name). */
std::string
saveSmallCheckpoint(const std::string& name)
{
    const std::string path = tmpPath(name + ".ckpt");
    SimOptions o = smallBareOptions();
    o.checkpoint_save = path;
    o.ckpt_store = storeOf(name);
    Simulator sim(o);
    sim.run();
    return path;
}

/**
 * Flip a stored byte in the middle of section @p index's blob. The
 * writer ran in this process but only populated files, so the
 * death-test child reads the tampered bytes from disk, not a cached copy.
 */
void
flipBlobByte(const std::string& ckpt, std::size_t index)
{
    const CkptFileInfo info = inspectCkptFile(ckpt);
    ASSERT_LT(index, info.blobs.size());
    const std::string& blob = info.blobs[index].path;
    std::vector<unsigned char> bytes = readFile(blob);
    ASSERT_GT(bytes.size(), kCkptBlobHeaderBytes);
    bytes[(kCkptBlobHeaderBytes + bytes.size()) / 2] ^= 0x01;
    writeFile(blob, bytes);
}

void
loadSmall(const std::string& path)
{
    SimOptions o = smallBareOptions();
    o.checkpoint_load = path;
    o.max_instructions = 1000;
    Simulator sim(o);
    sim.run();
}

TEST(CheckpointDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadSmall(tmpPath("ckpt_does_not_exist.ckpt")),
                ::testing::ExitedWithCode(1), "cannot open for reading");
}

TEST(CheckpointDeathTest, UnwritableSavePathIsFatalAndLeavesNothing)
{
    // The temp-file open fails before a single byte lands anywhere; the
    // death-test child shares our filesystem, so the parent can assert
    // neither the final path nor the temp exists afterwards.
    // The blob directory cannot be created there, so the save dies
    // before a single byte lands anywhere.
    const std::string path =
        tmpPath("ckpt_no_such_dir") + "/ckpt_unwritable.ckpt";
    SimOptions o = smallBareOptions();
    o.checkpoint_save = path;
    EXPECT_EXIT(
        {
            Simulator sim(o);
            sim.run();
        },
        ::testing::ExitedWithCode(1), "cannot create store directory");
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(CheckpointDeathTest, RenameFailureRemovesTempImage)
{
    // Final path occupied by a directory: the blobs and the temp manifest
    // are written but the rename cannot publish it. The failure path must
    // remove the temp so an interrupted save leaves no partial manifest
    // under either name.
    const std::string path = tmpPath("ckpt_rename_blocked");
    ASSERT_EQ(0, ::mkdir(path.c_str(), 0755));
    EXPECT_EXIT(writeTinyCheckpoint(path, "ckpt_rename_blocked", 9),
                ::testing::ExitedWithCode(1),
                "cannot rename temp manifest into place");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    ::rmdir(path.c_str());
    ckptStoreRemoveDir(tmpPath(storeOf("ckpt_rename_blocked")));
}

TEST(CheckpointDeathTest, TruncatedFileIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_trunc");
    std::vector<unsigned char> bytes = readFile(path);
    bytes.resize(bytes.size() / 2);
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "truncated while reading manifest");
    removeCkpt("ckpt_trunc");
}

TEST(CheckpointDeathTest, FlippedPayloadByteIsFatalWithSectionName)
{
    const std::string path = saveSmallCheckpoint("ckpt_flip");
    // Sections are engine, memory, core: tamper the final ("core") one.
    // A flipped stored byte either breaks the compressed stream or
    // decodes to bytes failing the raw CRC; the failure must name it.
    flipBlobByte(path, 2);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "(corrupt compressed blob|CRC mismatch in blob).*"
                "section 'core'");
    removeCkpt("ckpt_flip");
}

TEST(CheckpointDeathTest, WrongVersionTagIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_ver");
    std::vector<unsigned char> bytes = readFile(path);
    // Format version u32 sits right after the u64 magic.
    bytes[8] = 0x63; // version 99
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "format version 99 != supported version");
    removeCkpt("ckpt_ver");
}

TEST(CheckpointDeathTest, BadMagicIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_magic");
    std::vector<unsigned char> bytes = readFile(path);
    bytes[0] ^= 0xFF;
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "bad magic, not a PFM checkpoint");
    removeCkpt("ckpt_magic");
}

TEST(CheckpointDeathTest, LegacyWholeImageIsFatal)
{
    // The retired single-file layout: its header (magic, version,
    // fingerprint, workload, component, retired count) followed by
    // inline section frames. The reader must refuse it by name.
    const std::string path = tmpPath("ckpt_legacy.ckpt");
    std::vector<unsigned char> bytes;
    auto append = [&bytes](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        bytes.insert(bytes.end(), b, b + n);
    };
    const std::uint32_t version = 3;
    const std::uint64_t fingerprint = 0;
    const std::uint32_t len = 5;
    append(&kCkptMagic, sizeof kCkptMagic);
    append(&version, sizeof version);
    append(&fingerprint, sizeof fingerprint);
    append(&len, sizeof len);
    append("astar", len);
    bytes.resize(bytes.size() + 64, 0);
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "whole-image checkpoint.*re-save it");
    std::remove(path.c_str());
}

TEST(CheckpointDeathTest, TrailingBytesAreFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_trail");
    std::vector<unsigned char> bytes = readFile(path);
    bytes.insert(bytes.end(), {1, 2, 3, 4});
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "trailing bytes after manifest");
    removeCkpt("ckpt_trail");
}

TEST(CheckpointDeathTest, SectionOrderMismatchIsFatal)
{
    const std::string path = tmpPath("ckpt_order.ckpt");
    CkptWriter w(path, storeOf("ckpt_order"));
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint32_t>(1);
    w.endSection();
    w.finish();

    auto read_wrong_order = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("beta");
    };
    EXPECT_EXIT(read_wrong_order(), ::testing::ExitedWithCode(1),
                "expected section 'beta', found 'alpha' \\(section order "
                "mismatch\\)");
    removeCkpt("ckpt_order");
}

TEST(CheckpointDeathTest, UnconsumedSectionBytesAreFatal)
{
    const std::string path = tmpPath("ckpt_under.ckpt");
    CkptWriter w(path, storeOf("ckpt_under"));
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint64_t>(42);
    w.endSection();
    w.finish();

    auto underread = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("alpha");
        r.get<std::uint32_t>();
        r.endSection();
    };
    EXPECT_EXIT(underread(), ::testing::ExitedWithCode(1),
                "unconsumed payload bytes.*section 'alpha'");
    removeCkpt("ckpt_under");
}

TEST(CheckpointDeathTest, ImplausibleElementCountIsFatal)
{
    const std::string path = tmpPath("ckpt_count.ckpt");
    CkptWriter w(path, storeOf("ckpt_count"));
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint64_t>(0xFFFFFFFFFFFFull); // count with no bytes behind it
    w.endSection();
    w.finish();

    auto overread = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("alpha");
        std::vector<std::uint64_t> v;
        r.getVec(v);
    };
    EXPECT_EXIT(overread(), ::testing::ExitedWithCode(1),
                "implausible element count.*section 'alpha'");
    removeCkpt("ckpt_count");
}

TEST(CheckpointDeathTest, WrongWorkloadIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_wl");
    auto load_other = [&path] {
        SimOptions o = smallBareOptions();
        o.workload = "bfs-roads";
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_other(), ::testing::ExitedWithCode(1),
                "saved for workload 'astar', not 'bfs-roads'");
    removeCkpt("ckpt_wl");
}

TEST(CheckpointDeathTest, ComponentPresenceMismatchIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_comp");
    auto load_with_component = [&path] {
        SimOptions o = smallBareOptions();
        o.component = "auto"; // bare checkpoint, component attached now
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_with_component(), ::testing::ExitedWithCode(1),
                "lacks a PFM component but this simulator attached one");
    removeCkpt("ckpt_comp");
}

TEST(CheckpointDeathTest, ConfigFingerprintDriftIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_fp");
    auto load_other_config = [&path] {
        SimOptions o = smallBareOptions();
        o.core.rob_size = 128; // warmed-up state depends on this
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_other_config(), ::testing::ExitedWithCode(1),
                "config fingerprint");
    removeCkpt("ckpt_fp");
}

TEST(CheckpointDeathTest, CorruptPmpSectionIsFatalWithSectionName)
{
    // The PMP tables and prefetch accounting serialize into the trailing
    // "pfm" section; a flipped byte in its blob must die through the
    // blob checks naming that section, never restore garbage tables.
    const std::string path = tmpPath("ckpt_pmp_flip.ckpt");
    SimOptions o;
    o.workload = "lbm";
    o.component = "pmp";
    o.warmup_instructions = 4000;
    o.max_instructions = 0;
    o.checkpoint_save = path;
    o.ckpt_store = storeOf("ckpt_pmp_flip");
    Simulator saver(o);
    saver.run();

    flipBlobByte(path, 3); // engine, memory, core, pfm

    auto load_pmp = [&path] {
        SimOptions lo;
        lo.workload = "lbm";
        lo.component = "pmp";
        lo.warmup_instructions = 4000;
        lo.max_instructions = 1000;
        lo.checkpoint_load = path;
        Simulator sim(lo);
        sim.run();
    };
    EXPECT_EXIT(load_pmp(), ::testing::ExitedWithCode(1),
                "(corrupt compressed blob|CRC mismatch in blob).*"
                "section 'pfm'");
    removeCkpt("ckpt_pmp_flip");
}

TEST(CheckpointDeathTest, UnsupportedComponentSaveIsFatal)
{
    // The astar predictor's configuration is snooped during warmup;
    // checkpointing through it would silently drop that state, so
    // PfmSystem must refuse by name.
    auto save_astar_auto = [] {
        SimOptions o;
        o.workload = "astar";
        o.component = "auto";
        o.warmup_instructions = 2000;
        o.max_instructions = 0;
        o.checkpoint_save = tmpPath("ckpt_astar_auto.ckpt");
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(save_astar_auto(), ::testing::ExitedWithCode(1),
                "component 'astar-predictor' does not support "
                "checkpointing");
}

TEST(CheckpointDeathTest, UnsupportedComponentDeferralIsFatal)
{
    auto defer_astar_auto = [] {
        SimOptions o;
        o.workload = "astar";
        o.component = "auto";
        o.defer_component = true;
        o.warmup_instructions = 2000;
        o.max_instructions = 1000;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(defer_astar_auto(), ::testing::ExitedWithCode(1),
                "cannot be attached at the warmup boundary");
}

// ------------------------------------------------------------ golden file

SimOptions
fixtureOptions()
{
    SimOptions o = smallBareOptions();
    o.max_instructions = 20'000;
    return o;
}

/**
 * Restore @p fixture and digest the resulting report (SimResult head +
 * every stat dump). With @p regen set, write the digest to
 * @p digest_file instead of comparing against it.
 */
void
checkFixtureDigest(const std::string& fixture,
                   const std::string& digest_file, bool regen)
{
    SimOptions o = fixtureOptions();
    o.checkpoint_load = fixture;
    Simulator sim(o);
    SimResult r = sim.run();

    char head[160];
    std::snprintf(head, sizeof head,
                  "cycles=%llu instructions=%llu ipc=%.17g mpki=%.17g\n",
                  (unsigned long long)r.cycles,
                  (unsigned long long)r.instructions, r.ipc, r.mpki);
    const std::string report = head + dumpAllStats(sim);
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x",
                  ckptCrc32(report.data(), report.size()));

    if (regen) {
        std::ofstream os(digest_file, std::ios::trunc);
        os << digest << "\n";
        ASSERT_TRUE(os.good());
        GTEST_SKIP() << "fixture regenerated, digest " << digest;
    }

    std::ifstream is(digest_file);
    ASSERT_TRUE(is.good()) << digest_file;
    std::string expected;
    is >> expected;
    // A mismatch means the simulator's measured-phase behaviour or the
    // checkpoint format changed. If intentional: bump kCkptFormatVersion
    // when the *format* changed, and regenerate the fixture with
    // PFM_REGEN_FIXTURES=1.
    EXPECT_EQ(expected, digest);
}

TEST(Checkpoint, GoldenFixtureReportDigestV3)
{
    // The checked-in manifest + blob directory in the current (v3)
    // layout; its blobs are compressed, so the digest also pins the
    // blob encoding.
    const std::string dir = PFM_FIXTURES_DIR;
    const std::string fixture = dir + "/astar_bare.ckpt";
    const bool regen = std::getenv("PFM_REGEN_FIXTURES") != nullptr;

    if (regen) {
        ckptStoreRemoveDir(dir + "/astar_bare_blobs");
        SimOptions o = fixtureOptions();
        o.max_instructions = 0;
        o.checkpoint_save = fixture;
        o.ckpt_store = "astar_bare_blobs";
        Simulator sim(o);
        sim.run();
    }

    checkFixtureDigest(fixture, dir + "/astar_bare.digest", regen);
}

} // namespace
} // namespace pfm
