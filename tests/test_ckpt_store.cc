/**
 * @file
 * Checkpoint store tests: the in-tree LZ codec, content-addressed blob
 * dedup, manifest round-trips, and the corruption surface the store adds
 * (bit-flipped/truncated/missing blobs, tampered manifests, hash
 * collisions). Restore identity against uninterrupted runs is pinned in
 * test_checkpoint.cc; here a sharded sweep whose legs share one store
 * warmup must match the same legs run uninterrupted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/lz.h"
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

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::vector<std::uint8_t>& data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(os.good()) << path;
}

std::uint64_t
fileSize(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
        ? static_cast<std::uint64_t>(st.st_size)
        : 0;
}

/** Deterministic incompressible-ish bytes (no libc rand, stable seeds). */
std::vector<std::uint8_t>
pseudoRandom(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint8_t> v(n);
    std::uint64_t s = seed;
    for (std::uint8_t& b : v) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        b = static_cast<std::uint8_t>(s >> 33);
    }
    return v;
}

std::vector<std::string>
listBlobs(const std::string& dir)
{
    std::vector<std::string> blobs;
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return blobs;
    while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".blob") == 0)
            blobs.push_back(dir + "/" + name);
    }
    ::closedir(d);
    return blobs;
}

// ---------------------------------------------------------------- LZ codec

void
expectRoundTrip(const std::vector<std::uint8_t>& raw)
{
    std::vector<std::uint8_t> packed;
    lz::compress(raw.data(), raw.size(), packed);
    std::vector<std::uint8_t> back(raw.size());
    ASSERT_TRUE(lz::decompress(packed.data(), packed.size(), back.data(),
                               back.size()));
    EXPECT_EQ(raw, back);
}

TEST(Lz, RoundTripsAcrossInputShapes)
{
    expectRoundTrip({});
    expectRoundTrip({0x42});
    expectRoundTrip({'a', 'b', 'c', 'd'});
    expectRoundTrip(std::vector<std::uint8_t>(100 * 1024, 0)); // pure RLE
    // Repeating phrase longer than the match-extension threshold.
    std::vector<std::uint8_t> phrase;
    const std::string unit = "post-fabrication microarchitecture ";
    while (phrase.size() < 64 * 1024)
        phrase.insert(phrase.end(), unit.begin(), unit.end());
    expectRoundTrip(phrase);
    // Incompressible noise, including sizes straddling the 64 KiB window.
    expectRoundTrip(pseudoRandom(1000, 1));
    expectRoundTrip(pseudoRandom(70 * 1024, 2));
    // Noise with embedded repeats (the realistic checkpoint shape).
    std::vector<std::uint8_t> mixed = pseudoRandom(8 * 1024, 3);
    std::vector<std::uint8_t> again = mixed;
    mixed.insert(mixed.end(), again.begin(), again.end());
    mixed.resize(mixed.size() + 4096, 0x7F);
    expectRoundTrip(mixed);
}

TEST(Lz, CompressionIsDeterministicAndEffectiveOnRedundancy)
{
    // Dedup addresses blobs by content hash of the *raw* bytes, but two
    // saves of one payload must also produce byte-identical blobs, which
    // requires the codec itself to be a pure function.
    std::vector<std::uint8_t> raw = pseudoRandom(16 * 1024, 7);
    raw.resize(64 * 1024, 0x11);
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
    lz::compress(raw.data(), raw.size(), a);
    lz::compress(raw.data(), raw.size(), b);
    EXPECT_EQ(a, b);

    std::vector<std::uint8_t> zeros(256 * 1024, 0);
    std::vector<std::uint8_t> packed;
    lz::compress(zeros.data(), zeros.size(), packed);
    EXPECT_LT(packed.size() * 50, zeros.size()); // RLE must crush zeros
}

TEST(Lz, DecompressRejectsMalformedStreams)
{
    // Hand-crafted positive reference first: 1 literal 'a', then a
    // 4-byte overlapping match at offset 1 => "aaaaa".
    const std::uint8_t overlap[] = {0x10, 'a', 0x01, 0x00};
    std::uint8_t out[5];
    ASSERT_TRUE(lz::decompress(overlap, sizeof overlap, out, sizeof out));
    EXPECT_EQ(0, std::memcmp(out, "aaaaa", 5));

    std::uint8_t sink[64];
    // Match offset 0 is never valid.
    const std::uint8_t zero_off[] = {0x10, 'a', 0x00, 0x00};
    EXPECT_FALSE(lz::decompress(zero_off, sizeof zero_off, sink, 5));
    // Offset pointing before the start of the output.
    const std::uint8_t far_off[] = {0x10, 'a', 0x02, 0x00};
    EXPECT_FALSE(lz::decompress(far_off, sizeof far_off, sink, 5));
    // Literal count extension truncated mid-stream.
    const std::uint8_t trunc_ext[] = {0xF0};
    EXPECT_FALSE(lz::decompress(trunc_ext, sizeof trunc_ext, sink, 32));
    // More literals declared than the stream carries.
    const std::uint8_t short_lit[] = {0x30, 'a'};
    EXPECT_FALSE(lz::decompress(short_lit, sizeof short_lit, sink, 8));
    // Output underrun: stream ends before dst_len is produced.
    const std::uint8_t underrun[] = {0x10, 'a'};
    EXPECT_FALSE(lz::decompress(underrun, sizeof underrun, sink, 9));
    // Output overrun: more literals than dst has room for.
    const std::uint8_t overrun[] = {0x20, 'a', 'b'};
    EXPECT_FALSE(lz::decompress(overrun, sizeof overrun, sink, 1));

    // Truncating a real stream must never read out of bounds or return
    // success with wrong output. (Success itself is possible for one cut
    // point: dropping a zero-literal final token loses no data.)
    std::vector<std::uint8_t> raw = pseudoRandom(512, 9);
    raw.resize(2048, 0x33);
    std::vector<std::uint8_t> packed;
    lz::compress(raw.data(), raw.size(), packed);
    std::vector<std::uint8_t> back(raw.size());
    for (std::size_t cut = 0; cut < packed.size(); ++cut) {
        std::fill(back.begin(), back.end(), 0);
        if (lz::decompress(packed.data(), cut, back.data(), back.size())) {
            EXPECT_EQ(raw, back) << "truncated at " << cut;
        }
    }
}

// ----------------------------------------------------- hashing and naming

TEST(CkptStore, HashAndBlobNameAreStable)
{
    // FNV-1a 64 offset basis: the hash of zero bytes.
    EXPECT_EQ(0xCBF29CE484222325ull, ckptHash64("", 0));
    EXPECT_NE(ckptHash64("a", 1), ckptHash64("b", 1));
    EXPECT_EQ("cbf29ce484222325.blob", ckptBlobName(0xCBF29CE484222325ull));
    EXPECT_EQ("0000000000000007.blob", ckptBlobName(7));
}

// --------------------------------------------- writer/reader through store

struct StorePayload {
    std::vector<std::uint8_t> engine; ///< big, compressible, shareable
    std::vector<std::uint8_t> core;   ///< small, per-config
};

StorePayload
makePayload(std::uint64_t core_seed)
{
    StorePayload p;
    p.engine = pseudoRandom(32 * 1024, 42);
    p.engine.resize(256 * 1024, 0x5A); // long runs => compresses well
    p.core = pseudoRandom(4 * 1024, core_seed);
    return p;
}

void
writeStoreCkpt(const std::string& path, const std::string& subdir,
               const StorePayload& p)
{
    CkptWriter w(path, subdir);
    CkptHeader h;
    h.fingerprint = 0x1234;
    h.workload = "unit";
    h.component = "none";
    h.retired = 99;
    w.writeHeader(h);
    w.beginSection("engine");
    w.putVec(p.engine);
    w.endSection();
    w.beginSection("core");
    w.putVec(p.core);
    w.putString("tail-marker");
    w.endSection();
    w.finish();
}

TEST(CkptStore, ManifestRoundTripsAndIsTiny)
{
    const std::string dir = tmpPath("store_rt");
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/a.ckpt";
    StorePayload p = makePayload(1);
    writeStoreCkpt(path, "blobs", p);

    // The manifest itself carries no payload bytes.
    EXPECT_LT(fileSize(path), 512u);
    EXPECT_EQ(2u, listBlobs(dir + "/blobs").size());
    // Compression must beat the raw payload on this redundant input.
    EXPECT_LT(ckptStoreDirBytes(dir + "/blobs"),
              p.engine.size() + p.core.size());

    CkptReader r(path);
    CkptHeader h = r.readHeader();
    EXPECT_EQ(kCkptFormatVersion, h.version);
    EXPECT_EQ(0x1234u, h.fingerprint);
    EXPECT_EQ("unit", h.workload);
    EXPECT_EQ("none", h.component);
    EXPECT_EQ(99u, h.retired);

    r.beginSection("engine");
    std::vector<std::uint8_t> engine;
    r.getVec(engine);
    r.endSection();
    EXPECT_EQ(p.engine, engine);

    r.beginSection("core");
    std::vector<std::uint8_t> core;
    r.getVec(core);
    EXPECT_EQ("tail-marker", r.getString());
    r.endSection();
    EXPECT_EQ(p.core, core);
    EXPECT_TRUE(r.atEnd());

    ckptStoreRemoveDir(dir + "/blobs");
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(CkptStore, SharedSectionsDedupAcrossConfigs)
{
    const std::string dir = tmpPath("store_dedup");
    ::mkdir(dir.c_str(), 0755);

    // Two configs sharing the engine payload: the second save publishes
    // only its own core blob. A third identical save publishes nothing.
    writeStoreCkpt(dir + "/a.ckpt", "blobs", makePayload(1));
    std::uint64_t bytes_one = ckptStoreDirBytes(dir + "/blobs");
    EXPECT_EQ(2u, listBlobs(dir + "/blobs").size());

    writeStoreCkpt(dir + "/b.ckpt", "blobs", makePayload(2));
    EXPECT_EQ(3u, listBlobs(dir + "/blobs").size());

    writeStoreCkpt(dir + "/c.ckpt", "blobs", makePayload(1));
    EXPECT_EQ(3u, listBlobs(dir + "/blobs").size());

    // The shared engine dominates; adding a config costs only its delta.
    std::uint64_t bytes_all = ckptStoreDirBytes(dir + "/blobs");
    EXPECT_LT(bytes_all, bytes_one + bytes_one / 2);

    // All three manifests restore their own payloads.
    for (const char* name : {"/a.ckpt", "/b.ckpt", "/c.ckpt"}) {
        CkptReader r(dir + name);
        r.readHeader();
        std::vector<std::uint8_t> v;
        r.beginSection("engine");
        r.getVec(v);
        r.endSection();
        r.beginSection("core");
        r.getVec(v);
        r.getString();
        r.endSection();
        EXPECT_TRUE(r.atEnd()) << name;
    }

    ckptStoreRemoveDir(dir + "/blobs");
    for (const char* name : {"/a.ckpt", "/b.ckpt", "/c.ckpt"})
        std::remove((dir + name).c_str());
    ::rmdir(dir.c_str());
}

TEST(CkptStore, InspectReportsCostsAndToleratesJunk)
{
    const std::string dir = tmpPath("store_inspect");
    ::mkdir(dir.c_str(), 0755);
    StorePayload p = makePayload(3);
    writeStoreCkpt(dir + "/m.ckpt", "blobs", p);

    CkptFileInfo m = inspectCkptFile(dir + "/m.ckpt");
    EXPECT_TRUE(m.manifest);
    EXPECT_EQ(kCkptFormatVersion, m.version);
    EXPECT_EQ(fileSize(dir + "/m.ckpt"), m.file_bytes);
    ASSERT_EQ(2u, m.blobs.size());
    // Logical cost is the raw section payload total (vec framing: u64
    // count + elements, plus the string in 'core').
    std::uint64_t raw_total = 8 + p.engine.size() + 8 + p.core.size() + 4 +
                              std::string("tail-marker").size();
    EXPECT_EQ(raw_total, m.logical_bytes);
    for (const CkptBlobRef& b : m.blobs)
        EXPECT_GT(fileSize(b.path), 0u) << b.path;

    // A junk file (what daemon unit tests stub cache entries with) must
    // inspect as a plain opaque payload, never die.
    writeFile(dir + "/junk", pseudoRandom(1000, 11));
    CkptFileInfo j = inspectCkptFile(dir + "/junk");
    EXPECT_FALSE(j.manifest);
    EXPECT_EQ(1000u, j.file_bytes);
    EXPECT_EQ(1000u, j.logical_bytes);
    EXPECT_TRUE(j.blobs.empty());

    CkptFileInfo missing = inspectCkptFile(dir + "/nope");
    EXPECT_EQ(0u, missing.file_bytes);
    EXPECT_TRUE(missing.blobs.empty());

    ckptStoreRemoveDir(dir + "/blobs");
    std::remove((dir + "/m.ckpt").c_str());
    std::remove((dir + "/junk").c_str());
    ::rmdir(dir.c_str());
}

TEST(CkptStore, RemoveDirDeletesBlobsAndDirectory)
{
    const std::string dir = tmpPath("store_rm");
    ::mkdir(dir.c_str(), 0755);
    writeStoreCkpt(dir + "/m.ckpt", "blobs", makePayload(4));
    ASSERT_FALSE(listBlobs(dir + "/blobs").empty());
    ckptStoreRemoveDir(dir + "/blobs");
    struct stat st{};
    EXPECT_NE(0, ::stat((dir + "/blobs").c_str(), &st));
    std::remove((dir + "/m.ckpt").c_str());
    ::rmdir(dir.c_str());
}

// ------------------------------------------------------- restore identity

TEST(CkptStore, ShardedSweepViaStoreMatchesUninterrupted)
{
    // SweepRunner end-to-end: measurement legs sharing one warmup in the
    // store must produce the same rows as the same legs run
    // uninterrupted.
    ::setenv("PFM_CKPT_DIR", ::testing::TempDir().c_str(), 1);
    SweepSpec spec;
    SimOptions warm;
    warm.workload = "libquantum";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    RunHandle w = spec.addWarmup("warm", warm);
    std::vector<std::pair<RunHandle, RunHandle>> pairs;
    for (const char* tokens : {"clk4_w4 delay0", "clk8_w1 delay8"}) {
        SimOptions leg;
        leg.workload = "libquantum";
        leg.component = "auto";
        leg.defer_component = true;
        leg.warmup_instructions = 4000;
        leg.max_instructions = 16'000;
        applyTokens(leg, tokens);
        pairs.emplace_back(spec.add(std::string("serial/") + tokens, leg),
                           spec.addMeasurement(
                               std::string("sharded/") + tokens, leg, w));
    }

    SweepRunner runner(2);
    runner.run(spec);
    ::unsetenv("PFM_CKPT_DIR");

    for (const auto& [serial, sharded] : pairs) {
        const SimResult& a = runner.sim(serial);
        const SimResult& b = runner.sim(sharded);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.ipc, b.ipc);
        EXPECT_EQ(a.mpki, b.mpki);
    }
}

// ------------------------------------------------------------- corruption

using CkptStoreDeathTest = ::testing::Test;

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

/**
 * Save a store-mode checkpoint and return {manifest path, store dir}.
 * The writer runs in *this* process but only populates files — the blob
 * read cache is untouched, so the death-test child (forked by
 * EXPECT_EXIT) reads the tampered bytes from disk, not a cached copy.
 */
std::pair<std::string, std::string>
saveStoreCheckpoint(const std::string& name)
{
    const std::string path = tmpPath(name + ".ckpt");
    SimOptions o = smallBareOptions();
    o.checkpoint_save = path;
    o.ckpt_store = name + "_blobs";
    Simulator sim(o);
    sim.run();
    return {path, ::testing::TempDir() + name + "_blobs"};
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

/** Largest blob (the engine image) — the tamper target. */
std::string
biggestBlob(const std::string& store_dir)
{
    std::string best;
    std::uint64_t best_size = 0;
    for (const std::string& b : listBlobs(store_dir)) {
        std::uint64_t sz = fileSize(b);
        if (sz >= best_size) {
            best_size = sz;
            best = b;
        }
    }
    EXPECT_FALSE(best.empty()) << store_dir;
    return best;
}

void
cleanupStore(const std::pair<std::string, std::string>& saved)
{
    ckptStoreRemoveDir(saved.second);
    std::remove(saved.first.c_str());
}

TEST(CkptStoreDeathTest, BitFlipInBlobIsFatal)
{
    auto saved = saveStoreCheckpoint("ckpt_blobflip");
    const std::string blob = biggestBlob(saved.second);
    std::vector<std::uint8_t> bytes = readFile(blob);
    ASSERT_GT(bytes.size(), kCkptBlobHeaderBytes);
    bytes[kCkptBlobHeaderBytes + bytes.size() / 2] ^= 0x01;
    writeFile(blob, bytes);
    // A flipped stored byte either breaks the compressed stream or
    // decodes to bytes failing the raw CRC — both must die by blob name.
    EXPECT_EXIT(loadSmall(saved.first), ::testing::ExitedWithCode(1),
                "(corrupt compressed blob|CRC mismatch in blob)");
    cleanupStore(saved);
}

TEST(CkptStoreDeathTest, TruncatedBlobIsFatal)
{
    auto saved = saveStoreCheckpoint("ckpt_blobtrunc");
    const std::string blob = biggestBlob(saved.second);
    std::vector<std::uint8_t> bytes = readFile(blob);
    ASSERT_GT(bytes.size(), kCkptBlobHeaderBytes + 16);
    bytes.resize(kCkptBlobHeaderBytes + 16);
    writeFile(blob, bytes);
    EXPECT_EXIT(loadSmall(saved.first), ::testing::ExitedWithCode(1),
                "truncated blob");
    cleanupStore(saved);
}

TEST(CkptStoreDeathTest, MissingBlobIsFatal)
{
    auto saved = saveStoreCheckpoint("ckpt_blobgone");
    std::remove(biggestBlob(saved.second).c_str());
    EXPECT_EXIT(loadSmall(saved.first), ::testing::ExitedWithCode(1),
                "missing blob");
    cleanupStore(saved);
}

TEST(CkptStoreDeathTest, TamperedManifestIsFatal)
{
    auto saved = saveStoreCheckpoint("ckpt_manflip");
    std::vector<std::uint8_t> bytes = readFile(saved.first);
    ASSERT_GT(bytes.size(), 8u);
    // Last byte before the trailing CRC: inside the final entry's
    // stored-length field, so parsing succeeds and the CRC must catch it.
    bytes[bytes.size() - 5] ^= 0x40;
    writeFile(saved.first, bytes);
    EXPECT_EXIT(loadSmall(saved.first), ::testing::ExitedWithCode(1),
                "manifest CRC mismatch");
    cleanupStore(saved);
}

TEST(CkptStoreDeathTest, BlobHeaderDisagreeingWithManifestIsFatal)
{
    auto saved = saveStoreCheckpoint("ckpt_blobmeta");
    const std::string blob = biggestBlob(saved.second);
    std::vector<std::uint8_t> bytes = readFile(blob);
    // Corrupt raw_len in the blob header (bytes 4..11): the manifest's
    // copy of the metadata no longer matches.
    bytes[6] ^= 0x01;
    writeFile(blob, bytes);
    EXPECT_EXIT(loadSmall(saved.first), ::testing::ExitedWithCode(1),
                "metadata disagrees with manifest");
    cleanupStore(saved);
}

/** Offset of @p needle in @p hay, or npos. */
std::size_t
findBytes(const std::vector<std::uint8_t>& hay, const std::string& needle)
{
    auto it = std::search(hay.begin(), hay.end(), needle.begin(),
                          needle.end());
    return it == hay.end() ? std::string::npos
                           : static_cast<std::size_t>(it - hay.begin());
}

void
pokeU64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v)
{
    ASSERT_LE(at + 8, bytes.size());
    std::memcpy(bytes.data() + at, &v, 8);
}

TEST(CkptStoreDeathTest, ImplausibleRawLenInBlobIsFatal)
{
    // Tamper the raw length in *both* the manifest entry and the blob
    // header (and re-sign the manifest CRC), so every metadata
    // cross-check agrees on the absurd value — only the expansion bound
    // stands between the corrupt length and the allocator.
    const std::string dir = tmpPath("ckpt_rawlen_blob");
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/m.ckpt";
    writeStoreCkpt(path, "blobs", makePayload(7));

    const std::uint64_t huge = 1ull << 62;
    std::vector<std::uint8_t> man = readFile(path);
    // Entry layout: name, hash u64, raw_len u64, raw_crc u32, flags u8,
    // stored_len u64; the trailing u32 CRC signs all preceding bytes.
    std::size_t name = findBytes(man, "engine");
    ASSERT_NE(std::string::npos, name);
    pokeU64(man, name + 6 + 8, huge);
    std::uint32_t crc = ckptCrc32(man.data(), man.size() - 4);
    std::memcpy(man.data() + man.size() - 4, &crc, 4);
    writeFile(path, man);

    const std::string blob = biggestBlob(dir + "/blobs");
    std::vector<std::uint8_t> bytes = readFile(blob);
    pokeU64(bytes, 4, huge); // header: magic u32, then raw_len u64
    writeFile(blob, bytes);

    auto load = [&] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("engine");
    };
    EXPECT_EXIT(load(), ::testing::ExitedWithCode(1),
                "implausible raw length");
    ckptStoreRemoveDir(dir + "/blobs");
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(CkptStoreDeathTest, HashCollisionOnPublishIsFatal)
{
    // A blob whose name exists but whose header disagrees with what we
    // are publishing is a hash collision (or corrupt store) — the save
    // must refuse rather than alias someone else's content.
    auto saved = saveStoreCheckpoint("ckpt_collide");
    const std::string blob = biggestBlob(saved.second);
    std::vector<std::uint8_t> bytes = readFile(blob);
    bytes[6] ^= 0x01; // raw_len drift, as a colliding payload would show
    writeFile(blob, bytes);
    auto save_again = [] {
        SimOptions o = smallBareOptions();
        o.checkpoint_save = tmpPath("ckpt_collide2.ckpt");
        o.ckpt_store = "ckpt_collide_blobs";
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(save_again(), ::testing::ExitedWithCode(1),
                "hash collision or corrupt store");
    cleanupStore(saved);
    std::remove(tmpPath("ckpt_collide2.ckpt").c_str());
}

} // namespace
} // namespace pfm
