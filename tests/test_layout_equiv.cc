/**
 * @file
 * Layout-equivalence property tests for the SoA hot-structure rewrite.
 *
 * The flat-arena TAGE banks, per-kind fold arrays, SoA statistical
 * corrector, and packed loop words are layout changes only: against the
 * reference array-of-structs implementation (tests/reference_tage_scl.h,
 * kept verbatim from the pre-SoA sources) the production predictor must
 * produce identical predictions on random branch streams and an identical
 * saveState() byte stream. Because the wire format is shared, a
 * checkpoint written by either layout must restore into the other with no
 * behavioral drift — that cross-restore is the strongest single check
 * that the checkpoint image never picked up layout details.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "branch/tage.h"
#include "branch/tage_scl.h"
#include "reference_tage_scl.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/** One branch event of the synthetic stream. */
struct BranchEvent {
    Addr pc;
    bool taken;
};

/**
 * A stream that exercises every predictor component: a few constant-trip
 * loops (loop predictor), history-correlated branches (tagged tables and
 * the SC), biased-random branches (base table, allocation churn), and
 * enough distinct PCs to force tag aliasing in 10-bit banks.
 */
std::vector<BranchEvent>
makeStream(std::uint64_t seed, size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<BranchEvent> ev;
    ev.reserve(n);

    // PC pool: 96 branch sites spread over a few "pages".
    std::vector<Addr> pcs;
    for (unsigned i = 0; i < 96; ++i)
        pcs.push_back(0x40'0000 + 4 * (i * 7 + (i % 3) * 1024));

    unsigned loop_iter[4] = {0, 0, 0, 0};
    const unsigned loop_trip[4] = {7, 12, 3, 33};
    std::uint64_t hist = 0;

    std::uniform_int_distribution<size_t> pick_pc(0, pcs.size() - 1);
    std::uniform_int_distribution<int> pct(0, 99);

    for (size_t i = 0; i < n; ++i) {
        int kind = pct(rng);
        if (kind < 20) {
            // Constant-trip loop branch.
            unsigned l = static_cast<unsigned>(rng() % 4);
            bool taken = ++loop_iter[l] < loop_trip[l];
            if (!taken)
                loop_iter[l] = 0;
            ev.push_back({0x50'0000 + 4096 * l, taken});
        } else if (kind < 60) {
            // History-correlated: outcome is a parity of recent outcomes.
            Addr pc = pcs[pick_pc(rng) % 32];
            bool taken = ((hist >> 2) ^ (hist >> 5) ^ (hist >> 11)) & 1;
            ev.push_back({pc, taken});
        } else if (kind < 90) {
            // Biased-random per-PC.
            size_t p = pick_pc(rng);
            bool taken = pct(rng) < static_cast<int>(20 + (p * 61) % 60);
            ev.push_back({pcs[p], taken});
        } else {
            // Pure noise on a wide PC range (allocation pressure).
            ev.push_back({0x60'0000 + 4 * (rng() & 0xFFFF), (rng() & 1) != 0});
        }
        hist = (hist << 1) | (ev.back().taken ? 1 : 0);
    }
    return ev;
}

template <typename Predictor>
std::vector<unsigned char>
stateBytes(const Predictor& p, const std::string& name)
{
    const std::string path = tmpPath(name);
    const std::string blobs = name + "_blobs";
    CkptWriter w(path, blobs);
    w.writeHeader(CkptHeader{});
    w.beginSection("bp");
    p.saveState(w);
    w.endSection();
    w.finish();
    // Read the raw section payload back; its length is the manifest's
    // logical byte count.
    std::vector<unsigned char> bytes(inspectCkptFile(path).logical_bytes);
    CkptReader r(path);
    r.readHeader();
    r.beginSection("bp");
    r.getBytes(bytes.data(), bytes.size());
    r.endSection();
    std::remove(path.c_str());
    ckptStoreRemoveDir(tmpPath(blobs));
    return bytes;
}

// ---------------------------------------------------------------- lockstep

TEST(LayoutEquiv, TageLockstepOnRandomStreams)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
        SCOPED_TRACE(seed);
        TageParams params;
        TagePredictor prod(params);
        refmodel::TagePredictor ref(params);

        for (const BranchEvent& e : makeStream(seed, 10'000)) {
            bool p = prod.predict(e.pc);
            bool r = ref.predict(e.pc);
            ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
            prod.update(e.pc, e.taken);
            ref.update(e.pc, e.taken);
        }

        EXPECT_EQ(stateBytes(prod, "layout_tage_prod.ckpt"),
                  stateBytes(ref, "layout_tage_ref.ckpt"));
    }
}

TEST(LayoutEquiv, TageSclLockstepOnRandomStream)
{
    TageSclPredictor prod;
    refmodel::TageSclPredictor ref;

    for (const BranchEvent& e : makeStream(7, 10'000)) {
        bool p = prod.predict(e.pc);
        bool r = ref.predict(e.pc);
        ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
        prod.update(e.pc, e.taken);
        ref.update(e.pc, e.taken);
    }

    EXPECT_EQ(stateBytes(prod, "layout_scl_prod.ckpt"),
              stateBytes(ref, "layout_scl_ref.ckpt"));
}

TEST(LayoutEquiv, TageSclFusedPathMatchesReference)
{
    // The production fused predictAndTrain() against the reference's
    // split predict()+update(): same predictions, same final state bytes.
    TageSclPredictor prod;
    refmodel::TageSclPredictor ref;

    for (const BranchEvent& e : makeStream(1234, 10'000)) {
        bool p = prod.predictAndTrain(e.pc, e.taken);
        bool r = ref.predict(e.pc);
        ref.update(e.pc, e.taken);
        ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
    }

    EXPECT_EQ(stateBytes(prod, "layout_fused_prod.ckpt"),
              stateBytes(ref, "layout_fused_ref.ckpt"));
}

// ------------------------------------------------------------- round trips

TEST(LayoutEquiv, TageSclCheckpointRoundTripContinuesIdentically)
{
    // Train, save, restore into a fresh predictor, and run both onward:
    // the restored SoA banks must be indistinguishable from the originals.
    TageSclPredictor a;
    std::vector<BranchEvent> stream = makeStream(99, 16'000);
    for (size_t i = 0; i < 8'000; ++i) {
        a.predict(stream[i].pc);
        a.update(stream[i].pc, stream[i].taken);
    }

    const std::string path = tmpPath("layout_rt.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("bp");
        a.saveState(w);
        w.endSection();
        w.finish();
    }
    TageSclPredictor b;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("bp");
        b.loadState(r);
        r.endSection();
    }
    std::remove(path.c_str());

    for (size_t i = 8'000; i < stream.size(); ++i) {
        ASSERT_EQ(a.predict(stream[i].pc), b.predict(stream[i].pc));
        a.update(stream[i].pc, stream[i].taken);
        b.update(stream[i].pc, stream[i].taken);
    }
    EXPECT_EQ(stateBytes(a, "layout_rt_a.ckpt"),
              stateBytes(b, "layout_rt_b.ckpt"));
}

TEST(LayoutEquiv, ReferenceCheckpointRestoresIntoProductionLayout)
{
    // The wire format is layout-independent: state written by the
    // reference AoS model restores into the SoA production predictor and
    // the two continue in lockstep.
    refmodel::TageSclPredictor ref;
    std::vector<BranchEvent> stream = makeStream(2026, 12'000);
    for (size_t i = 0; i < 6'000; ++i) {
        ref.predict(stream[i].pc);
        ref.update(stream[i].pc, stream[i].taken);
    }

    const std::string path = tmpPath("layout_cross.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("bp");
        ref.saveState(w);
        w.endSection();
        w.finish();
    }
    TageSclPredictor prod;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("bp");
        prod.loadState(r);
        r.endSection();
    }
    std::remove(path.c_str());

    for (size_t i = 6'000; i < stream.size(); ++i) {
        ASSERT_EQ(prod.predict(stream[i].pc), ref.predict(stream[i].pc));
        prod.update(stream[i].pc, stream[i].taken);
        ref.update(stream[i].pc, stream[i].taken);
    }
    EXPECT_EQ(stateBytes(prod, "layout_cross_prod.ckpt"),
              stateBytes(ref, "layout_cross_ref.ckpt"));
}

TEST(LayoutEquiv, NonDefaultGeometryLockstep)
{
    // Shapes where tag_bits-1 != log_tagged_entries (so the tagB fold
    // cannot alias the index fold) and where the ctr width differs: the
    // SoA fold sharing must key off the geometry, not assume the default.
    TageParams params;
    params.num_tables = 6;
    params.log_tagged_entries = 9;
    params.tag_bits = 12;
    params.ctr_bits = 2;
    params.min_history = 4;
    params.max_history = 130;

    TagePredictor prod(params);
    refmodel::TagePredictor ref(params);

    for (const BranchEvent& e : makeStream(555, 10'000)) {
        ASSERT_EQ(prod.predict(e.pc), ref.predict(e.pc))
            << "pc=" << std::hex << e.pc;
        prod.update(e.pc, e.taken);
        ref.update(e.pc, e.taken);
    }

    EXPECT_EQ(stateBytes(prod, "layout_geom_prod.ckpt"),
              stateBytes(ref, "layout_geom_ref.ckpt"));
}

} // namespace
} // namespace pfm
