/**
 * @file
 * The in-process workloads: native-mix and trace-replay, their shared
 * timed rounds, and the trace-replay self-test.
 */

#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>


#include "bench.h"
#include "common/log.h"
#include "isa/functional_engine.h"
#include "trace_fe/trace_writer.h"
#include "workloads/bfs.h"
#include "workloads/registry.h"

using namespace pfm;

namespace perfbench {

namespace {

/** The paper's fast PFM point (Figures 8, 12 and 17). */
const char* const kFastCfg = "clk4_w4 delay0 queue32 portALL";

/**
 * Native-mix and trace-replay leg budget. Multi-million-instruction
 * legs keep construction near 1% of a leg, so host_mips tracks the
 * run loop (isa, core, branch, memory, pfm).
 */
std::uint64_t
longBudget(const RunConfig& cfg)
{
    return cfg.smoke ? 20'000 : 2'000'000;
}

/**
 * Instructions recorded past warmup + budget. The core fetches a few
 * hundred instructions ahead of retirement; a replay must never reach
 * the end of the stream early, or it would stop where the native run
 * keeps going.
 */
constexpr std::uint64_t kTraceSlack = 100'000;

SimOptions
longLegOptions(const RunConfig& cfg, const std::string& workload,
               const std::string& component, const std::string& tokens)
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.max_instructions = longBudget(cfg);
    o.warmup_instructions = o.max_instructions / 10;
    if (!tokens.empty())
        applyTokens(o, tokens);
    o.report_prefetch_stats = true;
    return o;
}

std::string
legLabel(const SimOptions& o, const std::string& tokens)
{
    std::string wl = o.workload;
    if (wl.rfind("trace:", 0) == 0)
        wl = "trace";
    return wl + "/" + o.component + (tokens.empty() ? "" : " " + tokens);
}

void
publishNoDaemon(Report& rep)
{
    for (const char* n :
         {"daemon.leg_wall_ms", "daemon.queue_wait_ms", "daemon.cache_hits",
          "daemon.cache_misses", "daemon.warmups", "daemon.cache_lookups",
          "daemon.cache_hit_pct"})
        rep.set(n, 0);
}

/**
 * Shared timed phase of the in-process workloads. Untraced: whole
 * rounds over @p legs until the deadline, then the end-to-end metrics.
 * Traced: alternating untraced and traced rounds (the difference is the
 * tracing overhead), the layer probes, then the per-layer metrics.
 * Returns each leg's result from the first round.
 */
std::vector<SimResult>
runRounds(const RunConfig& cfg, const std::vector<LegSpec>& legs,
          double setup_s, const std::function<void(LayerProbes&)>& probes,
          Report& rep, Tracer& tr)
{
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));

    std::vector<std::vector<double>> run_ms(legs.size());
    std::vector<std::vector<double>> latency_ms(legs.size());
    std::vector<std::string> rows(legs.size());
    std::vector<SimResult> first(legs.size());
    std::vector<double> round_ms[2];  // [traced]
    std::string counters_text;
    Counters round_counters;
    LegTotals totals;

    for (unsigned round = 0;; ++round) {
        const bool traced = cfg.trace && (round % 2 == 1);
        if (round > 0 && Clock::now() >= deadline &&
            (!cfg.trace || round >= 2))
            break;
        tr.setEnabled(traced);
        Counters counters;
        const Clock::time_point r0 = Clock::now();
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const std::string id =
                "r" + std::to_string(round) + "/" + legs[i].label;
            LegResult lr = runLeg(legs[i], id, rep, tr);
            if (!lr.ok)
                continue;
            run_ms[i].push_back(lr.run_ms);
            latency_ms[i].push_back(lr.latency_ms);
            totals.add(lr);
            counters.merge(lr.counters);
            if (rows[i].empty()) {
                rows[i] = lr.row;
                first[i] = lr.r;
            } else if (lr.row != rows[i]) {
                rep.fail("leg " + legs[i].label +
                         " is not deterministic across rounds: " + lr.row +
                         " vs " + rows[i]);
            }
        }
        round_ms[traced ? 1 : 0].push_back(msSince(r0));
        if (round == 0) {
            counters_text = counters.text();
            round_counters = counters;
        } else if (counters.text() != counters_text) {
            rep.fail(std::string("work counters of round ") +
                     std::to_string(round) + (traced ? " (traced)" : "") +
                     " differ from round 0");
        }
    }
    tr.setEnabled(false);

    for (std::size_t i = 0; i < legs.size(); ++i) {
        if (rows[i].empty())
            continue;
        info("leg %-44s ipc %.4f  cycles %llu  run min/p50/max "
             "%.1f/%.1f/%.1f ms (%zu runs)",
             legs[i].label.c_str(), first[i].ipc,
             static_cast<unsigned long long>(first[i].cycles),
             quantile(run_ms[i], 0), median(run_ms[i]),
             quantile(run_ms[i], 1), run_ms[i].size());
    }

    if (!cfg.trace) {
        // The host is shared, and interference only ever slows a leg
        // down, so each leg's time is its best of the rounds (min-of-N).
        // host_mips divides committed instructions by summed run() time;
        // legs_per_s is one round's legs over its summed best latencies;
        // the latency percentiles run over the leg types, each at its
        // best: the legs are a fixed mix of lengths, not a sample of one
        // distribution.
        double inst_sum = 0, run_s = 0, round_s = 0;
        std::vector<double> best_latency;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            if (run_ms[i].empty())
                continue;
            inst_sum += static_cast<double>(first[i].instructions);
            run_s += quantile(run_ms[i], 0) / 1e3;
            best_latency.push_back(quantile(latency_ms[i], 0));
            round_s += best_latency.back() / 1e3;
        }
        rep.set("host_mips", run_s > 0 ? inst_sum / run_s / 1e6 : 0);
        rep.set("setup_s", setup_s);
        rep.set("legs_per_s",
                round_s > 0 ? static_cast<double>(best_latency.size()) /
                                  round_s
                            : 0);
        rep.set("leg_p50_ms", median(best_latency));
        rep.set("leg_p90_ms", quantile(best_latency, 0.9));
        info("%llu legs in %.2f s: best of %zu rounds per leg type",
             static_cast<unsigned long long>(totals.legs),
             msSince(start) / 1e3, run_ms[0].size());
        // Before the reference runs, which are not this workload's.
        rep.set("peak_rss_mb", peakRssMb());
        const auto refs = classicReferences(rep);
        rep.set("deferred_gap_pp",
                deferredGapPp(refs, inProcessDeferredSpeedups(refs, rep),
                              "deferred in-process"));
        return first;
    }

    LayerProbes p;
    tr.setEnabled(true);
    probes(p);
    tr.setEnabled(false);
    p.publish(rep);
    publishCounters(round_counters, rep);
    publishNoDaemon(rep);
    totals.publish(rep);
    const double untraced = median(round_ms[0]);
    rep.set("trace.overhead_pct",
            untraced > 0 ? 100.0 * (median(round_ms[1]) - untraced) /
                               untraced
                         : 0);
    publishSelfTimes(tr, rep);
    return first;
}

/** The bfs-roads-1m tier's generator, driven by @p seed. */
Workload
bfsRoads1m(std::uint64_t seed)
{
    BfsConfig bc;
    bc.input = BfsInput::kRoads;
    bc.road_side = 1000;
    bc.seed = seed;
    Workload w = makeBfsWorkload(bc);
    w.name = "bfs-roads-1m";
    return w;
}

/** One recording of the trace-replay input. */
struct Recording {
    double build_ms = 0;
    double record_ms = 0;
    std::uint64_t records = 0;
};

/**
 * Build the million-node roads graph from @p seed and record its first
 * @p steps committed instructions by stepping the interpreter through a
 * TraceRecorder.
 */
Recording
recordBfsTrace(std::uint64_t seed, std::uint64_t steps,
               const std::string& path, Tracer& tr)
{
    Recording rec;
    Clock::time_point t0 = Clock::now();
    Workload w;
    {
        Tracer::Scope s(tr, "workloads.build", "bfs-roads-1m");
        w = bfsRoads1m(seed);
    }
    rec.build_ms = msSince(t0);

    t0 = Clock::now();
    {
        Tracer::Scope s(tr, "trace_fe.record", "bfs-roads-1m");
        FunctionalEngine eng(w.program, *w.mem);
        eng.reset(w.entry);
        for (const auto& [reg, val] : w.init_regs)
            eng.setReg(reg, val);
        TraceRecorder recorder(eng, path, w);
        while (!recorder.halted() && recorder.executed() < steps)
            recorder.step();
        recorder.finish();
        rec.records = recorder.executed();
    }
    rec.record_ms = msSince(t0);
    return rec;
}

} // namespace

void
runNativeMix(const RunConfig& cfg, Report& rep, Tracer& tr)
{
    // Bare core, astar PFM at the paper's fast point, bfs-roads PFM and
    // lbm's FSM prefetcher: the ROADMAP's canonical long runs. The none
    // leg beside the auto legs separates agent cost from core cost.
    std::vector<LegSpec> legs;
    const std::vector<std::array<std::string, 3>> mix = {
        {"astar", "none", ""},
        {"astar", "auto", kFastCfg},
        {"bfs-roads", "auto", kFastCfg},
        {"lbm", "auto", ""},
    };
    for (const auto& [w, comp, tokens] : mix) {
        SimOptions o = longLegOptions(cfg, w, comp, tokens);
        legs.push_back(LegSpec{legLabel(o, tokens), o});
    }

    // Set-up: building each leg's workload and machine.
    tr.setEnabled(cfg.trace);
    std::vector<double> setup;
    while (moreSetup(setup)) {
        const Clock::time_point t0 = Clock::now();
        for (const LegSpec& leg : legs) {
            Tracer::Scope s(tr, "sim.construct", "setup/" + leg.label);
            Simulator sim(leg.opt);
        }
        setup.push_back(msSince(t0) / 1e3);
    }
    tr.setEnabled(false);

    auto probes = [&](LayerProbes& p) {
        std::vector<SimOptions> keys;
        for (const char* w : {"astar", "bfs-roads", "lbm"}) {
            SimOptions o = longLegOptions(cfg, w, "none", "");
            const Stream s = drainNative(
                w, [w] { return makeWorkload(w); },
                o.warmup_instructions + o.max_instructions, p, tr);
            replayStream(s, w, p, tr);
            keys.push_back(o);
        }
        probeCheckpoints(keys, "ckpt-probe", p, rep, tr);
    };
    const auto first =
        runRounds(cfg, legs, setupSeconds(setup), probes, rep, tr);
    printSpeedup("astar clk4_w4 (native-mix budget)",
                 speedupPct(first[0], first[1]),
                 "paper Fig 8 +163%; EXPERIMENTS.md +153%");
}

void
runTraceReplay(const RunConfig& cfg, Report& rep, Tracer& tr)
{
    const std::uint64_t budget = longBudget(cfg);
    const std::uint64_t warmup = budget / 10;
    const std::string path =
        std::filesystem::absolute("bfs-roads-1m.pfmt").string();

    // Set-up: graph generation from the run's seed plus one recording.
    tr.setEnabled(cfg.trace);
    std::vector<double> setup;
    Recording rec;
    while (moreSetup(setup)) {
        rep.attempt();
        try {
            ScopedFatalThrow throws;
            rec = recordBfsTrace(cfg.seed, warmup + budget + kTraceSlack,
                                 path, tr);
        } catch (const std::exception& e) {
            rep.fail(std::string("recording the trace: ") + e.what());
            return;
        }
        setup.push_back((rec.build_ms + rec.record_ms) / 1e3);
    }
    tr.setEnabled(false);
    info("trace: %llu records from the seed-%llu roads graph; build %.1f ms, "
         "record %.1f ms",
         static_cast<unsigned long long>(rec.records),
         static_cast<unsigned long long>(cfg.seed), rec.build_ms,
         rec.record_ms);

    std::vector<LegSpec> legs;
    for (const auto& [comp, tokens] :
         std::vector<std::pair<std::string, std::string>>{
             {"none", ""}, {"auto", "clk4_w4"}}) {
        SimOptions o;
        o.workload = "trace:" + path;
        o.component = comp;
        o.warmup_instructions = warmup;
        o.max_instructions = budget;
        if (!tokens.empty())
            applyTokens(o, tokens);
        o.report_prefetch_stats = true;
        legs.push_back(LegSpec{legLabel(o, tokens), o});
    }

    auto probes = [&](LayerProbes& p) {
        p.build_ms += rec.build_ms;
        ++p.builds;
        p.record_ms = rec.record_ms;
        replayStream(drainTrace(path, p, tr), "trace", p, tr);
        // The interpreter over the same stream, for isa.step_ns: the
        // recorded instructions are exactly what it executes.
        const std::uint64_t seed = cfg.seed;
        drainNative("bfs-roads-1m", [seed] { return bfsRoads1m(seed); },
                    rec.records, p, tr);
        probeCheckpoints({legs[0].opt}, "ckpt-probe", p, rep, tr);
    };
    const auto first =
        runRounds(cfg, legs, setupSeconds(setup), probes, rep, tr);
    printSpeedup("bfs-roads-1m clk4_w4 (trace replay)",
                 speedupPct(first[0], first[1]),
                 "paper Fig 12 +125%; EXPERIMENTS.md bfs-roads +191%");
}

int
selftestTraceMatchesNative()
{
    RunConfig cfg;
    const std::uint64_t budget = longBudget(cfg);
    const std::uint64_t warmup = budget / 10;
    const std::string path =
        std::filesystem::absolute("selftest-bfs-roads-1m.pfmt").string();
    Tracer off;
    Report rep;
    recordBfsTrace(BfsConfig{}.seed, warmup + budget + kTraceSlack, path,
                   off);

    SimOptions replay = longLegOptions(cfg, "trace:" + path, "none", "");
    SimOptions native = longLegOptions(cfg, "bfs-roads-1m", "none", "");
    LegResult a = runLeg(LegSpec{"replay", replay}, "replay", rep, off);
    LegResult b = runLeg(LegSpec{"native", native}, "native", rep, off);
    std::remove(path.c_str());
    std::printf("replay: %s\nnative: %s\n", a.row.c_str(), b.row.c_str());
    if (!a.ok || !b.ok || a.row != b.row ||
        a.counters.text() != b.counters.text()) {
        std::printf("FAIL: trace replay diverges from the native run\n");
        return 1;
    }
    std::printf("ok: trace replay matches native bfs-roads-1m cycle for "
                "cycle\n");
    return 0;
}

} // namespace perfbench
