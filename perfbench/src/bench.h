/**
 * @file
 * Workload entry points and the pieces they share: run settings, the
 * in-process leg runner, the layer probes and the deferred-attach
 * reference runs. See perfbench/README.md for what each workload is for.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "tracer.h"
#include "workloads/workload.h"

namespace perfbench {

/** Command-line settings of one run. */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Tiny instruction budgets: checks the plumbing, measures nothing. */
    bool smoke = false;
};

double msBetween(Clock::time_point a, Clock::time_point b);
double msSince(Clock::time_point a);

/**
 * Whether to repeat the set-up again, given the durations (s) so far:
 * at least 3 times, and while the total is under a second (so a cheap
 * set-up is repeated enough for a stable median), at most 50 times.
 */
bool moreSetup(const std::vector<double>& reps);

/** Median of the set-up repetitions (setup_s), printing their range. */
double setupSeconds(const std::vector<double>& reps);

/** The fig17 FSM-prefetcher workloads the daemon sweep serves. */
const std::vector<std::string>& fig17Workloads();

/**
 * Daemon-sweep leg window (warmup, then measured instructions). The
 * deferred-attach gap is quoted at this window everywhere.
 */
constexpr std::uint64_t kSweepWarmup = 50'000;
constexpr std::uint64_t kSweepBudget = 200'000;

/** Options of a sweep-window leg: workload, component and tokens. */
pfm::SimOptions sweepLegOptions(const std::string& workload,
                                const std::string& component,
                                const std::string& tokens);

/** One in-process simulator run, as the timed phase executes it. */
struct LegSpec {
    std::string label;  ///< "<workload>/<component> <tokens>"
    pfm::SimOptions opt;
};

struct LegResult {
    bool ok = false;
    pfm::SimResult r;
    double construct_ms = 0;
    double run_ms = 0;
    double latency_ms = 0;   ///< construct + run
    double sim_insts = 0;    ///< instructions run() simulated
    double sim_cycles = 0;   ///< cycles run() simulated
    std::string row;         ///< deterministic result fields, for identity
    Counters counters;
};

/** Host time and simulated work summed over legs: the sim.* metrics. */
struct LegTotals {
    double construct_ms = 0;
    double run_ms = 0;
    double insts = 0;
    double cycles = 0;
    std::uint64_t legs = 0;

    void add(const LegResult& lr);

    /** sim.construct_ms, sim.run_ms, sim.ns_per_inst, sim.ns_per_cycle. */
    void publish(Report& rep) const;
};

/**
 * Construct and run one leg under spans "sim.leg" > "sim.construct",
 * "sim.run", "{core,memory,pfm}.read_stats". Counts an attempt; a fatal
 * error or a run that neither retires its budget nor halts is a failure.
 */
LegResult runLeg(const LegSpec& leg, const std::string& span_id,
                 Report& rep, Tracer& tr);

/** Set the per-layer counter metrics (core, memory, pfm, components). */
void publishCounters(const Counters& c, Report& rep);

/**
 * Host-time probes of single layers, driven by the benchmark over the
 * same instruction streams its legs simulate: the interpreter drained
 * standalone (isa), the trace reader drained (trace_fe), the TAGE-SC-L
 * predictor replaying the conditional-branch stream (branch) and the
 * cache hierarchy replaying the load/store addresses (memory).
 */
struct LayerProbes {
    double build_ms = 0;
    std::uint64_t builds = 0;
    double isa_ms = 0;
    std::uint64_t isa_steps = 0;
    double trace_ms = 0;
    std::uint64_t trace_steps = 0;
    double record_ms = 0;
    std::uint64_t trace_bytes = 0;
    double branch_ms = 0;
    std::uint64_t branch_lookups = 0;
    double memory_ms = 0;
    std::uint64_t memory_accesses = 0;
    double ckpt_save_ms = 0;
    double ckpt_load_ms = 0;
    std::uint64_t ckpt_keys = 0;
    std::uint64_t ckpt_store_bytes = 0;

    /** Set the probe-derived per-layer metrics (0 where not probed). */
    void publish(Report& rep) const;
};

/** The branch outcomes and memory addresses of a drained stream. */
struct Stream {
    std::vector<std::pair<pfm::Addr, bool>> branches;  ///< pc, taken
    std::vector<std::pair<pfm::Addr, bool>> accesses;  ///< addr, is store
};

/**
 * Build a workload under "workloads.build", then drain @p steps
 * instructions through the interpreter under "isa.drain" (the drain
 * appends each branch and address to the returned stream).
 */
Stream drainNative(const std::string& label,
                   const std::function<pfm::Workload()>& build,
                   std::uint64_t steps, LayerProbes& p, Tracer& tr);

/** Drain a recorded trace to its end under "trace_fe.drain". */
Stream drainTrace(const std::string& path, LayerProbes& p, Tracer& tr);

/**
 * Replay a stream's conditional branches through a fresh TAGE-SC-L
 * ("branch.replay") and its addresses through a fresh cache hierarchy
 * ("memory.replay").
 */
void replayStream(const Stream& s, const std::string& label,
                  LayerProbes& p, Tracer& tr);

/**
 * Warm each key bare-core, save it through the checkpoint store under
 * "sim.ckpt_save", restore it into a fresh simulator under
 * "sim.ckpt_load"; store bytes are what the saves left on disk.
 * @p dir is created fresh. Returns the image paths, one per key that
 * saved and restored cleanly.
 */
std::vector<std::string>
probeCheckpoints(const std::vector<pfm::SimOptions>& keys,
                 const std::string& dir, LayerProbes& p, Report& rep,
                 Tracer& tr);

/** Self time per layer plus the span count, from the recorded spans. */
void publishSelfTimes(const Tracer& tr, Report& rep);

/** Classic-mode (attach at construction) reference runs per workload. */
struct FsmReference {
    std::string workload;
    pfm::SimResult none;
    pfm::SimResult classic;  ///< clk4_w4, component attached at start
};

/** Run the classic references at the sweep window (outside any timing). */
std::vector<FsmReference> classicReferences(Report& rep);

/**
 * Mean |served - classic| clk4_w4 speedup over the fig17 workloads, in
 * percentage points; @p served_pct holds the speedup each workload's
 * deferred leg produced, in fig17Workloads() order. Prints each pair
 * as information beside the EXPERIMENTS.md figure.
 */
double deferredGapPp(const std::vector<FsmReference>& refs,
                     const std::vector<double>& served_pct,
                     const char* served_how);

/**
 * The deferred side measured in-process: each workload's clk4_w4 leg
 * run with the component attached at the warmup boundary, as sharded
 * sweeps and the daemon run it.
 */
std::vector<double> inProcessDeferredSpeedups(
    const std::vector<FsmReference>& refs, Report& rep);

/** Print a simulated speedup beside its paper/EXPERIMENTS.md figure. */
void printSpeedup(const std::string& what, double measured_pct,
                  const std::string& reference);

/** The three workloads. Each sets every catalogue metric of its mode. */
void runNativeMix(const RunConfig& cfg, Report& rep, Tracer& tr);
void runTraceReplay(const RunConfig& cfg, Report& rep, Tracer& tr);
void runDaemonSweep(const RunConfig& cfg, Report& rep, Tracer& tr);

/**
 * Self-test: the trace-replay workload's recording at the registry's
 * default graph seed, replayed bare-core, must match a native
 * bfs-roads-1m run cycle for cycle. Returns 0 on a match.
 */
int selftestTraceMatchesNative();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
