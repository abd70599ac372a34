/**
 * @file
 * Parallel sweep runner: a declarative list of independent simulation
 * configurations (workload x component x parameter tokens) executed by a
 * fixed-size thread pool. Results are collected in spec order, so report
 * output is byte-identical regardless of the worker count, and each run's
 * wall time is captured for the machine-readable BENCH_<name>.json output.
 *
 * Every runSim() configuration is fully independent (no shared mutable
 * simulator state), which makes the paper's figure/table sweeps
 * embarrassingly parallel — the same property ChampSim-style simulators
 * exploit for design-space exploration.
 */

#ifndef PFM_SIM_SWEEP_H
#define PFM_SIM_SWEEP_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/stats_io.h"

namespace pfm {

class Simulator;

/** Handle to one run of a SweepSpec (its index in spec order). */
struct RunHandle {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t index = kNone;
    bool valid() const { return index != kNone; }
};

/** One fully-specified simulation in a sweep. */
struct SweepRun {
    std::string label;
    SimOptions opt;

    /** Baseline run for the JSON speedup column (invalid = no speedup). */
    RunHandle speedup_base;

    /**
     * Sharded mode: a warmup leg runs only the warmup phase and saves a
     * checkpoint at the boundary (the runner assigns the file path);
     * measurement legs name their warmup leg and load its checkpoint
     * instead of re-running warmup. The runner executes all warmup legs
     * before any leg that depends on one. See DESIGN.md "Checkpoint
     * format" for the identity guarantee.
     */
    bool warmup_only = false;
    RunHandle warmup_leg;

    /**
     * Optional per-run metric evaluated on the worker while the Simulator
     * is still alive (e.g. the energy model over final counters). The
     * returned value lands in SweepResult::aux.
     */
    std::function<double(Simulator&, const SimResult&)> aux_fn;
};

/** Declarative sweep specification; order of add() calls is spec order. */
class SweepSpec
{
  public:
    RunHandle add(std::string label, SimOptions opt,
                  RunHandle speedup_base = {});

    RunHandle add(SweepRun run);

    /**
     * Sharding helpers: a warmup leg (warmup only, saves a checkpoint at
     * the boundary) and a measurement leg restoring from one. The
     * measurement leg's options must be warmup-compatible with the leg it
     * names — same workload and core/memory config — or the load is
     * fatal; with SimOptions::defer_component one bare-core warmup leg
     * serves measurement legs of any component/PFM parameters.
     */
    RunHandle addWarmup(std::string label, SimOptions opt);
    RunHandle addMeasurement(std::string label, SimOptions opt,
                             RunHandle warmup_leg,
                             RunHandle speedup_base = {});

    /**
     * Cross-product helper: one run per (workload, token string), all with
     * the same component, labelled "<workload>/<tokens>".
     */
    std::vector<RunHandle>
    addProduct(const std::vector<std::string>& workloads,
               const std::string& component,
               const std::vector<std::string>& token_sets);

    const std::vector<SweepRun>& runs() const { return runs_; }
    std::size_t size() const { return runs_.size(); }
    bool empty() const { return runs_.empty(); }

  private:
    std::vector<SweepRun> runs_;
};

/** Outcome of one run: the simulation counters plus wall-clock cost. */
struct SweepResult {
    SimResult sim;
    double wall_ms = 0;  ///< wall time of this run on its worker
    double aux = 0;      ///< SweepRun::aux_fn value (0 if none)
};

/**
 * Execute one run on the calling thread, timing it. This is the single
 * leg-execution path shared by SweepRunner workers and the sim daemon's
 * worker pool, so a daemon-served leg is the *same code* as a direct
 * sweep leg (the byte-identity guarantee leans on this). A non-empty
 * @p save_path turns the run into a warmup leg (checkpoint saved at the
 * boundary, measurement skipped); a non-empty @p load_path restores from
 * a warmup checkpoint instead of re-running warmup. The save publishes
 * its blobs under @p store_subdir of the checkpoint's directory
 * (ckpt_store.h; empty = kCkptDefaultStore); a load finds them through
 * the manifest.
 */
SweepResult runSweepLeg(const SweepRun& run, const std::string& save_path,
                        const std::string& load_path,
                        const std::string& store_subdir = "");

/**
 * The BENCH JSON row of one finished run: @p label plus every SimResult
 * column. wall_ms and speedup_pct are left for the caller, which owns the
 * timing and the speedup base.
 */
BenchJsonRow benchJsonRow(const std::string& label, const SimResult& r);

/**
 * Fixed-size thread-pool executor. Workers pull runs from the spec in
 * order and run them to completion; run() blocks until every future is
 * fulfilled and returns results indexed exactly like the spec.
 */
class SweepRunner
{
  public:
    /** @p jobs 0 resolves via PFM_JOBS / hardware_concurrency(). */
    explicit SweepRunner(unsigned jobs = 0);

    /** Execute every run of @p spec; results are in spec order. */
    const std::vector<SweepResult>& run(const SweepSpec& spec);

    const std::vector<SweepResult>& results() const { return results_; }
    const SweepResult& result(RunHandle h) const;
    const SimResult& sim(RunHandle h) const { return result(h).sim; }

    unsigned jobs() const { return jobs_; }

    /** Wall time of the whole run() call (all workers), milliseconds. */
    double totalWallMs() const { return total_wall_ms_; }

  private:
    unsigned jobs_;
    std::vector<SweepResult> results_;
    double total_wall_ms_ = 0;
};

/**
 * Worker-count knob: the last --jobs=N / --jobs N / -jN argv entry wins,
 * then the PFM_JOBS environment variable, then hardware_concurrency().
 * Values are clamped to [1, 256]. A malformed or non-positive explicit
 * flag is fatal; a malformed PFM_JOBS warns and falls back to the
 * hardware default.
 */
unsigned resolveJobs(int argc = 0, char** argv = nullptr);

/**
 * Write BENCH_<name>.json (into PFM_BENCH_JSON_DIR, default the working
 * directory) with one row per run: label, ipc, mpki, cycles,
 * instructions, wall_ms and — for runs declared with a speedup base —
 * speedup_pct. Returns the path written, or "" when writing failed.
 */
std::string emitBenchJson(const std::string& name, const SweepSpec& spec,
                          const SweepRunner& runner);

} // namespace pfm

#endif // PFM_SIM_SWEEP_H
