/**
 * @file
 * What every workload shares: the leg runner and its work counters, the
 * set-up repetition rule, and the classic/deferred reference runs behind
 * deferred_gap_pp.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/log.h"

using namespace pfm;

namespace perfbench {

namespace {

/** Deterministic fields of a result, rendered as text. */
std::string
resultRow(const SimResult& r)
{
    std::string s = "cycles=" + std::to_string(r.cycles) +
                    " insts=" + std::to_string(r.instructions) +
                    " ipc=" + num(r.ipc) + " mpki=" + num(r.mpki) +
                    " rst=" + num(r.rst_hit_pct) +
                    " fst=" + num(r.fst_hit_pct);
    for (const PortStatsSnapshot& p : r.ports)
        s += " " + p.name + "=" + std::to_string(p.pushes) + "/" +
             std::to_string(p.full_stalls) + "/" + num(p.occ_avg) + "/" +
             num(p.qlat_avg);
    if (r.has_pf)
        s += " pf=" + std::to_string(r.pf_issued) + "/" +
             std::to_string(r.pf_useful) + "/" + num(r.pf_coverage_pct);
    return s;
}

/** Exact work counters of a finished run (per-layer catalogue names). */
Counters
readCounters(Simulator& sim, const SimResult& r, Tracer& tr,
             const std::string& span_id)
{
    Counters c;
    {
        Tracer::Scope s(tr, "core.read_stats", span_id);
        const StatGroup& st = sim.core().stats();
        for (const char* n :
             {"cycles", "retired", "fetched", "issued", "branch_mispredicts",
              "squashed_instrs", "fetch_stall_pfm", "retire_stall_pfm",
              "dispatch_stall_rob"})
            c.count(std::string("core.") + n,
                    static_cast<double>(st.get(n)));
    }
    {
        Tracer::Scope s(tr, "memory.read_stats", span_id);
        Hierarchy& m = sim.memory();
        auto put = [&c](const char* name, std::uint64_t v) {
            c.count(name, static_cast<double>(v));
        };
        put("memory.l1d.accesses", m.l1d().stats().get("accesses"));
        put("memory.l1d.misses", m.l1d().stats().get("misses"));
        put("memory.l2.misses", m.l2().stats().get("misses"));
        put("memory.l3.misses", m.l3().stats().get("misses"));
        put("memory.served_dram", m.stats().get("served_dram"));
        put("memory.l2_prefetches", m.stats().get("l2_prefetches"));
        put("memory.agent_prefetch_fills",
            m.stats().get("agent_prefetch_fills"));
    }
    if (PfmSystem* pfm = sim.pfm()) {
        Tracer::Scope s(tr, "pfm.read_stats", span_id);
        c.rate("pfm.rst_hit_pct", pfm->rstHitPct());
        c.rate("pfm.fst_hit_pct", pfm->fstHitPct());
        for (const PortStatsSnapshot& p : pfm->portSnapshots()) {
            const std::string base = "pfm.port." + p.name + ".";
            c.count(base + "full_stalls", static_cast<double>(p.full_stalls));
            c.rate(base + "occ_avg", p.occ_avg);
            c.rate(base + "qlat_avg", p.qlat_avg);
        }
    }
    if (r.has_pf) {
        Tracer::Scope s(tr, "components.read_stats", span_id);
        c.count("components.pf_issued", static_cast<double>(r.pf_issued));
        c.count("components.pf_useful", static_cast<double>(r.pf_useful));
        c.rate("components.pf_accuracy_pct", r.pf_accuracy_pct);
        c.rate("components.pf_coverage_pct", r.pf_coverage_pct);
    }
    return c;
}

/** Run legs on up to 4 threads (outside any timed window). */
std::vector<LegResult>
runLegsParallel(const std::vector<LegSpec>& legs, Report& rep)
{
    std::vector<LegResult> out(legs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        Tracer off;
        for (std::size_t i; (i = next++) < legs.size();)
            out[i] = runLeg(legs[i], legs[i].label, rep, off);
    };
    const unsigned n = std::min<unsigned>(
        static_cast<unsigned>(legs.size()),
        std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < n; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads)
        t.join();
    return out;
}

} // namespace

void
publishCounters(const Counters& c, Report& rep)
{
    const auto vals = c.values();
    for (const MetricDef& d : perLayerMetrics()) {
        const std::string n = d.name;
        if (n.rfind("core.", 0) == 0 || n.rfind("pfm.", 0) == 0 ||
            n.rfind("components.", 0) == 0 ||
            (n.rfind("memory.", 0) == 0 && n != "memory.access_ns" &&
             n != "memory.replayed_accesses")) {
            auto it = vals.find(n);
            rep.set(n, it == vals.end() ? 0.0 : it->second);
        }
    }
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

bool
moreSetup(const std::vector<double>& reps)
{
    double total = 0;
    for (double r : reps)
        total += r;
    return reps.size() < 3 || (total < 1.0 && reps.size() < 50);
}

double
setupSeconds(const std::vector<double>& reps)
{
    info("set-up: %zu repetitions, min/median/max %.4f/%.4f/%.4f s",
         reps.size(), quantile(reps, 0), median(reps), quantile(reps, 1));
    return median(reps);
}

const std::vector<std::string>&
fig17Workloads()
{
    static const std::vector<std::string> w = {"libquantum", "bwaves", "lbm",
                                               "milc", "leslie"};
    return w;
}

SimOptions
sweepLegOptions(const std::string& workload, const std::string& component,
                const std::string& tokens)
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = kSweepWarmup;
    o.max_instructions = kSweepBudget;
    if (!tokens.empty())
        applyTokens(o, tokens);
    return o;
}

void
LegTotals::add(const LegResult& lr)
{
    construct_ms += lr.construct_ms;
    run_ms += lr.run_ms;
    insts += lr.sim_insts;
    cycles += lr.sim_cycles;
    ++legs;
}

void
LegTotals::publish(Report& rep) const
{
    rep.set("sim.construct_ms", legs ? construct_ms / legs : 0);
    rep.set("sim.run_ms", legs ? run_ms / legs : 0);
    rep.set("sim.ns_per_inst", insts > 0 ? run_ms * 1e6 / insts : 0);
    rep.set("sim.ns_per_cycle", cycles > 0 ? run_ms * 1e6 / cycles : 0);
}

LegResult
runLeg(const LegSpec& leg, const std::string& span_id, Report& rep,
       Tracer& tr)
{
    LegResult out;
    rep.attempt();
    try {
        ScopedFatalThrow throws;
        Tracer::Scope s(tr, "sim.leg", span_id);
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<Simulator> sim;
        {
            Tracer::Scope c(tr, "sim.construct", span_id);
            sim = std::make_unique<Simulator>(leg.opt);
        }
        const Clock::time_point t1 = Clock::now();
        {
            Tracer::Scope c(tr, "sim.run", span_id);
            out.r = sim->run();
        }
        const Clock::time_point t2 = Clock::now();
        out.construct_ms = msBetween(t0, t1);
        out.run_ms = msBetween(t1, t2);
        out.latency_ms = msBetween(t0, t2);
        out.counters = readCounters(*sim, out.r, tr, span_id);
        out.row = resultRow(out.r);
        // A restored leg's run() simulates only the measured phase, whose
        // totals are the (reset-at-boundary) core counters.
        const auto c = out.counters.values();
        const bool restored = !leg.opt.checkpoint_load.empty();
        out.sim_insts = restored ? c.at("core.retired")
                                 : static_cast<double>(out.r.instructions);
        out.sim_cycles = restored ? c.at("core.cycles")
                                  : static_cast<double>(out.r.cycles);
    } catch (const std::exception& e) {
        rep.fail("leg " + leg.label + ": " + e.what());
        return out;
    }
    const std::uint64_t target =
        leg.opt.warmup_instructions + leg.opt.max_instructions;
    if (out.r.instructions < target && !out.r.finished) {
        rep.fail("leg " + leg.label + " retired " +
                 std::to_string(out.r.instructions) + " of " +
                 std::to_string(target) + " instructions without halting");
        return out;
    }
    out.ok = true;
    return out;
}

std::vector<FsmReference>
classicReferences(Report& rep)
{
    std::vector<LegSpec> legs;
    for (const std::string& w : fig17Workloads()) {
        legs.push_back(LegSpec{w + "/none", sweepLegOptions(w, "none", "")});
        legs.push_back(LegSpec{w + "/auto clk4_w4 classic",
                               sweepLegOptions(w, "auto", "clk4_w4 pfstats")});
    }
    const std::vector<LegResult> res = runLegsParallel(legs, rep);
    std::vector<FsmReference> refs;
    for (std::size_t i = 0; i < fig17Workloads().size(); ++i)
        refs.push_back(FsmReference{fig17Workloads()[i], res[2 * i].r,
                                    res[2 * i + 1].r});
    return refs;
}

std::vector<double>
inProcessDeferredSpeedups(const std::vector<FsmReference>& refs,
                          Report& rep)
{
    std::vector<LegSpec> legs;
    for (const FsmReference& ref : refs) {
        SimOptions o =
            sweepLegOptions(ref.workload, "auto", "clk4_w4 pfstats");
        o.defer_component = true;
        legs.push_back(LegSpec{ref.workload + "/auto clk4_w4 deferred", o});
    }
    const std::vector<LegResult> res = runLegsParallel(legs, rep);
    std::vector<double> out;
    for (std::size_t i = 0; i < refs.size(); ++i)
        out.push_back(speedupPct(refs[i].none, res[i].r));
    return out;
}

double
deferredGapPp(const std::vector<FsmReference>& refs,
              const std::vector<double>& served_pct, const char* served_how)
{
    // Classic-mode Figure 17 speedups as EXPERIMENTS.md records them; the
    // paper itself gives no per-workload number, only that each is flat
    // across clkC_wW.
    static const std::map<std::string, const char*> kFig17 = {
        {"libquantum", "~+157%"}, {"bwaves", "~+56%"}, {"lbm", "~+220%"},
        {"milc", "~+22%"},        {"leslie", "~+228%"}};
    double sum = 0;
    for (std::size_t i = 0; i < refs.size() && i < served_pct.size(); ++i) {
        const double classic = speedupPct(refs[i].none, refs[i].classic);
        sum += std::fabs(served_pct[i] - classic);
        const auto it = kFig17.find(refs[i].workload);
        printSpeedup(refs[i].workload + " clk4_w4 classic", classic,
                     std::string("EXPERIMENTS.md Fig 17 (400k) ") +
                         (it == kFig17.end() ? "n/a" : it->second));
        printSpeedup(refs[i].workload + " clk4_w4 " + served_how,
                     served_pct[i], "should equal classic");
    }
    return refs.empty() ? 0 : sum / static_cast<double>(refs.size());
}

void
printSpeedup(const std::string& what, double measured_pct,
             const std::string& reference)
{
    info("speedup %-40s %+7.1f%%   [%s]", what.c_str(), measured_pct,
         reference.c_str());
}

} // namespace perfbench
