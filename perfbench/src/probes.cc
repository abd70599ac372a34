/**
 * @file
 * Layer probes of the traced run: the benchmark's own calls into the
 * workloads, isa, trace_fe, branch, memory and checkpoint layers, each
 * bracketed by a span and timed with the steady clock.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "branch/tage_scl.h"
#include "common/log.h"
#include "isa/functional_engine.h"
#include "memory/hierarchy.h"
#include "trace_fe/trace_source.h"

using namespace pfm;

namespace perfbench {

namespace {

void
collect(const DynInst& d, Stream& s)
{
    if (d.isCondBranch())
        s.branches.emplace_back(d.pc, d.taken);
    if (d.isLoad() || d.isStore())
        s.accesses.emplace_back(d.mem_addr, d.isStore());
}

double
perUnit(double total, std::uint64_t n, double scale)
{
    return n ? total * scale / static_cast<double>(n) : 0;
}

} // namespace

void
LayerProbes::publish(Report& rep) const
{
    rep.set("workloads.build_ms", perUnit(build_ms, builds, 1));
    rep.set("isa.step_ns", perUnit(isa_ms, isa_steps, 1e6));
    rep.set("trace_fe.step_ns", perUnit(trace_ms, trace_steps, 1e6));
    rep.set("trace_fe.record_ms", record_ms);
    rep.set("trace_fe.bytes_per_inst",
            perUnit(static_cast<double>(trace_bytes), trace_steps, 1));
    rep.set("branch.predict_train_ns",
            perUnit(branch_ms, branch_lookups, 1e6));
    rep.set("branch.lookups", static_cast<double>(branch_lookups));
    rep.set("memory.access_ns", perUnit(memory_ms, memory_accesses, 1e6));
    rep.set("memory.replayed_accesses", static_cast<double>(memory_accesses));
    rep.set("sim.ckpt_save_ms", perUnit(ckpt_save_ms, ckpt_keys, 1));
    rep.set("sim.ckpt_load_ms", perUnit(ckpt_load_ms, ckpt_keys, 1));
    rep.set("sim.ckpt_store_bytes", static_cast<double>(ckpt_store_bytes));
}

Stream
drainNative(const std::string& label, const std::function<Workload()>& build,
            std::uint64_t steps, LayerProbes& p, Tracer& tr)
{
    Clock::time_point t0 = Clock::now();
    Workload w;
    {
        Tracer::Scope s(tr, "workloads.build", label);
        w = build();
    }
    p.build_ms += msSince(t0);
    ++p.builds;

    Stream out;
    FunctionalEngine eng(w.program, *w.mem);
    eng.reset(w.entry);
    for (const auto& [reg, val] : w.init_regs)
        eng.setReg(reg, val);
    out.branches.reserve(steps / 4);
    out.accesses.reserve(steps / 2);
    {
        Tracer::Scope s(tr, "isa.drain", label);
        t0 = Clock::now();
        while (!eng.halted() && eng.executed() < steps)
            collect(eng.step(), out);
        p.isa_ms += msSince(t0);
    }
    p.isa_steps += eng.executed();
    return out;
}

Stream
drainTrace(const std::string& path, LayerProbes& p, Tracer& tr)
{
    Stream out;
    Tracer::Scope s(tr, "trace_fe.drain", "trace");
    TraceSource src(path);
    const Clock::time_point t0 = Clock::now();
    while (!src.halted())
        collect(src.step(), out);
    p.trace_ms += msSince(t0);
    p.trace_steps += src.executed();
    p.trace_bytes += std::filesystem::file_size(path);
    return out;
}

void
replayStream(const Stream& s, const std::string& label, LayerProbes& p,
             Tracer& tr)
{
    {
        Tracer::Scope sp(tr, "branch.replay", label);
        TageSclPredictor bp;
        const Clock::time_point t0 = Clock::now();
        for (const auto& [pc, taken] : s.branches)
            bp.predictAndTrain(pc, taken);
        p.branch_ms += msSince(t0);
        p.branch_lookups += s.branches.size();
    }
    {
        Tracer::Scope sp(tr, "memory.replay", label);
        // Each access issues when the previous one completes, so the
        // replay walks the hit/miss lookup path without piling requests
        // onto full MSHRs the way no core could.
        Hierarchy mem{HierarchyParams{}};
        Cycle now = 0;
        const Clock::time_point t0 = Clock::now();
        for (const auto& [addr, store] : s.accesses) {
            const MemAccessResult r = mem.access(
                addr, now,
                store ? MemAccessType::kStore : MemAccessType::kLoad);
            now = std::max(now + 1, r.done);
        }
        p.memory_ms += msSince(t0);
        p.memory_accesses += s.accesses.size();
    }
}

std::vector<std::string>
probeCheckpoints(const std::vector<SimOptions>& keys, const std::string& dir,
                 LayerProbes& p, Report& rep, Tracer& tr)
{
    namespace fs = std::filesystem;
    std::vector<std::string> images;
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const SimOptions& key : keys) {
        rep.attempt();
        try {
            ScopedFatalThrow throws;
            // The bare-core warmup image, saved the way the daemon saves
            // its warm-cache entries: through the content-addressed store.
            SimOptions warm_opt = key;
            warm_opt.component = "none";
            warm_opt.max_instructions = 0;
            warm_opt.ckpt_store = "store";
            const std::string id = "ckpt/" + key.workload.substr(
                                                 0, key.workload.find(':'));
            const std::string path =
                dir + "/key" + std::to_string(p.ckpt_keys) + ".ckpt";
            Simulator warm(warm_opt);
            {
                Tracer::Scope s(tr, "sim.run", id);
                warm.run();
            }
            Clock::time_point t0 = Clock::now();
            {
                Tracer::Scope s(tr, "sim.ckpt_save", id);
                warm.saveCheckpoint(path);
            }
            p.ckpt_save_ms += msSince(t0);

            SimOptions load_opt = warm_opt;
            load_opt.ckpt_store.clear();
            Simulator fresh(load_opt);
            t0 = Clock::now();
            {
                Tracer::Scope s(tr, "sim.ckpt_load", id);
                fresh.loadCheckpoint(path);
            }
            p.ckpt_load_ms += msSince(t0);
            if (fresh.core().retired() != warm.core().retired() ||
                fresh.core().cycle() != warm.core().cycle())
                rep.fail("checkpoint restore of " + id +
                         " does not reproduce the saved machine");
            else
                images.push_back(path);
            ++p.ckpt_keys;
        } catch (const std::exception& e) {
            rep.fail("checkpoint probe: " + std::string(e.what()));
        }
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            p.ckpt_store_bytes += entry.file_size();
    }
    return images;
}

void
publishSelfTimes(const Tracer& tr, Report& rep)
{
    const auto self = tr.selfMsByLayer();
    for (const char* layer : {"workloads", "isa", "trace_fe", "core",
                              "branch", "memory", "pfm", "sim", "daemon"}) {
        auto it = self.find(layer);
        rep.set(std::string("self.") + layer + "_ms",
                it == self.end() ? 0.0 : it->second);
    }
    rep.set("trace.spans", static_cast<double>(tr.size()));
}

} // namespace perfbench
