#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"host_mips", "MIPS"},
        {"setup_s", "s"},
        {"legs_per_s", "1/s"},
        {"leg_p50_ms", "ms"},
        {"leg_p90_ms", "ms"},
        {"deferred_gap_pp", "pp"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.build_ms", "ms"},
        {"sim.construct_ms", "ms"},
        {"sim.run_ms", "ms"},
        {"sim.ns_per_inst", "ns"},
        {"sim.ns_per_cycle", "ns"},
        {"sim.ckpt_save_ms", "ms"},
        {"sim.ckpt_load_ms", "ms"},
        {"sim.ckpt_store_bytes", "bytes"},
        {"daemon.leg_wall_ms", "ms"},
        {"daemon.queue_wait_ms", "ms"},
        {"daemon.cache_hits", "count"},
        {"daemon.cache_misses", "count"},
        {"daemon.warmups", "count"},
        {"daemon.cache_lookups", "count"},
        {"daemon.cache_hit_pct", "%"},
        {"isa.step_ns", "ns"},
        {"trace_fe.step_ns", "ns"},
        {"trace_fe.record_ms", "ms"},
        {"trace_fe.bytes_per_inst", "bytes"},
        {"branch.predict_train_ns", "ns"},
        {"branch.lookups", "count"},
        {"memory.access_ns", "ns"},
        {"memory.replayed_accesses", "count"},
        {"core.cycles", "count"},
        {"core.retired", "count"},
        {"core.fetched", "count"},
        {"core.issued", "count"},
        {"core.branch_mispredicts", "count"},
        {"core.squashed_instrs", "count"},
        {"core.fetch_stall_pfm", "count"},
        {"core.retire_stall_pfm", "count"},
        {"core.dispatch_stall_rob", "count"},
        {"memory.l1d.accesses", "count"},
        {"memory.l1d.misses", "count"},
        {"memory.l2.misses", "count"},
        {"memory.l3.misses", "count"},
        {"memory.served_dram", "count"},
        {"memory.l2_prefetches", "count"},
        {"memory.agent_prefetch_fills", "count"},
        {"pfm.rst_hit_pct", "%"},
        {"pfm.fst_hit_pct", "%"},
        {"pfm.port.obsq_r.full_stalls", "count"},
        {"pfm.port.obsq_r.occ_avg", "entries"},
        {"pfm.port.obsq_r.qlat_avg", "cycles"},
        {"pfm.port.intq_f.full_stalls", "count"},
        {"pfm.port.intq_f.occ_avg", "entries"},
        {"pfm.port.intq_f.qlat_avg", "cycles"},
        {"pfm.port.intq_is.full_stalls", "count"},
        {"pfm.port.intq_is.occ_avg", "entries"},
        {"pfm.port.intq_is.qlat_avg", "cycles"},
        {"pfm.port.obsq_ex.full_stalls", "count"},
        {"pfm.port.obsq_ex.occ_avg", "entries"},
        {"pfm.port.obsq_ex.qlat_avg", "cycles"},
        {"components.pf_issued", "count"},
        {"components.pf_useful", "count"},
        {"components.pf_accuracy_pct", "%"},
        {"components.pf_coverage_pct", "%"},
        {"self.workloads_ms", "ms"},
        {"self.isa_ms", "ms"},
        {"self.trace_fe_ms", "ms"},
        {"self.core_ms", "ms"},
        {"self.branch_ms", "ms"},
        {"self.memory_ms", "ms"},
        {"self.pfm_ms", "ms"},
        {"self.sim_ms", "ms"},
        {"self.daemon_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    return defs;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void
Counters::count(const std::string& name, double v)
{
    Acc& a = acc_[name];
    a.sum += v;
    ++a.n;
}

void
Counters::rate(const std::string& name, double v)
{
    Acc& a = acc_[name];
    a.sum += v;
    ++a.n;
    a.is_rate = true;
}

void
Counters::merge(const Counters& o)
{
    for (const auto& [name, a] : o.acc_) {
        Acc& mine = acc_[name];
        mine.sum += a.sum;
        mine.n += a.n;
        mine.is_rate = a.is_rate;
    }
}

std::map<std::string, double>
Counters::values() const
{
    std::map<std::string, double> out;
    for (const auto& [name, a] : acc_)
        out[name] = a.is_rate && a.n ? a.sum / a.n : a.sum;
    return out;
}

std::string
Counters::text() const
{
    std::string s;
    for (const auto& [name, v] : values())
        s += name + "=" + num(v) + "\n";
    return s;
}

std::string
num(double v)
{
    if (v == std::trunc(v) && std::fabs(v) < 9007199254740992.0)
        return std::to_string(static_cast<long long>(v));
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
Report::set(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lk(mu_);
    values_[name] = value;
}

bool
Report::has(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return values_.count(name) != 0;
}

void
Report::attempt(std::uint64_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    attempted_ += n;
}

void
Report::fail(const std::string& what)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++failed_;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
}

void
Report::printResult(bool traced)
{
    const auto& defs = traced ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef& d : defs) {
        if (!has(d.name))
            fail(std::string("benchmark did not measure ") + d.name);
    }

    std::lock_guard<std::mutex> lk(mu_);
    const double failed_pct =
        attempted_ ? 100.0 * static_cast<double>(failed_) /
                         static_cast<double>(attempted_)
                   : 100.0;
    std::printf("# failed_pct %s %% (%llu of %llu runs, legs and checks)\n",
                num(failed_pct).c_str(),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs) {
        auto it = values_.find(d.name);
        double v = it == values_.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        line += first ? "" : ", ";
        first = false;
        line += std::string("\"") + d.name + "\": {\"value\": " + num(v) +
                ", \"unit\": \"" + d.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
info(const char* fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::printf("# %s\n", buf);
}

} // namespace perfbench
