/**
 * @file
 * daemon-sweep: an in-process DaemonServer with two workers, driven by
 * two closed-loop clients over the framing protocol. Each client sends
 * its next sweep request only after the previous one's done frame
 * arrives. The warm cache is filled during set-up, so the timed window
 * is the many-short-runs regime: Simulator construction, workload
 * rebuilds and checkpoint restores carry much of each leg.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.h"
#include "common/framing.h"
#include "common/log.h"
#include "sim/daemon.h"
#include "sim/stats_io.h"
#include "workloads/registry.h"

using namespace pfm;

namespace perfbench {

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
const char* const kSocket = "pfm-perfbench.sock";
const char* const kCacheDir = "daemon-cache";

/** Reply budget per frame; a leg is well under a second. */
constexpr int kFrameTimeoutMs = 120'000;

struct Request {
    std::string workload;
    std::string component;
    std::vector<std::string> legs;  ///< parameter tokens, "" = default
    std::uint64_t instructions = kSweepBudget;

    std::string
    payload() const
    {
        std::string p = "sweep\nworkload=" + workload +
                        "\ncomponent=" + component +
                        "\nwarmup=" + std::to_string(kSweepWarmup) +
                        "\ninstructions=" + std::to_string(instructions);
        for (const std::string& l : legs)
            p += "\nleg=" + l;
        return p;
    }
};

/**
 * One bare-core request and one four-leg clkC_wW request per fig17
 * workload (Figure 17's configurations). pfstats puts the prefetch
 * accounting into each row; it does not shape machine state.
 */
std::vector<Request>
sweepRequests()
{
    std::vector<Request> r;
    for (const std::string& w : fig17Workloads()) {
        r.push_back(Request{w, "none", {""}});
        r.push_back(Request{w, "auto",
                            {"clk1_w1 pfstats", "clk4_w1 pfstats",
                             "clk4_w4 pfstats", "clk8_w1 pfstats"}});
    }
    return r;
}

std::string
labelOf(const std::string& tokens)
{
    return tokens.empty() ? "default" : tokens;
}

/** One served leg as the client saw it. */
struct LegSample {
    std::string key;  ///< workload/component/label
    double latency_ms = 0;
    double wall_ms = 0;
    std::string json;
};

double
jsonNumber(const std::string& json, const char* key)
{
    const std::string k = std::string("\"") + key + "\": ";
    const std::size_t at = json.find(k);
    return at == std::string::npos
        ? 0
        : std::strtod(json.c_str() + at + k.size(), nullptr);
}

int
connectTo(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Send one request and read replies until its done frame. Each row
 * becomes a sample and a "daemon.leg" span from send to arrival, under
 * the request's "daemon.request" span.
 */
void
sendRequest(const Request& req, const std::string& req_id, Report& rep,
            Tracer& tr, std::vector<LegSample>& out)
{
    rep.attempt(req.legs.size());
    Tracer::Scope span(tr, "daemon.request", req_id);
    const int fd = connectTo(kSocket);
    if (fd < 0) {
        rep.fail("cannot connect to the daemon: " +
                 std::string(std::strerror(errno)));
        return;
    }
    const Clock::time_point sent = Clock::now();
    if (!framing::writeFrame(fd, req.payload())) {
        rep.fail("request write failed");
        ::close(fd);
        return;
    }
    for (;;) {
        std::string frame;
        const auto rr = framing::readFrame(fd, frame, kFrameTimeoutMs);
        if (rr != framing::ReadResult::kOk) {
            rep.fail("daemon closed or stalled before done (" + req_id + ")");
            break;
        }
        const Clock::time_point arrived = Clock::now();
        if (frame.rfind("row ", 0) == 0) {
            char* end = nullptr;
            const unsigned long index =
                std::strtoul(frame.c_str() + 4, &end, 10);
            const double wall = std::strtod(end, &end);
            if (index >= req.legs.size() || *end != ' ') {
                rep.fail("malformed row frame: " + frame);
                continue;
            }
            LegSample s;
            s.key = req.workload + "/" + req.component + "/" +
                    labelOf(req.legs[index]);
            s.latency_ms = msBetween(sent, arrived);
            s.wall_ms = wall;
            s.json = end + 1;
            tr.add("daemon.leg", req_id + "/" + std::to_string(index), sent,
                   arrived, Tracer::current());
            out.push_back(std::move(s));
        } else if (frame.rfind("done", 0) == 0) {
            break;
        } else {
            // legerr <index> <message> or err <message>
            rep.fail("daemon: " + frame);
            if (frame.rfind("err ", 0) == 0)
                break;
        }
    }
    ::close(fd);
}

/**
 * Two closed-loop clients, each sending @p per_client requests: client
 * c walks the request list from offset c * n / kClients, wrapping.
 */
std::vector<LegSample>
driveClients(const std::vector<Request>& reqs, std::size_t per_client,
             const std::string& pass, Report& rep, Tracer& tr)
{
    std::vector<std::vector<LegSample>> per(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                for (std::size_t k = 0; k < per_client; ++k) {
                    const std::size_t i =
                        (c * reqs.size() / kClients + k) % reqs.size();
                    sendRequest(reqs[i],
                                pass + "/c" + std::to_string(c) + "/q" +
                                    std::to_string(k),
                                rep, tr, per[c]);
                }
            } catch (const std::exception& e) {
                rep.fail(std::string("client: ") + e.what());
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    std::vector<LegSample> all;
    for (auto& v : per)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

/** Byte-identity of repeated legs across requests and passes. */
void
checkRows(const std::vector<LegSample>& samples,
          std::map<std::string, std::string>& rows, Report& rep)
{
    for (const LegSample& s : samples) {
        auto [it, fresh] = rows.emplace(s.key, s.json);
        if (!fresh && it->second != s.json)
            rep.fail("leg " + s.key + " served different rows: " + s.json +
                     " vs " + it->second);
    }
}

/** A fresh daemon whose cache holds every sweep key (the set-up). */
std::unique_ptr<DaemonServer>
startWarmDaemon(const std::vector<Request>& reqs, Report& rep, Tracer& tr)
{
    std::filesystem::remove_all(kCacheDir);
    std::filesystem::create_directories(kCacheDir);
    DaemonOptions o;
    o.socket_path = kSocket;
    o.jobs = kWorkers;
    o.cache_dir = kCacheDir;
    auto server = std::make_unique<DaemonServer>(o);
    server->start();
    // One single-instruction bare leg per workload produces its warmup
    // image: the cache key is the bare-core fingerprint, which folds in
    // the warmup length but not the measured budget.
    std::vector<Request> fill;
    for (const Request& r : reqs) {
        if (r.component == "none") {
            Request f = r;
            f.instructions = 1;
            fill.push_back(f);
        }
    }
    driveClients(fill, (fill.size() + kClients - 1) / kClients, "fill", rep,
                 tr);
    return server;
}

/** The served rows' clk4_w4 speedup per fig17 workload. */
std::vector<double>
servedSpeedups(const std::vector<FsmReference>& refs,
               const std::map<std::string, std::string>& rows, Report& rep)
{
    std::vector<double> out;
    for (const FsmReference& ref : refs) {
        const auto none = rows.find(ref.workload + "/none/default");
        const auto fast = rows.find(ref.workload + "/auto/clk4_w4 pfstats");
        if (none == rows.end() || fast == rows.end()) {
            rep.fail("no served clk4_w4 pair for " + ref.workload);
            out.push_back(0);
            continue;
        }
        // The daemon's bare leg restores the warm image the classic bare
        // run passed through: they must agree cycle for cycle.
        if (static_cast<std::uint64_t>(jsonNumber(none->second, "cycles")) !=
            ref.none.cycles)
            rep.fail("served bare leg of " + ref.workload +
                     " differs from the in-process run");
        const double base = jsonNumber(none->second, "ipc");
        out.push_back(base > 0
                          ? (jsonNumber(fast->second, "ipc") / base - 1) * 100
                          : 0);
    }
    return out;
}

/** Every served auto leg's speedup, as information. */
void
printServedSpeedups(const std::map<std::string, std::string>& rows)
{
    for (const std::string& w : fig17Workloads()) {
        const auto none = rows.find(w + "/none/default");
        if (none == rows.end())
            continue;
        const double base = jsonNumber(none->second, "ipc");
        for (const auto& [key, json] : rows) {
            if (key.rfind(w + "/auto/", 0) != 0 || base <= 0)
                continue;
            printSpeedup("served " + key,
                         (jsonNumber(json, "ipc") / base - 1) * 100,
                         "deferred attach; EXPERIMENTS.md Fig 17 is classic");
        }
    }
}

/**
 * Run the sweep's legs in-process exactly as the daemon runs them
 * (restore the bare warm image, attach the component at the boundary)
 * and require each row to be byte-identical to the served one. Its
 * StatGroups give the per-layer work counters.
 */
void
replicaRound(const std::vector<Request>& reqs,
             const std::vector<std::string>& images,
             const std::map<std::string, std::string>& served, Report& rep,
             Tracer& tr, Counters& counters, LegTotals& totals)
{
    const auto& wls = fig17Workloads();
    for (const Request& req : reqs) {
        const std::size_t k =
            std::find(wls.begin(), wls.end(), req.workload) - wls.begin();
        for (const std::string& tokens : req.legs) {
            LegSpec leg;
            leg.label = req.workload + "/" + req.component + "/" +
                        labelOf(tokens);
            leg.opt = sweepLegOptions(req.workload, req.component, tokens);
            leg.opt.defer_component = req.component != "none";
            leg.opt.checkpoint_load = images[k];
            LegResult lr = runLeg(leg, "replica/" + leg.label, rep, tr);
            if (!lr.ok)
                continue;
            BenchJsonRow row;
            row.label = labelOf(tokens);
            row.ipc = lr.r.ipc;
            row.mpki = lr.r.mpki;
            row.cycles = lr.r.cycles;
            row.instructions = lr.r.instructions;
            row.ports = lr.r.ports;
            if (lr.r.has_pf) {
                row.has_pf = true;
                row.pf_issued = lr.r.pf_issued;
                row.pf_useful = lr.r.pf_useful;
                row.pf_useless = lr.r.pf_useless;
                row.pf_late = lr.r.pf_late;
                row.pf_inflight = lr.r.pf_inflight;
                row.pf_coverage_pct = lr.r.pf_coverage_pct;
                row.pf_accuracy_pct = lr.r.pf_accuracy_pct;
            }
            const auto it = served.find(leg.label);
            if (it == served.end() ||
                it->second != formatBenchJsonRow(row, false))
                rep.fail("in-process leg " + leg.label +
                         " differs from the served row");
            counters.merge(lr.counters);
            totals.add(lr);
        }
    }
}

} // namespace

void
runDaemonSweep(const RunConfig& cfg, Report& rep, Tracer& tr)
{
    const std::vector<Request> reqs = sweepRequests();
    const std::size_t half = reqs.size() / kClients;

    tr.setEnabled(cfg.trace);
    std::vector<double> setup;
    std::unique_ptr<DaemonServer> server;
    while (moreSetup(setup)) {
        if (server)
            server->stop();
        server.reset();
        const Clock::time_point t0 = Clock::now();
        server = startWarmDaemon(reqs, rep, tr);
        setup.push_back(msSince(t0) / 1e3);
    }
    tr.setEnabled(false);

    const DaemonCacheStats c0 = server->cacheStats();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    std::vector<LegSample> samples;
    std::map<std::string, std::string> rows;
    std::vector<double> pass_ms[2];  // [traced]
    // Best untraced pass: wall ms, legs served, measured instructions.
    double best_ms = 0, best_legs = 0, best_insts = 0;
    // Passes over the whole request list, each client sending its half;
    // a traced run alternates untraced and traced passes.
    for (unsigned pass = 0;; ++pass) {
        if (pass >= 2 && Clock::now() >= deadline)
            break;
        const bool traced = cfg.trace && pass % 2 == 1;
        tr.setEnabled(traced);
        const Clock::time_point p0 = Clock::now();
        auto s =
            driveClients(reqs, half, "p" + std::to_string(pass), rep, tr);
        const double ms = msSince(p0);
        pass_ms[traced ? 1 : 0].push_back(ms);
        tr.setEnabled(false);
        if (!traced && (best_ms == 0 || ms < best_ms)) {
            best_ms = ms;
            best_legs = static_cast<double>(s.size());
            best_insts = 0;
            for (const LegSample& x : s)
                best_insts += jsonNumber(x.json, "instructions") -
                              static_cast<double>(kSweepWarmup);
        }
        checkRows(s, rows, rep);
        samples.insert(samples.end(), s.begin(), s.end());
    }
    const double window_s = msSince(start) / 1e3;
    const DaemonCacheStats c1 = server->cacheStats();
    server->stop();
    server.reset();

    std::vector<double> latency, wall, wait;
    for (const LegSample& s : samples) {
        latency.push_back(s.latency_ms);
        wall.push_back(s.wall_ms);
        wait.push_back(s.latency_ms - s.wall_ms);
    }
    const std::uint64_t hits = c1.hits - c0.hits;
    const std::uint64_t misses = c1.misses - c0.misses;
    const std::uint64_t warmups = c1.warmups - c0.warmups;
    info("%zu legs in %zu passes, %.2f s, from %u closed-loop clients on %u "
         "workers; latency p50/p90 over %zu samples (%zu beyond p90); warm "
         "cache: %llu hits, %llu misses, %llu warmups in the window",
         samples.size(), pass_ms[0].size() + pass_ms[1].size(), window_s,
         kClients, kWorkers, latency.size(), latency.size() / 10,
         static_cast<unsigned long long>(hits),
         static_cast<unsigned long long>(misses),
         static_cast<unsigned long long>(warmups));
    if (misses != 0 || warmups != 0)
        rep.fail("the timed window missed the warm cache");
    printServedSpeedups(rows);

    if (!cfg.trace) {
        // Throughput from the fastest pass (min-of-N: host interference
        // only ever slows a pass down). Latency over every served leg:
        // its queueing tail is what a sweep's clients wait on.
        rep.set("host_mips", best_ms > 0 ? best_insts / best_ms / 1e3 : 0);
        rep.set("setup_s", setupSeconds(setup));
        rep.set("legs_per_s", best_ms > 0 ? best_legs / best_ms * 1e3 : 0);
        rep.set("leg_p50_ms", median(latency));
        rep.set("leg_p90_ms", quantile(latency, 0.9));
        // Before the reference runs, which are not this workload's.
        rep.set("peak_rss_mb", peakRssMb());
        const auto refs = classicReferences(rep);
        rep.set("deferred_gap_pp",
                deferredGapPp(refs, servedSpeedups(refs, rows, rep),
                              "daemon-served"));
        return;
    }

    rep.set("daemon.leg_wall_ms", median(wall));
    rep.set("daemon.queue_wait_ms", median(wait));
    rep.set("daemon.cache_hits", static_cast<double>(hits));
    rep.set("daemon.cache_misses", static_cast<double>(misses));
    rep.set("daemon.warmups", static_cast<double>(warmups));
    rep.set("daemon.cache_lookups", static_cast<double>(hits + misses));
    rep.set("daemon.cache_hit_pct",
            hits + misses ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0);
    const double untraced = median(pass_ms[0]);
    rep.set("trace.overhead_pct",
            untraced > 0 ? 100.0 * (median(pass_ms[1]) - untraced) / untraced
                         : 0);

    tr.setEnabled(true);
    LayerProbes p;
    std::vector<SimOptions> keys;
    for (const std::string& w : fig17Workloads()) {
        keys.push_back(sweepLegOptions(w, "none", ""));
        const Stream s =
            drainNative(w, [w] { return makeWorkload(w); },
                        kSweepWarmup + kSweepBudget, p, tr);
        replayStream(s, w, p, tr);
    }
    const std::vector<std::string> images =
        probeCheckpoints(keys, "ckpt-probe", p, rep, tr);
    Counters counters;
    LegTotals totals;
    if (images.size() == keys.size())
        replicaRound(reqs, images, rows, rep, tr, counters, totals);
    tr.setEnabled(false);

    p.publish(rep);
    publishCounters(counters, rep);
    totals.publish(rep);
    publishSelfTimes(tr, rep);
}

} // namespace perfbench
