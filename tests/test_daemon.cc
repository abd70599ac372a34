/**
 * @file
 * Sim-as-a-service daemon tests (DESIGN.md "Daemon protocol").
 *
 * Layers, bottom up: framing unit tests over a socketpair; WarmupCache
 * single-flight / failure-retry unit tests with stub warm functions; an
 * in-process DaemonServer spoken to over real Unix-domain sockets (rows
 * byte-identical to direct Simulator runs, bad requests answered not
 * fatal, disconnect cancellation, eviction under a tiny budget); a soak
 * test driving ~200 overlapping requests over four cache keys from 16
 * client threads with random disconnects; and a fork/exec test of the
 * pfm_daemon binary proving SIGTERM mid-sweep exits 0 and leaves no
 * cache or temp files behind.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/framing.h"
#include "common/log.h"
#include "sim/daemon.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/stats_io.h"
#include "sim/sweep.h"

namespace pfm {
namespace {

using namespace std::chrono_literals;

std::string
uniqueDir(const std::string& name)
{
    std::string d = ::testing::TempDir() + name;
    ::mkdir(d.c_str(), 0755);
    return d;
}

std::string
sockPath(const std::string& name)
{
    return ::testing::TempDir() + name + ".sock";
}

std::vector<std::string>
dirEntries(const std::string& dir)
{
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent* e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n != "." && n != "..")
            out.push_back(n);
    }
    ::closedir(d);
    return out;
}

bool
fileExists(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

/** Connect to a daemon socket; -1 on failure (no exit). */
int
tryConnect(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

struct SweepReply {
    std::map<std::size_t, std::string> rows;  ///< leg index -> row JSON
    std::map<std::size_t, std::string> legerrs;
    std::string done;  ///< the final "done ..." frame, if one arrived
    std::string err;   ///< a request-level "err ..." frame, if one arrived
};

/**
 * Run one sweep request to completion. Returns false on connection or
 * protocol trouble (reply fields hold whatever arrived before that).
 */
bool
runSweep(const std::string& sock, const std::string& request,
         SweepReply& out)
{
    int fd = tryConnect(sock);
    if (fd < 0)
        return false;
    if (!framing::writeFrame(fd, request)) {
        ::close(fd);
        return false;
    }
    bool ok = false;
    for (;;) {
        std::string frame;
        if (framing::readFrame(fd, frame, 120'000) !=
            framing::ReadResult::kOk)
            break;
        if (frame.rfind("row ", 0) == 0) {
            std::size_t sp1 = frame.find(' ', 4);
            std::size_t sp2 = frame.find(' ', sp1 + 1);
            if (sp1 == std::string::npos || sp2 == std::string::npos)
                break;
            out.rows[std::stoul(frame.substr(4, sp1 - 4))] =
                frame.substr(sp2 + 1);
        } else if (frame.rfind("legerr ", 0) == 0) {
            std::size_t sp1 = frame.find(' ', 7);
            if (sp1 == std::string::npos)
                break;
            out.legerrs[std::stoul(frame.substr(7, sp1 - 7))] =
                frame.substr(sp1 + 1);
        } else if (frame.rfind("done", 0) == 0) {
            out.done = frame;
            ok = true;
            break;
        } else if (frame.rfind("err ", 0) == 0) {
            out.err = frame;
            ok = true;
            break;
        } else {
            break;
        }
    }
    ::close(fd);
    return ok;
}

/**
 * The deterministic row the daemon must stream for a leg: an
 * *uninterrupted* direct run with the same options the daemon's worker
 * builds (deferred component attach for component legs), formatted
 * through the same formatter without the wall column. The checkpoint
 * identity tests (test_checkpoint.cc) prove restored == uninterrupted;
 * this pins the daemon onto that equivalence byte for byte.
 */
std::string
directRow(const std::string& workload, const std::string& component,
          std::uint64_t warmup, std::uint64_t instructions,
          const std::string& tokens)
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = warmup;
    o.max_instructions = instructions;
    if (!tokens.empty())
        applyTokens(o, tokens);
    o.defer_component = component != "none";
    Simulator sim(o);
    return formatBenchJsonRow(
        benchJsonRow(tokens.empty() ? "default" : tokens, sim.run()),
        /*include_wall=*/false);
}

/** In-process daemon with its own socket + cache dir, stopped on scope exit. */
struct TestServer {
    DaemonOptions opt;
    std::unique_ptr<DaemonServer> srv;

    explicit TestServer(const std::string& name, unsigned jobs = 4,
                        std::uint64_t budget = 256ull << 20)
    {
        opt.socket_path = sockPath(name);
        opt.cache_dir = uniqueDir(name + "_cache");
        opt.jobs = jobs;
        opt.cache_budget_bytes = budget;
        srv = std::make_unique<DaemonServer>(opt);
        srv->start();
    }

    ~TestServer() { srv->stop(); }
};

// ---------------------------------------------------------------- framing

TEST(Framing, RoundTripIncludingEmptyPayload)
{
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    ASSERT_TRUE(framing::writeFrame(sv[0], "hello daemon"));
    ASSERT_TRUE(framing::writeFrame(sv[0], ""));
    std::string out;
    EXPECT_EQ(framing::ReadResult::kOk, framing::readFrame(sv[1], out));
    EXPECT_EQ("hello daemon", out);
    EXPECT_EQ(framing::ReadResult::kOk, framing::readFrame(sv[1], out));
    EXPECT_EQ("", out);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(Framing, CleanEofAtFrameBoundary)
{
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    ::close(sv[0]);
    std::string out;
    EXPECT_EQ(framing::ReadResult::kEof, framing::readFrame(sv[1], out));
    ::close(sv[1]);
}

TEST(Framing, EofMidFrameIsError)
{
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    std::uint32_t len = 10;  // promise 10 bytes, deliver none
    ASSERT_EQ(static_cast<ssize_t>(sizeof len),
              ::write(sv[0], &len, sizeof len));
    ::close(sv[0]);
    std::string out;
    EXPECT_EQ(framing::ReadResult::kError, framing::readFrame(sv[1], out));
    ::close(sv[1]);
}

TEST(Framing, OversizeLengthPrefixRejected)
{
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    std::uint32_t len =
        static_cast<std::uint32_t>(framing::kMaxFramePayload) + 1;
    ASSERT_EQ(static_cast<ssize_t>(sizeof len),
              ::write(sv[0], &len, sizeof len));
    std::string out;
    EXPECT_EQ(framing::ReadResult::kOversize,
              framing::readFrame(sv[1], out));
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(Framing, TimeoutWhenNoDataArrives)
{
    int sv[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    std::string out;
    EXPECT_EQ(framing::ReadResult::kTimeout,
              framing::readFrame(sv[1], out, 50));
    ::close(sv[0]);
    ::close(sv[1]);
}

// ------------------------------------------------------------ WarmupCache

TEST(WarmupCache, SingleFlightUnderForcedConcurrency)
{
    const std::string dir = uniqueDir("wc_singleflight");
    WarmupCache cache(dir, 256ull << 20);
    std::atomic<int> warm_calls{0};
    std::atomic<int> leases{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&] {
            WarmupCache::Lease lease = cache.acquire(
                "shared-key", [&](const std::string& path) {
                    ++warm_calls;
                    // Long enough that every other thread arrives while
                    // the image is still warming.
                    std::this_thread::sleep_for(100ms);
                    std::ofstream(path) << "image-bytes";
                });
            if (lease.valid() && fileExists(lease.path()))
                ++leases;
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(1, warm_calls.load());
    EXPECT_EQ(8, leases.load());
    EXPECT_EQ(1u, cache.stats().warmups);
    EXPECT_EQ(1u, cache.stats().entries);
    cache.removeFiles();
    EXPECT_TRUE(dirEntries(dir).empty());
}

TEST(WarmupCache, FailedWarmupThrowsAndKeyStaysRetryable)
{
    const std::string dir = uniqueDir("wc_retry");
    WarmupCache cache(dir, 256ull << 20);
    EXPECT_THROW(cache.acquire("k",
                               [](const std::string&) {
                                   throw FatalError("warmup exploded");
                               }),
                 FatalError);
    WarmupCache::Lease lease =
        cache.acquire("k", [](const std::string& path) {
            std::ofstream(path) << "fine now";
        });
    EXPECT_TRUE(lease.valid());
    EXPECT_EQ(2u, cache.stats().warmups);
}

TEST(WarmupCache, EvictsLruButNeverPinned)
{
    const std::string dir = uniqueDir("wc_evict");
    WarmupCache cache(dir, /*budget=*/8);  // smaller than any image
    auto writeImage = [](const std::string& path) {
        std::ofstream(path) << "0123456789abcdef";
    };
    WarmupCache::Lease a = cache.acquire("a", writeImage);
    // 'a' is over budget but pinned: it must survive a second insert.
    WarmupCache::Lease b = cache.acquire("b", writeImage);
    EXPECT_TRUE(fileExists(a.path()));
    EXPECT_TRUE(fileExists(b.path()));
    EXPECT_EQ(0u, cache.stats().evictions);
    const std::string a_path = a.path();
    a = WarmupCache::Lease();  // unpin 'a' -> now evictable
    b = WarmupCache::Lease();
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_FALSE(fileExists(a_path));
    cache.removeFiles();
}

// -------------------------------------------------------- in-process daemon

TEST(Daemon, PingStatsAndUnknownCommand)
{
    TestServer ts("d_ping");
    for (const char* cmd : {"ping", "stats", "bogus"}) {
        int fd = tryConnect(ts.opt.socket_path);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(framing::writeFrame(fd, cmd));
        std::string reply;
        ASSERT_EQ(framing::ReadResult::kOk,
                  framing::readFrame(fd, reply, 10'000));
        if (std::strcmp(cmd, "ping") == 0)
            EXPECT_EQ("ok pong", reply);
        else if (std::strcmp(cmd, "stats") == 0)
            EXPECT_EQ(0u, reply.rfind("ok {", 0)) << reply;
        else
            EXPECT_EQ(0u, reply.rfind("err unknown command", 0)) << reply;
        ::close(fd);
    }
    EXPECT_EQ(3u, ts.srv->requestsServed());
}

TEST(Daemon, SweepRowsAreByteIdenticalToDirectRuns)
{
    TestServer ts("d_rows");
    SweepReply bare;
    ASSERT_TRUE(runSweep(ts.opt.socket_path,
                         "sweep\nworkload=astar\ncomponent=none\n"
                         "warmup=2500\ninstructions=2000\nleg=",
                         bare));
    ASSERT_EQ(1u, bare.rows.size()) << bare.err << bare.done;
    EXPECT_EQ(directRow("astar", "none", 2500, 2000, ""), bare.rows[0]);
    EXPECT_EQ("done rows=1 errors=0 cancelled=0", bare.done);

    // Two component legs sharing one bare warmup image: each must match
    // its own uninterrupted deferred-attach run.
    const std::string legA = "clk4_w4 delay0 queue32 portALL";
    const std::string legB = "clk8_w1 delay8 queue8 portLS1";
    SweepReply pf;
    ASSERT_TRUE(runSweep(ts.opt.socket_path,
                         "sweep\nworkload=libquantum\ncomponent=auto\n"
                         "warmup=2500\ninstructions=2000\nleg=" +
                             legA + "\nleg=" + legB,
                         pf));
    ASSERT_EQ(2u, pf.rows.size()) << pf.err << pf.done;
    EXPECT_EQ(directRow("libquantum", "auto", 2500, 2000, legA),
              pf.rows[0]);
    EXPECT_EQ(directRow("libquantum", "auto", 2500, 2000, legB),
              pf.rows[1]);
    // Both legs share the libquantum bare-core key: one warmup, not two.
    EXPECT_EQ(2u, ts.srv->cacheStats().warmups);  // astar + libquantum
}

TEST(Daemon, BadRequestsAreErrorFramesNotDeath)
{
    TestServer ts("d_bad");
    const char* bad[] = {
        "sweep\nworkload=not-a-workload\nleg=",
        "sweep\nworkload=astar\nleg=bogus_token",
        "sweep\nworkload=astar\ncomponent=teleport\nleg=",
        "sweep\nworkload=astar\nwarmup=banana\nleg=",
        "sweep\nworkload=astar",  // no legs
        "sweep\nnonsense line",
    };
    for (const char* req : bad) {
        SweepReply r;
        ASSERT_TRUE(runSweep(ts.opt.socket_path, req, r)) << req;
        EXPECT_EQ(0u, r.err.rfind("err ", 0)) << req << " -> " << r.err;
        EXPECT_TRUE(r.rows.empty()) << req;
    }
    // The daemon survived them all.
    int fd = tryConnect(ts.opt.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(framing::writeFrame(fd, "ping"));
    std::string reply;
    EXPECT_EQ(framing::ReadResult::kOk,
              framing::readFrame(fd, reply, 10'000));
    EXPECT_EQ("ok pong", reply);
    ::close(fd);
}

TEST(Daemon, TraceWorkloadBadRequestsAreErrorFramesNotDeath)
{
    TestServer ts("d_trace_bad");
    // A real file that is not a trace: bad magic must be an err frame.
    const std::string junk = ::testing::TempDir() + "d_trace_junk.pfmtrace";
    {
        std::ofstream os(junk, std::ios::binary | std::ios::trunc);
        os << "this is not a trace file, not even close";
    }
    const std::string bad[] = {
        "sweep\nworkload=trace:\nleg=",  // empty path
        "sweep\nworkload=trace:relative/path.pfmtrace\nleg=",
        "sweep\nworkload=trace:/no/such/trace.pfmtrace\nleg=",
        "sweep\nworkload=trace:" + junk + "\nleg=",
    };
    for (const std::string& req : bad) {
        SweepReply r;
        ASSERT_TRUE(runSweep(ts.opt.socket_path, req, r)) << req;
        EXPECT_EQ(0u, r.err.rfind("err ", 0)) << req << " -> " << r.err;
        EXPECT_TRUE(r.rows.empty()) << req;
    }
    // The daemon survived them all.
    int fd = tryConnect(ts.opt.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(framing::writeFrame(fd, "ping"));
    std::string reply;
    EXPECT_EQ(framing::ReadResult::kOk,
              framing::readFrame(fd, reply, 10'000));
    EXPECT_EQ("ok pong", reply);
    ::close(fd);
    std::remove(junk.c_str());
}

TEST(Daemon, TraceWorkloadLegMatchesDirectReplay)
{
    // Record a short trace, then have the daemon replay it: the streamed
    // row must be byte-identical to the direct replay run.
    const std::string path = ::testing::TempDir() + "d_trace_leg.pfmtrace";
    {
        SimOptions rec;
        rec.workload = "bfs-roads";
        rec.component = "none";
        rec.warmup_instructions = 2'500;
        rec.max_instructions = 2'000;
        rec.record_trace = path;
        runSim(rec);
    }
    TestServer ts("d_trace_leg");
    SweepReply r;
    ASSERT_TRUE(runSweep(ts.opt.socket_path,
                         "sweep\nworkload=trace:" + path +
                             "\ncomponent=none\nwarmup=2500\n"
                             "instructions=2000\nleg=",
                         r));
    ASSERT_EQ(1u, r.rows.size()) << r.err << r.done;
    EXPECT_EQ(directRow("trace:" + path, "none", 2500, 2000, ""),
              r.rows[0]);
    std::remove(path.c_str());
}

TEST(Daemon, CheckpointRefusingComponentIsLegErrorNotDeath)
{
    // astar's "auto" component configures itself by snooping warmup and
    // refuses deferred attach (supportsCheckpoint false); through the
    // daemon that surfaces as a per-leg error frame, because the request
    // itself is well-formed — the refusal happens inside the leg.
    TestServer ts("d_refuse");
    SweepReply r;
    ASSERT_TRUE(runSweep(ts.opt.socket_path,
                         "sweep\nworkload=astar\ncomponent=auto\n"
                         "warmup=2500\ninstructions=2000\nleg=",
                         r));
    EXPECT_TRUE(r.rows.empty());
    ASSERT_EQ(1u, r.legerrs.size());
    EXPECT_EQ("done rows=0 errors=1 cancelled=0", r.done);
    EXPECT_TRUE(ts.srv->running());
}

TEST(Daemon, ClientDisconnectCancelsQueuedAndInFlightLegs)
{
    TestServer ts("d_cancel", /*jobs=*/2);
    int fd = tryConnect(ts.opt.socket_path);
    ASSERT_GE(fd, 0);
    // Four long legs on two workers: two in flight, two queued when the
    // client walks away.
    ASSERT_TRUE(framing::writeFrame(
        fd,
        "sweep\nworkload=astar\ncomponent=none\nwarmup=2500\n"
        "instructions=3000000\nleg=\nleg=\nleg=\nleg="));
    std::this_thread::sleep_for(200ms);
    ::close(fd);

    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (ts.srv->legsOk() + ts.srv->legsFailed() +
                   ts.srv->legsCancelled() <
               4 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(20ms);
    EXPECT_EQ(4u, ts.srv->legsOk() + ts.srv->legsFailed() +
                      ts.srv->legsCancelled());
    EXPECT_GE(ts.srv->legsCancelled(), 1u);
    EXPECT_EQ(0u, ts.srv->legsFailed());
}

TEST(Daemon, EvictionKeepsCacheUnderTinyBudget)
{
    TestServer ts("d_evict", /*jobs=*/2, /*budget=*/1);
    for (const char* warmup : {"2500", "5000"}) {
        SweepReply r;
        ASSERT_TRUE(runSweep(ts.opt.socket_path,
                             std::string("sweep\nworkload=astar\n"
                                         "component=none\nwarmup=") +
                                 warmup + "\ninstructions=2000\nleg=",
                             r));
        ASSERT_EQ(1u, r.rows.size()) << r.err;
    }
    DaemonCacheStats s = ts.srv->cacheStats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_LE(s.bytes, 1u);
}

// ----------------------------------------------------------------- soak

struct SoakKey {
    const char* workload;
    const char* component;
    const char* warmup;
    std::vector<std::string> legs;
};

TEST(Daemon, SoakOverlappingRequestsFourKeysRandomDisconnects)
{
    const std::string legA = "clk4_w4 delay0 queue32 portALL";
    const std::string legB = "clk8_w1 delay8 queue8 portLS1";
    const SoakKey keys[] = {
        {"astar", "none", "2500", {""}},
        {"astar", "none", "5000", {""}},
        {"libquantum", "auto", "2500", {legA, legB}},
        {"libquantum", "auto", "5000", {""}},
    };

    // Expected deterministic rows, computed once from direct runs.
    std::vector<std::vector<std::string>> expected;
    std::vector<std::string> requests;
    for (const SoakKey& k : keys) {
        std::string req = std::string("sweep\nworkload=") + k.workload +
                          "\ncomponent=" + k.component +
                          "\nwarmup=" + k.warmup + "\ninstructions=2000";
        std::vector<std::string> rows;
        for (const std::string& leg : k.legs) {
            req += "\nleg=" + leg;
            rows.push_back(directRow(k.workload, k.component,
                                     std::stoul(k.warmup), 2000, leg));
        }
        requests.push_back(std::move(req));
        expected.push_back(std::move(rows));
    }

    TestServer ts("d_soak", /*jobs=*/8);
    constexpr int kRequests = 208;
    constexpr int kClients = 16;
    std::atomic<int> cursor{0};
    std::atomic<int> completed{0};
    std::atomic<int> dropped{0};
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (;;) {
                int r = cursor.fetch_add(1);
                if (r >= kRequests)
                    return;
                const std::size_t k = static_cast<std::size_t>(r) % 4;
                std::mt19937 rng(static_cast<unsigned>(r));
                if (rng() % 100 < 15) {
                    // Rude client: send the request, maybe glimpse one
                    // frame, vanish.
                    int fd = tryConnect(ts.opt.socket_path);
                    if (fd < 0) {
                        ++failures;
                        continue;
                    }
                    framing::writeFrame(fd, requests[k]);
                    if (rng() % 2) {
                        std::string frame;
                        framing::readFrame(fd, frame, 50);
                    }
                    ::close(fd);
                    ++dropped;
                    continue;
                }
                SweepReply reply;
                if (!runSweep(ts.opt.socket_path, requests[k], reply) ||
                    reply.rows.size() != expected[k].size()) {
                    ++failures;
                    continue;
                }
                for (std::size_t i = 0; i < expected[k].size(); ++i)
                    if (reply.rows[i] != expected[k][i])
                        ++mismatches;
                ++completed;
            }
        });
    }
    for (std::thread& t : clients)
        t.join();

    EXPECT_EQ(0, failures.load());
    EXPECT_EQ(0, mismatches.load());
    EXPECT_GT(completed.load(), 0);
    EXPECT_GT(dropped.load(), 0);  // the 15% actually exercised disconnects
    EXPECT_EQ(kRequests, completed.load() + dropped.load());

    // One warmup per shared key, regardless of 200+ overlapping requests.
    EXPECT_EQ(4u, ts.srv->cacheStats().warmups);
    EXPECT_EQ(0u, ts.srv->legsFailed());

    ts.srv->stop();
    EXPECT_EQ(0u, ts.srv->liveWorkers());
    EXPECT_EQ(0u, ts.srv->liveConnections());
    EXPECT_FALSE(fileExists(ts.opt.socket_path));
    // Clean shutdown leaves neither cache images nor checkpoint temps.
    EXPECT_TRUE(dirEntries(ts.opt.cache_dir).empty());
}

// ------------------------------------------------------------- the binary

TEST(Daemon, BinarySigtermMidSweepExitsCleanWithNoTruncatedFiles)
{
    const std::string dir = uniqueDir("d_bin_cache");
    const std::string sock = sockPath("d_bin");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const std::string sock_arg = "--socket=" + sock;
        const std::string dir_arg = "--cache-dir=" + dir;
        ::execl(PFM_DAEMON_BIN, "pfm_daemon", sock_arg.c_str(),
                dir_arg.c_str(), "--jobs=2", static_cast<char*>(nullptr));
        _exit(127);
    }

    int fd = -1;
    for (int i = 0; i < 200 && fd < 0; ++i) {
        fd = tryConnect(sock);
        if (fd < 0)
            std::this_thread::sleep_for(25ms);
    }
    ASSERT_GE(fd, 0) << "daemon binary never came up";

    // A sweep long enough to still be in flight when the signal lands.
    ASSERT_TRUE(framing::writeFrame(
        fd,
        "sweep\nworkload=astar\ncomponent=none\nwarmup=2500\n"
        "instructions=3000000\nleg=\nleg="));
    std::this_thread::sleep_for(300ms);
    ASSERT_EQ(0, ::kill(pid, SIGTERM));

    int status = -1;
    ASSERT_EQ(pid, ::waitpid(pid, &status, 0));
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(0, WEXITSTATUS(status));
    ::close(fd);

    EXPECT_FALSE(fileExists(sock));
    for (const std::string& name : dirEntries(dir)) {
        EXPECT_TRUE(false) << "file left behind after SIGTERM: " << name;
    }
}

} // namespace
} // namespace pfm
