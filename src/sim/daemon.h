/**
 * @file
 * Sim-as-a-service: a long-running daemon owning a worker pool and a
 * keyed LRU cache of warm checkpoint images, serving sweep requests over
 * a Unix-domain socket (DESIGN.md "Daemon protocol").
 *
 * The traffic shape this serves is the paper's evaluation model at farm
 * scale: many near-duplicate measurement configs against a fixed warmed
 * core. A request names a workload, a component, a warmup length and a
 * list of measurement legs (parameter-token strings). Each leg's warmup
 * image is looked up in the cache under its *bare-core* config
 * fingerprint — the key under which PR 4 proved warmup checkpoints are
 * shareable across component/PFM parameters — and restored through the
 * checkpoint store's hot-blob cache, so N concurrent legs on the same key
 * share one decoded copy and pay one warmup between them.
 *
 * Robustness properties the tests pin down:
 *  - single-flight warmup: concurrent cache misses on one key block on
 *    the one thread producing the image (never N duplicate warmups);
 *  - bad requests (unknown workload, malformed token, checkpoint-refusing
 *    component) become error frames via ScopedFatalThrow, never daemon
 *    death; pfm_panic still aborts — a corrupted invariant must not serve;
 *  - client disconnect cancels that client's queued legs immediately and
 *    its in-flight legs cooperatively (SimOptions::cancel_poll);
 *  - the cache is bounded: least-recently-used unpinned images are
 *    evicted (file deleted) once the byte budget is exceeded;
 *  - stop() (SIGINT/SIGTERM in the pfm_daemon binary) drains cleanly:
 *    no leaked threads, no cache files left behind unless asked.
 */

#ifndef PFM_SIM_DAEMON_H
#define PFM_SIM_DAEMON_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/options.h"

namespace pfm {

struct DaemonOptions {
    /** Unix-domain socket path (sun_path-limited, ~100 chars). */
    std::string socket_path;

    /** Worker pool size; 0 resolves via PFM_JOBS / hardware_concurrency. */
    unsigned jobs = 0;

    /** Checkpoint cache directory; "" uses $PFM_CKPT_DIR, then ".". */
    std::string cache_dir;

    /** Cache byte budget; LRU unpinned images beyond it are evicted. */
    std::uint64_t cache_budget_bytes = 256ull << 20;

    /** Budget for a connected client to deliver its request frame. */
    int request_timeout_ms = 10'000;

    /** Leave cache images on disk at shutdown (debugging). */
    bool keep_cache_files = false;
};

struct DaemonCacheStats {
    std::uint64_t hits = 0;       ///< leases served from a ready image
    std::uint64_t misses = 0;     ///< acquires that had to produce/wait
    std::uint64_t warmups = 0;    ///< warm_fn invocations (== one per key
                                  ///  unless a warmup failed and retried)
    std::uint64_t evictions = 0;  ///< images deleted under budget pressure
    std::uint64_t bytes = 0;      ///< resident bytes on disk (manifests +
                                  ///  unique store blobs, each counted once)
    std::uint64_t entries = 0;    ///< resident images
    std::uint64_t logical_bytes = 0; ///< what the same entries would cost
                                     ///  uncompressed and undeduplicated
    std::uint64_t blobs = 0;      ///< unique store blobs resident
};

/**
 * Keyed, pin-counted, byte-budgeted LRU cache of warmup checkpoint files
 * with single-flight production. Thread-safe. Separate from the server
 * so the concurrency properties are unit-testable without sockets.
 */
class WarmupCache
{
  public:
    WarmupCache(std::string dir, std::uint64_t budget_bytes);
    ~WarmupCache();
    WarmupCache(const WarmupCache&) = delete;
    WarmupCache& operator=(const WarmupCache&) = delete;

    struct Entry;

    /**
     * Pin on a ready image. While any lease is live the entry cannot be
     * evicted and neither its manifest nor its blobs can be deleted.
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease&& o) noexcept;
        Lease& operator=(Lease&& o) noexcept;
        ~Lease();

        const std::string& path() const;
        bool valid() const { return entry_ != nullptr; }

      private:
        friend class WarmupCache;
        Lease(WarmupCache* c, Entry* e) : cache_(c), entry_(e) {}
        WarmupCache* cache_ = nullptr;
        Entry* entry_ = nullptr;
    };

    /**
     * Cache key for the warmup image @p opt would restore from: the
     * workload name plus the bare-core config fingerprint (which folds in
     * core/memory geometry and the warmup length, but no PFM parameters —
     * see configFingerprint).
     */
    static std::string keyFor(const SimOptions& opt);

    /**
     * Return a lease on the ready image for @p key. On a miss the calling
     * thread runs @p warm_fn(path) to produce the file (single-flight:
     * concurrent misses on the same key block until that one warmup
     * publishes, then all leave with leases). If warm_fn throws, the
     * exception propagates to the producer, every waiter of that round
     * gets a FatalError carrying the same message, and the key is left
     * retryable for later requests.
     */
    Lease acquire(const std::string& key,
                  const std::function<void(const std::string&)>& warm_fn);

    DaemonCacheStats stats() const;

    /**
     * Delete every unpinned image file and forget it (shutdown path).
     * Returns how many still-pinned entries were preserved — when
     * nonzero, their manifests (and the store blobs they reference)
     * must survive, so the caller must not sweep the store directory.
     */
    std::size_t removeFiles();

  private:
    /**
     * Refcount + size of one store blob shared by resident entries. The
     * cache charges each unique blob once (dedup accounting): an entry's
     * cost is its manifest plus whichever referenced blobs it is first to
     * bring in, and a blob's file is deleted only when the last resident
     * entry referencing it goes.
     */
    struct BlobAcct {
        std::uint64_t bytes = 0;
        unsigned refs = 0;
    };

    void release(Entry* e);

    /** Drop LRU unpinned ready entries until under budget (never @p keep). */
    void evictLocked(const Entry* keep);

    /** Remove a ready entry's files and accounting (entry stays mapped). */
    void dropFilesLocked(Entry& e);

    std::string dir_;
    std::uint64_t budget_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;
    std::map<std::string, BlobAcct> blobs_;  ///< keyed by blob file path
    std::uint64_t bytes_ = 0;
    std::uint64_t logical_bytes_ = 0;
    std::uint64_t tick_ = 0;  ///< LRU clock
    DaemonCacheStats stats_;
};

/**
 * The daemon: accept loop + one thread per connection + a fixed worker
 * pool executing legs through runSweepLeg(). Usable in-process (tests
 * construct one, start() it, and speak the framing protocol over a
 * client socket) or via the pfm_daemon binary.
 */
class DaemonServer
{
  public:
    explicit DaemonServer(DaemonOptions opt);
    ~DaemonServer();
    DaemonServer(const DaemonServer&) = delete;
    DaemonServer& operator=(const DaemonServer&) = delete;

    /** Bind + listen + spawn accept loop and workers. Fatal on bind error. */
    void start();

    /**
     * Graceful shutdown: stop accepting, cancel every live connection and
     * in-flight leg, join every thread, delete cache files (unless
     * keep_cache_files), unlink the socket. Idempotent.
     */
    void stop();

    bool running() const { return running_.load(); }
    const std::string& socketPath() const { return opt_.socket_path; }

    DaemonCacheStats cacheStats() const;

    /** Live thread counts — the soak test's no-leak assertions. */
    unsigned liveConnections() const;
    unsigned liveWorkers() const;

    std::uint64_t requestsServed() const { return requests_.load(); }
    std::uint64_t legsOk() const { return legs_ok_.load(); }
    std::uint64_t legsFailed() const { return legs_err_.load(); }
    std::uint64_t legsCancelled() const { return legs_cancelled_.load(); }

  private:
    struct ConnState;
    struct LegTask;
    struct LegOutcome;

    void acceptLoop();
    void workerLoop();
    void serveConnection(const std::shared_ptr<ConnState>& conn);
    void handleSweep(const std::shared_ptr<ConnState>& conn,
                     const std::string& payload);
    void runLeg(const LegTask& task);
    void warmFor(const SimOptions& leg_opt, const std::string& path);

    DaemonOptions opt_;
    WarmupCache cache_;
    int listen_fd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::thread accept_thread_;
    std::vector<std::thread> workers_;
    std::atomic<unsigned> live_workers_{0};

    // Task queue feeding the worker pool.
    std::mutex task_mu_;
    std::condition_variable task_cv_;
    std::deque<LegTask> tasks_;

    // Live connections: thread handles (joined at stop) plus the states
    // that must be cancelled/kicked at shutdown.
    mutable std::mutex conn_mu_;
    std::vector<std::thread> conn_threads_;
    std::vector<std::shared_ptr<ConnState>> conns_;
    std::atomic<unsigned> live_conns_{0};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> legs_ok_{0};
    std::atomic<std::uint64_t> legs_err_{0};
    std::atomic<std::uint64_t> legs_cancelled_{0};
};

} // namespace pfm

#endif // PFM_SIM_DAEMON_H
