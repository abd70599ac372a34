/**
 * @file
 * In-memory span recorder for the traced run. A span brackets one call
 * the benchmark makes into a simulator layer; spans are named
 * "<layer>.<what>" ("sim.run", "isa.drain", "daemon.leg", ...), carry
 * the id of the leg or request they belong to, and link to the span that
 * was open on the same thread when they began. Nothing is written until
 * write() at exit, so recording costs two clock reads and a locked
 * vector append per span.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    /** Spans are recorded only while enabled (the untraced passes of a
     *  traced run switch it off to measure the overhead). */
    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    /** RAII span on the calling thread; nests under the open span. */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* name, std::string id);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* t_ = nullptr;
        int index_ = -1;
        int saved_parent_ = -1;
        Clock::time_point start_;
    };

    /**
     * Record a span whose interval was measured elsewhere (a daemon leg
     * runs from request send to row arrival on the client thread).
     * Returns its index for use as a parent, or -1 when disabled.
     */
    int add(const std::string& name, const std::string& id,
            Clock::time_point start, Clock::time_point end, int parent);

    /** Index of the span open on the calling thread (-1 if none). */
    static int current();

    std::size_t size() const;

    /**
     * Self time per layer in ms: each span's duration minus the part of
     * its interval covered by its children, summed by layer. Layers are
     * the span-name prefixes, with "components" folded into "pfm".
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as one JSON array; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        std::string id;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
    };

    int push(Span s);
    void finish(int index, Clock::time_point end);

    Clock::time_point t0_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
