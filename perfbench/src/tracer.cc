#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

thread_local int tl_open = -1;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string
layerOf(const std::string& span_name)
{
    std::string layer = span_name.substr(0, span_name.find('.'));
    return layer == "components" ? "pfm" : layer;
}

} // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, std::string id)
{
    if (!t.enabled())
        return;
    t_ = &t;
    saved_parent_ = tl_open;
    start_ = Clock::now();
    index_ = t.push(Span{name, std::move(id), start_, start_, tl_open});
    tl_open = index_;
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    t_->finish(index_, Clock::now());
    tl_open = saved_parent_;
}

int
Tracer::push(Span s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::finish(int index, Clock::time_point end)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(index)].end = end;
}

int
Tracer::add(const std::string& name, const std::string& id,
            Clock::time_point start, Clock::time_point end, int parent)
{
    if (!enabled())
        return -1;
    return push(Span{name, id, start, end, parent});
}

int
Tracer::current()
{
    return tl_open;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= 0)
            children[static_cast<std::size_t>(p)].push_back(i);
    }

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Children may overlap (a request's legs run on two workers), so
        // subtract the union of their intervals clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i]) {
            const auto lo = std::max(spans_[c].start, s.start);
            const auto hi = std::min(spans_[c].end, s.end);
            if (lo < hi)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        double covered_us = 0;
        Clock::time_point run_lo{}, run_hi{};
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                covered_us += usBetween(run_lo, run_hi);
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            covered_us += usBetween(run_lo, run_hi);
        self[layerOf(s.name)] += (usBetween(s.start, s.end) - covered_us) /
                                 1e3;
    }
    return self;
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"i\": %zu, \"name\": \"%s\", \"id\": \"%s\", "
                     "\"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"parent\": %d}%s\n",
                     i, s.name.c_str(), s.id.c_str(),
                     usBetween(t0_, s.start), usBetween(t0_, s.end),
                     s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
