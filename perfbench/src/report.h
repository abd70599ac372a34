/**
 * @file
 * What one benchmark run reports: the metric catalogue (the names
 * BENCHMARK.json declares), the correctness tally, the exact work
 * counters read from the simulator's StatGroups, and the result line.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

/** End-to-end metrics, printed by every untraced run (--trace 0). */
const std::vector<MetricDef>& endToEndMetrics();

/** Per-layer metrics, printed by every traced run (--trace 1). */
const std::vector<MetricDef>& perLayerMetrics();

double median(std::vector<double> v);

/** Quantile @p q in [0,1] with linear interpolation between ranks. */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * Exact work counters of a set of simulator runs. count() values are
 * summed; rate() values (percentages and averages, meaningful only per
 * run) are averaged over the runs that reported them. Every input is a
 * deterministic simulator statistic, so two passes over the same runs
 * render byte-identical text().
 */
class Counters
{
  public:
    void count(const std::string& name, double v);
    void rate(const std::string& name, double v);
    void merge(const Counters& o);

    std::map<std::string, double> values() const;
    std::string text() const;

  private:
    struct Acc {
        double sum = 0;
        unsigned n = 0;
        bool is_rate = false;
    };
    std::map<std::string, Acc> acc_;
};

/** Shortest decimal text that reads back as @p v. */
std::string num(double v);

/**
 * The run's result: metrics by name, attempted/failed operations, and
 * the last-line JSON object. fail() is thread-safe (daemon clients).
 */
class Report
{
  public:
    void set(const std::string& name, double value);

    void attempt(std::uint64_t n = 1);

    /** One failed operation or correctness check; reason to stderr. */
    void fail(const std::string& what);

    /**
     * Print the result line with exactly the catalogue's metrics for the
     * run's mode. A catalogue metric the workload left unset is an error
     * in the benchmark itself (counted as a failure, printed as 0).
     */
    void printResult(bool traced);

  private:
    bool has(const std::string& name) const;

    mutable std::mutex mu_;
    std::map<std::string, double> values_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** printf-style line on stdout, prefixed "# " (information only). */
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
