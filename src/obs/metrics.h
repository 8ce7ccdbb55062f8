/**
 * @file
 * The observability metrics registry: named counters, gauges and
 * fixed-bucket histograms that any layer can register and mutate from
 * any thread.
 *
 * Design points:
 *  - near-zero cost when disabled: every mutation first checks one
 *    process-wide relaxed atomic flag and returns — no allocation, no
 *    atomic read-modify-write, no lock (the disabled path is pinned by
 *    an allocation-counting test);
 *  - mutation is lock-free when enabled: counters and gauges are
 *    relaxed atomics, histogram buckets are an atomic array; only
 *    registration (first use of a name) takes the registry mutex;
 *  - metric handles are stable: the registry never evicts, so
 *    `static Counter &c = Registry::instance().counter(...)` at a use
 *    site is the idiomatic (and allocation-free after first call)
 *    access pattern — `obs/metric_defs.h` centralizes every name;
 *  - metrics are process-wide observability, never experiment inputs:
 *    sweep results are bit-identical with metrics on or off.
 *
 * Export: `Registry::toJson()` / `writeJsonFile()` snapshot every
 * metric as one JSON document (schema in docs/observability.md);
 * `configureFromEnv()` wires the `TSP_METRICS` / `TSP_METRICS_OUT`
 * environment variables for binaries without their own flags.
 */

#ifndef TSP_OBS_METRICS_H
#define TSP_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsp::obs {

namespace detail {
extern std::atomic<bool> metricsEnabled;
} // namespace detail

/** True when metric mutations are being recorded. */
inline bool
metricsEnabled()
{
    return detail::metricsEnabled.load(std::memory_order_relaxed);
}

/** Turn metric recording on or off (off is the default). */
void setMetricsEnabled(bool enabled);

/**
 * Configure from the environment (idempotent): `TSP_METRICS=1`
 * enables recording; `TSP_METRICS_OUT=<path>` enables recording *and*
 * installs an atexit hook that writes the registry snapshot to the
 * path. Runs automatically at startup in every binary linking the obs
 * library (and again, harmlessly, from the bench banner), so the
 * variables work without per-binary wiring.
 */
void configureFromEnv();

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (!metricsEnabled())
            return;
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<uint64_t> value_{0};
};

/** Instantaneous level (e.g. queue depth) with a high-water mark. */
class Gauge
{
  public:
    void
    add(int64_t delta)
    {
        if (!metricsEnabled())
            return;
        int64_t now =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        int64_t seen = max_.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed))
            ;
    }

    void
    set(int64_t value)
    {
        if (!metricsEnabled())
            return;
        value_.store(value, std::memory_order_relaxed);
        int64_t seen = max_.load(std::memory_order_relaxed);
        while (value > seen &&
               !max_.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed))
            ;
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    /** Highest value ever recorded (0 if never positive). */
    int64_t max() const { return max_.load(std::memory_order_relaxed); }

  private:
    friend class Registry;
    std::atomic<int64_t> value_{0};
    std::atomic<int64_t> max_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * `value <= bounds[i]` (upper-inclusive); one extra overflow bucket
 * counts everything above the last bound. Bounds are fixed at
 * registration, so observation is a branchless scan plus one relaxed
 * atomic increment — no allocation ever.
 */
class Histogram
{
  public:
    void
    observe(double value)
    {
        if (!metricsEnabled())
            return;
        size_t bucket = bounds_.size();  // overflow by default
        for (size_t i = 0; i < bounds_.size(); ++i) {
            if (value <= bounds_[i]) {
                bucket = i;
                break;
            }
        }
        counts_[bucket].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        double seen = sum_.load(std::memory_order_relaxed);
        while (!sum_.compare_exchange_weak(seen, seen + value,
                                           std::memory_order_relaxed))
            ;
    }

    /** The registered upper bounds (not including overflow). */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Count in bucket @p i; `i == bounds().size()` is the overflow. */
    uint64_t
    bucketCount(size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    friend class Registry;
    explicit Histogram(std::vector<double> bounds)
        : bounds_(std::move(bounds)),
          counts_(std::make_unique<std::atomic<uint64_t>[]>(
              bounds_.size() + 1))
    {}

    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> counts_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/** Metric metadata, as listed in docs/observability.md's table. */
struct MetricInfo
{
    std::string name;   //!< dotted lowercase, e.g. "pool.tasks_executed"
    std::string kind;   //!< "counter", "gauge" or "histogram"
    std::string owner;  //!< owning layer, e.g. "experiment::Lab"
    std::string help;   //!< one-line description
};

/**
 * Process-wide metric registry. Registration (find-or-create by name)
 * takes a mutex; returned references stay valid for the process
 * lifetime. Registering an existing name with a different kind throws
 * FatalError — names are global and documented.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name, const std::string &owner,
                     const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &owner,
                 const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &owner,
                         const std::string &help,
                         std::vector<double> bounds);

    /** Metadata of every registered metric, in registration order. */
    std::vector<MetricInfo> metrics() const;

    /** Zero every metric's value (handles stay valid). Test helper. */
    void resetValues();

    /**
     * Snapshot every metric as one JSON document:
     *   {"metrics": {"<name>": {"kind": ..., "owner": ..., "value": ...
     *    | "value"/"max" | "count"/"sum"/"bounds"/"buckets"}, ...}}
     */
    std::string toJson() const;

    /** Write toJson() to @p path; throws FatalError on I/O failure. */
    void writeJsonFile(const std::string &path) const;

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::vector<MetricInfo> order_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace tsp::obs

#endif // TSP_OBS_METRICS_H
