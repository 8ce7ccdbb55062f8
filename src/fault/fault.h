/**
 * @file
 * Deterministic fault-injection framework for the robustness seams.
 *
 * Every recovery mechanism in this repo (checkpoint/resume, bounded
 * retry, fault-isolated sweeps, watchdog) exists to survive failures —
 * and nothing proves recovery machinery like provoking the failure on
 * purpose. A named injection site is placed at each seam with
 *
 *     TSP_FAULT_POINT("store.append");
 *
 * and does nothing until a fault is armed. Arming is deterministic:
 * one spec selects a site, the hit ordinal at which it fires, and the
 * failure kind —
 *
 *     TSP_FAULT=store.append:1:error    (env, any tsp binary)
 *     tsp-run sweep ... --fault trace.write:2+:fatal
 *
 * grammar `site:nth[+]:kind`: fire at the nth hit of the site
 * (1-based, counted with one atomic per site so multi-threaded runs
 * fire exactly once), or at every hit from the nth on when the `+`
 * suffix is present (for exercising retry exhaustion). Kinds:
 *
 *  - `error` — throw std::runtime_error, the shape of a transient
 *    filesystem/environment failure (retry policies may heal it);
 *  - `fatal` — throw util::FatalError, the shape of a bad input or
 *    unrecoverable environment error (sweeps degrade the cell);
 *  - `delay` — sleep a few milliseconds, the shape of a stall
 *    (watchdog and deadline paths see it; nothing throws).
 *
 * Design points (mirroring the obs metrics registry, whose disabled
 * cost is pinned by test):
 *  - near-zero cost when disarmed: the macro checks one process-wide
 *    relaxed atomic flag and falls through — no allocation, no lock,
 *    no registration (pinned by tests/fault_test.cc);
 *  - sites register on first armed execution, against a fixed catalog
 *    compiled into the library: a TSP_FAULT_POINT whose name is not
 *    cataloged is a PanicError, so the catalog (and its documentation
 *    table in docs/robustness.md, enforced by fault_doc_test) can
 *    never silently lag the code;
 *  - observability: every injected fault bumps the `fault.injected`
 *    obs counter; `fault.sites` gauges the registered-site count.
 */

#ifndef TSP_FAULT_FAULT_H
#define TSP_FAULT_FAULT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace tsp::fault {

namespace detail {
extern std::atomic<bool> faultArmed;
} // namespace detail

/** True while some fault spec is armed. Relaxed is deliberate — this
 *  is the disarmed fast path pinned by test; Site::hit() re-checks
 *  the per-site armed flag with acquire before reading the spec, so
 *  no armed state is consumed on the strength of this load alone. */
inline bool
armed()
{
    return detail::faultArmed.load(std::memory_order_relaxed);
}

/** The failure shapes a site can be armed to produce. */
enum class Kind : uint8_t {
    Error = 0,  //!< throw std::runtime_error (transient-shaped)
    Fatal = 1,  //!< throw util::FatalError (bad-input-shaped)
    Delay = 2,  //!< sleep briefly (stall-shaped; nothing thrown)
};

/** Every kind, for matrix enumeration (chaos harness). */
const std::vector<Kind> &allKinds();

/** "error", "fatal" or "delay". */
std::string kindName(Kind kind);

/** Inverse of kindName; FatalError on an unknown name. */
Kind kindFromName(const std::string &name);

/** Catalog metadata of one injection site. */
struct SiteInfo
{
    std::string name;   //!< dotted lowercase, e.g. "store.append"
    std::string owner;  //!< the layer hosting the seam
    std::string help;   //!< what failing here simulates
};

/** One armed fault: which site fires, when, and how. */
struct FaultSpec
{
    std::string site;
    uint64_t nth = 1;         //!< 1-based hit ordinal that fires
    bool persistent = false;  //!< fire on every hit >= nth ("nth+")
    Kind kind = Kind::Error;

    /** Canonical "site:nth[+]:kind" form. */
    std::string describe() const;
};

/**
 * Parse "site:nth[+]:kind" (e.g. "store.append:2:error",
 * "trace.write:1+:fatal"). FatalError on malformed specs, unknown
 * kinds, unknown (un-cataloged) sites, or nth == 0.
 */
FaultSpec parseFaultSpec(const std::string &spec);

/** One registered injection site. */
class Site
{
  public:
    const std::string &name() const { return info_.name; }
    const SiteInfo &info() const { return info_; }

    /** Total executions of this site while the framework was armed. */
    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** Faults this site actually injected. */
    uint64_t triggered() const
    {
        return triggered_.load(std::memory_order_relaxed);
    }

    /**
     * Called by TSP_FAULT_POINT (only while armed). Counts the hit
     * and, when this site's armed ordinal is reached, injects the
     * armed kind (throwing for Error/Fatal).
     */
    void hit();

  private:
    friend class Registry;
    explicit Site(SiteInfo info) : info_(std::move(info)) {}

    [[noreturn]] void throwInjected(Kind kind, uint64_t ordinal) const;

    SiteInfo info_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> triggered_{0};

    // Armed state, written by Registry::applySpec under its mutex and
    // read lock-free on the hit path. The plain fields below are
    // published by the release store of siteArmed_ and consumed after
    // its acquire load in hit(); re-arming while threads are actively
    // executing this site's fault point is not supported (see
    // Registry::arm).
    std::atomic<bool> siteArmed_{false};
    std::atomic<uint64_t> armHits_{0};
    uint64_t armNth_ = 1;
    bool armPersistent_ = false;
    Kind armKind_ = Kind::Error;
};

/**
 * Process-wide site registry. Site registration (first armed execution
 * of a TSP_FAULT_POINT) takes the mutex; returned references stay
 * valid for the process lifetime. Only cataloged names register —
 * a novel name is a PanicError, keeping code, catalog and docs in
 * lockstep.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-register the cataloged site @p name. */
    Site &site(const std::string &name);

    /** The full compiled-in catalog (registered or not). */
    static const std::vector<SiteInfo> &catalog();

    /** True when @p name is in the catalog. */
    static bool isCataloged(const std::string &name);

    /** Metadata of every site registered so far. */
    std::vector<SiteInfo> registered() const;

    /** Per-site (hits, triggered) counters, for tests and reports. */
    struct SiteCounters
    {
        std::string name;
        uint64_t hits = 0;
        uint64_t triggered = 0;
    };
    std::vector<SiteCounters> counters() const;

    /** Zero every site's hit/trigger counters. Test helper. */
    void resetCounters();

    /**
     * Arm @p spec: the named site fires per its nth/kind from now on.
     * Replaces any previously armed spec. FatalError on un-cataloged
     * sites or nth == 0.
     *
     * Concurrency: arming publishes the spec with release/acquire
     * ordering, so threads that start hitting fault points *after*
     * arm() returns observe it coherently. Re-arming (or disarming)
     * while other threads are actively executing an armed fault point
     * is not supported — a racing hit may observe a mix of the old
     * and new spec. Arm before launching the workload and disarm
     * after it drains (the chaos harness and tests do exactly this).
     */
    void arm(const FaultSpec &spec);

    /**
     * Disarm: every TSP_FAULT_POINT returns to the no-op fast path.
     * Same concurrency contract as arm().
     */
    void disarm();

    /** The armed spec, if any. */
    std::optional<FaultSpec> current() const;

    /** Total faults injected process-wide (all sites, all arms). */
    uint64_t injectedCount() const;

  private:
    Registry() = default;

    /** Push armedSpec_ into the per-site armed state (mutex held). */
    void applySpec();

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Site>> sites_;
    std::vector<std::string> order_;
    std::optional<FaultSpec> armedSpec_;
};

/** Parse-and-arm convenience ("site:nth[+]:kind"). */
void arm(const std::string &spec);

/** @copydoc Registry::disarm */
void disarm();

/**
 * Configure from the environment (idempotent): `TSP_FAULT=spec` arms
 * the spec in any binary linking the fault library. Runs automatically
 * at startup via a static initializer, so the variable needs no
 * per-binary wiring; a malformed spec aborts startup loudly rather
 * than silently not injecting.
 */
void configureFromEnv();

} // namespace tsp::fault

/**
 * A named fault-injection site. Near-zero cost while disarmed (one
 * relaxed atomic load); once armed, counts hits and injects the armed
 * fault at the configured ordinal. @p namestr must be a string literal
 * present in the fault catalog.
 */
#define TSP_FAULT_POINT(namestr)                                       \
    do {                                                               \
        if (::tsp::fault::armed()) {                                   \
            static ::tsp::fault::Site &tspFaultPointSite =             \
                ::tsp::fault::Registry::instance().site(namestr);      \
            tspFaultPointSite.hit();                                   \
        }                                                              \
    } while (0)

#endif // TSP_FAULT_FAULT_H
