#include "fault/fault.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "obs/metric_defs.h"
#include "util/error.h"

namespace tsp::fault {

namespace detail {
std::atomic<bool> faultArmed{false};
} // namespace detail

namespace {

/** How long a Delay-kind injection stalls its thread. */
constexpr std::chrono::milliseconds kDelay{2};

} // namespace

const std::vector<Kind> &
allKinds()
{
    static const std::vector<Kind> kinds{Kind::Error, Kind::Fatal,
                                         Kind::Delay};
    return kinds;
}

std::string
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Error:
        return "error";
    case Kind::Fatal:
        return "fatal";
    case Kind::Delay:
        return "delay";
    }
    util::panic("unknown fault kind");
}

Kind
kindFromName(const std::string &name)
{
    for (Kind kind : allKinds()) {
        if (kindName(kind) == name)
            return kind;
    }
    util::fatal("unknown fault kind '" + name +
                "' (expected error, fatal or delay)");
}

std::string
FaultSpec::describe() const
{
    return site + ":" + std::to_string(nth) +
           (persistent ? "+" : "") + ":" + kindName(kind);
}

FaultSpec
parseFaultSpec(const std::string &spec)
{
    size_t firstColon = spec.find(':');
    size_t lastColon = spec.rfind(':');
    util::fatalIf(firstColon == std::string::npos ||
                      lastColon == firstColon,
                  "fault spec '" + spec +
                      "' is not of the form site:nth[+]:kind");

    FaultSpec parsed;
    parsed.site = spec.substr(0, firstColon);
    std::string nth =
        spec.substr(firstColon + 1, lastColon - firstColon - 1);
    parsed.kind = kindFromName(spec.substr(lastColon + 1));

    if (!nth.empty() && nth.back() == '+') {
        parsed.persistent = true;
        nth.pop_back();
    }
    util::fatalIf(nth.empty() ||
                      nth.find_first_not_of("0123456789") !=
                          std::string::npos,
                  "fault spec '" + spec +
                      "' has a non-numeric hit ordinal");
    try {
        parsed.nth = std::stoull(nth);
    } catch (const std::exception &) {
        util::fatal("fault spec '" + spec +
                    "' has an unparseable hit ordinal");
    }
    util::fatalIf(parsed.nth == 0,
                  "fault spec '" + spec +
                      "' must use a 1-based hit ordinal");
    util::fatalIf(!Registry::isCataloged(parsed.site),
                  "fault spec '" + spec + "' names unknown site '" +
                      parsed.site +
                      "' (see docs/robustness.md for the catalog)");
    return parsed;
}

// ------------------------------------------------------------------ Site

void
Site::hit()
{
    hits_.fetch_add(1, std::memory_order_relaxed);
    // Acquire pairs with applySpec's release store: observing
    // siteArmed_ == true makes the plain armNth_/armPersistent_/
    // armKind_ writes that preceded it visible to this thread.
    if (!siteArmed_.load(std::memory_order_acquire))
        return;
    // The ordinal is a single atomic increment, so even when many
    // threads race through the site, exactly one of them observes the
    // armed ordinal (and with "nth+", every hit from it on fires).
    uint64_t ordinal = armHits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ordinal < armNth_ || (!armPersistent_ && ordinal > armNth_))
        return;

    triggered_.fetch_add(1, std::memory_order_relaxed);
    obs::faultInjected().inc();
    if (armKind_ == Kind::Delay) {
        std::this_thread::sleep_for(kDelay);
        return;
    }
    throwInjected(armKind_, ordinal);
}

void
Site::throwInjected(Kind kind, uint64_t ordinal) const
{
    std::string what = "injected fault at " + info_.name + " (hit " +
                       std::to_string(ordinal) + ")";
    if (kind == Kind::Fatal)
        util::fatal(what);
    throw std::runtime_error(what);
}

// -------------------------------------------------------------- Registry

const std::vector<SiteInfo> &
Registry::catalog()
{
    // The compiled-in site catalog. Every TSP_FAULT_POINT in the tree
    // must name a row here (novel names panic at the use site), and
    // docs/robustness.md's table must mirror it (fault_doc_test).
    static const std::vector<SiteInfo> sites{
        {"trace.read", "trace::loadFile",
         "opening a trace file for reading fails"},
        {"trace.decode", "trace::loadBinary",
         "a trace payload fails mid-decode (torn or corrupt stream)"},
        {"trace.write", "trace::saveFile",
         "writing the trace temp file fails before publish"},
        {"store.append", "experiment::Checkpoint",
         "appending a record to the result store file fails"},
        {"store.load", "experiment::Checkpoint",
         "opening or replaying the on-disk result store fails"},
        {"store.lock", "experiment::Checkpoint",
         "taking the result store's file lock fails"},
        {"lab.memo_init", "experiment::Lab",
         "materializing an application's traces fails"},
        {"pool.dispatch", "util::parallelFor",
         "starting a fork-join worker thread fails"},
        {"report.write", "experiment::CsvWriter",
         "appending a row to a report CSV fails"},
        {"sim.step", "sim::Machine",
         "a simulated memory access fails mid-run"},
        {"trace.chunk_refill", "trace::SharedTraceStream",
         "pulling the next trace chunk from a streaming producer "
         "fails"},
        {"batch.lane", "sim::BatchMachine",
         "constructing one lane of a lockstep batch fails"},
        {"svc.admit", "svc::Daemon",
         "admitting a request to the bounded job queue fails"},
        {"svc.dequeue", "svc::Daemon",
         "a worker dequeuing the next request fails"},
        {"net.accept", "svc::Server",
         "accepting a client connection fails"},
        {"net.read", "svc::Server",
         "reading request bytes from a client socket fails"},
        {"net.write", "svc::Server",
         "writing response bytes to a client socket fails"},
        {"net.frame", "svc::Server",
         "decoding a received wire frame fails"},
    };
    return sites;
}

bool
Registry::isCataloged(const std::string &name)
{
    for (const SiteInfo &info : catalog()) {
        if (info.name == name)
            return true;
    }
    return false;
}

Registry &
Registry::instance()
{
    // Immortal, like the obs registry: sites referenced from
    // function-local statics must outlive exit-time destructors.
    static Registry *registry = new Registry();
    return *registry;
}

Site &
Registry::site(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(name);
    if (it != sites_.end())
        return *it->second;

    const SiteInfo *info = nullptr;
    for (const SiteInfo &candidate : catalog()) {
        if (candidate.name == name) {
            info = &candidate;
            break;
        }
    }
    util::panicIf(info == nullptr,
                  "fault site '" + name +
                      "' is not in the catalog (add it to "
                      "fault::Registry::catalog() and "
                      "docs/robustness.md)");

    auto &slot = sites_[name];
    slot.reset(new Site(*info));
    order_.push_back(name);
    obs::faultSitesRegistered().set(
        static_cast<int64_t>(order_.size()));
    if (armedSpec_ && armedSpec_->site == name)
        applySpec();
    return *slot;
}

std::vector<SiteInfo>
Registry::registered() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SiteInfo> out;
    out.reserve(order_.size());
    for (const std::string &name : order_)
        out.push_back(sites_.at(name)->info());
    return out;
}

std::vector<Registry::SiteCounters>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SiteCounters> out;
    out.reserve(order_.size());
    for (const std::string &name : order_) {
        const Site &site = *sites_.at(name);
        out.push_back({name, site.hits(), site.triggered()});
    }
    return out;
}

void
Registry::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, site] : sites_) {
        site->hits_.store(0, std::memory_order_relaxed);
        site->triggered_.store(0, std::memory_order_relaxed);
    }
}

void
Registry::applySpec()
{
    for (auto &[name, site] : sites_) {
        bool mine = armedSpec_ && armedSpec_->site == name;
        if (mine) {
            site->armNth_ = armedSpec_->nth;
            site->armPersistent_ = armedSpec_->persistent;
            site->armKind_ = armedSpec_->kind;
            site->armHits_.store(0, std::memory_order_relaxed);
        }
        // Release publishes the plain armed-field writes above to any
        // thread whose hit() acquire-loads siteArmed_ == true. (The
        // registry mutex alone gives no happens-before with the
        // lock-free hit path.)
        site->siteArmed_.store(mine, std::memory_order_release);
    }
}

void
Registry::arm(const FaultSpec &spec)
{
    util::fatalIf(spec.nth == 0,
                  "fault spec needs a 1-based hit ordinal");
    util::fatalIf(!isCataloged(spec.site),
                  "cannot arm unknown fault site '" + spec.site + "'");
    std::lock_guard<std::mutex> lock(mutex_);
    armedSpec_ = spec;
    applySpec();
    // Release-ordered after applySpec's per-site stores; the relaxed
    // armed() fast-path load is still safe because hit() re-checks
    // siteArmed_ with acquire before touching the armed fields.
    detail::faultArmed.store(true, std::memory_order_release);
}

void
Registry::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    detail::faultArmed.store(false, std::memory_order_release);
    armedSpec_.reset();
    applySpec();
}

std::optional<FaultSpec>
Registry::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return armedSpec_;
}

uint64_t
Registry::injectedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto &[name, site] : sites_)
        total += site->triggered();
    return total;
}

void
arm(const std::string &spec)
{
    Registry::instance().arm(parseFaultSpec(spec));
}

void
disarm()
{
    Registry::instance().disarm();
}

void
configureFromEnv()
{
    static bool configured = false;
    if (configured)
        return;
    configured = true;
    if (const char *spec = std::getenv("TSP_FAULT")) {
        if (*spec)
            arm(std::string(spec));
    }
}

namespace {

// TSP_FAULT works in every binary linking the fault library without
// per-main wiring, mirroring TSP_METRICS. A malformed spec throws out
// of static init: better to die loudly than to run a chaos sweep that
// silently injects nothing.
[[maybe_unused]] const bool envConfiguredAtStartup =
    (configureFromEnv(), true);

} // namespace

} // namespace tsp::fault
