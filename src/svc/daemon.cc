#include "svc/daemon.h"

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/format.h"
#include "util/logging.h"

namespace tsp::svc {

using experiment::Outcome;
using experiment::RunJob;
using experiment::RunResult;

namespace {

/** Why a request's tail cells were cancelled. */
constexpr const char *kDeadlineReason =
    "request deadline exceeded before this cell ran";

double
millisBetween(Daemon::Clock::time_point from,
              Daemon::Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/**
 * Deliver a progress/completion callback with observer containment:
 * a hook that throws is the observer's bug and never fails the study.
 */
template <typename Fn, typename Arg>
void
notify(const Fn &fn, const Arg &arg)
{
    if (!fn)
        return;
    try {
        fn(arg);
    } catch (...) {
        // Swallowed by design; the transport owns its own errors.
    }
}

} // namespace

std::string
statusName(StudyStatus status)
{
    switch (status) {
    case StudyStatus::Completed:
        return "completed";
    case StudyStatus::Expired:
        return "expired";
    case StudyStatus::DeadlineExceeded:
        return "deadline-exceeded";
    case StudyStatus::Failed:
        return "failed";
    }
    util::panic("unknown study status");
}

std::string
stageName(StudyProgress::Stage stage)
{
    switch (stage) {
    case StudyProgress::Stage::Queued:
        return "queued";
    case StudyProgress::Stage::Running:
        return "running";
    case StudyProgress::Stage::Done:
        return "done";
    }
    util::panic("unknown study progress stage");
}

Daemon::Daemon(const Config &config) : config_(config), lab_(config.scale)
{
    util::fatalIf(config_.queueCapacity == 0,
                  "daemon queue capacity must be >= 1");
    if (config_.workers == 0)
        config_.workers = 1;
    paused_ = config_.startPaused;
    if (!config_.storePath.empty())
        store_ = std::make_unique<experiment::Checkpoint>(
            config_.storePath, config_.scale);
    workers_.reserve(config_.workers);
    for (unsigned i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Daemon::~Daemon()
{
    try {
        drain();
    } catch (...) {
        // A destructor must not throw; workers are joined regardless.
    }
}

Daemon::Clock::time_point
Daemon::now() const
{
    return config_.clock ? config_.clock() : Clock::now();
}

SubmitResult
Daemon::submit(StudyRequest request)
{
    Clock::time_point arrival = now();
    std::function<void(const StudyProgress &)> onProgress =
        request.onProgress;
    uint32_t totalCells = static_cast<uint32_t>(request.jobs.size());

    std::unique_lock<std::mutex> lock(mutex_);

    auto shed = [&](std::string reason) {
        ++counters_.shed;
        obs::svcShed().inc();
        SubmitResult result;
        result.rejection = std::move(reason);
        return result;
    };

    if (request.jobs.empty())
        return shed("rejected: empty study (no jobs)");
    if (draining_ || stopping_)
        return shed("rejected: draining (not admitting new requests)");
    if (queue_.size() >= config_.queueCapacity)
        return shed(util::concat("rejected: queue full (",
                                 config_.queueCapacity, " queued)"));
    try {
        TSP_FAULT_POINT("svc.admit");
    } catch (const util::PanicError &) {
        throw;  // a bug, not load: never masked as a shed
    } catch (const std::exception &e) {
        return shed(std::string("rejected: ") + e.what());
    }

    std::chrono::milliseconds deadline =
        request.deadline.count() > 0 ? request.deadline
                                     : config_.defaultDeadline;
    Pending pending;
    pending.request = std::move(request);
    pending.admitted = arrival;
    pending.expiry = deadline.count() > 0
                         ? arrival + deadline
                         : Clock::time_point::max();

    std::future<StudyResponse> accepted = pending.promise.get_future();

    // The Queued heartbeat fires outside the daemon lock (a slow
    // observer — a congested socket, say — cannot stall admission)
    // and BEFORE the request becomes visible to workers, so
    // observers see Queued strictly before any Running even when the
    // study completes from cache in microseconds.
    lock.unlock();
    StudyProgress queued;
    queued.stage = StudyProgress::Stage::Queued;
    queued.totalCells = totalCells;
    notify(onProgress, queued);

    lock.lock();
    // Drain may have begun while the heartbeat ran; re-check rather
    // than enqueue work no worker will answer. The stray Queued
    // heartbeat before a shed is harmless — rejection is definitive
    // whenever it arrives.
    if (draining_ || stopping_)
        return shed("rejected: draining (not admitting new requests)");
    queue_.emplace(
        std::make_pair(-pending.request.priority, nextSeq_++),
        std::move(pending));
    ++counters_.admitted;
    obs::svcAdmitted().inc();
    obs::svcQueueDepth().add(1);
    workCv_.notify_one();
    SubmitResult result;
    result.accepted = std::move(accepted);
    return result;
}

void
Daemon::resume()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    workCv_.notify_all();
}

void
Daemon::beginDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
}

void
Daemon::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    paused_ = false;  // a paused daemon still owes queued answers
    workCv_.notify_all();
    idleCv_.wait(lock,
                 [&] { return queue_.empty() && inFlight_ == 0; });
    stopping_ = true;
    workCv_.notify_all();
    lock.unlock();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

bool
Daemon::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_ || stopping_;
}

size_t
Daemon::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

Daemon::Counters
Daemon::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
Daemon::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [&] {
            return stopping_ || (!queue_.empty() && !paused_);
        });
        if (stopping_ && (queue_.empty() || paused_))
            return;
        if (queue_.empty() || paused_)
            continue;

        auto node = queue_.extract(queue_.begin());
        Pending pending = std::move(node.mapped());
        obs::svcQueueDepth().add(-1);
        ++inFlight_;
        lock.unlock();

        StudyResponse response;
        try {
            TSP_FAULT_POINT("svc.dequeue");
            response = execute(pending);
        } catch (const std::exception &e) {
            // The request boundary: *nothing* a request raises —
            // injected faults, engine errors, even a PanicError from
            // a library bug — takes the daemon down. The request is
            // answered Failed (loudly) and the worker keeps serving.
            response = StudyResponse{};
            response.status = StudyStatus::Failed;
            response.error = e.what();
            response.outcomes.assign(pending.request.jobs.size(),
                                     Outcome<RunResult>{});
            util::warn(util::concat(
                "daemon request failed (service continues): ",
                e.what()));
        }
        Clock::time_point answered = now();
        response.totalMillis =
            millisBetween(pending.admitted, answered);
        obs::svcRequestMillis().observe(response.totalMillis);
        obs::svcRequestsCompleted().inc();

        // Done heartbeat + completion hook fire before the future is
        // fulfilled, covering the exception path above too (the
        // transport sees Failed responses the same way).
        StudyProgress done;
        done.stage = StudyProgress::Stage::Done;
        done.totalCells =
            static_cast<uint32_t>(pending.request.jobs.size());
        done.cellsDone = done.totalCells;
        notify(pending.request.onProgress, done);
        notify(pending.request.onComplete, response);
        pending.promise.set_value(std::move(response));

        lock.lock();
        ++counters_.completed;
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

StudyResponse
Daemon::execute(Pending &pending)
{
    Clock::time_point start = now();
    const double queueMillis = millisBetween(pending.admitted, start);

    if (start >= pending.expiry) {
        // The deadline passed while the request sat in the queue:
        // answer immediately instead of burning a worker on an answer
        // nobody is waiting for.
        obs::svcExpired().inc();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++counters_.expired;
        }
        StudyResponse response;
        response.queueMillis = queueMillis;
        response.status = StudyStatus::Expired;
        response.error = "deadline expired while queued";
        response.outcomes.assign(
            pending.request.jobs.size(),
            Outcome<RunResult>::failure(
                "request expired in queue before any cell ran"));
        return response;
    }

    // Per-request deadline enforcement: the token trips itself once
    // the daemon's clock reaches the expiry, and the runner polls it
    // before every cell's preparation and every simulation, so every
    // cell not yet started is answered as cancelled. The runner never
    // interrupts a running cell.
    //
    // onCell is the running heartbeat after every cell disposition
    // (run, hit, failure or cancellation), piggybacking the cell's
    // wall time so remote clients see per-cell pacing.
    const util::CancelToken cancel(
        pending.expiry, [this] { return now(); }, kDeadlineReason);
    StudyProgress running;
    running.stage = StudyProgress::Stage::Running;
    running.totalCells =
        static_cast<uint32_t>(pending.request.jobs.size());
    StudyResponse response = runStudy(
        lab_, pending.request.jobs,
        {.checkpoint = store_.get(),
         .cancel = &cancel,
         .onCell = [&](size_t, const Outcome<RunResult> &,
                       double wallMs) {
             ++running.cellsDone;
             running.lastCellMillis = wallMs;
             notify(pending.request.onProgress, running);
         }});
    response.queueMillis = queueMillis;
    return response;
}

StudyResponse
runStudy(experiment::Lab &lab, const std::vector<RunJob> &jobs,
         experiment::SweepOptions options)
{
    // One cell at a time and no lockstep lanes: Config::workers stays
    // the service's one concurrency knob, and a deadline cancels every
    // cell after the one running when it passes.
    experiment::SweepStats stats;
    options.jobs = 1;
    options.batch = 1;
    options.statsOut = &stats;
    StudyResponse response;
    response.outcomes =
        experiment::ParallelRunner(lab, options).runAllOutcomes(jobs);
    response.cacheHits = stats.fromCheckpoint;
    response.executed = stats.executed - stats.failed;
    response.cancelledCells = stats.cancelled;
    response.status = stats.cancelled > 0 ? StudyStatus::DeadlineExceeded
                                          : StudyStatus::Completed;
    return response;
}

std::string
cellResultLine(const RunJob &job, const Outcome<RunResult> &outcome)
{
    std::string line = experiment::describeJob(job) + " => ";
    if (!outcome.ok())
        return line + "FAILED(" + outcome.error() + ")";
    const RunResult &result = outcome.value();
    return util::concat(line, "t=", result.executionTime,
                        " imb=", util::hexBits(result.loadImbalance),
                        " refs=", result.stats.totalMemRefs(),
                        " miss=", result.missSummary().totalMisses());
}

} // namespace tsp::svc
