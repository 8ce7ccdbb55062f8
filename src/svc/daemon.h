/**
 * @file
 * The resident experiment daemon: a bounded priority job queue in
 * front of the sweep engine, with admission control, per-request
 * deadlines and graceful drain. The daemon is an adapter: each
 * request's cells run through experiment::ParallelRunner (runStudy),
 * which deduplicates them, replays and journals the result store,
 * isolates each cell's faults and reports them in the `sweep.*`
 * metrics, exactly as for a sweep.
 *
 * Service guarantees:
 *  - *admission control / load shedding* — submit() either admits a
 *    request into the bounded queue or rejects it immediately with a
 *    reason (queue full, draining, malformed); a rejected caller
 *    never blocks and never holds daemon resources;
 *  - *deadlines* — a request carries a deadline measured from
 *    admission. Expired while still queued, it is answered Expired
 *    without running anything; overdue mid-run, the request's
 *    CancelToken trips itself at the runner's next poll, before a
 *    cell's preparation or simulation (the running cell is never
 *    interrupted, so no monitor thread is needed), and the remaining
 *    cells are answered as cancelled;
 *  - *resilience* — any exception a request raises (including
 *    injected faults at the `svc.dequeue` site and a PanicError from
 *    a cell) is caught at the request boundary and reported as a
 *    Failed response; the daemon itself never dies serving a
 *    request;
 *  - *graceful drain* — beginDrain() stops admission while queued and
 *    in-flight requests finish normally; drain() additionally blocks
 *    until the service is idle and joins the workers (the SIGTERM
 *    path of `tsp-run serve`);
 *  - *durable memoization* — with a store path configured, completed
 *    cells are appended to a crash-safe result store
 *    (experiment::Checkpoint, the file format a sweep's --checkpoint
 *    writes too) and duplicate cells (within or across process
 *    lifetimes) are disk cache hits, served bit-identically.
 */

#ifndef TSP_SVC_DAEMON_H
#define TSP_SVC_DAEMON_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/outcome.h"
#include "experiment/parallel.h"

namespace tsp::svc {

/** Final disposition of an admitted study request. */
enum class StudyStatus : uint8_t {
    Completed,         //!< every cell has an outcome (ok or failed)
    Expired,           //!< deadline passed while queued; nothing ran
    DeadlineExceeded,  //!< deadline hit mid-run; tail cells cancelled
    Failed,            //!< the request failed as a whole
};

/** Lowercase status name, e.g. "deadline-exceeded". */
std::string statusName(StudyStatus status);

/**
 * A point-in-time progress report for an admitted request. Streamed
 * to the request's onProgress hook as the study moves through the
 * queue and its cells, so a remote client can tell slow from dead.
 */
struct StudyProgress
{
    enum class Stage : uint8_t {
        Queued = 0,   //!< admitted; waiting for a worker
        Running = 1,  //!< a worker is executing cells
        Done = 2,     //!< the response is about to be delivered
    };

    Stage stage = Stage::Queued;
    uint32_t cellsDone = 0;    //!< cells with a disposition so far
    uint32_t totalCells = 0;   //!< jobs in the study
    double lastCellMillis = 0.0;  //!< wall time of the latest cell
};

/** Lowercase stage name, e.g. "running". */
std::string stageName(StudyProgress::Stage stage);

struct StudyResponse;

/** One study: a batch of simulation cells answered as a unit. */
struct StudyRequest
{
    std::vector<experiment::RunJob> jobs;

    /** Higher runs first; ties keep admission order. */
    int priority = 0;

    /** Answer-by budget from admission; 0 = the daemon's default. */
    std::chrono::milliseconds deadline{0};

    /**
     * Progress hook, invoked on daemon threads: once with Queued at
     * admission, after every cell disposition with Running (in
     * disposition order: store hits settle before any cell runs), and
     * with Done just before the response future is fulfilled. Exceptions
     * it throws are swallowed — a broken observer cannot fail the
     * study. Empty = no streaming.
     */
    std::function<void(const StudyProgress &)> onProgress;

    /**
     * Completion hook, invoked on the answering worker thread just
     * before the future is fulfilled (same containment as
     * onProgress). Lets a transport deliver the response without
     * parking a thread on the future.
     */
    std::function<void(const StudyResponse &)> onComplete;
};

/** The daemon's answer to an admitted request. */
struct StudyResponse
{
    StudyStatus status = StudyStatus::Failed;

    /** Failure detail when status == Failed. */
    std::string error;

    /** Per-job outcomes, in input order (jobs.size() entries). */
    std::vector<experiment::Outcome<experiment::RunResult>> outcomes;

    // Cell counts are of distinct cells: a job repeated within the
    // study counts once.
    size_t cacheHits = 0;        //!< cells served from the store
    size_t executed = 0;         //!< cells answered fresh (simulated
                                 //!< or sharing another's simulation)
    size_t cancelledCells = 0;   //!< cells cancelled by the deadline

    double queueMillis = 0.0;    //!< admission -> dequeue (or expiry)
    double totalMillis = 0.0;    //!< admission -> answer
};

/**
 * Answer @p jobs through experiment::ParallelRunner, the one cell
 * executor, serially (one cell at a time, no lockstep lanes) with
 * @p options' store, cancellation token and per-cell hook. The
 * counts come from the runner's SweepStats; the status is
 * DeadlineExceeded when the token skipped cells, else Completed. The
 * daemon and both local fallbacks (loadgen, `tsp-run client`) answer
 * through here.
 */
StudyResponse runStudy(experiment::Lab &lab,
                       const std::vector<experiment::RunJob> &jobs,
                       experiment::SweepOptions options = {});

/**
 * One cell's answer as text, the unit of the loadgen and
 * `tsp-run client` result digests: "<job> => t=<cycles> imb=<hex
 * bits> refs=<n> miss=<n>", or "<job> => FAILED(<error>)".
 */
std::string cellResultLine(
    const experiment::RunJob &job,
    const experiment::Outcome<experiment::RunResult> &outcome);

/** submit()'s answer: an admitted future or a rejection reason. */
struct SubmitResult
{
    /** Engaged iff the request was admitted. */
    std::optional<std::future<StudyResponse>> accepted;

    /** Human-readable shed reason; non-empty iff rejected. */
    std::string rejection;

    bool admitted() const { return accepted.has_value(); }
};

/**
 * The resident experiment service. Construction starts the worker
 * pool (optionally paused); destruction drains and joins.
 */
class Daemon
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Config
    {
        /** Workload scale the daemon's Lab (and store) is bound to. */
        uint32_t scale = 8;

        /** Worker threads executing requests (>= 1). */
        unsigned workers = 2;

        /** Bounded queue: admissions beyond this are shed (>= 1). */
        size_t queueCapacity = 64;

        /** Deadline for requests that do not carry one; 0 = none. */
        std::chrono::milliseconds defaultDeadline{0};

        /**
         * Persist results to this result store (a sweep checkpoint
         * file works too); empty = in-memory memoization only.
         */
        std::string storePath;

        /**
         * Start with the workers paused: requests are admitted and
         * queued but nothing executes until resume(). Lets tests fill
         * the bounded queue deterministically.
         */
        bool startPaused = false;

        /**
         * Test-only clock override (admission stamps, expiry checks,
         * the request token's deadline polls, latency accounting);
         * empty = steady_clock.
         */
        std::function<Clock::time_point()> clock;
    };

    /** Starts the workers; throws if the store cannot be opened. */
    explicit Daemon(const Config &config);

    /** Drains (finishing queued and in-flight work) and joins. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Admission control: enqueue @p request or reject it with a
     * reason. Never blocks on the queue. Rejections (queue full,
     * draining, empty study, injected `svc.admit` faults) bump the
     * svc.shed metric and the shed counter.
     */
    SubmitResult submit(StudyRequest request);

    /** Release workers started paused (idempotent). */
    void resume();

    /** Stop admitting; queued and in-flight requests still finish. */
    void beginDrain();

    /**
     * beginDrain(), then block until every admitted request is
     * answered and join the workers. Idempotent.
     */
    void drain();

    /** True once beginDrain()/drain() has been called. */
    bool draining() const;

    /** Requests admitted but not yet started. */
    size_t queueDepth() const;

    /** Service counters (monotonic over the daemon's lifetime). */
    struct Counters
    {
        uint64_t admitted = 0;   //!< requests accepted into the queue
        uint64_t shed = 0;       //!< submissions rejected
        uint64_t expired = 0;    //!< answered Expired from the queue
        uint64_t completed = 0;  //!< requests answered (any status)
    };
    Counters counters() const;

    /** The daemon's Lab (shared, thread-safe). */
    experiment::Lab &lab() { return lab_; }

    /** The result store, or nullptr when running without one. */
    experiment::Checkpoint *store() { return store_.get(); }

    const Config &config() const { return config_; }

  private:
    struct Pending
    {
        StudyRequest request;
        std::promise<StudyResponse> promise;
        Clock::time_point admitted;
        Clock::time_point expiry;  //!< time_point::max() = no deadline
    };

    Clock::time_point now() const;
    void workerLoop();
    StudyResponse execute(Pending &pending);

    Config config_;
    experiment::Lab lab_;
    std::unique_ptr<experiment::Checkpoint> store_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    /** Keyed (-priority, admission seq): begin() is next to run. */
    std::map<std::pair<int, uint64_t>, Pending> queue_;
    uint64_t nextSeq_ = 0;
    size_t inFlight_ = 0;
    bool paused_ = false;
    bool draining_ = false;
    bool stopping_ = false;
    Counters counters_;
    std::vector<std::thread> workers_;
};

} // namespace tsp::svc

#endif // TSP_SVC_DAEMON_H
