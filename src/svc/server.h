/**
 * @file
 * The network front of the experiment daemon: a poll-based TCP
 * listener speaking the `svc::wire` protocol in front of
 * `Daemon::submit`. One thread owns every socket; daemon worker
 * threads deliver progress and responses through per-connection
 * mailboxes and a self-pipe wakeup, so no socket is ever touched from
 * two threads.
 *
 * Robustness posture (each guarantee has a chaos-matrix fault site or
 * a dedicated test):
 *  - *admission control* — connections beyond maxConnections are
 *    answered with a `Reject(Capacity)` frame and closed; while
 *    draining, new submits get `Reject(Draining)`;
 *  - *slow-loris / idle reaping* — a connection stalled mid-frame
 *    past readTimeout, or idle with no in-flight study past
 *    idleTimeout, is reaped;
 *  - *malformed input* — a stream the Deframer rejects (bad magic,
 *    oversized declared length, CRC mismatch) draws a best-effort
 *    `Reject(Malformed)` and the connection is dropped — the server
 *    never crashes or over-allocates on attacker-shaped bytes;
 *  - *exception containment* — a failure while serving one connection
 *    (including injected `net.accept` / `net.read` / `net.write` /
 *    `net.frame` faults) closes that connection only; the listener
 *    and every other connection keep running;
 *  - *graceful drain* — beginDrain() stops admitting work, stop()
 *    flushes already-earned answers (bounded by drainTimeout) before
 *    closing sockets: the `tsp-run serve` SIGTERM path.
 */

#ifndef TSP_SVC_SERVER_H
#define TSP_SVC_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "svc/daemon.h"
#include "svc/wire.h"

namespace tsp::svc {

/**
 * TCP listener serving wire-framed study requests against a Daemon.
 * Construction binds, listens and starts the poll thread; destruction
 * stops it. The Daemon must outlive the Server.
 */
class Server
{
  public:
    struct Config
    {
        /** Bind address (IPv4 dotted quad). */
        std::string host = "127.0.0.1";

        /** Listen port; 0 = ephemeral (read it back via port()). */
        uint16_t port = 0;

        /** Open connections beyond this are rejected at accept. */
        size_t maxConnections = 64;

        /** Budget for a connection stalled in the middle of a frame. */
        std::chrono::milliseconds readTimeout{5000};

        /** Budget for an idle connection with nothing in flight. */
        std::chrono::milliseconds idleTimeout{30000};

        /** stop()'s budget for flushing earned answers. */
        std::chrono::milliseconds drainTimeout{5000};
    };

    /** Service counters (monotonic over the server's lifetime). */
    struct Counters
    {
        uint64_t accepted = 0;   //!< connections admitted
        uint64_t rejected = 0;   //!< connections refused at accept
        uint64_t malformed = 0;  //!< streams dropped as malformed
        uint64_t reaped = 0;     //!< connections reaped on timeout
        uint64_t ioErrors = 0;   //!< connections dropped on I/O faults
        uint64_t framesIn = 0;   //!< frames received
        uint64_t framesOut = 0;  //!< frames sent
    };

    /** Bind + listen + start the poll thread; throws FatalError. */
    Server(Daemon &daemon, const Config &config);

    /** stop()s (flushing within drainTimeout) and joins. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (the ephemeral one when config.port was 0). */
    uint16_t port() const { return port_; }

    /** Refuse new submits with Reject(Draining); answers still flow. */
    void beginDrain();

    /**
     * beginDrain(), flush every already-earned answer (bounded by
     * drainTimeout), close all sockets and join. Idempotent.
     */
    void stop();

    Counters counters() const;

  private:
    struct Mailbox;
    struct Connection;

    void pollLoop();
    void acceptReady();
    bool serveConnection(Connection &conn, short revents);
    void handleFrame(Connection &conn, const wire::Frame &frame);
    void flushMailbox(Connection &conn);
    bool writeOut(Connection &conn);
    void rejectAndClose(int fd, wire::RejectCode code,
                        const std::string &reason);
    void closeConnection(int fd);
    void wake();

    Daemon &daemon_;
    Config config_;
    uint16_t port_ = 0;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;

    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> malformed_{0};
    std::atomic<uint64_t> reaped_{0};
    std::atomic<uint64_t> ioErrors_{0};
    std::atomic<uint64_t> framesIn_{0};
    std::atomic<uint64_t> framesOut_{0};

    /** Owned by the poll thread only. */
    std::map<int, std::unique_ptr<Connection>> connections_;

    std::thread thread_;
    std::mutex stopMutex_;  //!< serializes stop() callers
};

} // namespace tsp::svc

#endif // TSP_SVC_SERVER_H
