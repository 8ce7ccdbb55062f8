#include "svc/server.h"

#include <cerrno>
#include <cstring>
#include <deque>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "util/error.h"
#include "util/logging.h"

namespace tsp::svc {

namespace {

using Clock = std::chrono::steady_clock;

void
setNonBlocking(int fd)
{
    // Run the syscall before fatalIf: building the message evaluates
    // strerror(errno), and C++ argument evaluation order is
    // unspecified — inlining the call would sometimes report the
    // errno from *before* it ran ("Success").
    int flags = ::fcntl(fd, F_GETFL, 0);
    bool failed =
        flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0;
    util::fatalIf(failed,
                  std::string("cannot make socket non-blocking: ") +
                      std::strerror(errno));
}

/**
 * Best-effort blocking send of a small frame (a reject) on a socket
 * we are about to close; failures are ignored — the peer learns from
 * the close either way.
 */
void
sendBestEffort(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

} // namespace

/**
 * The cross-thread seam: daemon workers post encoded frames here and
 * the poll thread drains them into the connection's output buffer.
 * Shared-ptr'd so a callback outliving its connection posts into a
 * harmlessly orphaned box instead of freed memory.
 */
struct Server::Mailbox
{
    std::mutex mutex;
    std::deque<std::string> frames;
    size_t inFlight = 0;  //!< submitted studies not yet answered
    bool open = true;     //!< false once the connection is gone

    /** Post a frame and report whether a wake is useful. */
    bool
    post(std::string frame)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!open)
            return false;
        frames.push_back(std::move(frame));
        return true;
    }
};

struct Server::Connection
{
    int fd = -1;
    std::shared_ptr<Mailbox> mailbox = std::make_shared<Mailbox>();
    wire::Deframer deframer;
    std::string out;  //!< encoded bytes awaiting the socket
    Clock::time_point lastActivity = Clock::now();
};

Server::Server(Daemon &daemon, const Config &config)
    : daemon_(daemon), config_(config)
{
    util::fatalIf(config_.maxConnections == 0,
                  "server needs maxConnections >= 1");

    int fds[2];
    bool pipeFailed = ::pipe(fds) != 0;
    util::fatalIf(pipeFailed, std::string("cannot create wake pipe: ") +
                                  std::strerror(errno));
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    util::fatalIf(listenFd_ < 0,
                  std::string("cannot create listen socket: ") +
                      std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    util::fatalIf(
        ::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
            1,
        "server bind address is not an IPv4 dotted quad: " +
            config_.host);
    bool bindFailed = ::bind(listenFd_,
                             reinterpret_cast<sockaddr *>(&addr),
                             sizeof(addr)) != 0;
    util::fatalIf(bindFailed,
                  util::concat("cannot bind ", config_.host, ":",
                               config_.port, ": ",
                               std::strerror(errno)));
    bool listenFailed = ::listen(listenFd_, 64) != 0;
    util::fatalIf(listenFailed, std::string("cannot listen: ") +
                                    std::strerror(errno));
    setNonBlocking(listenFd_);

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    util::fatalIf(::getsockname(listenFd_,
                                reinterpret_cast<sockaddr *>(&bound),
                                &boundLen) != 0,
                  "cannot read back the bound port");
    port_ = ntohs(bound.sin_port);

    thread_ = std::thread([this] { pollLoop(); });
}

Server::~Server()
{
    try {
        stop();
    } catch (...) {
        // A destructor must not throw; sockets are closed regardless.
    }
    // The wake pipe outlives the poll thread: stop() and the daemon's
    // progress hooks may still write to it after the loop has exited.
    ::close(wakeRead_);
    ::close(wakeWrite_);
}

void
Server::beginDrain()
{
    draining_.store(true, std::memory_order_release);
    wake();
}

void
Server::stop()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (stopped_.load(std::memory_order_acquire)) {
        if (thread_.joinable())
            thread_.join();
        return;
    }
    draining_.store(true, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    wake();
    if (thread_.joinable())
        thread_.join();
    stopped_.store(true, std::memory_order_release);
}

Server::Counters
Server::counters() const
{
    Counters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.rejected = rejected_.load(std::memory_order_relaxed);
    c.malformed = malformed_.load(std::memory_order_relaxed);
    c.reaped = reaped_.load(std::memory_order_relaxed);
    c.ioErrors = ioErrors_.load(std::memory_order_relaxed);
    c.framesIn = framesIn_.load(std::memory_order_relaxed);
    c.framesOut = framesOut_.load(std::memory_order_relaxed);
    return c;
}

void
Server::wake()
{
    char byte = 1;
    // Full pipe = a wake is already pending; that is all we need.
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &byte, 1);
}

void
Server::rejectAndClose(int fd, wire::RejectCode code,
                       const std::string &reason)
{
    // Counted before the client can see the Reject, so a client that
    // has been turned away always finds its rejection in counters().
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::netConnectionsRejected().inc();
    sendBestEffort(fd, wire::encodeFrame(wire::FrameType::Reject,
                                         wire::encodeReject(code,
                                                            reason)));
    ::close(fd);
}

void
Server::closeConnection(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    {
        std::lock_guard<std::mutex> lock(it->second->mailbox->mutex);
        it->second->mailbox->open = false;
    }
    ::close(fd);
    connections_.erase(it);
    obs::netConnectionsOpen().add(-1);
}

void
Server::acceptReady()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            util::warn(std::string("accept failed: ") +
                       std::strerror(errno));
            return;
        }
        try {
            TSP_FAULT_POINT("net.accept");
        } catch (const std::exception &e) {
            // Degradation: this client's connect is dropped (it will
            // retry); the listener itself survives.
            ::close(fd);
            rejected_.fetch_add(1, std::memory_order_relaxed);
            obs::netConnectionsRejected().inc();
            util::warn(std::string("accept fault contained: ") +
                       e.what());
            continue;
        }
        if (connections_.size() >= config_.maxConnections) {
            rejectAndClose(fd, wire::RejectCode::Capacity,
                           util::concat("connection limit reached (",
                                        config_.maxConnections,
                                        " open)"));
            continue;
        }
        if (draining_.load(std::memory_order_acquire)) {
            rejectAndClose(fd, wire::RejectCode::Draining,
                           "server is draining for shutdown");
            continue;
        }
        setNonBlocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        connections_[fd] = std::move(conn);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        obs::netConnectionsAccepted().inc();
        obs::netConnectionsOpen().add(1);
    }
}

void
Server::handleFrame(Connection &conn, const wire::Frame &frame)
{
    framesIn_.fetch_add(1, std::memory_order_relaxed);
    obs::netFramesIn().inc();
    TSP_FAULT_POINT("net.frame");
    util::fatalIf(frame.type != wire::FrameType::Submit,
                  "client sent a server-to-client frame type: " +
                      wire::frameTypeName(frame.type));

    StudyRequest request = wire::decodeSubmit(frame.payload);
    std::shared_ptr<Mailbox> mailbox = conn.mailbox;

    if (draining_.load(std::memory_order_acquire)) {
        mailbox->post(wire::encodeFrame(
            wire::FrameType::Reject,
            wire::encodeReject(wire::RejectCode::Draining,
                               "server is draining for shutdown")));
        return;
    }

    // The hooks run on daemon threads: encode there, post to the
    // mailbox, and poke the poll thread to flush. A dead mailbox
    // (connection already closed) swallows the frame harmlessly.
    request.onProgress = [this,
                          mailbox](const StudyProgress &progress) {
        if (mailbox->post(wire::encodeFrame(
                wire::FrameType::Progress,
                wire::encodeProgress(progress))))
            wake();
    };
    request.onComplete = [this,
                          mailbox](const StudyResponse &response) {
        bool posted = mailbox->post(wire::encodeFrame(
            wire::FrameType::Response,
            wire::encodeResponse(response)));
        {
            std::lock_guard<std::mutex> lock(mailbox->mutex);
            if (mailbox->inFlight > 0)
                --mailbox->inFlight;
        }
        if (posted)
            wake();
    };

    {
        std::lock_guard<std::mutex> lock(mailbox->mutex);
        ++mailbox->inFlight;
    }
    SubmitResult submitted = daemon_.submit(std::move(request));
    if (!submitted.admitted()) {
        {
            std::lock_guard<std::mutex> lock(mailbox->mutex);
            if (mailbox->inFlight > 0)
                --mailbox->inFlight;
        }
        mailbox->post(wire::encodeFrame(
            wire::FrameType::Reject,
            wire::encodeReject(wire::RejectCode::Shed,
                               submitted.rejection)));
    }
}

void
Server::flushMailbox(Connection &conn)
{
    std::deque<std::string> frames;
    {
        std::lock_guard<std::mutex> lock(conn.mailbox->mutex);
        frames.swap(conn.mailbox->frames);
    }
    for (std::string &frame : frames) {
        framesOut_.fetch_add(1, std::memory_order_relaxed);
        obs::netFramesOut().inc();
        conn.out += frame;
    }
}

bool
Server::writeOut(Connection &conn)
{
    TSP_FAULT_POINT("net.write");
    while (!conn.out.empty()) {
        ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            util::fatal(std::string("socket write failed: ") +
                        std::strerror(errno));
        }
        conn.out.erase(0, static_cast<size_t>(n));
        conn.lastActivity = Clock::now();
    }
    return true;
}

/** Returns false when the connection should be closed. */
bool
Server::serveConnection(Connection &conn, short revents)
{
    if (revents & (POLLERR | POLLNVAL))
        util::fatal("socket error condition");

    if (revents & (POLLIN | POLLHUP)) {
        TSP_FAULT_POINT("net.read");
        char buf[64 * 1024];
        for (;;) {
            ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                conn.lastActivity = Clock::now();
                conn.deframer.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n == 0)
                return false;  // peer closed; nothing left to deliver
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR)
                continue;
            util::fatal(std::string("socket read failed: ") +
                        std::strerror(errno));
        }
        while (std::optional<wire::Frame> frame = conn.deframer.next())
            handleFrame(conn, *frame);
    }

    flushMailbox(conn);
    return writeOut(conn);
}

void
Server::pollLoop()
{
    for (;;) {
        bool stopping = stopping_.load(std::memory_order_acquire);

        // Pull earned frames into output buffers before sleeping, so
        // a mailbox filled since the last pass is never forgotten.
        std::vector<int> broken;
        for (auto &[fd, conn] : connections_) {
            flushMailbox(*conn);
            if (!conn->out.empty()) {
                try {
                    if (!writeOut(*conn))
                        broken.push_back(fd);
                } catch (const std::exception &e) {
                    ioErrors_.fetch_add(1,
                                        std::memory_order_relaxed);
                    util::warn(
                        std::string(
                            "connection write fault contained: ") +
                        e.what());
                    broken.push_back(fd);
                }
            }
        }
        for (int fd : broken)
            closeConnection(fd);

        if (stopping) {
            // Drain phase: hold the sockets open until every earned
            // answer is flushed (bounded by drainTimeout), then bail.
            static thread_local Clock::time_point stopStart =
                Clock::now();
            bool busy = false;
            for (auto &[fd, conn] : connections_) {
                std::lock_guard<std::mutex> lock(
                    conn->mailbox->mutex);
                if (conn->mailbox->inFlight > 0 ||
                    !conn->mailbox->frames.empty() ||
                    !conn->out.empty())
                    busy = true;
            }
            if (!busy ||
                Clock::now() - stopStart >= config_.drainTimeout) {
                std::vector<int> fds;
                for (auto &[fd, conn] : connections_)
                    fds.push_back(fd);
                for (int fd : fds)
                    closeConnection(fd);
                ::close(listenFd_);
                return;
            }
        }

        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        fds.push_back({wakeRead_, POLLIN, 0});
        std::vector<int> order;
        for (auto &[fd, conn] : connections_) {
            short events = POLLIN;
            if (!conn->out.empty())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
            order.push_back(fd);
        }

        int ready = ::poll(fds.data(), fds.size(), 50);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            util::warn(std::string("server poll failed: ") +
                       std::strerror(errno));
            continue;
        }

        if (fds[1].revents & POLLIN) {
            char sink[256];
            while (::read(wakeRead_, sink, sizeof(sink)) > 0) {
            }
        }

        if (fds[0].revents & POLLIN) {
            try {
                acceptReady();
            } catch (const std::exception &e) {
                util::warn(std::string("accept path contained: ") +
                           e.what());
            }
        }

        Clock::time_point now = Clock::now();
        for (size_t i = 0; i < order.size(); ++i) {
            int fd = order[i];
            auto it = connections_.find(fd);
            if (it == connections_.end())
                continue;
            Connection &conn = *it->second;
            try {
                if (!serveConnection(conn, fds[i + 2].revents)) {
                    closeConnection(fd);
                    continue;
                }
            } catch (const util::FatalError &e) {
                // Malformed wire bytes: answer with a reason, then
                // drop the stream — it cannot be re-synchronized.
                malformed_.fetch_add(1, std::memory_order_relaxed);
                obs::netMalformedFrames().inc();
                sendBestEffort(
                    conn.fd,
                    wire::encodeFrame(
                        wire::FrameType::Reject,
                        wire::encodeReject(
                            wire::RejectCode::Malformed, e.what())));
                closeConnection(fd);
                continue;
            } catch (const std::exception &e) {
                // Per-connection containment: injected I/O faults and
                // transport errors cost this connection only.
                ioErrors_.fetch_add(1, std::memory_order_relaxed);
                util::warn(
                    std::string("connection fault contained: ") +
                    e.what());
                closeConnection(fd);
                continue;
            }

            // Deadline sweep: reap a stream stalled mid-frame (slow
            // loris) or idle with nothing owed for too long.
            bool waiting;
            {
                std::lock_guard<std::mutex> lock(conn.mailbox->mutex);
                waiting = conn.mailbox->inFlight > 0 ||
                          !conn.mailbox->frames.empty();
            }
            if (waiting || !conn.out.empty())
                continue;
            auto age = now - conn.lastActivity;
            bool stalled =
                conn.deframer.midFrame() && age >= config_.readTimeout;
            bool idle = !conn.deframer.midFrame() &&
                        age >= config_.idleTimeout;
            if (stalled || idle) {
                reaped_.fetch_add(1, std::memory_order_relaxed);
                obs::netConnectionsReaped().inc();
                util::warn(util::concat(
                    "reaping ", stalled ? "stalled" : "idle",
                    " connection after ",
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(age)
                        .count(),
                    " ms"));
                closeConnection(fd);
            }
        }
    }
}

} // namespace tsp::svc
