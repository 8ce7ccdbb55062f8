#include "svc/client.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metric_defs.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/retry.h"

namespace tsp::svc {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void
transport(const std::string &what)
{
    throw std::runtime_error(what);
}

/** RAII socket closer for the attempt path. */
struct Socket
{
    int fd = -1;
    ~Socket()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

int
remainingMillis(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/** Poll @p fd for @p events until @p deadline; throws on timeout. */
void
awaitReady(int fd, short events, Clock::time_point deadline,
           const std::string &what)
{
    for (;;) {
        int left = remainingMillis(deadline);
        if (left == 0)
            transport(what + " timed out");
        pollfd pfd{fd, events, 0};
        int ready = ::poll(&pfd, 1, left);
        if (ready > 0) {
            if (pfd.revents & (POLLERR | POLLNVAL | POLLHUP)) {
                // Readable HUP still delivers buffered bytes; only
                // bail when the event we wanted cannot happen.
                if (!(pfd.revents & events))
                    transport(what + " failed (connection error)");
            }
            return;
        }
        if (ready == 0)
            transport(what + " timed out");
        if (errno != EINTR)
            transport(what + " poll failed: " +
                      std::strerror(errno));
    }
}

} // namespace

Client::Result
Client::attemptOnce(const std::string &submitFrame,
                    const ProgressFn &onProgress)
{
    Socket sock;
    sock.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (sock.fd < 0)
        transport(std::string("cannot create socket: ") +
                  std::strerror(errno));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    util::fatalIf(::inet_pton(AF_INET, config_.host.c_str(),
                              &addr.sin_addr) != 1,
                  "client target is not an IPv4 dotted quad: " +
                      config_.host);

    int flags = ::fcntl(sock.fd, F_GETFL, 0);
    ::fcntl(sock.fd, F_SETFL, flags | O_NONBLOCK);
    int one = 1;
    ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof(one));

    // Bounded connect.
    Clock::time_point connectBy = Clock::now() + config_.connectTimeout;
    if (::connect(sock.fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS)
            transport(std::string("connect failed: ") +
                      std::strerror(errno));
        awaitReady(sock.fd, POLLOUT, connectBy, "connect");
        int err = 0;
        socklen_t errLen = sizeof(err);
        ::getsockopt(sock.fd, SOL_SOCKET, SO_ERROR, &err, &errLen);
        if (err != 0)
            transport(std::string("connect failed: ") +
                      std::strerror(err));
    }

    // Bounded send of the one submit frame.
    Clock::time_point sendBy = Clock::now() + config_.sendTimeout;
    size_t off = 0;
    while (off < submitFrame.size()) {
        ssize_t n = ::send(sock.fd, submitFrame.data() + off,
                           submitFrame.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            awaitReady(sock.fd, POLLOUT, sendBy, "send");
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        transport(std::string("send failed: ") +
                  std::strerror(errno));
    }

    // Receive until the definitive frame. Every received frame —
    // above all the Progress heartbeats — resets the silence budget,
    // distinguishing a slow server from a dead one.
    Result result;
    wire::Deframer deframer;
    Clock::time_point recvBy = Clock::now() + config_.recvTimeout;
    for (;;) {
        std::optional<wire::Frame> frame = deframer.next();
        if (!frame) {
            awaitReady(sock.fd, POLLIN, recvBy, "receive");
            char buf[64 * 1024];
            ssize_t n = ::recv(sock.fd, buf, sizeof(buf), 0);
            if (n == 0)
                transport("server closed the connection before "
                          "answering");
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
                    continue;
                transport(std::string("receive failed: ") +
                          std::strerror(errno));
            }
            deframer.feed(buf, static_cast<size_t>(n));
            recvBy = Clock::now() + config_.recvTimeout;
            continue;
        }

        if (frame->type == wire::FrameType::Progress) {
            if (onProgress) {
                try {
                    onProgress(wire::decodeProgress(frame->payload));
                } catch (const std::exception &) {
                    // Observer containment, same as the daemon's.
                }
            }
        } else if (frame->type == wire::FrameType::Response) {
            result.answered = true;
            result.response = wire::decodeResponse(frame->payload);
            return result;
        } else if (frame->type == wire::FrameType::Reject) {
            wire::Reject reject = wire::decodeReject(frame->payload);
            if (reject.code == wire::RejectCode::Shed ||
                reject.code == wire::RejectCode::Draining ||
                reject.code == wire::RejectCode::Internal) {
                // A healthy server refusing, or unable to answer this
                // deterministic study at all: definitive, no retry.
                result.rejected = true;
                result.rejection = reject.reason;
                return result;
            }
            // Capacity / Malformed: transient transport trouble from
            // this client's perspective — retry.
            transport("server rejected the connection: " +
                      wire::rejectCodeName(reject.code) + " (" +
                      reject.reason + ")");
        } else {
            transport("server sent a client-to-server frame type");
        }
    }
}

Client::Result
Client::submit(const StudyRequest &request,
               const ProgressFn &onProgress)
{
    // The reissued frame is encoded once: every attempt sends
    // byte-identical content, which is what makes the store-side
    // dedup exact.
    std::string submitFrame = wire::encodeFrame(
        wire::FrameType::Submit, wire::encodeSubmit(request));

    util::RetryPolicy policy = util::jitteredRetryPolicy(
        config_.identity + "/" +
        util::concat(std::hex, wire::requestDigest(request)));
    policy.maxAttempts = config_.retryBudget + 1;
    policy.initialBackoff = config_.retryBackoff;
    policy.maxBackoff = std::chrono::milliseconds(250);
    util::BackoffSchedule schedule(policy);

    Result result;
    for (unsigned attempt = 1;; ++attempt) {
        ++result.attempts;
        try {
            Result got = attemptOnce(submitFrame, onProgress);
            got.attempts = result.attempts;
            got.reconnects = result.reconnects;
            return got;
        } catch (const util::PanicError &) {
            throw;  // a bug, not a transport condition
        } catch (const std::exception &e) {
            if (attempt >= policy.maxAttempts) {
                util::warn(util::concat(
                    config_.identity, ": transport dead after ",
                    result.attempts, " attempts: ", e.what()));
                return result;
            }
            ++result.reconnects;
            obs::netReconnects().inc();
            std::chrono::milliseconds backoff = schedule.next();
            util::warn(util::concat(
                config_.identity, ": transport failure (attempt ",
                attempt, "/", policy.maxAttempts, "): ", e.what(),
                "; reconnecting in ", backoff.count(), " ms"));
            std::this_thread::sleep_for(backoff);
        }
    }
}

} // namespace tsp::svc
