/**
 * @file
 * The networked experiment service end to end (svc::Server +
 * svc::Client over svc::wire): socket answers bit-identical to direct
 * Daemon::submit, ordered progress streaming, capacity shedding at
 * accept, slow-loris and idle reaping, malformed-stream containment,
 * drain semantics, an over-cap response answered by a reject,
 * loadgen digest parity between socket and
 * in-process modes (including under injected net.read faults), and
 * graceful degradation to local runs when the transport stays dead.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace tsp::svc {
namespace {

using experiment::MachinePoint;
using experiment::RunJob;
using experiment::RunResult;
using namespace std::chrono_literals;

constexpr uint32_t kScale = 64;

/** RAII: leave every test with the fault framework disarmed. */
class DisarmedScope
{
  public:
    DisarmedScope() { fault::disarm(); }
    ~DisarmedScope() { fault::disarm(); }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

RunJob
jobAt(placement::Algorithm alg, uint32_t processors = 4,
      bool infinite = false)
{
    return {workload::AppId::Water, alg,
            MachinePoint{processors, 4}, infinite};
}

StudyRequest
study(std::vector<RunJob> jobs)
{
    StudyRequest request;
    request.jobs = std::move(jobs);
    return request;
}

Daemon::Config
daemonConfig()
{
    Daemon::Config config;
    config.scale = kScale;
    config.workers = 1;
    config.queueCapacity = 8;
    return config;
}

Client::Config
clientFor(const Server &server)
{
    Client::Config config;
    config.port = server.port();
    config.retryBudget = 3;
    config.retryBackoff = 1ms;
    config.identity = "svc.test";
    return config;
}

/** Canonical bytes of a result, for bit-identity assertions. */
std::string
bytesOf(const RunResult &result)
{
    experiment::codec::ByteWriter w;
    experiment::codec::writeRunResult(w, result);
    return w.bytes();
}

/** A raw client socket, for shaping hostile byte streams. */
struct RawConn
{
    int fd = -1;

    explicit RawConn(uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    sendAll(const std::string &bytes) const
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<size_t>(n);
        }
    }

    /** Read until EOF (or ~2s of silence); returns what arrived. */
    std::string
    drain() const
    {
        std::string got;
        timeval tv{2, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        char buf[4096];
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            got.append(buf, static_cast<size_t>(n));
        }
        return got;
    }
};

// ------------------------------------------------------- roundtrips

TEST(SvcServer, SocketAnswerIsBitIdenticalToDirectSubmit)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server server(daemon, {});
    Client client(clientFor(server));

    std::vector<RunJob> jobs = {jobAt(placement::Algorithm::LoadBal),
                                jobAt(placement::Algorithm::ShareRefs)};
    Client::Result got = client.submit(study(jobs));
    ASSERT_TRUE(got.answered) << got.rejection;
    EXPECT_EQ(got.response.status, StudyStatus::Completed);
    ASSERT_EQ(got.response.outcomes.size(), jobs.size());

    // The same study through the in-process door must agree bit for
    // bit (no store is attached, so both simulate fresh).
    SubmitResult direct = daemon.submit(study(jobs));
    ASSERT_TRUE(direct.admitted());
    StudyResponse expected = direct.accepted->get();
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(got.response.outcomes[i].ok());
        ASSERT_TRUE(expected.outcomes[i].ok());
        EXPECT_EQ(bytesOf(got.response.outcomes[i].value()),
                  bytesOf(expected.outcomes[i].value()));
    }
    server.stop();
    daemon.drain();
}

TEST(SvcServer, ProgressStreamsInOrderQueuedRunningDone)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server server(daemon, {});
    Client client(clientFor(server));

    std::vector<RunJob> jobs = {jobAt(placement::Algorithm::LoadBal),
                                jobAt(placement::Algorithm::ShareRefs),
                                jobAt(placement::Algorithm::LoadBal, 8)};
    std::vector<StudyProgress> seen;
    Client::Result got = client.submit(
        study(jobs), [&seen](const StudyProgress &progress) {
            seen.push_back(progress);
        });
    ASSERT_TRUE(got.answered) << got.rejection;

    // Queued, then Running after each of the three cells, then Done —
    // in that exact order, even for cache-hit-fast studies.
    ASSERT_EQ(seen.size(), jobs.size() + 2);
    EXPECT_EQ(seen.front().stage, StudyProgress::Stage::Queued);
    EXPECT_EQ(seen.front().cellsDone, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(seen[1 + i].stage, StudyProgress::Stage::Running);
        EXPECT_EQ(seen[1 + i].cellsDone, i + 1);
        EXPECT_EQ(seen[1 + i].totalCells, jobs.size());
    }
    EXPECT_EQ(seen.back().stage, StudyProgress::Stage::Done);
    EXPECT_EQ(seen.back().cellsDone, jobs.size());
    server.stop();
    daemon.drain();
}

// --------------------------------------------- admission + reaping

TEST(SvcServer, CapacityShedsConnectionsBeyondTheLimit)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server::Config serverConfig;
    serverConfig.maxConnections = 1;
    Server server(daemon, serverConfig);

    RawConn occupant(server.port());
    ASSERT_GE(occupant.fd, 0);
    // Let the poll thread accept the occupant before piling on.
    std::this_thread::sleep_for(50ms);

    Client::Config clientConfig = clientFor(server);
    clientConfig.retryBudget = 1;
    Client client(clientConfig);
    Client::Result got =
        client.submit(study({jobAt(placement::Algorithm::LoadBal)}));
    // Reject(Capacity) is transport-shaped (retry later) — with the
    // slot still occupied the client comes back dead, not answered.
    EXPECT_FALSE(got.answered);
    EXPECT_FALSE(got.rejected);
    EXPECT_GE(got.attempts, 2u);
    EXPECT_GE(server.counters().rejected, 2u);
    server.stop();
    daemon.drain();
}

TEST(SvcServer, IdleAndSlowLorisConnectionsAreReaped)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server::Config serverConfig;
    serverConfig.readTimeout = 100ms;
    serverConfig.idleTimeout = 200ms;
    Server server(daemon, serverConfig);

    // Idle: connected, never sends a byte.
    RawConn idle(server.port());
    ASSERT_GE(idle.fd, 0);
    // Slow loris: dribbles half a header, then stalls mid-frame.
    RawConn loris(server.port());
    ASSERT_GE(loris.fd, 0);
    std::string frame = wire::encodeFrame(
        wire::FrameType::Submit,
        wire::encodeSubmit(
            study({jobAt(placement::Algorithm::LoadBal)})));
    loris.sendAll(frame.substr(0, wire::kHeaderBytes / 2));

    // Both must be reaped (EOF on our side) within the budgets.
    EXPECT_EQ(loris.drain(), "");
    EXPECT_EQ(idle.drain(), "");
    EXPECT_GE(server.counters().reaped, 2u);

    // The listener survived the reaping: a real request still lands.
    Client client(clientFor(server));
    Client::Result got =
        client.submit(study({jobAt(placement::Algorithm::LoadBal)}));
    EXPECT_TRUE(got.answered) << got.rejection;
    server.stop();
    daemon.drain();
}

TEST(SvcServer, MalformedStreamDrawsRejectAndOnlyKillsThatConn)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server server(daemon, {});

    RawConn hostile(server.port());
    ASSERT_GE(hostile.fd, 0);
    hostile.sendAll("this is definitely not a TSPW frame");
    std::string answer = hostile.drain();  // until server closes

    // Best-effort Reject(Malformed) frame, then EOF.
    wire::Deframer deframer;
    deframer.feed(answer.data(), answer.size());
    std::optional<wire::Frame> frame = deframer.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, wire::FrameType::Reject);
    EXPECT_EQ(wire::decodeReject(frame->payload).code,
              wire::RejectCode::Malformed);
    EXPECT_GE(server.counters().malformed, 1u);

    // Containment: the server keeps answering everyone else.
    Client client(clientFor(server));
    Client::Result got =
        client.submit(study({jobAt(placement::Algorithm::LoadBal)}));
    EXPECT_TRUE(got.answered) << got.rejection;
    server.stop();
    daemon.drain();
}

TEST(SvcServer, DrainingRejectsNewSubmitsDefinitively)
{
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server server(daemon, {});
    server.beginDrain();

    Client client(clientFor(server));
    Client::Result got =
        client.submit(study({jobAt(placement::Algorithm::LoadBal)}));
    // Draining is a definitive no-retry answer: one attempt only.
    EXPECT_FALSE(got.answered);
    EXPECT_TRUE(got.rejected);
    EXPECT_EQ(got.attempts, 1u);
    server.stop();
    daemon.drain();
}

TEST(SvcServer, OversizedResponseDrawsInternalRejectNotATimeout)
{
    // kMaxJobs copies of one Gauss 16-processor cell run as one
    // simulation, but their outcomes come to about 10.9 MB, past the
    // 8 MiB frame cap. The server must answer Reject(Internal) naming
    // the cap, and the client must take it as definitive rather than
    // wait out its receive timeout.
    Daemon::Config config = daemonConfig();
    Daemon daemon(config);
    Server server(daemon, {});
    Client::Config clientConfig = clientFor(server);
    clientConfig.recvTimeout = 20s;
    Client client(clientConfig);

    const RunJob cell{workload::AppId::Gauss,
                      placement::Algorithm::LoadBal,
                      MachinePoint{16, 8}, false};
    auto start = std::chrono::steady_clock::now();
    Client::Result got =
        client.submit(study(std::vector<RunJob>(wire::kMaxJobs, cell)));
    auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(got.answered);
    ASSERT_TRUE(got.rejected);
    EXPECT_EQ(got.attempts, 1u);
    EXPECT_NE(got.rejection.find("protocol cap of 8388608 bytes"),
              std::string::npos)
        << got.rejection;
    EXPECT_LT(elapsed, clientConfig.recvTimeout / 4);
    server.stop();
    daemon.drain();
}

// ------------------------------------------------- loadgen parity

LoadGenOptions
parityOptions(Daemon &daemon)
{
    LoadGenOptions options;
    options.clients = 2;
    options.requestsPerClient = 4;
    options.jobsPerRequest = 2;
    options.seed = 7;
    options.palette =
        defaultPalette(daemon.lab(), workload::AppId::Water);
    return options;
}

TEST(SvcServer, LoadGenDigestMatchesBetweenSocketAndInProcess)
{
    Daemon::Config config = daemonConfig();
    config.workers = 2;

    std::string inProcessDigest;
    {
        Daemon daemon(config);
        LoadGenReport report =
            runLoadGen(daemon, parityOptions(daemon));
        inProcessDigest = report.resultDigest;
        EXPECT_EQ(report.abandoned, 0u);
        daemon.drain();
    }

    Daemon daemon(config);
    Server server(daemon, {});
    LoadGenOptions options = parityOptions(daemon);
    options.serverPort = server.port();
    LoadGenReport report = runLoadGen(daemon, options);
    EXPECT_EQ(report.abandoned, 0u);
    EXPECT_EQ(report.degradedLocal, 0u);
    EXPECT_EQ(report.resultDigest, inProcessDigest);
    server.stop();
    daemon.drain();
}

TEST(SvcServer, DigestSurvivesInjectedReadFaultsViaReconnect)
{
    DisarmedScope scope;
    Daemon::Config config = daemonConfig();
    config.workers = 2;

    std::string inProcessDigest;
    {
        Daemon daemon(config);
        LoadGenReport report =
            runLoadGen(daemon, parityOptions(daemon));
        inProcessDigest = report.resultDigest;
        daemon.drain();
    }

    Daemon daemon(config);
    Server server(daemon, {});
    LoadGenOptions options = parityOptions(daemon);
    options.serverPort = server.port();
    options.netRetryBudget = 8;

    // The first read of request bytes fails server-side (hit #1 is
    // always a live submit arriving — later ordinals can land on
    // harmless EOF events): one connection dies mid-conversation and
    // the client's reconnect-and-reissue must heal it without
    // changing a bit of the answers.
    fault::arm("net.read:1:error");
    LoadGenReport report = runLoadGen(daemon, options);
    fault::disarm();

    EXPECT_EQ(report.abandoned, 0u);
    EXPECT_GE(report.reconnects, 1u);
    EXPECT_EQ(report.resultDigest, inProcessDigest);
    server.stop();
    daemon.drain();
}

TEST(SvcServer, DeadTransportDegradesToLocalRunsWithSameDigest)
{
    Daemon::Config config = daemonConfig();
    config.workers = 2;

    std::string inProcessDigest;
    {
        Daemon daemon(config);
        LoadGenReport report =
            runLoadGen(daemon, parityOptions(daemon));
        inProcessDigest = report.resultDigest;
        daemon.drain();
    }

    // Nothing listens here: grab an ephemeral port and release it.
    uint16_t deadPort;
    {
        Daemon probe(config);
        Server server(probe, {});
        deadPort = server.port();
        server.stop();
    }

    Daemon daemon(config);
    LoadGenOptions options = parityOptions(daemon);
    options.serverPort = deadPort;
    options.netRetryBudget = 0;
    options.netTimeout = 500ms;
    LoadGenReport report = runLoadGen(daemon, options);

    // Every request degraded to a local run — none abandoned, and the
    // deterministic Lab keeps the digest bit-identical.
    EXPECT_EQ(report.abandoned, 0u);
    EXPECT_EQ(report.degradedLocal,
              static_cast<uint64_t>(options.clients) *
                  options.requestsPerClient);
    EXPECT_EQ(report.resultDigest, inProcessDigest);
    daemon.drain();
}

// ------------------------------------------------- store-backed dedup

TEST(SvcServer, ReissuedRequestLandsAsStoreCacheHits)
{
    std::string path = tempPath("svc_server_dedup.tsps");
    std::remove(path.c_str());

    Daemon::Config config = daemonConfig();
    config.storePath = path;
    Daemon daemon(config);
    Server server(daemon, {});
    Client client(clientFor(server));

    std::vector<RunJob> jobs = {jobAt(placement::Algorithm::LoadBal),
                                jobAt(placement::Algorithm::ShareRefs)};
    Client::Result first = client.submit(study(jobs));
    ASSERT_TRUE(first.answered);
    EXPECT_EQ(first.response.executed, jobs.size());

    // The byte-identical reissue — what a post-crash retry sends —
    // is answered entirely from the store, bit for bit.
    Client::Result again = client.submit(study(jobs));
    ASSERT_TRUE(again.answered);
    EXPECT_EQ(again.response.cacheHits, jobs.size());
    EXPECT_EQ(again.response.executed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(bytesOf(again.response.outcomes[i].value()),
                  bytesOf(first.response.outcomes[i].value()));
    }
    server.stop();
    daemon.drain();
    std::remove(path.c_str());
}

} // namespace
} // namespace tsp::svc
