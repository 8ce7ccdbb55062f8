#include "svc/chaos_leg.h"

#include <cstdio>
#include <sstream>

#include "experiment/configs.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "svc/server.h"

namespace tsp::svc {

using experiment::MachinePoint;
using experiment::RunJob;

namespace {

std::string
storePath(const std::string &workDir)
{
    return workDir + "/chaos_store.tsps";
}

/**
 * Two fixed two-cell studies over the first standard machine point:
 * enough to hit svc.admit and svc.dequeue per request, store.append per
 * fresh cell, and the duplicate cell exercises the store dedup path.
 */
std::vector<StudyRequest>
legRequests(workload::AppId app, uint32_t threads)
{
    std::vector<MachinePoint> points =
        experiment::standardSweep(threads);
    const MachinePoint &pt = points.front();
    RunJob loadBal{app, placement::Algorithm::LoadBal, pt, false};
    RunJob shareRefs{app, placement::Algorithm::ShareRefs, pt, false};

    std::vector<StudyRequest> requests(2);
    requests[0].jobs = {loadBal, shareRefs};
    requests[1].jobs = {shareRefs, loadBal};  // pure duplicates
    return requests;
}

std::string
runLeg(workload::AppId app, uint32_t scale,
       const std::string &workDir)
{
    Daemon::Config config;
    config.scale = scale;
    config.workers = 1;
    config.queueCapacity = 8;
    config.storePath = storePath(workDir);
    Daemon daemon(config);  // store.load fires here

    // The requests travel over the wire so every net.* fault site is
    // on the leg's path: accept, read, frame decode and write all
    // fire per request, and the client's reconnect-and-reissue is
    // the degradation under test.
    Server::Config serverConfig;
    serverConfig.port = 0;  // ephemeral
    serverConfig.maxConnections = 4;
    Server server(daemon, serverConfig);

    Client::Config clientConfig;
    clientConfig.port = server.port();
    clientConfig.retryBudget = 5;
    clientConfig.retryBackoff = std::chrono::milliseconds(1);
    clientConfig.identity = "svc.chaos";
    Client client(clientConfig);

    uint32_t threads =
        static_cast<uint32_t>(daemon.lab().traces(app).threadCount());
    std::vector<StudyRequest> requests = legRequests(app, threads);

    std::ostringstream os;
    for (size_t r = 0; r < requests.size(); ++r) {
        std::vector<RunJob> jobs = requests[r].jobs;
        Client::Result got = client.submit(requests[r]);
        os << "svc/req" << r << " => ";
        if (got.rejected) {
            // Only an injected svc.admit fault sheds here (the queue
            // is never full); the faulted fingerprint is discarded.
            os << "SHED(" << got.rejection << ")\n";
            continue;
        }
        if (!got.answered) {
            // Transport dead past the retry budget: survivable
            // degradation; this fingerprint is discarded too.
            os << "DEAD(transport)\n";
            continue;
        }
        const StudyResponse &response = got.response;
        os << statusName(response.status);
        for (size_t i = 0; i < response.outcomes.size(); ++i)
            os << ' ' << cellResultLine(jobs[i], response.outcomes[i]);
        os << '\n';
    }
    server.beginDrain();
    daemon.drain();
    server.stop();
    return os.str();
}

} // namespace

experiment::chaos::ScenarioExtension
chaosLeg(workload::AppId app, uint32_t scale)
{
    experiment::chaos::ScenarioExtension extension;
    extension.run = [app, scale](const std::string &workDir) {
        return runLeg(app, scale, workDir);
    };
    extension.reset = [](const std::string &workDir) {
        std::remove(storePath(workDir).c_str());
    };
    return extension;
}

} // namespace tsp::svc
