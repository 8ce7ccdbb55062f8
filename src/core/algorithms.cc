#include "core/algorithms.h"

#include <memory>

#include "core/balance.h"
#include "core/clusterer.h"
#include "core/load_balance.h"
#include "core/metrics.h"
#include "core/random_placement.h"
#include "util/error.h"

namespace tsp::placement {

std::string
algorithmName(Algorithm alg)
{
    switch (alg) {
      case Algorithm::ShareRefs:          return "SHARE-REFS";
      case Algorithm::ShareAddr:          return "SHARE-ADDR";
      case Algorithm::MinPriv:            return "MIN-PRIV";
      case Algorithm::MinInvs:            return "MIN-INVS";
      case Algorithm::MaxWrites:          return "MAX-WRITES";
      case Algorithm::MinShare:           return "MIN-SHARE";
      case Algorithm::ShareRefsLB:        return "SHARE-REFS+LB";
      case Algorithm::ShareAddrLB:        return "SHARE-ADDR+LB";
      case Algorithm::MinPrivLB:          return "MIN-PRIV+LB";
      case Algorithm::MinInvsLB:          return "MIN-INVS+LB";
      case Algorithm::MaxWritesLB:        return "MAX-WRITES+LB";
      case Algorithm::MinShareLB:         return "MIN-SHARE+LB";
      case Algorithm::LoadBal:            return "LOAD-BAL";
      case Algorithm::Random:             return "RANDOM";
      case Algorithm::CoherenceTraffic:   return "COHERENCE";
      case Algorithm::CoherenceTrafficLB: return "COHERENCE+LB";
    }
    util::panic("unknown algorithm");
}

std::optional<Algorithm>
algorithmFromName(const std::string &name)
{
    for (Algorithm alg : allAlgorithms())
        if (algorithmName(alg) == name)
            return alg;
    return std::nullopt;
}

bool
isSharingBased(Algorithm alg)
{
    switch (alg) {
      case Algorithm::LoadBal:
      case Algorithm::Random:
        return false;
      default:
        return true;
    }
}

bool
hasLoadBalanceCriterion(Algorithm alg)
{
    switch (alg) {
      case Algorithm::ShareRefsLB:
      case Algorithm::ShareAddrLB:
      case Algorithm::MinPrivLB:
      case Algorithm::MinInvsLB:
      case Algorithm::MaxWritesLB:
      case Algorithm::MinShareLB:
      case Algorithm::CoherenceTrafficLB:
      case Algorithm::LoadBal:
        return true;
      default:
        return false;
    }
}

bool
needsCoherenceMatrix(Algorithm alg)
{
    return alg == Algorithm::CoherenceTraffic ||
           alg == Algorithm::CoherenceTrafficLB;
}

const std::vector<Algorithm> &
allAlgorithms()
{
    static const std::vector<Algorithm> all = {
        Algorithm::ShareRefs,    Algorithm::ShareAddr,
        Algorithm::MinPriv,      Algorithm::MinInvs,
        Algorithm::MaxWrites,    Algorithm::MinShare,
        Algorithm::ShareRefsLB,  Algorithm::ShareAddrLB,
        Algorithm::MinPrivLB,    Algorithm::MinInvsLB,
        Algorithm::MaxWritesLB,  Algorithm::MinShareLB,
        Algorithm::LoadBal,      Algorithm::Random,
        Algorithm::CoherenceTraffic, Algorithm::CoherenceTrafficLB,
    };
    return all;
}

const std::vector<Algorithm> &
staticSharingAlgorithms()
{
    static const std::vector<Algorithm> algs = {
        Algorithm::ShareRefs, Algorithm::ShareAddr, Algorithm::MinPriv,
        Algorithm::MinInvs,   Algorithm::MaxWrites, Algorithm::MinShare,
    };
    return algs;
}

const std::vector<Algorithm> &
staticSharingAlgorithmsWithLB()
{
    static const std::vector<Algorithm> algs = {
        Algorithm::ShareRefs,   Algorithm::ShareAddr,
        Algorithm::MinPriv,     Algorithm::MinInvs,
        Algorithm::MaxWrites,   Algorithm::MinShare,
        Algorithm::ShareRefsLB, Algorithm::ShareAddrLB,
        Algorithm::MinPrivLB,   Algorithm::MinInvsLB,
        Algorithm::MaxWritesLB, Algorithm::MinShareLB,
    };
    return algs;
}

const std::vector<Algorithm> &
figureAlgorithms()
{
    // The execution-time figures compare the static sharing algorithms,
    // their +LB variants, LOAD-BAL and RANDOM.
    static const std::vector<Algorithm> algs = {
        Algorithm::ShareRefs,   Algorithm::ShareAddr,
        Algorithm::MinPriv,     Algorithm::MinInvs,
        Algorithm::MaxWrites,   Algorithm::MinShare,
        Algorithm::ShareRefsLB, Algorithm::MinShareLB,
        Algorithm::LoadBal,     Algorithm::Random,
    };
    return algs;
}

namespace {

/** Build the metric object for a sharing-based algorithm. */
std::unique_ptr<SharingMetric>
makeMetric(Algorithm alg, const analysis::StaticAnalysis &analysis,
           const stats::PairMatrix *coherence)
{
    const stats::PairMatrix &refs = analysis.sharedRefs();
    switch (alg) {
      case Algorithm::ShareRefs:
      case Algorithm::ShareRefsLB:
        return std::make_unique<ShareRefsMetric>(refs);
      case Algorithm::ShareAddr:
      case Algorithm::ShareAddrLB:
        return std::make_unique<ShareAddrMetric>(refs,
                                                 analysis.sharedAddrs());
      case Algorithm::MinPriv:
      case Algorithm::MinPrivLB:
        return std::make_unique<MinPrivMetric>(
            refs, analysis.threadPrivateAddrs());
      case Algorithm::MinInvs:
      case Algorithm::MinInvsLB:
        return std::make_unique<MinInvsMetric>(refs);
      case Algorithm::MaxWrites:
      case Algorithm::MaxWritesLB:
        return std::make_unique<MaxWritesMetric>(
            analysis.writeSharedRefs());
      case Algorithm::MinShare:
      case Algorithm::MinShareLB:
        return std::make_unique<MinShareMetric>(refs);
      case Algorithm::CoherenceTraffic:
      case Algorithm::CoherenceTrafficLB:
        util::fatalIf(coherence == nullptr,
                      "coherence-traffic placement needs a measured "
                      "coherence matrix");
        return std::make_unique<CoherenceTrafficMetric>(*coherence);
      default:
        util::panic("not a sharing-based algorithm");
    }
}

} // namespace

PlacementMap
place(Algorithm alg, const analysis::StaticAnalysis &analysis,
      uint32_t processors, util::Rng &rng,
      const stats::PairMatrix *coherence)
{
    const uint32_t t = static_cast<uint32_t>(analysis.threadCount());
    util::fatalIf(processors == 0, "need >= 1 processor");

    switch (alg) {
      case Algorithm::LoadBal:
        return loadBalancedPlacement(analysis.threadLength(), processors);
      case Algorithm::Random:
        return randomPlacement(t, processors, rng);
      default:
        break;
    }

    auto metric = makeMetric(alg, analysis, coherence);
    if (hasLoadBalanceCriterion(alg)) {
        LoadBalanceConstraint constraint(analysis.threadLength(),
                                         processors);
        GreedyClusterer engine(*metric, constraint);
        return engine.run(t, processors);
    }
    ThreadBalanceConstraint constraint(t, processors);
    GreedyClusterer engine(*metric, constraint);
    return engine.run(t, processors);
}

} // namespace tsp::placement
