/**
 * @file
 * Multi-rank cluster simulation tests.
 */

#include <gtest/gtest.h>

#include "sim/cluster.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

TrainConfig
clusterConfig(int gpus = 4)
{
    TrainConfig cfg;
    cfg.model = findModel("OPT-1.3B");
    cfg.strategies = Strategies::parse("LR");
    cfg.gpus = gpus;
    cfg.batchSize = 16;
    cfg.iterations = 4;
    return cfg;
}

} // namespace

TEST(Cluster, RunsOneResultPerRank)
{
    const auto cluster =
        runCluster(trainingRun(clusterConfig(4)), AllocatorKind::caching);
    ASSERT_EQ(cluster.ranks.size(), 4u);
    for (const auto &r : cluster.ranks) {
        EXPECT_FALSE(r.oom);
        EXPECT_GT(r.peakActive, 0u);
    }
    EXPECT_FALSE(cluster.anyOom());
}

TEST(Cluster, RanksDivergeWithData)
{
    const auto cluster =
        runCluster(trainingRun(clusterConfig(4)), AllocatorKind::caching);
    // Different seeds -> different traces -> some metric spread.
    bool differs = false;
    for (std::size_t r = 1; r < cluster.ranks.size(); ++r) {
        differs = differs || cluster.ranks[r].peakReserved !=
                                 cluster.ranks[0].peakReserved;
    }
    EXPECT_TRUE(differs);
    EXPECT_GE(cluster.maxPeakReserved(), cluster.minPeakReserved());
    EXPECT_LT(cluster.worstRank(), cluster.ranks.size());
}

TEST(Cluster, GmlakeShrinksTheRankSpread)
{
    const auto caching =
        runCluster(trainingRun(clusterConfig(4)), AllocatorKind::caching);
    const auto lake =
        runCluster(trainingRun(clusterConfig(4)), AllocatorKind::gmlake);
    EXPECT_GE(lake.minUtilization() + 0.02,
              caching.minUtilization());
    EXPECT_LE(lake.maxPeakReserved(), caching.maxPeakReserved());
}

TEST(Cluster, GlobalThroughputGatedBySlowestRank)
{
    const auto cfg = clusterConfig(4);
    const auto cluster = runCluster(trainingRun(cfg), AllocatorKind::caching);
    const double global = cluster.globalSamplesPerSec(cfg);
    EXPECT_GT(global, 0.0);
    // Lockstep throughput cannot exceed what the slowest rank would
    // deliver if all ranks ran at its pace.
    double slowestAlone = 1e300;
    for (const auto &r : cluster.ranks)
        slowestAlone = std::min(slowestAlone, r.samplesPerSec);
    EXPECT_LE(global, slowestAlone * 1.001);
}

TEST(Cluster, AnyRankOomFailsTheJob)
{
    auto cfg = clusterConfig(2);
    cfg.batchSize = 512; // far beyond a 4 GiB device
    RunSpec spec = trainingRun(cfg);
    spec.device.capacity = 4_GiB;
    const auto cluster = runCluster(spec, AllocatorKind::caching);
    EXPECT_TRUE(cluster.anyOom());
}

TEST(Cluster, ParallelExecutionIsBitIdenticalToSequential)
{
    const auto cfg = clusterConfig(4);
    const auto sequential =
        runCluster(trainingRun(cfg), AllocatorKind::gmlake, 1);
    const auto parallel =
        runCluster(trainingRun(cfg), AllocatorKind::gmlake, 4);

    ASSERT_EQ(sequential.ranks.size(), parallel.ranks.size());
    for (std::size_t r = 0; r < sequential.ranks.size(); ++r) {
        const RunResult &a = sequential.ranks[r];
        const RunResult &b = parallel.ranks[r];
        EXPECT_EQ(a.allocator, b.allocator) << "rank " << r;
        EXPECT_EQ(a.oom, b.oom) << "rank " << r;
        EXPECT_EQ(a.iterationsDone, b.iterationsDone) << "rank " << r;
        EXPECT_EQ(a.simTime, b.simTime) << "rank " << r;
        EXPECT_EQ(a.peakActive, b.peakActive) << "rank " << r;
        EXPECT_EQ(a.peakReserved, b.peakReserved) << "rank " << r;
        EXPECT_EQ(a.allocCount, b.allocCount) << "rank " << r;
        EXPECT_EQ(a.freeCount, b.freeCount) << "rank " << r;
        EXPECT_EQ(a.deviceApiTime, b.deviceApiTime) << "rank " << r;
        EXPECT_DOUBLE_EQ(a.utilization, b.utilization)
            << "rank " << r;
        EXPECT_DOUBLE_EQ(a.samplesPerSec, b.samplesPerSec)
            << "rank " << r;
        ASSERT_EQ(a.series.size(), b.series.size()) << "rank " << r;
        for (std::size_t i = 0; i < a.series.size(); ++i) {
            EXPECT_EQ(a.series[i].time, b.series[i].time);
            EXPECT_EQ(a.series[i].active, b.series[i].active);
            EXPECT_EQ(a.series[i].reserved, b.series[i].reserved);
        }
    }
}

TEST(Cluster, RankSeedsDoNotCollideAcrossNearbyBaseSeeds)
{
    // The historical scheme `seed + 1000 * rank` made (base=42,
    // rank=1) replay the same workload as (base=1042, rank=0). The
    // splitmix derivation keeps every (base, rank) pair distinct.
    auto a = clusterConfig(1);
    a.seed = 42;
    auto b = clusterConfig(1);
    b.seed = 1042;
    EXPECT_NE(clusterRankSeed(a, 1), clusterRankSeed(b, 0));
    EXPECT_NE(clusterRankSeed(a, 0), clusterRankSeed(b, 0));

    // And rank seeds are distinct within one job.
    for (int r = 1; r < 16; ++r)
        EXPECT_NE(clusterRankSeed(a, r), clusterRankSeed(a, 0))
            << "rank " << r;
}
