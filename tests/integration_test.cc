/**
 * @file
 * Cross-module integration tests: the paper's qualitative claims
 * verified end to end on scaled-down scenarios.
 */

#include <gtest/gtest.h>

#include "core/gmlake_allocator.hh"
#include "sim/runner.hh"
#include "support/units.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

TrainConfig
scenario(const char *model, const char *strat, int gpus, int batch,
         int iterations = 8)
{
    TrainConfig cfg;
    cfg.model = findModel(model);
    cfg.strategies = Strategies::parse(strat);
    cfg.gpus = gpus;
    cfg.batchSize = batch;
    cfg.iterations = iterations;
    return cfg;
}

} // namespace

TEST(Integration, GmlakeNeverWorseUtilizationThanCaching)
{
    // The headline claim, across the strategy matrix.
    for (const char *strat : {"N", "R", "LR", "RO", "LRO"}) {
        const auto cfg = scenario("OPT-1.3B", strat, 4, 32, 6);
        const auto caching =
            replay(trainingRun(cfg), AllocatorKind::caching).combined;
        const auto lake =
            replay(trainingRun(cfg), AllocatorKind::gmlake).combined;
        ASSERT_FALSE(caching.oom) << strat;
        ASSERT_FALSE(lake.oom) << strat;
        EXPECT_GE(lake.utilization + 0.02, caching.utilization)
            << strat;
        EXPECT_LE(lake.peakReserved,
                  caching.peakReserved + caching.peakReserved / 50)
            << strat;
    }
}

TEST(Integration, ComplexStrategiesFragmentTheBaseline)
{
    // Observation 1: N stays tight, LRO fragments visibly.
    const auto n =
        replay(trainingRun(scenario("OPT-1.3B", "N", 4, 32, 6)),
               AllocatorKind::caching).combined;
    const auto lro =
        replay(trainingRun(scenario("OPT-1.3B", "LRO", 4, 32, 6)),
               AllocatorKind::caching).combined;
    EXPECT_GT(lro.fragmentation, n.fragmentation);
    EXPECT_GT(lro.fragmentation, 0.06);
}

TEST(Integration, GmlakeKeepsFragmentationLow)
{
    for (const char *strat : {"LR", "RO", "LRO"}) {
        const auto lake =
            replay(trainingRun(scenario("OPT-1.3B", strat, 4, 32, 6)),
                   AllocatorKind::gmlake).combined;
        EXPECT_LT(lake.fragmentation, 0.10) << strat;
    }
}

TEST(Integration, NativeAllocatorIsFarSlowerThanCaching)
{
    // Section 2.2: the paper measures a 9.7x end-to-end slowdown
    // without the caching allocator. Our traces model tensor-level
    // events (not every kernel temporary), so the end-to-end factor
    // is smaller here, but the mechanism must be clearly visible:
    // a large end-to-end hit and an allocator-time gap well over an
    // order of magnitude.
    const auto cfg = scenario("OPT-1.3B", "R", 2, 2, 3);
    const auto native =
        replay(trainingRun(cfg), AllocatorKind::native).combined;
    const auto caching =
        replay(trainingRun(cfg), AllocatorKind::caching).combined;
    ASSERT_FALSE(native.oom);
    ASSERT_FALSE(caching.oom);
    EXPECT_GT(native.simTime,
              caching.simTime + caching.simTime / 2);
    EXPECT_GT(native.deviceApiTime, 50 * caching.deviceApiTime);
}

TEST(Integration, GmlakeThroughputComparableToCaching)
{
    const auto cfg = scenario("OPT-13B", "LR", 4, 8, 8);
    const auto caching =
        replay(trainingRun(cfg), AllocatorKind::caching).combined;
    const auto lake = replay(trainingRun(cfg), AllocatorKind::gmlake).combined;
    // Within 12% (the paper reports near-parity).
    EXPECT_GT(lake.samplesPerSec, 0.88 * caching.samplesPerSec);
}

TEST(Integration, GmlakeSurvivesBatchesWhereCachingOoms)
{
    // Fig 13: under memory pressure the baseline OOMs first (on the
    // default A100-80GB device).
    auto cfg = scenario("GPT-NeoX-20B", "LR", 4, 8, 5);
    int cachingOomBatch = 0;
    int lakeOomBatch = 0;
    for (int batch = 64; batch <= 160; batch += 8) {
        cfg.batchSize = batch;
        if (cachingOomBatch == 0 &&
            replay(trainingRun(cfg), AllocatorKind::caching).combined.oom)
            cachingOomBatch = batch;
        if (lakeOomBatch == 0 &&
            replay(trainingRun(cfg), AllocatorKind::gmlake).combined.oom)
            lakeOomBatch = batch;
        if (cachingOomBatch && lakeOomBatch)
            break;
    }
    // Both eventually OOM, but the baseline hits the wall at a
    // smaller batch size than GMLake (Fig 13's "PyTorch OOM" gap).
    ASSERT_GT(cachingOomBatch, 0);
    ASSERT_GT(lakeOomBatch, 0);
    EXPECT_LT(cachingOomBatch, lakeOomBatch);
}

TEST(Integration, ScaleOutIncreasesBaselineFragmentation)
{
    // Observation 2 (Fig 4): more GPUs -> more fragmentation.
    const auto g2 =
        replay(trainingRun(scenario("OPT-13B", "LR", 2, 8, 5)),
               AllocatorKind::caching).combined;
    const auto g16 =
        replay(trainingRun(scenario("OPT-13B", "LR", 16, 8, 5)),
               AllocatorKind::caching).combined;
    EXPECT_GT(g16.fragmentation, g2.fragmentation);
}

TEST(Integration, GmlakeConvergesToExactMatches)
{
    // Fig 14: after a few iterations the strategy states S2..S4
    // almost never fire; the pattern is served by exact matches.
    vmm::Device dev; // default 80 GB
    core::GMLakeAllocator lake(dev);
    const auto cfg = scenario("OPT-1.3B", "LR", 4, 16, 10);
    const auto trace = generateTrainingTrace(cfg);

    std::unordered_map<TensorId, alloc::AllocId> live;
    int iteration = 0;
    std::uint64_t coldStitches = 0;
    std::uint64_t warmStitches = 0;
    std::uint64_t stitchesAtWarmup = 0;
    for (const auto &e : trace.events()) {
        switch (e.kind) {
          case EventKind::alloc:
            live[e.tensor] = lake.allocate(e.bytes).value().id;
            break;
          case EventKind::free:
            ASSERT_TRUE(lake.deallocate(live[e.tensor]).ok());
            live.erase(e.tensor);
            break;
          case EventKind::compute:
            dev.clock().advance(e.computeNs);
            break;
          case EventKind::iterationMark:
            ++iteration;
            if (iteration == 6) {
                coldStitches = lake.strategy().stitches;
                stitchesAtWarmup = coldStitches;
            }
            break;
          case EventKind::streamSync:
            if (e.stream == kAnyStream)
                lake.deviceSynchronize();
            else
                lake.streamSynchronize(e.stream);
            break;
          case EventKind::touch:
          case EventKind::prefetch:
            break; // offload-tier events; no-op without a manager
        }
    }
    warmStitches = lake.strategy().stitches - stitchesAtWarmup;
    // The warm half performs fewer stitches than the cold half (the
    // residual churn comes from the continuously wiggling transient
    // sizes; fully identical iterations converge to zero, which
    // GMLake.StitchedBlockIsReusedOnRepeat covers at the unit level).
    EXPECT_LT(warmStitches, coldStitches);
    lake.checkConsistency();
}

TEST(Integration, TraceReplayIsAllocatorAgnostic)
{
    // The same trace replays cleanly through all three allocators
    // and sees identical request-level statistics.
    const auto cfg = scenario("GPT-2", "R", 2, 4, 3);
    const auto trace = generateTrainingTrace(cfg);
    for (auto kind : {AllocatorKind::native, AllocatorKind::caching,
                      AllocatorKind::gmlake}) {
        vmm::Device dev;
        const auto allocator = makeAllocator(kind, dev);
        const auto r = runTrace(*allocator, dev, trace, &cfg);
        EXPECT_FALSE(r.oom) << allocatorKindName(kind);
        EXPECT_EQ(r.allocCount, trace.stats().allocCount);
        EXPECT_EQ(r.freeCount, trace.stats().allocCount);
    }
}

TEST(Integration, DeviceStateIsCleanAfterFullTeardown)
{
    vmm::Device dev;
    {
        core::GMLakeAllocator lake(dev);
        const auto cfg = scenario("OPT-1.3B", "LRO", 4, 8, 3);
        const auto trace = generateTrainingTrace(cfg);
        const auto r = runTrace(lake, dev, trace, &cfg);
        ASSERT_FALSE(r.oom);
        // All tensors freed by the trace; empty the caches.
        lake.emptyCache();
        lake.checkConsistency();
        EXPECT_EQ(lake.stats().activeBytes(), 0u);
        EXPECT_EQ(lake.physicalBytes(), 0u);
    }
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.phys().liveHandles(), 0u);
    EXPECT_EQ(dev.mappings().mappingCount(), 0u);
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 0u);
}
