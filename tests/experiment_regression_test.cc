/**
 * @file
 * Experiment regression tests: the calibrated reproduction shapes
 * that EXPERIMENTS.md reports, pinned as coarse bands so future
 * changes to the allocators or the workload model cannot silently
 * drift away from the paper.
 *
 * These run scaled-down versions of the benches (fewer iterations)
 * and assert bands, not exact values.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "support/units.hh"
#include "vmm/cost_model.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;
using namespace gmlake::workload;

namespace
{

RunResult
run(const char *model, const char *strat, int gpus, int batch,
    AllocatorKind kind, int iterations = 8)
{
    TrainConfig cfg;
    cfg.model = findModel(model);
    cfg.strategies = Strategies::parse(strat);
    cfg.gpus = gpus;
    cfg.batchSize = batch;
    cfg.iterations = iterations;
    return replay(trainingRun(cfg), kind).combined;
}

} // namespace

TEST(Regression, Table1TotalsAreExact)
{
    // The cost model must keep reproducing Table 1's totals.
    const vmm::CostModel m;
    const double ref = static_cast<double>(m.nativeAlloc(2_GiB));
    auto total = [&](Bytes chunk) {
        const std::size_t n = 2_GiB / chunk;
        return (m.memAddressReserve(2_GiB) +
                static_cast<double>(n) * m.memCreate(chunk) +
                static_cast<double>(n) * m.memMap(chunk) +
                m.memSetAccess(n, chunk)) /
               ref;
    };
    EXPECT_NEAR(total(2_MiB), 115.4, 2.0);
    EXPECT_NEAR(total(128_MiB), 9.1, 0.3);
    EXPECT_NEAR(total(1024_MiB), 1.5, 0.2);
}

TEST(Regression, Fig3PlainPyTorchStaysTight)
{
    // Fig 3 'P': the baseline without strategies utilizes >= 88%.
    const auto r = run("OPT-1.3B", "N", 4, 64, AllocatorKind::caching);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.utilization, 0.88);
}

TEST(Regression, Fig3ComplexStrategiesFragment)
{
    // Fig 3 'PLRO': the full strategy stack lands in the 55-80% band.
    const auto r =
        run("OPT-1.3B", "LRO", 4, 64, AllocatorKind::caching);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.utilization, 0.50);
    EXPECT_LT(r.utilization, 0.82);
}

TEST(Regression, Fig4ScaleOutDegradesBaseline)
{
    // Fig 4 end points: 1 GPU >= 90%, 16 GPUs at least 8 pts lower.
    const auto g1 = run("OPT-13B", "LR", 1, 16,
                        AllocatorKind::caching);
    const auto g16 = run("OPT-13B", "LR", 16, 16,
                         AllocatorKind::caching);
    ASSERT_FALSE(g1.oom);
    ASSERT_FALSE(g16.oom);
    EXPECT_GT(g1.utilization, 0.90);
    EXPECT_LT(g16.utilization + 0.08, g1.utilization);
}

TEST(Regression, Fig10NeoxLrGap)
{
    // Fig 10's biggest cell: GPT-NeoX-20B LR. Baseline fragments
    // hard; GMLake holds >= 99%.
    const auto caching =
        run("GPT-NeoX-20B", "LR", 4, 12, AllocatorKind::caching);
    const auto lake =
        run("GPT-NeoX-20B", "LR", 4, 12, AllocatorKind::gmlake);
    ASSERT_FALSE(caching.oom);
    ASSERT_FALSE(lake.oom);
    EXPECT_LT(caching.utilization, 0.85);
    EXPECT_GT(lake.utilization, 0.99);
}

TEST(Regression, Fig13ReservedSavingsAtScale)
{
    // Fig 13 @ GPT-NeoX-20B batch 72: ~10+ GB of reserved memory
    // returned, GMLake at ~100%.
    const auto caching =
        run("GPT-NeoX-20B", "LR", 4, 72, AllocatorKind::caching, 6);
    const auto lake =
        run("GPT-NeoX-20B", "LR", 4, 72, AllocatorKind::gmlake, 6);
    ASSERT_FALSE(caching.oom);
    ASSERT_FALSE(lake.oom);
    EXPECT_GT(caching.peakReserved - lake.peakReserved, 8_GiB);
    EXPECT_GT(lake.utilization, 0.99);
}

TEST(Regression, ThroughputParityHolds)
{
    // GMLake's end-to-end overhead stays within 5% on a warm run.
    const auto caching =
        run("OPT-13B", "LR", 4, 16, AllocatorKind::caching, 12);
    const auto lake =
        run("OPT-13B", "LR", 4, 16, AllocatorKind::gmlake, 12);
    EXPECT_GT(lake.samplesPerSec, 0.95 * caching.samplesPerSec);
}

TEST(Regression, ServingGapHolds)
{
    // The serving extension: caching under 80%, GMLake at ~100%.
    ServeConfig cfg;
    cfg.model = findModel("OPT-13B");
    cfg.requests = 96;
    cfg.maxBatch = 16;
    const auto gen = generateServingTrace(cfg);

    double util[2];
    int i = 0;
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        vmm::Device device;
        const auto allocator = makeAllocator(kind, device);
        util[i++] =
            runTrace(*allocator, device, gen.trace).utilization;
    }
    EXPECT_LT(util[0], 0.80);
    EXPECT_GT(util[1], 0.97);
}

TEST(Regression, ExpandableSitsBetweenCachingAndGmlake)
{
    const auto caching =
        run("GPT-NeoX-20B", "LR", 4, 24, AllocatorKind::caching);
    const auto expandable =
        run("GPT-NeoX-20B", "LR", 4, 24, AllocatorKind::expandable);
    const auto lake =
        run("GPT-NeoX-20B", "LR", 4, 24, AllocatorKind::gmlake);
    EXPECT_GT(expandable.utilization, caching.utilization);
    EXPECT_GE(lake.utilization + 0.01, expandable.utilization);
}

TEST(Regression, HeadlineFragmentationBand)
{
    // A slice of the headline matrix: average fragmentation removed
    // across four representative workloads stays in the paper's
    // 10-25% neighbourhood.
    const struct
    {
        const char *model;
        const char *strat;
        int batch;
    } cells[] = {
        {"OPT-13B", "LR", 16},
        {"OPT-13B", "RO", 16},
        {"GPT-NeoX-20B", "LR", 24},
        {"GPT-NeoX-20B", "LRO", 24},
    };
    double removed = 0.0;
    for (const auto &cell : cells) {
        const auto caching = run(cell.model, cell.strat, 4,
                                 cell.batch, AllocatorKind::caching);
        const auto lake = run(cell.model, cell.strat, 4, cell.batch,
                              AllocatorKind::gmlake);
        removed += caching.fragmentation - lake.fragmentation;
    }
    removed /= 4.0;
    EXPECT_GT(removed, 0.08);
    EXPECT_LT(removed, 0.35);
}
