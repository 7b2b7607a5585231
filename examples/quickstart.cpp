/**
 * @file
 * Quickstart: allocate through GMLake directly, then compare the
 * caching allocator and GMLake on one fine-tuning scenario.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "core/gmlake_allocator.hh"
#include "sim/runner.hh"
#include "support/strings.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

void
directApiDemo()
{
    std::cout << "=== direct allocator API ===\n";
    vmm::Device device; // simulated A100-80GB
    core::GMLakeAllocator lake(device);

    // Allocate three tensors, free the outer two, then ask for a
    // block bigger than either hole: stitching fuses them.
    const auto a = lake.allocate(512_MiB).value();
    const auto b = lake.allocate(256_MiB).value();
    const auto c = lake.allocate(512_MiB).value();
    (void)b;
    lake.deallocate(a.id).code();
    lake.deallocate(c.id).code();

    const auto d = lake.allocate(1024_MiB).value();
    std::cout << "  allocated " << formatBytes(d.requested)
              << " across two non-contiguous holes\n"
              << "  stitches performed: " << lake.strategy().stitches
              << "\n  physical reserved: "
              << formatBytes(lake.physicalBytes()) << "\n";
    lake.checkConsistency();
}

void
scenarioDemo()
{
    std::cout << "\n=== OPT-13B, 4 GPU, LoRA+recompute (LR) ===\n";
    workload::TrainConfig config;
    config.model = workload::findModel("OPT-13B");
    config.platform = workload::Platform::deepspeedZero3;
    config.strategies = workload::Strategies::parse("LR");
    config.gpus = 4;
    config.batchSize = 16;
    config.iterations = 10;

    for (const auto kind : {sim::AllocatorKind::caching,
                            sim::AllocatorKind::gmlake}) {
        const auto r = sim::replay(sim::trainingRun(config), kind).combined;
        std::cout << "  " << r.allocator << ": peak active "
                  << formatBytes(r.peakActive) << ", peak reserved "
                  << formatBytes(r.peakReserved) << ", utilization "
                  << formatPercent(r.utilization) << ", throughput "
                  << formatDouble(r.samplesPerSec, 1) << " samples/s"
                  << (r.oom ? " [OOM]" : "") << "\n";
    }
}

} // namespace

int
main()
{
    directApiDemo();
    scenarioDemo();
    return 0;
}
