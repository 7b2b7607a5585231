/**
 * @file
 * Scenario example: choosing a memory-reduction strategy mix for
 * fine-tuning OPT-13B on four 80 GB GPUs.
 *
 * The intro of the paper motivates exactly this situation: LoRA,
 * recomputation and offloading cut the model-state footprint, but
 * they fragment the caching allocator. This example sweeps the
 * strategy combinations under both allocators and prints what a
 * practitioner would look at: does it fit, how much memory does it
 * really cost, and what does it do to throughput.
 */

#include <iostream>

#include "sim/runner.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/tracegen.hh"

using namespace gmlake;

int
main()
{
    workload::TrainConfig base;
    base.model = workload::findModel("OPT-13B");
    base.gpus = 4;
    base.batchSize = 24;
    base.iterations = 10;

    std::cout << "Fine-tuning " << base.model.name << " on "
              << base.gpus << " GPUs, batch " << base.batchSize
              << " per GPU\n\n";

    Table table({"Strategy", "Model state", "Caching: reserved",
                 "GMLake: reserved", "GMLake gain", "Thr (s/s)"});
    for (const char *strat : {"N", "R", "LR", "RO", "LRO"}) {
        workload::TrainConfig cfg = base;
        cfg.strategies = workload::Strategies::parse(strat);
        const Bytes persistent =
            workload::estimatePersistentBytes(cfg);

        const auto caching =
            sim::replay(sim::trainingRun(cfg),
                        sim::AllocatorKind::caching).combined;
        const auto lake =
            sim::replay(sim::trainingRun(cfg),
                        sim::AllocatorKind::gmlake).combined;

        std::string gain = "-";
        if (!caching.oom && !lake.oom &&
            caching.peakReserved > lake.peakReserved) {
            gain = formatBytes(caching.peakReserved -
                               lake.peakReserved);
        }
        table.addRow(
            {strat, formatBytes(persistent),
             caching.oom ? "OOM" : formatBytes(caching.peakReserved),
             lake.oom ? "OOM" : formatBytes(lake.peakReserved), gain,
             lake.oom ? "-" : formatDouble(lake.samplesPerSec, 1)});
    }
    table.print(std::cout);

    std::cout << "\nReading the table: the strategies shrink the "
                 "model state, but under the\ncaching allocator part "
                 "of the saving is lost to fragmentation; GMLake\n"
                 "returns it without touching the training code.\n";
    return 0;
}
