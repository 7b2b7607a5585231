/**
 * @file
 * Cluster example: simulate every rank of an 8-GPU ZeRO-3 job, not
 * just rank 0. Ranks see different data, fragment differently, and
 * the job lives or dies with its worst rank — which is why per-rank
 * fragmentation variance matters in practice.
 */

#include <iostream>

#include "sim/cluster.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/tracegen.hh"

using namespace gmlake;

int
main()
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel("GPT-NeoX-20B");
    cfg.strategies = workload::Strategies::parse("LR");
    cfg.gpus = 8;
    cfg.batchSize = 24;
    cfg.iterations = 8;

    std::cout << "Cluster job: " << cfg.describe() << "\n\n";

    for (const auto kind : {sim::AllocatorKind::caching,
                            sim::AllocatorKind::gmlake}) {
        const auto cluster = sim::runCluster(sim::trainingRun(cfg), kind);
        std::cout << "--- " << sim::allocatorKindName(kind)
                  << " ---\n";
        Table table({"Rank", "Utilization", "Peak active",
                     "Peak reserved"});
        for (std::size_t r = 0; r < cluster.ranks.size(); ++r) {
            const auto &rr = cluster.ranks[r];
            table.addRow({std::to_string(r),
                          rr.oom ? "OOM"
                                 : formatPercent(rr.utilization),
                          formatBytes(rr.peakActive),
                          formatBytes(rr.peakReserved)});
        }
        table.print(std::cout);
        std::cout << "worst rank: " << cluster.worstRank()
                  << "  (reserved spread "
                  << formatBytes(cluster.maxPeakReserved() -
                                 cluster.minPeakReserved())
                  << ")  job throughput: "
                  << formatDouble(cluster.globalSamplesPerSec(cfg), 1)
                  << " samples/s"
                  << (cluster.anyOom() ? "  [JOB FAILED: OOM]" : "")
                  << "\n\n";
    }
    std::cout << "The baseline's per-rank spread is what produces "
                 "surprise OOMs on big jobs;\nGMLake's reserved "
                 "memory equals each rank's active peak, so the "
                 "spread is\njust the data distribution.\n";
    return 0;
}
