/**
 * @file
 * The built-in experiment scenarios: every figure and table of the
 * paper plus the extension studies. Each scenario lists its runs as
 * RunSpec rows (the one definition of its workloads, which sweep,
 * probe and chaos replay too) and prints its comparison table from
 * replaying them; run recording and CSV/JSON emission are handled by
 * the ExperimentContext driver.
 */

#include "sim/experiment.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "alloc/caching_allocator.hh"
#include "alloc/compacting_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "sim/cluster.hh"
#include "sim/sweep.hh"
#include "support/csv.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"
#include "support/rss.hh"
#include "vmm/cost_model.hh"
#include "vmm/device.hh"
#include "workload/generators.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

namespace
{

using namespace gmlake::literals;

std::string
gb(Bytes bytes)
{
    return formatDouble(static_cast<double>(bytes) /
                            (1024.0 * 1024.0 * 1024.0),
                        1);
}

std::string
oomOr(const RunResult &r, const std::string &value)
{
    return r.oom ? "OOM" : value;
}

/**
 * A comparison-table row: @p head, reserved memory and utilization
 * without and with GMLake, then @p tail.
 */
std::vector<std::string>
pairRow(std::string head, const BenchPair &pair,
        std::vector<std::string> tail)
{
    std::vector<std::string> row = {
        std::move(head),
        oomOr(pair.caching, gb(pair.caching.peakReserved) + " GB"),
        oomOr(pair.gmlake, gb(pair.gmlake.peakReserved) + " GB"),
        oomOr(pair.caching, formatPercent(pair.caching.utilization)),
        oomOr(pair.gmlake, formatPercent(pair.gmlake.utilization))};
    row.insert(row.end(), tail.begin(), tail.end());
    return row;
}

/** Host nanoseconds as "<x> ms" / "<x> us" (one decimal). */
std::string
ms(std::uint64_t ns)
{
    return formatDouble(static_cast<double>(ns) * 1e-6, 1) + " ms";
}

std::string
us(std::uint64_t ns)
{
    return formatDouble(static_cast<double>(ns) * 1e-3, 1) + " us";
}

/** Record @p facts as metrics labelled @p label, in order. */
void
addMetrics(ExperimentContext &ctx, const std::string &label,
           std::initializer_list<std::pair<const char *, double>> facts)
{
    for (const auto &[name, value] : facts)
        ctx.metric(label, name, value);
}

/** Reserved memory GMLake saved over caching (0 when it did not). */
std::string
savedCell(const BenchPair &pair)
{
    const Bytes caching = pair.caching.peakReserved;
    const Bytes lake = pair.gmlake.peakReserved;
    return gb(caching > lake ? caching - lake : 0) + " GB";
}

workload::TrainConfig
trainConfig(const char *model, const char *strategies, int gpus,
            int batch, int iterations)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel(model);
    cfg.strategies = workload::Strategies::parse(strategies);
    cfg.gpus = gpus;
    cfg.batchSize = batch;
    cfg.iterations = iterations;
    return cfg;
}

/**
 * A row without sessions on the overridden device (@p capacity 0
 * keeps the default).
 */
RunSpec
newRow(const ExperimentOptions &o, std::string label,
       std::uint64_t seed, Bytes capacity = 0)
{
    RunSpec row;
    row.label = std::move(label);
    if (capacity != 0)
        row.device.capacity = capacity;
    row.device = o.adjust(row.device);
    row.seed = seed;
    return row;
}

/** A training row on the default device, overrides folded in. */
RunSpec
trainRow(const ExperimentOptions &o, const workload::TrainConfig &cfg,
         const std::string &label)
{
    RunSpec row = trainingRun(o.adjust(cfg), label);
    row.device = o.adjust(vmm::DeviceConfig{});
    return row;
}

/** A serving row: one "main" session generated from @p cfg. */
RunSpec
serveRow(const ExperimentOptions &o, const workload::ServeConfig &cfg,
         const std::string &label)
{
    RunSpec row = newRow(o, label, cfg.seed);
    row.addTrace("main", [cfg] {
        return workload::generateServingTrace(cfg).trace;
    });
    return row;
}

// ------------------------------------------------------ Section 5

std::vector<RunSpec>
headlineRows(const ExperimentOptions &o)
{
    const struct
    {
        const char *model;
        std::vector<int> batches;
    } models[] = {
        {"OPT-1.3B", {64, 128, 192}}, {"GPT-2", {64, 128}},
        {"GLM-10B", {24, 48}},        {"OPT-13B", {16, 32, 48}},
        {"Vicuna-13B", {16, 32, 48}}, {"GPT-NeoX-20B", {24, 48, 72, 84}},
    };
    std::vector<RunSpec> rows;
    for (const auto &m : models) {
        for (const int batch : m.batches) {
            for (const char *strat : {"R", "LR", "RO", "LRO"}) {
                rows.push_back(trainRow(
                    o, trainConfig(m.model, strat, 4, batch, 8),
                    std::string(m.model) + "/" + strat + "/b" +
                        std::to_string(batch)));
            }
        }
    }
    return rows;
}

void
runHeadline(ExperimentContext &ctx)
{
    double sumSavedGb = 0.0, maxSavedGb = 0.0;
    double sumFragDrop = 0.0, maxFragDrop = 0.0;
    int workloads = 0, oomAvoided = 0;

    for (const RunSpec &row : headlineRows(ctx.options())) {
        const auto pair = ctx.replayPair(row);
        if (pair.gmlake.oom)
            continue; // out of scope for both
        if (pair.caching.oom) {
            ++oomAvoided;
            continue;
        }
        ++workloads;
        const double saved =
            (static_cast<double>(pair.caching.peakReserved) -
             static_cast<double>(pair.gmlake.peakReserved)) /
            (1024.0 * 1024.0 * 1024.0);
        const double fragDrop =
            pair.caching.fragmentation - pair.gmlake.fragmentation;
        sumSavedGb += saved;
        maxSavedGb = std::max(maxSavedGb, saved);
        sumFragDrop += fragDrop;
        maxFragDrop = std::max(maxFragDrop, fragDrop);
    }

    const int n = std::max(1, workloads);
    Table table({"Metric", "Measured", "Paper"});
    table.addRow({"Workloads evaluated", std::to_string(workloads),
                  "76"});
    table.addRow({"Avg reserved saved",
                  formatDouble(sumSavedGb / n, 1) + " GB", "9.2 GB"});
    table.addRow({"Max reserved saved",
                  formatDouble(maxSavedGb, 1) + " GB", "25 GB"});
    table.addRow({"Avg fragmentation removed",
                  formatPercent(sumFragDrop / n), "15%"});
    table.addRow({"Max fragmentation removed",
                  formatPercent(maxFragDrop), "33%"});
    table.addRow({"Baseline-OOM workloads GMLake completed",
                  std::to_string(oomAvoided), "-"});
    table.print(ctx.out());

    ctx.metric("aggregate", "workloads", workloads);
    ctx.metric("aggregate", "avg_reserved_saved_gb", sumSavedGb / n);
    ctx.metric("aggregate", "max_reserved_saved_gb", maxSavedGb);
    ctx.metric("aggregate", "avg_fragmentation_removed",
               sumFragDrop / n);
    ctx.metric("aggregate", "max_fragmentation_removed", maxFragDrop);
    ctx.metric("aggregate", "oom_avoided", oomAvoided);
}

// ------------------------------------------------------- Figure 3

const struct
{
    const char *paperLabel;
    const char *strategies;
    double paperUtil;
} kFig3Rows[] = {
    {"P", "N", 0.97},    {"PR", "R", 0.80},
    {"PLR", "LR", 0.76}, {"PRO", "RO", 0.73},
    {"PLRO", "LRO", 0.65},
};

// Averaged over several seeds: single-run utilization varies by a
// few points with the random workload details.
constexpr int kFig3Seeds = 5;

std::vector<RunSpec>
fig3Rows(const ExperimentOptions &o)
{
    std::vector<RunSpec> rows;
    for (const auto &r : kFig3Rows) {
        auto cfg =
            o.adjust(trainConfig("OPT-1.3B", r.strategies, 4, 64, 15));
        const std::uint64_t seedBase = cfg.seed;
        for (int s = 0; s < kFig3Seeds; ++s) {
            cfg.seed = seedBase + static_cast<std::uint64_t>(s);
            rows.push_back(trainRow(o, cfg,
                                    std::string(r.paperLabel) +
                                        "/seed" +
                                        std::to_string(cfg.seed)));
        }
    }
    return rows;
}

void
runFig3(ExperimentContext &ctx)
{
    Table table({"Combination", "Utilization (measured)",
                 "Utilization (paper)", "Peak reserved",
                 "Peak active"});
    const std::vector<RunSpec> rows = fig3Rows(ctx.options());
    auto row = rows.begin();
    for (const auto &r : kFig3Rows) {
        double util = 0.0;
        Bytes reserved = 0, active = 0;
        for (int s = 0; s < kFig3Seeds; ++s) {
            const auto run =
                ctx.replay(*row++, AllocatorKind::caching).combined;
            util += run.utilization / kFig3Seeds;
            reserved += run.peakReserved / kFig3Seeds;
            active += run.peakActive / kFig3Seeds;
        }
        table.addRow({r.paperLabel, formatPercent(util),
                      formatPercent(r.paperUtil),
                      gb(reserved) + " GB", gb(active) + " GB"});
        ctx.metric(r.paperLabel, "utilization", util);
        ctx.metric(r.paperLabel, "paper_utilization", r.paperUtil);
    }
    table.print(ctx.out());
}

// ------------------------------------------------------- Figure 4

std::vector<RunSpec>
fig4Rows(const ExperimentOptions &o)
{
    std::vector<RunSpec> rows;
    for (const int gpus : {1, 2, 4, 8, 16}) {
        rows.push_back(trainRow(o, trainConfig("OPT-13B", "LR", gpus, 16, 12),
                                std::to_string(gpus) + " GPUs"));
    }
    return rows;
}

void
runFig4(ExperimentContext &ctx)
{
    const double paper[] = {0.91, 0.84, 0.78, 0.80, 0.76};

    Table table({"GPUs", "Utilization (measured)",
                 "Utilization (paper)", "Peak reserved"});
    const std::vector<RunSpec> rows = fig4Rows(ctx.options());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto run =
            ctx.replay(rows[i], AllocatorKind::caching).combined;
        table.addRow({std::to_string(rows[i].train->gpus),
                      formatPercent(run.utilization),
                      formatPercent(paper[i]),
                      gb(run.peakReserved) + " GB"});
    }
    table.print(ctx.out());
}

// ------------------------------------------------------- Figure 5

void
runFig5(ExperimentContext &ctx)
{
    // The paper's counts cover a full training job; the per-iteration
    // shape is what matters, so scale to a fixed iteration budget.
    const auto base = trainConfig("GPT-NeoX-20B", "N", 4, 24, 40);

    Table table({"Configuration", "Allocations", "Avg size",
                 "Max size", "Allocs/iteration"});
    for (const char *strat : {"N", "LR"}) {
        auto cfg = ctx.options().adjust(base);
        cfg.strategies = workload::Strategies::parse(strat);
        const auto trace = workload::generateTrainingTrace(cfg);
        const auto &s = trace.stats();
        const std::string label =
            std::string("GPT-NeoX-20B ") +
            (std::string(strat) == "N" ? "original" : "+LR");
        table.addRow(
            {label, std::to_string(s.allocCount),
             formatBytes(static_cast<Bytes>(s.avgAllocBytes())),
             formatBytes(s.maxAllocBytes),
             std::to_string(
                 s.allocCount /
                 static_cast<std::uint64_t>(s.iterations))});
        ctx.metric(label, "alloc_count",
                   static_cast<double>(s.allocCount));
        ctx.metric(label, "avg_alloc_bytes", s.avgAllocBytes());
        ctx.metric(label, "max_alloc_bytes",
                   static_cast<double>(s.maxAllocBytes));
    }
    table.print(ctx.out());

    ctx.out() << "\nSize histogram (+LR):\n";
    auto cfg = ctx.options().adjust(base);
    cfg.strategies = workload::Strategies::parse("LR");
    const auto trace = workload::generateTrainingTrace(cfg);
    ctx.out() << trace.sizeHistogram().render();
}

// ------------------------------------------------------- Figure 6

/** Measure one VM allocation on a fresh device via the real API. */
Tick
vmAllocLatency(ExperimentContext &ctx, Bytes block, Bytes chunk)
{
    vmm::Device dev(ctx.options().adjust(vmm::DeviceConfig{}));
    const Tick t0 = dev.now();
    const auto va = dev.memAddressReserve(block);
    if (!va.ok())
        GMLAKE_FATAL("reserve failed");
    VirtAddr cursor = *va;
    for (Bytes done = 0; done < block; done += chunk) {
        const auto h = dev.memCreate(chunk);
        if (!h.ok())
            GMLAKE_FATAL("create failed");
        if (const auto s = dev.memMap(cursor, *h); !s.ok())
            GMLAKE_FATAL("map failed");
        cursor += chunk;
    }
    if (const auto s = dev.memSetAccess(*va, block); !s.ok())
        GMLAKE_FATAL("setAccess failed");
    return dev.now() - t0;
}

Tick
nativeLatency(ExperimentContext &ctx, Bytes block)
{
    vmm::Device dev(ctx.options().adjust(vmm::DeviceConfig{}));
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(block);
    if (!p.ok())
        GMLAKE_FATAL("cudaMalloc failed");
    return dev.now() - t0;
}

void
runFig6(ExperimentContext &ctx)
{
    const std::vector<Bytes> blocks = {512_MiB, 1024_MiB, 2_GiB};
    const std::vector<Bytes> chunks = {2_MiB, 4_MiB, 8_MiB, 16_MiB,
                                       32_MiB, 64_MiB, 128_MiB,
                                       256_MiB, 512_MiB, 1024_MiB};

    Table table({"Chunk Size", "512MB block", "1GB block",
                 "2GB block", "2GB vs native"});
    const Tick native2G = nativeLatency(ctx, 2_GiB);

    {
        std::vector<std::string> row = {"Native (cudaMalloc)"};
        for (const Bytes block : blocks) {
            const Tick lat = nativeLatency(ctx, block);
            row.push_back(formatTime(lat));
            ctx.metric("native", "latency_ns_" + formatBytes(block),
                       static_cast<double>(lat));
        }
        row.push_back("1.0x");
        table.addRow(row);
    }
    for (const Bytes chunk : chunks) {
        std::vector<std::string> row = {formatBytes(chunk)};
        Tick lat2G = 0;
        for (const Bytes block : blocks) {
            if (chunk > block) {
                row.push_back("-");
                continue;
            }
            const Tick lat = vmAllocLatency(ctx, block, chunk);
            if (block == 2_GiB)
                lat2G = lat;
            row.push_back(formatTime(lat));
            ctx.metric(formatBytes(chunk),
                       "latency_ns_" + formatBytes(block),
                       static_cast<double>(lat));
        }
        const double slowdown = static_cast<double>(lat2G) /
                                static_cast<double>(native2G);
        row.push_back(formatDouble(slowdown, 1) + "x");
        ctx.metric(formatBytes(chunk), "slowdown_vs_native_2gb",
                   slowdown);
        table.addRow(row);
    }
    table.print(ctx.out());
}

// --------------------------------------------- sectioned tables

/** A titled table of rows, each with its first cell. */
struct Section
{
    std::string title;
    std::string column; //!< header of the first cell
    std::vector<std::pair<std::string, RunSpec>> rows;
};

/** The rows() of a scenario made of @p sections. */
template <std::vector<Section> (*sections)(const ExperimentOptions &)>
std::vector<RunSpec>
sectionRows(const ExperimentOptions &o)
{
    std::vector<RunSpec> rows;
    for (const Section &section : sections(o)) {
        for (const auto &[cell, row] : section.rows)
            rows.push_back(row);
    }
    return rows;
}

/**
 * Print one table per section: its column, then @p columns; each
 * line is @p cells(first cell, row), which replays the row.
 */
void
printSections(
    ExperimentContext &ctx, const std::vector<Section> &sections,
    const std::vector<std::string> &columns,
    const std::function<std::vector<std::string>(const std::string &,
                                                 const RunSpec &)> &cells)
{
    for (const Section &section : sections) {
        ctx.out() << section.title;
        std::vector<std::string> header = {section.column};
        header.insert(header.end(), columns.begin(), columns.end());
        Table table(header);
        for (const auto &[cell, row] : section.rows)
            table.addRow(cells(cell, row));
        table.print(ctx.out());
    }
}

/** Reserved memory and utilization without and with GMLake. */
const std::vector<std::string> kPairColumns = {
    "RM w/o GML", "RM w/ GML", "UR w/o GML", "UR w/ GML"};

std::vector<std::string>
withPairColumns(std::vector<std::string> tail)
{
    tail.insert(tail.begin(), kPairColumns.begin(), kPairColumns.end());
    return tail;
}

// ------------------------------------------------------ Figure 10

/** Models of Figures 10 and 11, with their per-GPU batch. */
const struct
{
    const char *model;
    int batch;
} kScalingModels[] = {
    {"OPT-13B", 16}, {"Vicuna-13B", 16}, {"GPT-NeoX-20B", 12},
};

std::vector<Section>
fig10Sections(const ExperimentOptions &o)
{
    std::vector<Section> sections;
    for (const auto &m : kScalingModels) {
        Section &section = sections.emplace_back();
        section.title = detail::concat("\n--- ", m.model,
                                       " (4 GPUs, batch ", m.batch,
                                       ") ---\n");
        section.column = "Strategy";
        for (const char *strat : {"N", "R", "LR", "RO", "LRO"}) {
            // N keeps full optimizer state resident; use a batch the
            // device can hold, like the paper's common batch size.
            const int batch = std::string(strat) == "N" ? m.batch / 2
                                                        : m.batch;
            section.rows.emplace_back(
                strat,
                trainRow(o, trainConfig(m.model, strat, 4, batch, 12),
                         std::string(m.model) + "/" + strat));
        }
    }
    return sections;
}

void
runFig10(ExperimentContext &ctx)
{
    printSections(ctx, fig10Sections(ctx.options()),
                  withPairColumns({"Saved"}),
                  [&](const std::string &strat, const RunSpec &row) {
                      const auto pair = ctx.replayPair(row);
                      return pairRow(strat, pair, {savedCell(pair)});
                  });
}

// ------------------------------------------------------ Figure 11

std::vector<Section>
fig11Sections(const ExperimentOptions &o)
{
    std::vector<Section> sections;
    for (const auto &m : kScalingModels) {
        Section &section = sections.emplace_back();
        section.title = detail::concat("\n--- ", m.model, " (LR, batch ",
                                       m.batch, " per GPU) ---\n");
        section.column = "GPUs";
        for (const int gpus : {1, 2, 4, 8, 16}) {
            section.rows.emplace_back(
                std::to_string(gpus),
                trainRow(o, trainConfig(m.model, "LR", gpus, m.batch, 10),
                         std::string(m.model) + "/g" +
                             std::to_string(gpus)));
        }
    }
    return sections;
}

void
runFig11(ExperimentContext &ctx)
{
    printSections(
        ctx, fig11Sections(ctx.options()),
        withPairColumns({"Thr w/o (s/s)", "Thr w/ (s/s)"}),
        [&](const std::string &gpus, const RunSpec &row) {
            const auto pair = ctx.replayPair(row);
            return pairRow(gpus, pair,
                           {formatDouble(pair.caching.samplesPerSec, 1),
                            formatDouble(pair.gmlake.samplesPerSec, 1)});
        });
}

// ------------------------------------------------------ Figure 12

std::vector<RunSpec>
fig12Rows(const ExperimentOptions &o)
{
    const struct
    {
        const char *label;
        const char *model;
        workload::Platform platform;
        int batch;
    } platforms[] = {
        {"FSDP-GLM-10B", "GLM-10B", workload::Platform::fsdp, 24},
        {"DS-OPT-13B", "OPT-13B",
         workload::Platform::deepspeedZero3, 16},
        {"CAI-GPT-2", "GPT-2", workload::Platform::colossalAi, 48},
    };
    std::vector<RunSpec> rows;
    for (const auto &p : platforms) {
        auto cfg = trainConfig(p.model, "LR", 4, p.batch, 12);
        cfg.platform = p.platform;
        rows.push_back(trainRow(o, cfg, p.label));
    }
    return rows;
}

void
runFig12(ExperimentContext &ctx)
{
    Table table({"Platform-Model", "RM w/o GML", "RM w/ GML",
                 "UR w/o GML", "UR w/ GML", "Saved"});
    for (const RunSpec &row : fig12Rows(ctx.options())) {
        const auto pair = ctx.replayPair(row);
        table.addRow(pairRow(row.label, pair, {savedCell(pair)}));
    }
    table.print(ctx.out());
}

// ------------------------------------------------------ Figure 13

std::vector<Section>
fig13Sections(const ExperimentOptions &o)
{
    const struct
    {
        const char *model;
        std::vector<int> batches;
    } sweeps[] = {
        {"OPT-1.3B", {1, 32, 64, 128, 192, 224, 249}},
        {"OPT-13B", {1, 20, 40, 60, 80, 100, 120}},
        {"GPT-NeoX-20B", {1, 12, 24, 36, 48, 60, 72, 84, 96, 108}},
    };
    std::vector<Section> sections;
    for (const auto &sweep : sweeps) {
        Section &section = sections.emplace_back();
        section.title = detail::concat("\n--- ", sweep.model, " ---\n");
        section.column = "Batch";
        for (const int batch : sweep.batches) {
            section.rows.emplace_back(
                std::to_string(batch),
                trainRow(o, trainConfig(sweep.model, "LR", 4, batch, 8),
                         std::string(sweep.model) + "/b" +
                             std::to_string(batch)));
        }
    }
    return sections;
}

void
runFig13(ExperimentContext &ctx)
{
    printSections(
        ctx, fig13Sections(ctx.options()),
        withPairColumns({"Thr w/o (s/s)", "Thr w/ (s/s)"}),
        [&](const std::string &batch, const RunSpec &row) {
            const auto pair = ctx.replayPair(row);
            return pairRow(
                batch, pair,
                {oomOr(pair.caching,
                       formatDouble(pair.caching.samplesPerSec, 1)),
                 oomOr(pair.gmlake,
                       formatDouble(pair.gmlake.samplesPerSec, 1))});
        });
}

// ------------------------------------------------------ Figure 14

void
printSeries(ExperimentContext &ctx, const RunResult &r, int columns)
{
    Table table({"Time", "Active", "Reserved"});
    const std::size_t n = r.series.size();
    const std::size_t stride = std::max<std::size_t>(
        1, n / static_cast<std::size_t>(columns));
    for (std::size_t i = 0; i < n; i += stride) {
        const auto &p = r.series[i];
        table.addRow({formatTime(p.time), gb(p.active) + " GB",
                      gb(p.reserved) + " GB"});
    }
    if (r.oom) {
        table.addRow({formatTime(r.oomAt), "OOM", "OOM"});
    }
    table.print(ctx.out());
}

std::vector<RunSpec>
fig14Rows(const ExperimentOptions &o)
{
    // The paper runs batch 72; our synthetic activations are a bit
    // leaner, so the baseline's OOM boundary sits at batch ~96
    // (see EXPERIMENTS.md). Use the boundary batch so the figure
    // shows the same phenomenon: the baseline dies mid-run, GMLake
    // completes the job with reserved ~= active.
    return {trainRow(o, trainConfig("GPT-NeoX-20B", "LR", 4, 96, 10),
                     "GPT-NeoX-20B/b96")};
}

void
runFig14(ExperimentContext &ctx)
{
    const auto pair = ctx.replayPair(fig14Rows(ctx.options()).front());

    ctx.out() << "\nPyTorch caching allocator:"
              << (pair.caching.oom ? "  (run ends in OOM)" : "")
              << "\n";
    printSeries(ctx, pair.caching, 16);
    ctx.out() << "\nGMLake:"
              << (pair.gmlake.oom ? "  (run ends in OOM)" : "")
              << "\n";
    printSeries(ctx, pair.gmlake, 16);

    // Full series for plotting, only when artifacts were asked for.
    if (ctx.options().plotFiles) {
        for (const auto *r : {&pair.caching, &pair.gmlake}) {
            CsvWriter csv("fig14_" + r->allocator + ".csv",
                          {"time_ns", "active_bytes",
                           "reserved_bytes"});
            for (const auto &p : r->series) {
                csv.addRow({std::to_string(p.time),
                            std::to_string(p.active),
                            std::to_string(p.reserved)});
            }
        }
        ctx.out() << "\n(full series written to fig14_caching.csv / "
                     "fig14_gmlake.csv)\n";
    }
}

// -------------------------------------------------------- Table 1

void
runTable1(ExperimentContext &ctx)
{
    const vmm::CostModel model;
    const Bytes block = 2_GiB;
    const double ref = static_cast<double>(model.nativeAlloc(block));
    const std::array<Bytes, 3> chunks = {2_MiB, 128_MiB, 1024_MiB};

    Table table({"Chunk Size", "cuMemReserve", "cuMemCreate",
                 "cuMemMap", "cuMemSetAccess", "Total"});
    for (const Bytes chunk : chunks) {
        const std::size_t n = block / chunk;
        const double reserve = model.memAddressReserve(block) / ref;
        const double create =
            static_cast<double>(n) * model.memCreate(chunk) / ref;
        const double map =
            static_cast<double>(n) * model.memMap(chunk) / ref;
        const double access = model.memSetAccess(n, chunk) / ref;
        const double total = reserve + create + map + access;
        table.addRow({formatBytes(chunk), formatDouble(reserve, 3),
                      formatDouble(create, 2), formatDouble(map, 3),
                      formatDouble(access, 2),
                      formatDouble(total, 1)});
        ctx.metric(formatBytes(chunk), "total_vs_cumemalloc", total);
    }
    table.print(ctx.out());
    ctx.out() << "(all values normalized to cuMemAlloc(2 GiB) = "
              << formatTime(model.nativeAlloc(block)) << ")\n";
}

// ------------------------------------------------------- ablation

std::vector<Section>
ablationSections(const ExperimentOptions &o)
{
    std::vector<Section> sections = {
        {"\nFragmentation limit sweep:\n", "fragLimit", {}},
        {"\nStitching mechanism:\n", "Configuration", {}},
        {"\nNear-match tolerance sweep:\n", "Tolerance", {}},
        {"\nStitchFree cache-limit sweep:\n", "maxCachedSBlocks", {}},
    };
    const auto add = [&](Section &section, const std::string &label,
                         const core::GMLakeConfig &gc) {
        section.rows.emplace_back(
            label, trainRow(o, trainConfig("OPT-13B", "LR", 4, 16, 12),
                            label));
        section.rows.back().second.gmlake = gc;
    };
    for (const Bytes limit :
         {2_MiB, 8_MiB, 16_MiB, 32_MiB, 64_MiB, 128_MiB}) {
        core::GMLakeConfig gc;
        gc.fragLimit = limit;
        add(sections[0], "fragLimit=" + formatBytes(limit), gc);
    }
    core::GMLakeConfig off;
    off.enableStitching = false;
    core::GMLakeConfig noRestitch;
    noRestitch.restitchOnSplit = false;
    add(sections[1], "stitching on (default)", {});
    add(sections[1], "stitching off", off);
    add(sections[1], "no re-stitch after split", noRestitch);
    for (const double tol : {0.0, 0.05, 0.125, 0.25}) {
        core::GMLakeConfig gc;
        gc.nearMatchTolerance = tol;
        add(sections[2], "tolerance=" + formatPercent(tol, 1), gc);
    }
    for (const std::size_t cap : {8UL, 64UL, 512UL, 8192UL}) {
        core::GMLakeConfig gc;
        gc.maxCachedSBlocks = cap;
        add(sections[3], "maxCachedSBlocks=" + std::to_string(cap), gc);
    }
    return sections;
}

void
runAblation(ExperimentContext &ctx)
{
    printSections(
        ctx, ablationSections(ctx.options()),
        {"Utilization", "Peak reserved", "Thr (s/s)", "Device API time"},
        [&](const std::string &label, const RunSpec &row) {
            const auto r = ctx.replay(row, AllocatorKind::gmlake).combined;
            return std::vector<std::string>{
                label, formatPercent(r.utilization),
                gb(r.peakReserved) + " GB",
                formatDouble(r.samplesPerSec, 2),
                formatTime(r.deviceApiTime)};
        });
}

// ------------------------------------------- native vs caching

std::vector<RunSpec>
nativeVsCachingRows(const ExperimentOptions &o)
{
    return {trainRow(o, trainConfig("OPT-1.3B", "R", 4, 8, 6),
                     "OPT-1.3B/R")};
}

void
runNativeVsCaching(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(nativeVsCachingRows(ctx.options()).front());
    const auto caching =
        ctx.replay(row, AllocatorKind::caching).combined;
    const auto native = ctx.replay(row, AllocatorKind::native).combined;

    Table table({"Allocator", "Iteration time", "Device API time",
                 "Throughput (samples/s)", "Slowdown"});
    auto addRow = [&](const RunResult &r) {
        table.addRow(
            {r.allocator,
             formatTime(r.simTime / std::max(1, r.iterationsDone)),
             formatTime(r.deviceApiTime),
             formatDouble(r.samplesPerSec, 1),
             formatDouble(static_cast<double>(r.simTime) /
                              static_cast<double>(caching.simTime),
                          1) +
                 "x"});
    };
    addRow(caching);
    addRow(native);
    table.print(ctx.out());
    const double allocatorSlowdown =
        static_cast<double>(native.deviceApiTime) /
        static_cast<double>(std::max<Tick>(1, caching.deviceApiTime));
    ctx.metric("native", "allocator_time_slowdown",
               allocatorSlowdown);
    ctx.out() << "(paper reports 9.7x end to end; the end-to-end gap "
                 "scales with the workload's\n allocation density — "
                 "allocator-time slowdown here: "
              << formatDouble(allocatorSlowdown, 0) << "x)\n";
}

// ------------------------------------------------ pytorch knobs

/** The caching-allocator knob sets compared against GMLake. */
std::vector<std::pair<std::string, alloc::CachingConfig>>
pytorchKnobSets()
{
    alloc::CachingConfig split;
    split.maxSplitSize = 256_MiB;
    alloc::CachingConfig roundup;
    roundup.roundupPower2Divisions = 8;
    alloc::CachingConfig gc;
    gc.gcThreshold = 0.7;
    alloc::CachingConfig all;
    all.maxSplitSize = 256_MiB;
    all.roundupPower2Divisions = 8;
    all.gcThreshold = 0.7;
    return {{"caching, defaults", {}},
            {"caching, max_split_size=256MB", split},
            {"caching, roundup_power2_divisions=8", roundup},
            {"caching, gc_threshold=0.7", gc},
            {"caching, all three knobs", all}};
}

/** Knob rows (replayed under caching), then "gmlake defaults". */
std::vector<RunSpec>
pytorchKnobsRows(const ExperimentOptions &o)
{
    const auto base = trainConfig("GPT-NeoX-20B", "LR", 4, 48, 10);
    std::vector<RunSpec> rows;
    for (const auto &[label, knobs] : pytorchKnobSets()) {
        rows.push_back(trainRow(o, base, label));
        rows.back().caching = knobs;
    }
    rows.push_back(trainRow(o, base, "gmlake defaults"));
    return rows;
}

void
runPytorchKnobs(ExperimentContext &ctx)
{
    Table table({"Configuration", "Utilization", "Peak reserved",
                 "Thr (s/s)"});
    const std::vector<RunSpec> rows = pytorchKnobsRows(ctx.options());
    for (const RunSpec &row : rows) {
        const bool lake = &row == &rows.back();
        const auto r = ctx.replay(row, lake ? AllocatorKind::gmlake
                                            : AllocatorKind::caching)
                           .combined;
        table.addRow({lake ? "gmlake, defaults" : row.label,
                      r.oom ? "OOM" : formatPercent(r.utilization),
                      r.oom ? "OOM" : gb(r.peakReserved) + " GB",
                      formatDouble(r.samplesPerSec, 2)});
    }
    table.print(ctx.out());
}

// ------------------------------------------------------- serving

workload::ServeConfig
servingConfig(const ExperimentOptions &o, int maxBatch)
{
    workload::ServeConfig cfg;
    cfg.model = workload::findModel("OPT-13B");
    cfg.requests = 192;
    cfg.maxBatch = maxBatch;
    return o.adjust(cfg);
}

const int kServingBatches[] = {8, 16, 32, 64};

std::vector<RunSpec>
servingRows(const ExperimentOptions &o)
{
    std::vector<RunSpec> rows;
    for (const int batch : kServingBatches) {
        rows.push_back(serveRow(o, servingConfig(o, batch),
                                "batch " + std::to_string(batch)));
    }
    return rows;
}

void
runServing(ExperimentContext &ctx)
{
    const workload::ServeConfig base = servingConfig(ctx.options(), 0);
    ctx.out() << "KV cache: "
              << formatBytes(workload::kvBytesPerToken(base.model))
              << " per token, quantum " << base.kvQuantumTokens
              << " tokens\n\n";

    Table table({"Batch", "Allocator", "Utilization", "Peak reserved",
                 "Tokens/s", "KV reallocs"});
    const std::vector<RunSpec> rows = servingRows(ctx.options());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const int batch = kServingBatches[i];
        // Token and realloc counts are generator facts the trace
        // does not carry: regenerate for them.
        const auto gen = workload::generateServingTrace(
            servingConfig(ctx.options(), batch));
        const RunSpec row = materialize(rows[i]);
        for (const auto kind : {AllocatorKind::caching,
                                AllocatorKind::gmlake}) {
            const auto r = ctx.replay(row, kind).combined;
            const double tokensPerSec =
                static_cast<double>(gen.generatedTokens) /
                (static_cast<double>(r.simTime) * 1e-9);
            table.addRow({std::to_string(batch),
                          allocatorKindName(kind),
                          oomOr(r, formatPercent(r.utilization)),
                          oomOr(r, gb(r.peakReserved) + " GB"),
                          oomOr(r, formatDouble(tokensPerSec, 0)),
                          std::to_string(gen.kvReallocs)});
            ctx.metric(row.label + " " + allocatorKindName(kind),
                       "tokens_per_sec", tokensPerSec);
        }
    }
    table.print(ctx.out());
}

// ----------------------------------------------- stitch vs move

std::vector<RunSpec>
stitchVsMoveRows(const ExperimentOptions &o)
{
    return {trainRow(o, trainConfig("OPT-13B", "LR", 4, 16, 12),
                     "OPT-13B/LR")};
}

void
runStitchVsMove(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(stitchVsMoveRows(ctx.options()).front());

    Table table({"Allocator", "Utilization", "Peak reserved",
                 "Thr (s/s)", "Defrag work"});
    auto addRow = [&](const char *name, const RunResult &r,
                      const std::string &work) {
        table.addRow({name, formatPercent(r.utilization),
                      gb(r.peakReserved) + " GB",
                      formatDouble(r.samplesPerSec, 2), work});
    };
    addRow("caching (no defrag)",
           ctx.replay(row, AllocatorKind::caching).combined, "-");

    ReplayHooks moving;
    moving.finish = [&](vmm::Device &, alloc::Allocator &allocator,
                        const MultiRunResult &multi) {
        const auto &compacting =
            static_cast<const alloc::CompactingAllocator &>(allocator);
        ctx.metric("compacting", "compaction_cycles",
                   static_cast<double>(compacting.compactions()));
        ctx.metric("compacting", "bytes_moved",
                   static_cast<double>(compacting.bytesMoved()));
        addRow("compacting (moves data)", multi.combined,
               std::to_string(compacting.compactions()) + " cycles, " +
                   formatBytes(compacting.bytesMoved()) + " copied");
    };
    ctx.replay(row, AllocatorKind::compacting, moving);

    ReplayHooks stitching;
    stitching.finish = [&](vmm::Device &, alloc::Allocator &allocator,
                           const MultiRunResult &multi) {
        const auto stitches =
            static_cast<const core::GMLakeAllocator &>(allocator)
                .strategy()
                .stitches;
        ctx.metric("gmlake", "stitches", static_cast<double>(stitches));
        addRow("gmlake (stitches)", multi.combined,
               std::to_string(stitches) + " stitches, 0 B copied");
    };
    ctx.replay(row, AllocatorKind::gmlake, stitching);
    table.print(ctx.out());
    ctx.out() << "(a moving collector also cannot be dropped under a "
                 "DL framework transparently:\n live tensors hold raw "
                 "device pointers that relocation would invalidate)\n";
}

// ------------------------------------------------- VMM designs

const struct
{
    const char *model;
    const char *strategies;
    int batch;
} kVmmTrainingRows[] = {
    {"OPT-13B", "LR", 16},
    {"GPT-NeoX-20B", "LR", 48},
    {"GPT-NeoX-20B", "LRO", 24},
};

const AllocatorKind kVmmDesigns[] = {AllocatorKind::caching,
                                     AllocatorKind::expandable,
                                     AllocatorKind::gmlake};

/** Three training rows, then the serving row "serve/b32". */
std::vector<RunSpec>
vmmDesignsRows(const ExperimentOptions &o)
{
    std::vector<RunSpec> rows;
    for (const auto &t : kVmmTrainingRows) {
        rows.push_back(trainRow(
            o, trainConfig(t.model, t.strategies, 4, t.batch, 10),
            std::string(t.model) + "/" + t.strategies + "/b" +
                std::to_string(t.batch)));
    }
    rows.push_back(serveRow(o, servingConfig(o, 32), "serve/b32"));
    return rows;
}

void
runVmmDesigns(ExperimentContext &ctx)
{
    const std::vector<RunSpec> rows = vmmDesignsRows(ctx.options());
    {
        ctx.out() << "\nTraining workloads (4 GPUs):\n";
        Table table({"Workload", "Allocator", "Utilization",
                     "Peak reserved", "Thr (s/s)"});
        for (std::size_t i = 0; i < std::size(kVmmTrainingRows); ++i) {
            const RunSpec row = materialize(rows[i]);
            for (const auto kind : kVmmDesigns) {
                const auto r = ctx.replay(row, kind).combined;
                table.addRow({std::string(kVmmTrainingRows[i].model) +
                                  " " + kVmmTrainingRows[i].strategies,
                              allocatorKindName(kind),
                              oomOr(r, formatPercent(r.utilization)),
                              oomOr(r, gb(r.peakReserved) + " GB"),
                              formatDouble(r.samplesPerSec, 2)});
            }
        }
        table.print(ctx.out());
    }

    {
        ctx.out() << "\nServing workload (OPT-13B, continuous "
                     "batching, 32 concurrent):\n";
        const auto gen = workload::generateServingTrace(
            servingConfig(ctx.options(), 32));
        const RunSpec row = materialize(rows.back());
        Table table({"Allocator", "Utilization", "Peak reserved",
                     "Tokens/s"});
        for (const auto kind : kVmmDesigns) {
            const auto r = ctx.replay(row, kind).combined;
            table.addRow(
                {allocatorKindName(kind),
                 oomOr(r, formatPercent(r.utilization)),
                 oomOr(r, gb(r.peakReserved) + " GB"),
                 formatDouble(
                     static_cast<double>(gen.generatedTokens) /
                         (static_cast<double>(r.simTime) * 1e-9),
                     0)});
        }
        table.print(ctx.out());
    }
}

// --------------------------------------------- colocation (sessions)

/**
 * Replay co-located @p row under @p kind, record it, and add each
 * session's verdict and peak as metrics.
 */
MultiRunResult
replayColocated(ExperimentContext &ctx, const RunSpec &row,
                AllocatorKind kind)
{
    MultiRunResult multi = ctx.replay(row, kind);
    const std::string name = allocatorKindName(kind);
    for (const SessionResult &s : multi.sessions) {
        ctx.metric(row.label + "/" + s.name, name + "_oom",
                   s.oom ? 1.0 : 0.0);
        ctx.metric(row.label + "/" + s.name, name + "_peak_live_bytes",
                   static_cast<double>(s.peakLiveBytes));
    }
    return multi;
}

std::string
sessionCell(const MultiRunResult &multi, const std::string &name)
{
    const SessionResult *s = multi.find(name);
    GMLAKE_ASSERT(s != nullptr, "unknown session: ", name);
    if (s->oom)
        return "OOM@" + formatTime(s->oomAt);
    return "ok, peak " + formatBytes(s->peakLiveBytes);
}

std::vector<RunSpec>
colocateTrainServeRows(const ExperimentOptions &o)
{
    // One device, two tenants: an OPT-13B fine-tune (the footprint
    // owner) and an OPT-13B KV-cache serving process (variable-size
    // churn in whatever is left). Fragmentation from either tenant
    // eats into the other's headroom.
    const auto train =
        o.adjust(trainConfig("OPT-13B", "LR", 4, 16, 8));
    workload::ServeConfig serve;
    serve.model = workload::findModel("OPT-13B");
    serve.requests = 160;
    serve.maxBatch = 24;
    serve = o.adjust(serve);

    RunSpec row = newRow(o, "OPT-13B train+serve", train.seed);
    row.addTrace("train", [train] {
        return workload::generateTrainingTrace(train);
    });
    row.addTrace("serve", [serve] {
        return workload::generateServingTrace(serve).trace;
    });
    return {row};
}

void
runColocateTrainServe(ExperimentContext &ctx)
{
    // One trace per tenant, replayed under every allocator — the
    // same-workload comparison the paper makes.
    const RunSpec row =
        materialize(colocateTrainServeRows(ctx.options()).front());
    Table table({"Allocator", "Utilization", "Peak reserved",
                 "Train session", "Serve session"});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        const auto multi = replayColocated(ctx, row, kind);
        table.addRow(
            {allocatorKindName(kind),
             formatPercent(multi.combined.utilization),
             gb(multi.combined.peakReserved) + " GB",
             sessionCell(multi, "train"),
             sessionCell(multi, "serve")});
        ctx.metric(row.label, allocatorKindName(kind),
                   multi.combined.utilization);
    }
    table.print(ctx.out());
    ctx.out() << "(per-session verdicts: a dead tenant OOMed and was "
                 "reclaimed; the survivor replayed on)\n";
}

std::vector<RunSpec>
colocateTwoServingRows(const ExperimentOptions &o)
{
    // Two serving tenants with different models and admission rates
    // share one device; the second tenant arrives mid-run, landing in
    // a heap the first tenant already shaped.
    workload::ServeConfig big;
    big.model = workload::findModel("OPT-13B");
    big.requests = 192;
    big.maxBatch = 32;
    big = o.adjust(big);

    workload::ServeConfig small = big;
    small.model = workload::findModel("GLM-10B");
    small.requests = std::max(1, big.requests / 2);
    small.maxBatch = 16;
    small.seed = deriveSeed(big.seed, 1);

    RunSpec row = newRow(o, "two-tenant serving", big.seed);
    row.addTrace("opt-13b", [big] {
        return workload::generateServingTrace(big).trace;
    });
    // The second tenant spins up after the first has been decoding
    // for a while.
    row.addTrace(
        "glm-10b",
        [small] { return workload::generateServingTrace(small).trace; },
        Tick{2'000'000'000});
    return {row};
}

void
runColocateTwoServing(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(colocateTwoServingRows(ctx.options()).front());
    Table table({"Allocator", "Utilization", "Peak reserved",
                 "OPT-13B tenant", "GLM-10B tenant"});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        const auto multi = replayColocated(ctx, row, kind);
        table.addRow(
            {allocatorKindName(kind),
             formatPercent(multi.combined.utilization),
             gb(multi.combined.peakReserved) + " GB",
             sessionCell(multi, "opt-13b"),
             sessionCell(multi, "glm-10b")});
        ctx.metric(row.label, allocatorKindName(kind),
                   multi.combined.utilization);
    }
    table.print(ctx.out());
}

std::vector<RunSpec>
colocateOversubRows(const ExperimentOptions &o)
{
    // Pack 1..4 identical training tenants onto a device sized for
    // about three of them: the sweep finds how many co-located jobs
    // each allocator sustains before fragmentation turns headroom
    // into OOMs.
    const auto base = o.adjust(trainConfig("OPT-1.3B", "LR", 4, 48, 6));
    std::vector<RunSpec> rows;
    for (int tenants = 1; tenants <= 4; ++tenants) {
        RunSpec row = newRow(o, "oversub x" + std::to_string(tenants),
                             base.seed, 32_GiB);
        for (int t = 0; t < tenants; ++t) {
            auto cfg = base;
            cfg.seed =
                deriveSeed(base.seed, static_cast<std::uint64_t>(t));
            row.addTrace("tenant" + std::to_string(t), [cfg] {
                return workload::generateTrainingTrace(cfg);
            });
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

void
runColocateOversub(ExperimentContext &ctx)
{
    Table table({"Tenants", "Allocator", "Utilization",
                 "Peak reserved", "Survivors"});
    for (const RunSpec &spec : colocateOversubRows(ctx.options())) {
        const RunSpec row = materialize(spec);
        for (const auto kind :
             {AllocatorKind::caching, AllocatorKind::gmlake}) {
            const auto multi = replayColocated(ctx, row, kind);
            int survivors = 0;
            for (const auto &s : multi.sessions)
                survivors += s.oom ? 0 : 1;
            table.addRow({std::to_string(row.sessions.size()),
                          allocatorKindName(kind),
                          formatPercent(multi.combined.utilization),
                          gb(multi.combined.peakReserved) + " GB",
                          std::to_string(survivors) + "/" +
                              std::to_string(row.sessions.size())});
            ctx.metric(row.label,
                       std::string(allocatorKindName(kind)) +
                           "_survivors",
                       survivors);
        }
    }
    table.print(ctx.out());
}

// --------------------------------------------- allocator stress

/**
 * Deep-pool stress trace for the allocator hot path. Phase 1 builds
 * and frees hundreds of modest blocks so the inactive pPool is deep;
 * phase 2 keeps a window of large, rarely-repeating requests
 * churning across several streams, so most allocations miss the
 * exact-match fast path and walk the BestFit candidate search.
 * Deterministic in @p seed; ~3 events per churn op.
 */
workload::Trace
makeStressTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kPoolBlocks = 512;
    constexpr std::size_t kLiveWindow = 16;

    // Phase 1: populate the inactive pool with 2-32 MiB blocks,
    // then free them all and synchronize so every block is reusable
    // by any stream.
    std::vector<workload::TensorId> pool;
    pool.reserve(kPoolBlocks);
    for (int i = 0; i < kPoolBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 16);
        pool.push_back(builder.alloc(
            size, static_cast<StreamId>(i % kStreams)));
        builder.compute(20'000);
    }
    for (const workload::TensorId id : pool)
        builder.free(id);
    builder.streamSync(kAnyStream);

    // Phase 2: churn. Requests span 64-512 MiB, far above any phase-1
    // block, so serving one means stitching (or splitting) deep into
    // the pool; the live window keeps steady pressure without
    // trending toward OOM.
    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size = 2_MiB * rng.uniformInt(32, 256);
        const auto stream = static_cast<StreamId>(
            rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(50'000);
        if (i % 1024 == 1023)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

std::vector<RunSpec>
stressAllocatorRows(const ExperimentOptions &o)
{
    // "Iterations" scale the churn phase: the default run replays
    // 100k+ events; CI smoke (--iterations 1) stays proportionally
    // short. 64-bit intermediate + cap: the CLI accepts iteration
    // counts up to INT_MAX, and an uncapped 2000x would overflow
    // (and a million-iteration trace would not fit in memory
    // anyway).
    const long long scaled =
        2000LL * static_cast<long long>(o.iterationsOr(20));
    const int churnOps = static_cast<int>(
        std::min<long long>(scaled, 2'000'000));
    RunSpec row = newRow(o, "stress", o.seedOr(42));
    // Exact-fit discipline: with the near-match tolerance at zero the
    // fast path only absorbs exact repeats, so the BestFit search —
    // the structure under test — carries the load.
    row.gmlake.nearMatchTolerance = 0.0;
    row.addTrace("main", [seed = row.seed, churnOps] {
        return makeStressTrace(seed, churnOps);
    });
    return {row};
}

/** GMLake's pool depth and strategy counters, as metrics and a line. */
void
reportPools(ExperimentContext &ctx, const alloc::Allocator &allocator,
            bool splits)
{
    const auto &lake =
        static_cast<const core::GMLakeAllocator &>(allocator);
    const auto &s = lake.strategy();
    ctx.metric("gmlake", "stitches", static_cast<double>(s.stitches));
    if (splits)
        ctx.metric("gmlake", "splits", static_cast<double>(s.splits));
    addMetrics(
        ctx, "gmlake",
        {{"s3_multi_blocks", static_cast<double>(s.s3MultiBlocks)},
         {"pblocks", static_cast<double>(lake.pBlockCount())},
         {"sblocks", static_cast<double>(lake.sBlockCount())}});
    ctx.out() << "gmlake pools at end: " << lake.pBlockCount()
              << " pBlocks, " << lake.sBlockCount()
              << " sBlocks; strategy: " << s.s1ExactMatch << " exact, "
              << s.s2SingleBlock << " single, " << s.s3MultiBlocks
              << " stitched, " << s.s4Insufficient << " grown\n";
}

void
runStressAllocator(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(stressAllocatorRows(ctx.options()).front());
    ctx.out() << "stress workload: " << row.sessions[0].trace()->size()
              << " events, deep inactive pools, 4 streams\n\n";

    Table table({"Allocator", "Utilization", "Peak reserved",
                 "Alloc wall", "p50", "p99", "VMM wall",
                 "Run wall"});
    auto wallRow = [&](const RunResult &r) {
        table.addRow({r.allocator,
                      oomOr(r, formatPercent(r.utilization)),
                      oomOr(r, gb(r.peakReserved) + " GB"),
                      ms(r.allocWallNs), us(r.allocWallP50Ns),
                      us(r.allocWallP99Ns), ms(r.vmmWallNs),
                      ms(r.runWallNs)});
        addMetrics(
            ctx, r.allocator,
            {{"alloc_wall_ns", static_cast<double>(r.allocWallNs)},
             {"alloc_wall_p50_ns", static_cast<double>(r.allocWallP50Ns)},
             {"alloc_wall_p99_ns", static_cast<double>(r.allocWallP99Ns)},
             {"vmm_wall_ns", static_cast<double>(r.vmmWallNs)},
             {"run_wall_ns", static_cast<double>(r.runWallNs)}});
    };

    wallRow(ctx.replay(row, AllocatorKind::caching).combined);

    // The gmlake pool depth and strategy counters land in the report
    // alongside the wallclock.
    ReplayHooks hooks;
    hooks.finish = [&](vmm::Device &, alloc::Allocator &allocator,
                       const MultiRunResult &multi) {
        wallRow(multi.combined);
        reportPools(ctx, allocator, true);
    };
    ctx.replay(row, AllocatorKind::gmlake, hooks);
    table.print(ctx.out());
}

// --------------------------------------------- fragmentation churn

/**
 * Fragmentation-churn trace for the VMM bookkeeping hot path.
 * Phase 1 lays down a checkerboard: thousands of small blocks with
 * every other one freed, so handle-per-allocation allocators see a
 * hole-riddled physical space and gmlake a deep, fragmented
 * inactive pool. Phase 2 churns a live window of mostly-small
 * requests with a deep-stitch request every fourth op (hundreds of
 * 2 MiB chunks per sBlock), while the checkerboard survivors drip
 * away to keep the hole set moving. Deterministic in @p seed.
 */
workload::Trace
makeFragChurnTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kCheckerBlocks = 2048;
    constexpr std::size_t kLiveWindow = 24;

    // Phase 1: checkerboard of 2-16 MiB blocks. All are placed
    // first, then every other one is freed, so the freed ranges
    // cannot be reused in place: each becomes a persistent hole
    // pinned between two live neighbours.
    std::vector<workload::TensorId> placed;
    placed.reserve(kCheckerBlocks);
    for (int i = 0; i < kCheckerBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 8);
        placed.push_back(builder.alloc(
            size, static_cast<StreamId>(i % kStreams)));
        builder.compute(10'000);
    }
    std::vector<workload::TensorId> survivors;
    survivors.reserve(kCheckerBlocks / 2);
    for (int i = 0; i < kCheckerBlocks; ++i) {
        if (i % 2 == 1)
            builder.free(placed[i]);
        else
            survivors.push_back(placed[i]);
    }
    builder.streamSync(kAnyStream);

    // Phase 2: churn. Three small refills per deep stitch keep both
    // ends of the size spectrum hot; dripping the survivors out
    // keeps holes merging and splitting for the whole run.
    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    std::size_t nextSurvivor = 0;
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size =
            i % 4 == 3 ? 2_MiB * rng.uniformInt(64, 640)
                       : 2_MiB * rng.uniformInt(1, 16);
        const auto stream = static_cast<StreamId>(
            rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(30'000);
        if (i % 32 == 31 && nextSurvivor < survivors.size())
            builder.free(survivors[nextSurvivor++]);
        if (i % 128 == 127) {
            builder.streamSync(static_cast<StreamId>(
                rng.uniformInt(0, kStreams - 1)));
        }
        if (i % 512 == 511)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

std::vector<RunSpec>
fragChurnRows(const ExperimentOptions &o)
{
    // 64-bit intermediate + cap, as in the stress scenario: smoke
    // runs shrink proportionally, full scale replays ~100k events.
    const long long scaled =
        1600LL * static_cast<long long>(o.iterationsOr(20));
    const int churnOps = static_cast<int>(
        std::min<long long>(scaled, 2'000'000));
    // A 40 GiB device keeps real pressure on the hole map without
    // pushing the caching allocator over the edge; zero near-match
    // tolerance forces the stitch-heavy search exactly like the
    // stress scenario.
    RunSpec row = newRow(o, "frag-churn", o.seedOr(1337), 40_GiB);
    row.gmlake.nearMatchTolerance = 0.0;
    row.addTrace("main", [seed = row.seed, churnOps] {
        return makeFragChurnTrace(seed, churnOps);
    });
    return {row};
}

void
runFragChurn(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(fragChurnRows(ctx.options()).front());
    ctx.out() << "frag-churn workload: "
              << row.sessions[0].trace()->size()
              << " events, checkerboard holes + deep stitches, 4 "
                 "streams\n\n";

    Table table({"Allocator", "Utilization", "Peak holes",
                 "Alloc wall", "p99", "VMM wall", "Run wall"});
    // The device's hole statistics and gmlake's pools are read before
    // the replay tears them down.
    ReplayHooks hooks;
    hooks.finish = [&](vmm::Device &device, alloc::Allocator &allocator,
                       const MultiRunResult &multi) {
        const RunResult &r = multi.combined;
        const std::size_t peakHoles = device.phys().peakHoleCount();
        table.addRow({r.allocator,
                      oomOr(r, formatPercent(r.utilization)),
                      std::to_string(peakHoles), ms(r.allocWallNs),
                      us(r.allocWallP99Ns), ms(r.vmmWallNs),
                      ms(r.runWallNs)});
        // phys_peak_holes is the deterministic fragmentation shape:
        // pinned by the decision digests, so a hole-structure rewrite
        // that changes placement is caught immediately.
        addMetrics(
            ctx, r.allocator,
            {{"alloc_wall_ns", static_cast<double>(r.allocWallNs)},
             {"alloc_wall_p99_ns", static_cast<double>(r.allocWallP99Ns)},
             {"vmm_wall_ns", static_cast<double>(r.vmmWallNs)},
             {"run_wall_ns", static_cast<double>(r.runWallNs)},
             {"phys_peak_holes", static_cast<double>(peakHoles)}});
        if (r.allocator == "gmlake")
            reportPools(ctx, allocator, false);
    };
    for (const auto kind : {AllocatorKind::native, AllocatorKind::caching,
                            AllocatorKind::gmlake})
        ctx.replay(row, kind, hooks);
    table.print(ctx.out());
}

// ------------------------------------------- host offload (tiered)

/**
 * Deterministic heterogeneous split of @p total into @p n chunk-
 * aligned sizes growing linearly (1, 2, ..., n units): the spread is
 * what lets the LRU and size-aware eviction policies diverge.
 */
std::vector<Bytes>
residentSplit(Bytes total, int n)
{
    const Bytes units =
        static_cast<Bytes>(n) * static_cast<Bytes>(n + 1) / 2;
    std::vector<Bytes> sizes;
    sizes.reserve(static_cast<std::size_t>(n));
    for (int i = 1; i <= n; ++i) {
        sizes.push_back(roundUp(
            total * static_cast<Bytes>(i) / units, 2_MiB));
    }
    return sizes;
}

/**
 * One oversubscription tenant: a resident set of large, long-lived
 * tensors (weights + optimizer state) touched phase by phase every
 * iteration, plus transient activations churned inside each phase.
 * With prefetch hints on, the next phase's resident tensor is
 * announced one compute phase ahead, so a spilled tensor's H2D can
 * overlap the current phase instead of stalling the touch.
 * Deterministic in @p seed.
 */
workload::Trace
makeOffloadTenantTrace(std::uint64_t seed, Bytes residentBytes,
                       int residentTensors, int iterations,
                       int transientsPerPhase, Tick phaseNs,
                       bool prefetchHints)
{
    Rng rng(seed);
    workload::TraceBuilder builder;

    std::vector<workload::TensorId> resident;
    resident.reserve(static_cast<std::size_t>(residentTensors));
    for (const Bytes size :
         residentSplit(residentBytes, residentTensors)) {
        resident.push_back(builder.alloc(size, 0));
        builder.compute(phaseNs / 8);
    }

    std::vector<workload::TensorId> transients;
    for (int iter = 0; iter < iterations; ++iter) {
        for (std::size_t phase = 0; phase < resident.size();
             ++phase) {
            if (prefetchHints) {
                builder.prefetch(
                    resident[(phase + 1) % resident.size()]);
            }
            builder.touch(resident[phase]);
            transients.clear();
            for (int t = 0; t < transientsPerPhase; ++t) {
                const Bytes size =
                    2_MiB * rng.uniformInt(32, 128); // 64-256 MiB
                const auto stream = static_cast<StreamId>(
                    1 + rng.uniformInt(0, 2));
                transients.push_back(builder.alloc(size, stream));
                builder.compute(phaseNs /
                                (2 * transientsPerPhase));
            }
            builder.compute(phaseNs / 2);
            for (const workload::TensorId id : transients)
                builder.free(id);
        }
        builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/**
 * One serving tenant for the burst scenario: model weights touched
 * round-robin each decode round, a sliding window of KV-cache blocks
 * (one admitted per round, oldest completed once the window is
 * full), and per-round touches of random live KV blocks — the
 * decode reads. Deterministic in @p seed.
 */
workload::Trace
makeServeOffloadTrace(std::uint64_t seed, Bytes weightBytes,
                      int weightTensors, int rounds,
                      std::size_t kvWindow, Tick roundNs,
                      bool prefetchHints)
{
    Rng rng(seed);
    workload::TraceBuilder builder;

    std::vector<workload::TensorId> weights;
    weights.reserve(static_cast<std::size_t>(weightTensors));
    for (const Bytes size :
         residentSplit(weightBytes, weightTensors)) {
        weights.push_back(builder.alloc(size, 0));
        builder.compute(roundNs / 8);
    }

    std::vector<workload::TensorId> kv;
    for (int round = 0; round < rounds; ++round) {
        const std::size_t layer =
            static_cast<std::size_t>(round) % weights.size();
        if (prefetchHints)
            builder.prefetch(weights[(layer + 1) % weights.size()]);
        builder.touch(weights[layer]);
        // Admit one request's KV buffer; decode reads two live ones.
        kv.push_back(builder.alloc(
            2_MiB * rng.uniformInt(64, 192), // 128-384 MiB
            static_cast<StreamId>(1 + round % 3)));
        for (int reads = 0; reads < 2; ++reads) {
            builder.touch(kv[static_cast<std::size_t>(
                rng.uniformInt(0, kv.size() - 1))]);
        }
        builder.compute(roundNs);
        if (kv.size() > kvWindow) {
            builder.free(kv.front());
            kv.erase(kv.begin());
        }
        if (round % 8 == 7)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/**
 * Replay the offload @p row under every variant of @p variants and
 * tabulate survivors and tier traffic; each run's kills and traffic
 * also land as metrics.
 */
void
replayOffloadVariants(ExperimentContext &ctx, const RunSpec &row,
                      const std::vector<AllocatorVariant> &variants)
{
    Table table({"Allocator", "Survivors", "Peak reserved",
                 "Evicted", "Faulted", "Copy stall", "Sim time"});
    for (const AllocatorVariant &variant : variants) {
        const auto multi = ctx.replay(row, variant);
        const std::string name = variant.name();
        int kills = 0;
        for (const SessionResult &s : multi.sessions)
            kills += s.oom ? 1 : 0;
        const RunResult &r = multi.combined;
        for (const auto &[suffix, value] :
             {std::pair{"_kills", static_cast<double>(kills)},
              {"_evicted_bytes", static_cast<double>(r.evictedBytes)},
              {"_faulted_bytes", static_cast<double>(r.faultedBytes)},
              {"_stall_ns", static_cast<double>(r.stallNs)}})
            ctx.metric(row.label, name + suffix, value);
        table.addRow({name,
                      std::to_string(multi.sessions.size() - kills) +
                          "/" + std::to_string(multi.sessions.size()),
                      gb(r.peakReserved) + " GB",
                      formatBytes(r.evictedBytes),
                      formatBytes(r.faultedBytes), formatTime(r.stallNs),
                      formatTime(r.simTime)});
    }
    table.print(ctx.out());
}

constexpr auto kLru = offload::PolicyKind::lru;
constexpr auto kSizeAware = offload::PolicyKind::sizeAware;

std::vector<RunSpec>
oversubOffloadRows(const ExperimentOptions &o)
{
    // Four training tenants, each with a 12 GiB resident set, on a
    // 32 GiB device: 48 GiB of demand, 1.5x capacity. Without a host
    // tier the device cannot admit the third tenant's resident set;
    // with one, idle tenants' weights spill to host and fault back
    // when their phase comes around.
    const int iterations = o.iterationsOr(6);
    RunSpec row = newRow(o, "oversub 1.5x", o.seedOr(42), 32_GiB);
    for (int t = 0; t < 4; ++t) {
        const std::uint64_t seed =
            deriveSeed(row.seed, static_cast<std::uint64_t>(t));
        row.addTrace(
            "tenant" + std::to_string(t),
            [seed, iterations] {
                return makeOffloadTenantTrace(
                    seed, 12_GiB, /*residentTensors=*/6, iterations,
                    /*transientsPerPhase=*/3,
                    /*phaseNs=*/Tick{40'000'000},
                    /*prefetchHints=*/true);
            },
            static_cast<Tick>(t) * Tick{25'000'000});
    }
    return {row};
}

void
runOversubOffload(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(oversubOffloadRows(ctx.options()).front());
    ctx.out() << "oversub workload: " << row.sessions.size()
              << " tenants x 12 GiB resident on 32 GiB (1.5x "
                 "capacity), "
              << ctx.options().iterationsOr(6)
              << " iterations each\n\n";
    replayOffloadVariants(
        ctx, row,
        {AllocatorKind::native, AllocatorKind::caching,
         AllocatorKind::gmlake, {AllocatorKind::caching, kLru},
         {AllocatorKind::gmlake, kLru},
         {AllocatorKind::gmlake, kSizeAware}});
    ctx.out() << "(a host tier only helps an allocator that can "
                 "release physical memory under live\n virtual "
                 "addresses: gmlake+offload keeps every tenant, the "
                 "cudaMalloc-backed caching\n allocator cannot spill "
                 "live data and still loses tenants)\n";
}

std::vector<RunSpec>
serveBurstOffloadRows(const ExperimentOptions &o)
{
    // A steady serving tenant (10 GiB of weights + a KV window) owns
    // a 16 GiB device; a burst tenant with its own model instance
    // arrives mid-run and pushes combined demand to ~1.7x capacity,
    // then drains. Spiky serving is the offload tier's natural home:
    // the burst borrows the steady tenant's idle weights' backing
    // and gives it back when the spike ends.
    const int iterations = o.iterationsOr(4);
    RunSpec row = newRow(o, "serve burst", o.seedOr(1234), 16_GiB);
    const struct
    {
        int rounds;
        std::size_t kvWindow;
        Tick start; //!< the burst lands once the steady tenant is warm
    } tenants[] = {{24 * iterations, 6, 0},
                   {10 * iterations, 4, Tick{150'000'000}}};
    for (std::uint64_t t = 0; t < 2; ++t) {
        const std::uint64_t seed = deriveSeed(row.seed, t);
        const auto &tenant = tenants[t];
        row.addTrace(
            "tenant" + std::to_string(t),
            [seed, tenant] {
                return makeServeOffloadTrace(
                    seed, 10_GiB, /*weightTensors=*/5, tenant.rounds,
                    tenant.kvWindow, /*roundNs=*/Tick{20'000'000},
                    /*prefetchHints=*/true);
            },
            tenant.start);
    }
    return {row};
}

void
runServeBurstOffload(ExperimentContext &ctx)
{
    const RunSpec row =
        materialize(serveBurstOffloadRows(ctx.options()).front());
    ctx.out() << "serve-burst workload: steady 10 GiB + burst 10 GiB "
                 "on 16 GiB (~1.7x during the burst)\n\n";
    replayOffloadVariants(ctx, row,
                          {AllocatorKind::caching,
                           AllocatorKind::gmlake,
                           {AllocatorKind::caching, kLru},
                           {AllocatorKind::gmlake, kLru},
                           {AllocatorKind::gmlake, kSizeAware}});
}

// --------------------------------------------- cluster (thread pool)

/** The training run every rank of cluster-ranks replays. */
RunSpec
clusterBase(const ExperimentOptions &o)
{
    return trainRow(o, trainConfig("OPT-13B", "LR", 4, 16, 6), "");
}

std::vector<RunSpec>
clusterRanksRows(const ExperimentOptions &o)
{
    return clusterRanks(clusterBase(o));
}

void
runClusterRanks(ExperimentContext &ctx)
{
    const RunSpec base = clusterBase(ctx.options());
    const int threads = ctx.options().threadCount();
    Table table({"Allocator", "Worst-rank reserved",
                 "Best-rank reserved", "Min utilization",
                 "Global thr (s/s)"});
    for (const auto kind :
         {AllocatorKind::caching, AllocatorKind::gmlake}) {
        const auto cluster = runCluster(base, kind, threads);
        for (std::size_t r = 0; r < cluster.ranks.size(); ++r) {
            ctx.record("rank" + std::to_string(r),
                       cluster.ranks[r].allocator, cluster.ranks[r]);
        }
        table.addRow(
            {allocatorKindName(kind),
             gb(cluster.maxPeakReserved()) + " GB",
             gb(cluster.minPeakReserved()) + " GB",
             formatPercent(cluster.minUtilization()),
             formatDouble(cluster.globalSamplesPerSec(*base.train), 1)});
        ctx.metric(allocatorKindName(kind), "worst_rank",
                   static_cast<double>(cluster.worstRank()));
        ctx.metric(allocatorKindName(kind),
                   "global_samples_per_sec",
                   cluster.globalSamplesPerSec(*base.train));
    }
    table.print(ctx.out());
    ctx.out() << "(ranks executed on " << threads
              << " worker thread(s); results are identical at any "
                 "thread count)\n";
}

// --------------------------------------------------- serving day

/**
 * Full-scale streaming replay: a day of paged-attention KV-cache
 * serving synthesized by KvServeSource and pulled through the engine
 * one event at a time — at the default scale ~10⁷ events per
 * allocator, never materialized. Host RSS must therefore stay flat
 * against event count (the rss_growth_bytes metric; CI asserts a
 * ceiling on the smoke run), which is the whole point of the
 * EventSource cursor API.
 */
std::vector<RunSpec>
serveDayRows(const ExperimentOptions &o)
{
    // --iterations scales the request count; the default (8) lands
    // at ≥ 10⁷ events, CI smoke (--iterations 1) stays proportional.
    const long long scale = o.iterationsOr(8);
    workload::KvServeConfig cfg;
    cfg.model = workload::findModel("OPT-1.3B");
    cfg.maxBatch = 48;
    cfg.requests = static_cast<std::uint64_t>(
        std::min<long long>(7000LL * scale, 2'000'000));
    cfg.medianPromptTokens = 384;
    cfg.meanGenerateTokens = 160;
    cfg.maxContextTokens = 4096;
    cfg.blockTokens = 64;
    cfg.seed = o.seedOr(42);

    // A tight device keeps the block churn honest (~7 GiB working
    // set on 12 GiB); series sampling is off so the replay allocates
    // nothing proportional to the event count.
    RunSpec row = newRow(o, "serve-day", cfg.seed, 12_GiB);
    row.engine.recordSeries = false;
    row.sessions.push_back(SessionSpec{
        "main", nullptr,
        [cfg] { return std::make_shared<workload::KvServeSource>(cfg); },
        0});
    return {row};
}

void
runServeDay(ExperimentContext &ctx)
{
    const RunSpec row = serveDayRows(ctx.options()).front();
    {
        const auto probe =
            std::static_pointer_cast<workload::KvServeSource>(
                row.sessions[0].stream());
        ctx.out() << "serving day: " << probe->config().requests
                  << " requests, ~" << probe->sizeHint()
                  << " events (estimated), "
                  << formatBytes(probe->blockBytes())
                  << " KV blocks, streamed (never materialized)\n\n";
    }

    Table table({"Allocator", "Events", "Served", "Preempted",
                 "Peak reserved", "Util", "Events/s", "RSS growth"});
    // The generator's counters are read while the engine still holds
    // the source; RSS growth is measured from just before the run.
    const workload::KvServeSource *source = nullptr;
    Bytes rssBefore = 0;
    ReplayHooks hooks;
    hooks.setup = [&](vmm::Device &, alloc::Allocator &, EngineOptions &,
                      const std::vector<Session> &sessions) {
        source = &static_cast<const workload::KvServeSource &>(
            sessions[0].source());
        rssBefore = currentRssBytes();
    };
    hooks.finish = [&](vmm::Device &, alloc::Allocator &,
                       const MultiRunResult &multi) {
        const RunResult &r = multi.combined;
        const auto &counters = source->counters();
        const Bytes rssPeak = peakRssBytes();
        const Bytes rssGrowth =
            rssPeak > rssBefore ? rssPeak - rssBefore : 0;
        const double eventsPerSec =
            r.runWallNs > 0
                ? static_cast<double>(counters.emitted) /
                      (static_cast<double>(r.runWallNs) * 1e-9)
                : 0.0;
        // Deterministic workload facts (digest-pinned), then host-side
        // measurements ("wall"/"rss" names are excluded from the
        // decision digests by design).
        addMetrics(
            ctx, r.allocator,
            {{"events", static_cast<double>(counters.emitted)},
             {"requests_served", static_cast<double>(counters.served)},
             {"preemptions", static_cast<double>(counters.preempted)},
             {"prefix_hits", static_cast<double>(counters.prefixHits)},
             {"block_allocs", static_cast<double>(counters.blockAllocs)},
             {"wall_events_per_sec", eventsPerSec},
             {"peak_rss_bytes", static_cast<double>(rssPeak)},
             {"rss_growth_bytes", static_cast<double>(rssGrowth)},
             {"alloc_wall_p50_ns", static_cast<double>(r.allocWallP50Ns)},
             {"alloc_wall_p99_ns", static_cast<double>(r.allocWallP99Ns)},
             {"run_wall_ns", static_cast<double>(r.runWallNs)}});
        table.addRow(
            {r.allocator, std::to_string(counters.emitted),
             std::to_string(counters.served),
             std::to_string(counters.preempted),
             oomOr(r, gb(r.peakReserved) + " GB"),
             oomOr(r, formatPercent(r.utilization)),
             formatDouble(eventsPerSec * 1e-6, 2) + " M/s",
             formatBytes(rssGrowth)});
    };
    for (const auto kind : {AllocatorKind::gmlake, AllocatorKind::caching,
                            AllocatorKind::native})
        ctx.replay(row, kind, hooks);
    table.print(ctx.out());
    ctx.out() << "(streamed replay: host RSS growth is bounded by "
                 "live state, not event count)\n";
}

// ----------------------------------------------- policy sweep

std::vector<RunSpec>
sweepSmokeRows(const ExperimentOptions &o)
{
    // Two staggered GPT-2 tenants: small enough for CI, two sessions
    // so the resume path covers the co-location machinery (stream
    // namespaces, per-session seeds).
    const int iterations = o.iterationsOr(2);
    RunSpec row = newRow(o, "smoke", o.seedOr(42), 16_GiB);
    for (std::uint64_t t = 0; t < 2; ++t) {
        auto cfg = trainConfig("GPT-2", "LR", 2, 8, iterations);
        cfg.seed = deriveSeed(row.seed, t);
        row.addTrace(
            "train-" + std::to_string(t),
            [cfg] { return workload::generateTrainingTrace(cfg); },
            static_cast<Tick>(t) * Tick{5'000'000});
    }
    return {row};
}

void
runSweepSmoke(ExperimentContext &ctx)
{
    const RunSpec row = sweepSmokeRows(ctx.options()).front();
    SweepRunOptions options;
    options.threads = static_cast<std::size_t>(
        ctx.options().threadCount());
    const SweepReport report = runSweep(
        row, defaultSweepGrid().expand(row.gmlake), options);

    // Not whole replays of the row: the shared warmup prefix and
    // each point's tail.
    ctx.record("warmup", report.allocator, report.warmup);
    for (const SweepPointRecord &rec : report.points)
        ctx.record(rec.point.label, report.allocator, rec.tail);
    ctx.metric("sweep", "points",
               static_cast<double>(report.points.size()));
    ctx.metric("sweep", "frontier_points",
               static_cast<double>(report.frontier().size()));

    ctx.out() << "sweep workload: " << row.sessions.size()
              << " co-located sessions, split at "
              << formatTime(report.splitTime)
              << " of virtual time; " << report.points.size()
              << " policy points forked from one checkpoint\n\n";
    printSweepTable(report, ctx.out());
    ctx.out() << "(warmup prefix replayed once, checkpointed; each "
                 "point restores the checkpoint and replays only "
                 "the divergent tail — bit-identical to a full "
                 "re-replay per point)\n";
}

} // namespace

// ----------------------------------------------------- registration

const std::vector<Experiment> &
allExperiments()
{
    static const std::vector<Experiment> experiments = {
        {"headline", "aggregate",
            "Section 5 — headline aggregate over the workload matrix",
            "Paper: avg 9.2 GB (max 25 GB) reserved saved; avg 15% "
            "(max 33%) fragmentation removed, over 76 workloads",
            runHeadline, headlineRows},
        {"fig3", "figure",
            "Figure 3 — utilization vs strategy combination "
            "(baseline allocator)",
            "Paper: P 97%, PR 80%, PLR 76%, PRO 73%, PLRO 65% — "
            "complex strategies fragment the caching allocator",
            runFig3, fig3Rows},
        {"fig4", "figure",
            "Figure 4 — utilization vs GPU count (baseline allocator)",
            "Paper: 91% at 1 GPU degrading to 76% at 16 GPUs "
            "(OPT-13B, ZeRO-3 sharding)",
            runFig4, fig4Rows},
        {"fig5", "figure",
            "Figure 5 — allocation stream shape, original vs LR "
            "(GPT-NeoX-20B)",
            "Paper: 46k allocations @ 93 MB avg vs 76k @ 85 MB — "
            "strategies make requests more frequent and smaller",
            runFig5, nullptr},
        {"fig6", "figure",
            "Figure 6 — native vs virtual-memory allocation latency",
            "Paper: VM allocator with 2 MB chunks is ~115x slower than "
            "cudaMalloc; gap closes as chunks grow",
            runFig6, nullptr},
        {"fig10", "figure",
            "Figure 10 — strategy scalability, caching vs GMLake",
            "Paper: baseline fragments 5-24% under strategy combos; "
            "GMLake holds ~90%+ utilization on every one",
            runFig10, sectionRows<fig10Sections>},
        {"fig11", "figure",
            "Figure 11 — GPU scale-out, caching vs GMLake (LR)",
            "Paper: fragmentation grows with GPU count; GMLake keeps "
            "~90% utilization and baseline-level throughput",
            runFig11, sectionRows<fig11Sections>},
        {"fig12", "figure",
            "Figure 12 — platform scalability, caching vs GMLake",
            "Paper: reductions of 9-33% fragmentation and 7-25 GB "
            "reserved memory across FSDP / DeepSpeed / Colossal-AI",
            runFig12, fig12Rows},
        {"fig13", "figure",
            "Figure 13 — batch-size sweep, caching vs GMLake "
            "(LR + ZeRO-3, 4 GPUs)",
            "Paper: GMLake sustains larger batches (baseline OOMs "
            "first) at equal or better throughput",
            runFig13, sectionRows<fig13Sections>},
        {"fig14", "figure",
            "Figure 14 — memory trace, GPT-NeoX-20B at the OOM "
            "boundary (LR, 4 GPUs)",
            "Paper: PyTorch OOMs ~200 s in; GMLake's reserved tracks "
            "its active memory and converges after ~4 iterations",
            runFig14, fig14Rows},
        {"table1", "table",
            "Table 1 — VMM API execution-time breakdown",
            "Paper: reserve 0.003/0.003/0.002, create 18.1/0.89/0.79, "
            "map 0.70/0.01/0.002, setAccess 96.8/8.2/0.7, total "
            "115.4/9.1/1.5 (x cuMemAlloc)",
            runTable1, nullptr},
        {"ablation", "extension",
            "Ablation — GMLake design knobs (OPT-13B, LR, 4 GPUs)",
            "Trade-offs the paper discusses in Sections 4.2.2/4.2.3",
            runAblation, sectionRows<ablationSections>},
        {"native-vs-caching", "section",
            "Section 2.2 — native vs caching allocator, end to end",
            "Paper: disabling the caching allocator slows OPT-1.3B "
            "training by ~9.7x",
            runNativeVsCaching, nativeVsCachingRows},
        {"pytorch-knobs", "extension",
            "Extension — PyTorch allocator knobs vs GMLake",
            "Tuning the caching allocator recovers part of the "
            "fragmentation; stitching removes it",
            runPytorchKnobs, pytorchKnobsRows},
        {"serving", "extension",
            "Extension — KV-cache serving (continuous batching, "
            "OPT-13B)",
            "Variable-length KV buffers fragment the caching "
            "allocator; stitching absorbs them (cf. vLLM, Section 6)",
            runServing, servingRows},
        {"stitch-vs-move", "extension",
            "Related work — stitching vs compaction-based moving",
            "Paper Section 6: stitching avoids the data movement of "
            "consolidation-based defragmentation",
            runStitchVsMove, stitchVsMoveRows},
        {"colocate-train-serve", "extension",
            "Colocation — training + KV-cache serving on one GPU "
            "(multi-session engine)",
            "Co-located tenants contend for one heap; fragmentation "
            "from either eats the other's headroom, stitching returns "
            "it",
            runColocateTrainServe, colocateTrainServeRows},
        {"colocate-two-serving", "extension",
            "Colocation — two serving tenants, staggered arrival "
            "(multi-session engine)",
            "A tenant that arrives mid-run lands in a heap the first "
            "tenant already fragmented",
            runColocateTwoServing, colocateTwoServingRows},
        {"colocate-oversub", "extension",
            "Colocation — oversubscription sweep, 1-4 training tenants "
            "on a 32 GiB device",
            "How many co-located jobs survive before fragmentation "
            "turns headroom into OOM; dead tenants are reclaimed",
            runColocateOversub, colocateOversubRows},
        {"oversub-offload", "extension",
            "Oversubscription — 4 tenants x 12 GiB on 32 GiB (1.5x), "
            "host tier spills/faults the idle sets",
            "True oversubscription beyond capacity: without offload the "
            "device kills tenants, with it gmlake completes all four by "
            "unmap/remap spilling whole pBlocks",
            runOversubOffload, oversubOffloadRows},
        {"serve-burst-offload", "extension",
            "Serving burst — a second tenant spikes demand to ~1.7x "
            "capacity, then drains",
            "Spiky serving colocation: the burst borrows the steady "
            "tenant's idle weights via the host tier; prefetch hints "
            "hide the fault-back latency",
            runServeBurstOffload, serveBurstOffloadRows},
        {"stress-allocator", "extension",
            "Stress — allocator hot-path wallclock under deep pools "
            "(100k+ events, 4 streams)",
            "Per-request BestFit cost must track the candidate set, not "
            "the pool size; alloc_wall_ns p50/p99 make it measurable",
            runStressAllocator, stressAllocatorRows},
        {"frag-churn", "extension",
            "Fragmentation churn — hole-riddled physical space + deep "
            "stitched pools (100k events)",
            "VMM bookkeeping must cost O(extents), not O(chunks) or "
            "O(holes): vmm_wall_ns isolates the simulator's hole-scan "
            "and mapping-table cost from the pool search",
            runFragChurn, fragChurnRows},
        {"cluster-ranks", "extension",
            "Cluster — every data-parallel rank simulated, in parallel "
            "on a thread pool",
            "The job's fate is set by the worst rank: one OOM kills "
            "it, lockstep makes the slowest rank set the pace",
            runClusterRanks, clusterRanksRows},
        {"serve-day", "extension",
            "Serving day — ~10⁷ paged KV-cache events streamed through "
            "gmlake vs caching vs native",
            "The EventSource cursor API replays generator workloads at "
            "full scale with flat host RSS; stitching absorbs the "
            "paged-block churn without the caching allocator's "
            "reserved-memory creep",
            runServeDay, serveDayRows},
        {"sweep-smoke", "extension",
            "Policy sweep — checkpoint/restore warm-started grid over "
            "GMLake knobs (smoke scale)",
            "One shared warmup prefix is replayed once and "
            "checkpointed; every sweep point restores it and replays "
            "only the divergent tail, bit-identical to re-replaying "
            "the whole run per point",
            runSweepSmoke, sweepSmokeRows},
        {"vmm-designs", "extension",
            "Extension — VMM allocator designs: stitching vs "
            "expandable segments",
            "GMLake (ASPLOS'24) vs the PyTorch expandable_segments "
            "design it influenced, vs the classic caching allocator",
            runVmmDesigns, vmmDesignsRows},
    };
    return experiments;
}

} // namespace gmlake::sim
