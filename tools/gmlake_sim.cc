/**
 * @file
 * gmlake_sim — command-line experiment runner.
 *
 * Registry mode drives the shared experiment registry — the same
 * scenarios CI runs; sweep, chaos and probe replay any one of their
 * rows:
 *   gmlake_sim list
 *   gmlake_sim run headline --csv
 *   gmlake_sim run fig10 --json --iterations 4
 *   gmlake_sim run all --iterations 1
 *
 * Trace mode generates, converts, inspects, and replays single
 * workloads under any of the allocators on a simulated GPU. All five
 * verbs share one option table:
 *   gmlake_sim trace run --model OPT-13B --strategies LR --gpus 4
 *   gmlake_sim trace record trace.txt --model GPT-2
 *   gmlake_sim trace record trace.gmt --model GPT-2
 *   gmlake_sim trace pack trace.txt trace.gmt
 *   gmlake_sim trace info trace.gmt     (or a --timeline-bin .gmo)
 *   gmlake_sim trace replay trace.gmt --allocator gmlake --snapshot
 *
 * Replay sniffs the file format: `.gmt` binary traces stream through
 * BinaryTraceSource (multi-section files replay as co-located
 * sessions); anything else is parsed as a text trace.
 *
 * Run with --help for the full flag list.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/snapshot.hh"
#include "sim/chaos.hh"
#include "sim/experiment.hh"
#include "sim/probe.hh"
#include "sim/runner.hh"
#include "sim/session.hh"
#include "sim/sweep.hh"
#include "support/columnar_file.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"
#include "workload/binary_trace.hh"
#include "workload/event_source.hh"
#include "workload/servegen.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;

namespace
{

struct Options
{
    // Workload
    std::string model = "OPT-13B";
    std::string strategies = "LR";
    std::string platform = "deepspeed";
    int gpus = 4;
    int batch = 16;
    int iterations = 12;
    int seqLen = 512;
    std::uint64_t seed = 42;
    bool serve = false;
    int serveRequests = 256;
    int serveMaxBatch = 32;

    // Device / allocator
    std::string allocator = "all";
    Bytes capacityGiB = 80;
    Bytes fragLimitMiB = 2;

    // Output
    std::string csvPath;
    bool snapshot = false;

    bool listModels = false;
    bool help = false;
};

// ------------------------------------------------ shared option table

/** Which trace verbs a flag applies to. */
enum FlagGroup : unsigned
{
    kWorkloadFlags = 1u << 0, //!< trace run | record
    kDeviceFlags = 1u << 1,   //!< trace run | replay
    kOutputFlags = 1u << 2,   //!< trace run | replay
};

struct FlagSpec
{
    const char *name;
    const char *argName; //!< nullptr for boolean toggles
    unsigned groups;
    const char *help;
    void (*apply)(Options &, const std::string &);
};

/**
 * The one option table every trace verb parses with; each verb
 * admits the groups that make sense for it and rejects the rest with
 * a pointed error.
 */
const FlagSpec kFlags[] = {
    // Workload selection
    {"--model", "NAME", kWorkloadFlags,
     "model from the zoo (default OPT-13B)",
     [](Options &o, const std::string &v) { o.model = v; }},
    {"--list-models", nullptr, kWorkloadFlags,
     "print the model zoo and exit",
     [](Options &o, const std::string &) { o.listModels = true; }},
    {"--strategies", "S", kWorkloadFlags,
     "N | R | LR | RO | LRO (default LR)",
     [](Options &o, const std::string &v) { o.strategies = v; }},
    {"--platform", "P", kWorkloadFlags,
     "deepspeed | fsdp | colossalai | ddp",
     [](Options &o, const std::string &v) { o.platform = v; }},
    {"--gpus", "N", kWorkloadFlags,
     "data-parallel degree (default 4)",
     [](Options &o, const std::string &v) {
         o.gpus = static_cast<int>(sim::parseUnsignedFlag("--gpus", v));
     }},
    {"--batch", "N", kWorkloadFlags,
     "per-GPU batch size (default 16)",
     [](Options &o, const std::string &v) {
         o.batch = static_cast<int>(sim::parseUnsignedFlag("--batch", v));
     }},
    {"--iterations", "N", kWorkloadFlags,
     "training iterations (default 12)",
     [](Options &o, const std::string &v) {
         o.iterations =
             static_cast<int>(sim::parseUnsignedFlag("--iterations", v));
     }},
    {"--seq", "N", kWorkloadFlags,
     "max sequence length (default 512)",
     [](Options &o, const std::string &v) {
         o.seqLen = static_cast<int>(sim::parseUnsignedFlag("--seq", v));
     }},
    {"--seed", "N", kWorkloadFlags, "workload RNG seed (default 42)",
     [](Options &o, const std::string &v) {
         o.seed = sim::parseUnsignedFlag("--seed", v);
     }},
    {"--serve", nullptr, kWorkloadFlags,
     "serving workload instead of training",
     [](Options &o, const std::string &) { o.serve = true; }},
    {"--requests", "N", kWorkloadFlags,
     "serving: total requests (default 256)",
     [](Options &o, const std::string &v) {
         o.serveRequests =
             static_cast<int>(sim::parseUnsignedFlag("--requests", v));
     }},
    {"--max-batch", "N", kWorkloadFlags,
     "serving: concurrent requests (32)",
     [](Options &o, const std::string &v) {
         o.serveMaxBatch =
             static_cast<int>(sim::parseUnsignedFlag("--max-batch", v));
     }},

    // Device and allocator
    {"--allocator", "A", kDeviceFlags,
     "an allocator variant (e.g. caching, gmlake+offload(lru)) "
     "or all",
     [](Options &o, const std::string &v) { o.allocator = v; }},
    {"--capacity", "GiB", kDeviceFlags, "device memory (default 80)",
     [](Options &o, const std::string &v) {
         o.capacityGiB = sim::parseUnsignedFlag("--capacity", v);
     }},
    {"--frag-limit", "MiB", kDeviceFlags,
     "GMLake fragmentation limit (default 2)",
     [](Options &o, const std::string &v) {
         o.fragLimitMiB = sim::parseUnsignedFlag("--frag-limit", v);
     }},

    // Output
    {"--csv", "FILE", kOutputFlags,
     "append result rows to a CSV file",
     [](Options &o, const std::string &v) { o.csvPath = v; }},
    {"--snapshot", nullptr, kOutputFlags,
     "print the allocator memory snapshot",
     [](Options &o, const std::string &) { o.snapshot = true; }},
};

const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &spec : kFlags) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

/**
 * Parse argv[begin..] against the shared table, admitting only flags
 * in @p groups. Non-flag arguments land in @p positionals (rejected
 * when nullptr).
 */
Options
parseFlags(int argc, char **argv, int begin, unsigned groups,
           std::vector<std::string> *positionals)
{
    Options opt;
    for (int i = begin; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            opt.help = true;
            continue;
        }
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            const FlagSpec *spec = findFlag(arg);
            if (spec == nullptr)
            GMLAKE_FATAL("unknown flag: ", arg, " (try --help)");
            if ((spec->groups & groups) == 0)
                GMLAKE_FATAL("flag ", arg, " does not apply to this "
                             "subcommand (try --help)");
            std::string value;
            if (spec->argName != nullptr) {
                if (i + 1 >= argc)
                    GMLAKE_FATAL("flag ", arg, " needs a value");
                value = argv[++i];
            }
            spec->apply(opt, value);
        } else if (positionals != nullptr) {
            positionals->push_back(arg);
        } else {
            GMLAKE_FATAL("unexpected argument: ", arg,
                         " (try --help)");
        }
    }
    return opt;
}

void
printFlagGroup(unsigned group)
{
    for (const FlagSpec &spec : kFlags) {
        if ((spec.groups & group) == 0)
            continue;
        std::string head = spec.name;
        if (spec.argName != nullptr)
            head += std::string(" ") + spec.argName;
        std::cout << "  " << head
                  << std::string(
                         head.size() < 19 ? 19 - head.size() : 1, ' ')
                  << spec.help << "\n";
    }
}

void
printHelp()
{
    std::cout <<
        "gmlake_sim — GMLake reproduction experiment runner\n\n"
        "Registered experiments (figures/tables via the shared "
        "registry):\n"
        "  list                print every registered scenario\n"
        "  run NAME [opts]     run one scenario ('all' runs every "
        "one;\n"
        "                      gmlake_sim run NAME --help lists the\n"
        "                      options: scale overrides, --csv, --json,\n"
        "                      --timeline, ...)\n\n"
        "sweep, chaos and probe replay one registry row: SCENARIO is\n"
        "a scenario with one row or SCENARIO/ROW (gmlake_sim list).\n\n"
        "Policy sweeps (checkpoint/restore warm-starts):\n"
        "  sweep SCENARIO [opts]\n"
        "                      replay the warmup prefix once, fork\n"
        "                      each policy point from the checkpoint\n"
        "                      (see gmlake_sim sweep --help)\n\n"
        "Chaos / fault-injection soaks:\n"
        "  chaos SCENARIO [opts]\n"
        "                      replay under a deterministic fault\n"
        "                      plan + randomized tenant kills, audit\n"
        "                      invariants after every trial (see\n"
        "                      gmlake_sim chaos --help; distinct\n"
        "                      exit codes, see docs/BUILDING.md)\n\n"
        "Allocation provenance (observability ledger):\n"
        "  probe SCENARIO [opts]\n"
        "                      replay with the recorder active and\n"
        "                      answer provenance queries: --tensor T\n"
        "                      (who backed tensor T and at what\n"
        "                      device cost) or --at TICK (what was\n"
        "                      live and why); see gmlake_sim probe\n"
        "                      --help\n\n"
        "Global flags (every verb):\n"
        "  --log-level L       error | warn | info | debug (default\n"
        "                      warn); unknown levels are fatal\n\n"
        "Single workloads (trace subcommands):\n"
        "  trace run [opts]          generate a workload and replay "
        "it\n"
        "  trace record OUT [opts]   generate and save a workload\n"
        "                            (.gmt packs binary columnar,\n"
        "                            anything else writes text)\n"
        "  trace replay FILE [opts]  replay a saved trace (.gmt "
        "streams,\n"
        "                            multi-section files co-locate)\n"
        "  trace pack IN... OUT.gmt  convert text traces to one "
        "binary\n"
        "                            file, one section per input\n"
        "  trace info FILE           print the sections of a .gmt\n"
        "                            (with stats) or .gmo file\n\n"
        "Workload selection (trace run | record):\n";
    printFlagGroup(kWorkloadFlags);
    std::cout << "\nDevice and allocator (trace run | replay):\n";
    printFlagGroup(kDeviceFlags);
    std::cout << "\nOutput (trace run | replay):\n";
    printFlagGroup(kOutputFlags);
}

// ----------------------------------------------------------- helpers

workload::Platform
parsePlatform(const std::string &name)
{
    if (name == "deepspeed")
        return workload::Platform::deepspeedZero3;
    if (name == "fsdp")
        return workload::Platform::fsdp;
    if (name == "colossalai")
        return workload::Platform::colossalAi;
    if (name == "ddp")
        return workload::Platform::ddp;
    GMLAKE_FATAL("unknown platform: ", name);
}

std::vector<sim::AllocatorVariant>
parseAllocators(const std::string &name)
{
    if (name == "all") {
        // Every kind except native, which is ~10x slower end to end
        // and would dominate the run for no comparative value (ask
        // for it by name).
        std::vector<sim::AllocatorVariant> kinds;
        for (const auto kind : sim::allAllocatorKinds()) {
            if (kind != sim::AllocatorKind::native)
                kinds.emplace_back(kind);
        }
        return kinds;
    }
    if (const auto variant = sim::parseAllocatorVariant(name))
        return {*variant};
    GMLAKE_FATAL("unknown allocator: ", name, " (try --help)");
}

int
doListModels()
{
    for (const auto &m : workload::allModels())
        std::cout << m.name << "\n";
    return 0;
}

bool
endsWithGmt(const std::string &path)
{
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".gmt") == 0;
}

/** "dir/opt-13b.trace" -> "opt-13b" (section naming for pack). */
std::string
sectionNameFor(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string base = slash == std::string::npos
                           ? path
                           : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base.resize(dot);
    return base.empty() ? "trace" : base;
}

workload::TrainConfig
makeTrainConfig(const Options &opt)
{
    workload::TrainConfig cfg;
    cfg.model = workload::findModel(opt.model);
    cfg.strategies = workload::Strategies::parse(opt.strategies);
    cfg.platform = parsePlatform(opt.platform);
    cfg.gpus = opt.gpus;
    cfg.batchSize = opt.batch;
    cfg.iterations = opt.iterations;
    cfg.seqLen = opt.seqLen;
    cfg.seed = opt.seed;
    return cfg;
}

struct BuiltWorkload
{
    workload::Trace trace;
    std::uint64_t servedTokens = 0;
    bool training = false;
};

BuiltWorkload
buildWorkload(const Options &opt, const workload::TrainConfig &cfg)
{
    BuiltWorkload built;
    if (opt.serve) {
        workload::ServeConfig serveCfg;
        serveCfg.model = cfg.model;
        serveCfg.requests = opt.serveRequests;
        serveCfg.maxBatch = opt.serveMaxBatch;
        serveCfg.seed = opt.seed;
        auto gen = workload::generateServingTrace(serveCfg);
        built.trace = std::move(gen.trace);
        built.servedTokens = gen.generatedTokens;
        std::cout << "serving workload: " << gen.servedRequests
                  << " requests, " << gen.generatedTokens
                  << " tokens\n";
    } else {
        built.trace = workload::generateTrainingTrace(cfg);
        built.training = true;
        std::cout << "workload: " << cfg.describe() << " ("
                  << built.trace.size() << " events)\n";
    }
    return built;
}

void
saveTraceTo(const workload::Trace &trace, const std::string &path,
            const std::string &section)
{
    if (endsWithGmt(path)) {
        workload::packTrace(trace, path, section);
    } else {
        std::ofstream out(path);
        if (!out)
            GMLAKE_FATAL("cannot write trace: ", path);
        trace.save(out);
    }
    std::cout << "trace recorded to " << path << " (" << trace.size()
              << " events" << (endsWithGmt(path) ? ", binary" : "")
              << ")\n";
}

/**
 * The comparison loop every replaying trace verb shares: @p row
 * (sessions and training config) on the CLI's device and GMLake
 * knobs, replayed under each requested allocator, results tabulated
 * (and CSV-appended / snapshotted on request).
 */
int
runAcrossAllocators(const Options &opt, std::uint64_t servedTokens,
                    sim::RunSpec row)
{
    row.device.capacity = opt.capacityGiB * GiB;
    row.gmlake.fragLimit = opt.fragLimitMiB * MiB;

    Table table({"Allocator", "Utilization", "Peak active",
                 "Peak reserved", "Sim time", "Throughput"});
    std::ofstream csv;
    if (!opt.csvPath.empty()) {
        csv.open(opt.csvPath, std::ios::app);
        if (!csv)
            GMLAKE_FATAL("cannot open CSV: ", opt.csvPath);
    }

    for (const auto &variant : parseAllocators(opt.allocator)) {
        sim::ReplayHooks hooks;
        if (opt.snapshot) {
            hooks.finish = [](vmm::Device &, alloc::Allocator &allocator,
                              const sim::MultiRunResult &) {
                std::cout << allocator.snapshot().summary();
            };
        }
        const auto r = sim::replay(row, variant, hooks).combined;

        std::string throughput = "-";
        if (servedTokens > 0 && r.simTime > 0) {
            throughput = formatDouble(
                static_cast<double>(servedTokens) /
                    (static_cast<double>(r.simTime) * 1e-9),
                0) + " tok/s";
        } else if (r.samplesPerSec > 0.0) {
            throughput =
                formatDouble(r.samplesPerSec, 1) + " samples/s";
        }
        table.addRow(
            {r.allocator,
             r.oom ? "OOM" : formatPercent(r.utilization),
             formatBytes(r.peakActive), formatBytes(r.peakReserved),
             formatTime(r.simTime), throughput});
        if (csv.is_open()) {
            csv << r.allocator << "," << opt.model << ","
                << opt.strategies << "," << opt.gpus << ","
                << opt.batch << "," << r.utilization << ","
                << r.peakActive << "," << r.peakReserved << ","
                << r.simTime << "," << (r.oom ? 1 : 0) << "\n";
        }
    }
    table.print(std::cout);
    return 0;
}

/** One session replaying @p trace (shared, built once). */
sim::SessionSpec
traceSession(std::string name, workload::Trace trace)
{
    return {std::move(name),
            [shared = std::make_shared<const workload::Trace>(
                 std::move(trace))] { return shared; },
            nullptr, 0};
}

// -------------------------------------------------------- trace verbs

int
doTraceRun(const Options &opt)
{
    const auto cfg = makeTrainConfig(opt);
    auto built = buildWorkload(opt, cfg);
    sim::RunSpec row;
    if (built.training)
        row.train = cfg;
    row.sessions.push_back(traceSession("main", std::move(built.trace)));
    return runAcrossAllocators(opt, built.servedTokens, std::move(row));
}

int
doTraceRecord(const Options &opt, const std::string &outPath)
{
    const auto cfg = makeTrainConfig(opt);
    const auto built = buildWorkload(opt, cfg);
    saveTraceTo(built.trace, outPath, opt.model);
    return 0;
}

int
doTraceReplay(const Options &opt, const std::string &path)
{
    sim::RunSpec row;
    if (workload::looksLikeGmtFile(path)) {
        const auto file = workload::GmtFile::open(path);
        std::uint64_t events = 0;
        for (const auto &section : file->sections())
            events += section.events;
        std::cout << "replaying " << events << " events ("
                  << file->sections().size() << " section"
                  << (file->sections().size() == 1 ? "" : "s")
                  << ", streamed) from " << path << "\n";
        // Multi-section files replay as co-located tenants.
        const bool single = file->sections().size() == 1;
        for (std::size_t i = 0; i < file->sections().size(); ++i) {
            row.sessions.push_back(sim::SessionSpec{
                single ? "main" : file->sections()[i].name, nullptr,
                [file, i] {
                    return std::make_shared<
                        workload::BinaryTraceSource>(file, i);
                },
                0});
        }
        return runAcrossAllocators(opt, 0, std::move(row));
    }

    std::ifstream in(path);
    if (!in)
        GMLAKE_FATAL("cannot open trace: ", path);
    workload::Trace trace = workload::Trace::load(in);
    std::cout << "replaying " << trace.size() << " events from "
              << path << "\n";
    row.sessions.push_back(traceSession("main", std::move(trace)));
    return runAcrossAllocators(opt, 0, std::move(row));
}

int
doTracePack(const std::vector<std::string> &paths)
{
    const std::string &outPath = paths.back();
    if (!endsWithGmt(outPath))
        GMLAKE_FATAL("pack output must end in .gmt, got: ", outPath);

    workload::GmtWriter writer(outPath);
    std::uint64_t events = 0;
    for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
        std::ifstream in(paths[i]);
        if (!in)
            GMLAKE_FATAL("cannot open trace: ", paths[i]);
        const workload::Trace trace = workload::Trace::load(in);
        writer.beginSection(sectionNameFor(paths[i]));
        workload::VectorSource source(&trace);
        writer.append(source);
        events += trace.size();
    }
    writer.finish();

    std::ifstream sized(outPath, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::uint64_t>(sized.tellg());
    std::cout << "packed " << (paths.size() - 1) << " trace"
              << (paths.size() == 2 ? "" : "s") << ", " << events
              << " events into " << outPath << " ("
              << formatBytes(bytes) << ")\n";
    return 0;
}

int
doTraceInfo(const std::string &path)
{
    // A .gmt adds its trace stats; any other container file (a .gmo
    // timeline) lists the container's section index alone.
    const bool gmt = workload::looksLikeGmtFile(path);
    const auto trace = gmt ? workload::GmtFile::open(path) : nullptr;
    const ColumnarFile file =
        gmt ? trace->container() : ColumnarFile::open(path);
    std::cout << path << ": " << file.magic() << " v"
              << file.version() << ", "
              << formatBytes(file.fileBytes()) << ", "
              << file.sections().size() << " section"
              << (file.sections().size() == 1 ? "" : "s") << "\n";
    std::vector<std::string> header = {"Section", "Events", "Chunks",
                                       "Bytes"};
    if (gmt)
        header.insert(header.end(), {"Allocs", "Alloc bytes",
                                     "Max alloc", "Iters"});
    Table table(header);
    for (std::size_t i = 0; i < file.sections().size(); ++i) {
        const ColumnarSection &s = file.sections()[i];
        std::vector<std::string> row = {
            s.name, std::to_string(s.events), std::to_string(s.chunks),
            formatBytes(s.byteLength)};
        if (gmt) {
            const workload::TraceStats &st =
                trace->sections()[i].stats;
            row.insert(row.end(), {std::to_string(st.allocCount),
                                   formatBytes(st.totalAllocBytes),
                                   formatBytes(st.maxAllocBytes),
                                   std::to_string(st.iterations)});
        }
        table.addRow(row);
    }
    table.print(std::cout);
    return 0;
}

// ----------------------------------------------------------- dispatch

int
cmdList()
{
    Table table({"Name", "Kind", "Rows", "Title"});
    for (const auto &e : sim::allExperiments()) {
        table.addRow({e.name, e.kind,
                      e.rows ? std::to_string(e.rows({}).size()) : "-",
                      e.title});
    }
    table.print(std::cout);
    std::cout << "\nrun one with: gmlake_sim run <name> "
                 "[--iterations N] [--threads N] [--csv] "
                 "[--json] [--out FILE]\n";
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: gmlake_sim run <scenario> [options]\n"
                     "       (gmlake_sim list shows the scenarios)\n";
        return 1;
    }
    const std::string name = argv[2];
    // The scenario argument doubles as argv[0] of the experiment
    // CLI, so flags start right after it.
    if (name == "all") {
        int rc = 0;
        for (const auto &e : sim::allExperiments())
            rc |= sim::experimentMain(e.name, argc - 2, argv + 2);
        return rc;
    }
    if (sim::findExperiment(name) == nullptr) {
        std::cerr << "unknown scenario: " << name
                  << " (gmlake_sim list shows the scenarios)\n";
        return 1;
    }
    return sim::experimentMain(name, argc - 2, argv + 2);
}

int
cmdTrace(int argc, char **argv)
{
    const auto usage = [] {
        std::cerr <<
            "usage: gmlake_sim trace run    [options]\n"
            "       gmlake_sim trace record OUT [options]\n"
            "       gmlake_sim trace replay FILE [options]\n"
            "       gmlake_sim trace pack   IN... OUT.gmt\n"
            "       gmlake_sim trace info   FILE.gmt|FILE.gmo\n"
            "       (gmlake_sim --help shows the options)\n";
        return 1;
    };
    if (argc < 3)
        return usage();
    const std::string verb = argv[2];

    if (verb == "run") {
        const Options opt = parseFlags(
            argc, argv, 3,
            kWorkloadFlags | kDeviceFlags | kOutputFlags, nullptr);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (opt.listModels)
            return doListModels();
        return doTraceRun(opt);
    }
    if (verb == "record") {
        std::vector<std::string> paths;
        const Options opt =
            parseFlags(argc, argv, 3, kWorkloadFlags, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (opt.listModels)
            return doListModels();
        if (paths.size() != 1)
            return usage();
        return doTraceRecord(opt, paths[0]);
    }
    if (verb == "replay") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(
            argc, argv, 3, kDeviceFlags | kOutputFlags, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() != 1)
            return usage();
        return doTraceReplay(opt, paths[0]);
    }
    if (verb == "pack") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(argc, argv, 3, 0, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() < 2)
            return usage();
        return doTracePack(paths);
    }
    if (verb == "info") {
        std::vector<std::string> paths;
        const Options opt = parseFlags(argc, argv, 3, 0, &paths);
        if (opt.help) {
            printHelp();
            return 0;
        }
        if (paths.size() != 1)
            return usage();
        return doTraceInfo(paths[0]);
    }
    std::cerr << "unknown trace verb: " << verb << "\n";
    return usage();
}

// -------------------------------------------------------- sweep verb

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= s.size()) {
        const std::size_t end = s.find(sep, begin);
        if (end == std::string::npos) {
            parts.push_back(s.substr(begin));
            break;
        }
        parts.push_back(s.substr(begin, end - begin));
        begin = end + 1;
    }
    return parts;
}

/**
 * Parse "frag=2,16;tol=0,0.125;sblocks=4096;overscribe=4,8;
 * stitch=on,off" into grid axes (frag in MiB; unknown keys are a
 * hard error so typos do not silently sweep nothing).
 */
sim::SweepGrid
parseGridSpec(const std::string &spec)
{
    sim::SweepGrid grid;
    for (const std::string &axis : splitOn(spec, ';')) {
        if (axis.empty())
            continue;
        const std::size_t eq = axis.find('=');
        if (eq == std::string::npos)
            GMLAKE_FATAL("sweep grid axis '", axis,
                         "' has no '=' (expected KEY=V1,V2,...)");
        const std::string key = axis.substr(0, eq);
        const std::vector<std::string> values =
            splitOn(axis.substr(eq + 1), ',');
        if (values.empty() ||
            (values.size() == 1 && values[0].empty()))
            GMLAKE_FATAL("sweep grid axis '", key, "' has no values");
        for (const std::string &value : values) {
            if (key == "frag") {
                grid.fragLimits.push_back(
                    sim::parseUnsignedFlag("frag", value) * MiB);
            } else if (key == "tol") {
                grid.nearMatchTolerances.push_back(
                    sim::parseRealFlag("tol", value));
            } else if (key == "sblocks") {
                grid.maxCachedSBlocks.push_back(
                    static_cast<std::size_t>(
                        sim::parseUnsignedFlag("sblocks", value)));
            } else if (key == "overscribe") {
                grid.maxVaOverscribes.push_back(
                    sim::parseRealFlag("overscribe", value));
            } else if (key == "stitch") {
                if (value != "on" && value != "off")
                    GMLAKE_FATAL("sweep grid axis stitch: expected "
                                 "on/off, got '", value, "'");
                grid.enableStitching.push_back(value == "on");
            } else {
                GMLAKE_FATAL("unknown sweep grid axis '", key,
                             "' (frag | tol | sblocks | overscribe "
                             "| stitch)");
            }
        }
    }
    return grid;
}

/** A row reference as one file-name component ('/', ' ' -> '_'). */
std::string
fileNameSafe(std::string name)
{
    std::replace(name.begin(), name.end(), '/', '_');
    std::replace(name.begin(), name.end(), ' ', '_');
    return name;
}

const char *const kRowHelp =
    "  SCENARIO is a registry scenario with one row, or SCENARIO/ROW\n"
    "  (gmlake_sim list; an unknown name lists the choices)\n";

int
cmdSweep(int argc, char **argv)
{
    sim::ExperimentOptions options;
    sim::AllocatorVariant allocator;
    bool help = false;
    std::string gridSpec;
    std::size_t randomPoints = 0;
    bool cold = false;
    std::string outPath;
    const std::string scenario = sim::parseRowArgs(
        {argv + 2, argv + argc}, options, allocator, help,
        [&](const std::string &arg, const sim::FlagValue &value) {
            if (arg == "--grid")
                gridSpec = value();
            else if (arg == "--points")
                randomPoints = static_cast<std::size_t>(
                    sim::parseUnsignedFlag("--points", value()));
            else if (arg == "--threads")
                options.threads = static_cast<int>(
                    sim::parseUnsignedFlag("--threads", value(), 4096));
            else if (arg == "--cold")
                cold = true;
            else if (arg == "--out")
                outPath = value();
            else
                return false;
            return true;
        });
    if (help || scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim sweep <scenario> [options]\n"
            << kRowHelp << sim::scenarioFlagsHelp(true) <<
            "  --grid SPEC      frag=2,16;tol=0,0.125;"
            "sblocks=4096;overscribe=4,8;stitch=on,off\n"
            "                   (frag in MiB; omitted axes keep "
            "the base value)\n"
            "  --points N       random search with N points "
            "instead of a grid\n"
            "  --threads N      per-point fork threads "
            "(0 = all cores; results identical)\n"
            "  --cold           re-replay the warmup per point "
            "(baseline; same results)\n"
            "  --out FILE       report path (default "
            "BENCH_sweep_<scenario>.json)\n";
        return help ? 0 : 1;
    }
    if (!gridSpec.empty() && randomPoints > 0)
        GMLAKE_FATAL("--grid and --points are mutually exclusive");
    if (allocator.offload)
        GMLAKE_FATAL("sweep cannot checkpoint a host-offload tier; "
                     "pick an allocator without +offload");

    const sim::RunSpec row = sim::findRow(scenario, options);
    std::vector<sim::SweepPoint> points;
    if (randomPoints > 0) {
        points = sim::randomSweepPoints(row.gmlake, randomPoints,
                                        row.seed);
    } else if (!gridSpec.empty()) {
        points = parseGridSpec(gridSpec).expand(row.gmlake);
    } else {
        points = sim::defaultSweepGrid().expand(row.gmlake);
    }

    sim::SweepRunOptions sweepOptions;
    sweepOptions.kind = allocator.kind;
    sweepOptions.threads =
        static_cast<std::size_t>(options.threadCount());
    sweepOptions.warmStart = !cold;
    sim::SweepReport report = sim::runSweep(row, points, sweepOptions);
    report.scenario = scenario;

    std::cout << "sweep " << scenario << ": " << points.size()
              << " points, " << (cold ? "cold" : "warm-start")
              << ", split at " << formatTime(report.splitTime) << "\n";
    sim::printSweepTable(report, std::cout);

    if (outPath.empty())
        outPath = "BENCH_sweep_" + fileNameSafe(scenario) + ".json";
    sim::SweepJsonMeta meta;
    meta.seed = row.seed;
    meta.iterations = options.iterations;
    meta.deviceCapacityBytes = options.deviceCapacity;
    meta.threads = static_cast<std::size_t>(options.threads);
    meta.warmStart = !cold;
    sim::writeSweepJson(report, meta, outPath);
    std::cout << "(report written to " << outPath << ")\n";
    return 0;
}

// -------------------------------------------------------- chaos verb

int
cmdChaos(int argc, char **argv)
{
    sim::ChaosArgs args =
        sim::parseChaosArgs({argv + 2, argv + argc});
    const sim::ChaosOptions &options = args.options;
    if (args.help || options.scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim chaos <scenario> [options]\n"
            << kRowHelp << sim::scenarioFlagsHelp(true) <<
            "  --faults SPEC    fault plan, e.g. "
            "create:p=0.02;map:n=5;cap:t=1000000,b=2G\n"
            "                   (apis: create map mapbatch "
            "setaccess copyd2h copyh2d cap)\n"
            "  --fault-seed N   fault/kill RNG seed (default 1)\n"
            "  --soak K         randomized trials; trial k uses\n"
            "                   a seed derived from --fault-seed;\n"
            "                   a failing trial prints its replay line\n"
            "  --kill-chance P  per-tenant scripted-kill "
            "probability (default 0.25)\n"
            "  --out FILE       report path (default "
            "BENCH_chaos_<scenario>.json)\n"
            "exit codes: 0 clean, 2 tenant OOM, 3 injected-fault "
            "abort, 1 internal error\n";
        return args.help ? 0 : 1;
    }
    // A bad row name or fault spec fails here, before any output.
    (void)sim::findRow(options.scenario, options.overrides);
    std::string plan;
    if (!options.faultSpec.empty())
        plan = vmm::FaultPlan::parse(options.faultSpec).describe();

    std::cout << "chaos " << options.scenario << ": " << options.trials
              << " trial" << (options.trials == 1 ? "" : "s")
              << ", fault seed " << options.faultSeed;
    if (!plan.empty())
        std::cout << ", plan " << plan;
    std::cout << "\n";

    const sim::ChaosReport report = sim::runChaos(options);

    Table table({"Trial", "Fault seed", "Injected", "Recovered",
                 "Rollbacks", "Aborted", "OOM", "Lost", "Audit"});
    for (std::size_t k = 0; k < report.trials.size(); ++k) {
        const sim::ChaosTrialRecord &t = report.trials[k];
        table.addRow({std::to_string(k), std::to_string(t.faultSeed),
                      std::to_string(t.result.injectedFaults),
                      std::to_string(t.result.recovered),
                      std::to_string(t.result.rollbacks),
                      std::to_string(t.result.abortedSessions),
                      std::to_string(t.oomSessions),
                      formatBytes(t.capacityLost),
                      t.auditPassed ? "ok" : "FAIL"});
    }
    table.print(std::cout);
    for (const sim::ChaosTrialRecord &t : report.trials) {
        if (!t.auditPassed)
            std::cout << "trial with fault seed " << t.faultSeed
                      << " FAILED: " << t.error << "\n"
                      << "  replay: "
                      << sim::chaosReplayLine(options, t.faultSeed)
                      << "\n";
    }
    std::cout << report.trials.size() << " trial"
              << (report.trials.size() == 1 ? "" : "s") << ", "
              << report.failures() << " failure"
              << (report.failures() == 1 ? "" : "s") << ", total "
              << formatTime(report.totalWallNs) << "\n";

    if (args.outPath.empty())
        args.outPath = "BENCH_chaos_" +
                       fileNameSafe(options.scenario) + ".json";
    sim::writeChaosJson(report, options, args.outPath);
    std::cout << "(report written to " << args.outPath
              << ", exit code " << report.exitCode() << ")\n";
    return report.exitCode();
}

// -------------------------------------------------------- probe verb

/**
 * `gmlake_sim probe` — allocation provenance queries over a replay
 * recorded with the observability layer (sim/probe.hh).
 */
int
cmdProbe(int argc, char **argv)
{
    sim::ProbeOptions opt;
    bool help = false;
    opt.scenario = sim::parseRowArgs(
        {argv + 2, argv + argc}, opt.overrides, opt.allocator, help,
        [&](const std::string &arg, const sim::FlagValue &value) {
            if (arg == "--tensor")
                opt.tensor = sim::parseUnsignedFlag("--tensor", value());
            else if (arg == "--at")
                opt.atTick = sim::parseUnsignedFlag("--at", value());
            else if (arg == "--timeline")
                opt.timelinePath = value();
            else if (arg == "--top")
                opt.topAllocs = static_cast<std::size_t>(
                    sim::parseUnsignedFlag("--top", value()));
            else
                return false;
            return true;
        });
    if (help || opt.scenario.empty()) {
        std::cerr <<
            "usage: gmlake_sim probe <scenario> [options]\n"
            << kRowHelp << sim::scenarioFlagsHelp(true) <<
            "  --tensor T       which allocations backed tensor "
            "T, which pBlocks\n"
            "                   back each, how they were obtained "
            "(fresh / reuse /\n"
            "                   stitch / post-spill), and the "
            "device time charged\n"
            "  --at TICK        every tensor live at simulated "
            "time TICK, with\n"
            "                   the same provenance per binding\n"
            "  --timeline FILE  also export the recorded timeline "
            "(Chrome JSON)\n"
            "  --top N          summary lists the top-N "
            "allocations (default 5)\n"
            "(no selector prints the ledger summary)\n";
        return help ? 0 : 1;
    }
    if (opt.tensor && opt.atTick)
        GMLAKE_FATAL("--tensor and --at are mutually exclusive");
    sim::runProbe(opt, std::cout);
    return 0;
}

/**
 * Flags every verb accepts, applied and stripped before dispatch so
 * each verb's own table stays focused. One definition serves
 * run/trace/sweep/chaos/probe alike; an invalid level is fatal
 * (parseLogLevel). Returns the new argc.
 */
int
stripGlobalFlags(int argc, char **argv)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--log-level") == 0) {
            if (i + 1 >= argc)
                GMLAKE_FATAL("flag --log-level needs a value");
            setLogLevel(parseLogLevel(argv[++i]));
            continue;
        }
        argv[kept++] = argv[i];
    }
    return kept;
}

} // namespace

int
main(int argc, char **argv)
try {
    argc = stripGlobalFlags(argc, argv);
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        printHelp();
        return 0;
    }
    if (std::strcmp(argv[1], "list") == 0)
        return cmdList();
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv);
    if (std::strcmp(argv[1], "trace") == 0)
        return cmdTrace(argc, argv);
    if (std::strcmp(argv[1], "sweep") == 0)
        return cmdSweep(argc, argv);
    if (std::strcmp(argv[1], "chaos") == 0)
        return cmdChaos(argc, argv);
    if (std::strcmp(argv[1], "probe") == 0)
        return cmdProbe(argc, argv);
    std::cerr << "unknown subcommand: " << argv[1]
              << " (try --help)\n";
    return 1;
} catch (const gmlake::FatalError &) {
    return 1; // diagnostic already printed by GMLAKE_FATAL
} catch (const gmlake::PanicError &) {
    return 1; // diagnostic already printed by GMLAKE_PANIC
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
}
