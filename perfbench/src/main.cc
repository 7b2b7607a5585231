/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Repeats one workload for about --seconds seconds and prints every
 * metric by name with its unit, then one JSON object as the last
 * line of stdout. --trace 0 reports the end-to-end metrics from
 * untraced repetitions; --trace 1 alternates untraced and traced
 * repetitions and reports the per-layer split. Every repetition's
 * outputs are checked; on a failed check the seed is printed and the
 * exit code is 1.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.hh"
#include "support/logging.hh"
#include "support/rss.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/** A metric value with its unit and the note printed beside it. */
struct Value
{
    double value = 0.0;
    std::string unit;
    std::string note;
};

using Metrics = std::map<std::string, Value>;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have[1] = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            have[2] = *end == '\0' && args.seconds > 0.0;
        } else if (flag == "--trace") {
            have[3] = value == "0" || value == "1";
            args.trace = value == "1";
        } else {
            usage("unknown flag " + flag);
        }
    }
    for (const bool ok : have) {
        if (!ok)
            usage("every flag needs a valid value");
    }
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == args.workload;
    if (!known)
        usage("unknown workload '" + args.workload + "'");
    return args;
}

/** Runs of @p kind, optionally only the jobs where all completed. */
std::vector<const RunOutcome *>
runsOf(const RepResult &rep, sim::AllocatorKind kind, bool completedOnly)
{
    std::map<std::string, bool> anyOom;
    for (const RunOutcome &run : rep.runs)
        anyOom[run.label] = anyOom[run.label] || run.result.anyOom();
    std::vector<const RunOutcome *> out;
    for (const RunOutcome &run : rep.runs) {
        if (run.kind == kind && !(completedOnly && anyOom[run.label]))
            out.push_back(&run);
    }
    return out;
}

double
meanOf(const std::vector<const RunOutcome *> &runs,
       const std::function<double(const sim::RunResult &)> &field)
{
    double sum = 0.0;
    for (const RunOutcome *run : runs)
        sum += field(run->result.combined);
    return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
}

/**
 * Best-of-repetitions host timings. Every window of every run, and
 * every GMLake allocate() call, keeps its shortest time over the
 * untraced repetitions: the work is identical in each repetition, so
 * the minimum strips time other processes on the machine took
 * without hiding a slow path the simulator always takes.
 */
class BestOf
{
  public:
    void
    fold(const RepResult &rep)
    {
        if (mRuns.empty()) {
            for (const RunOutcome &run : rep.runs)
                mRuns.push_back({run.kind, run.events, run.cons.attempted,
                                 run.windowNs});
            mLatencies = rep.gmlakeLatencies;
            ++mReps;
            return;
        }
        GMLAKE_ASSERT(rep.runs.size() == mRuns.size() &&
                          rep.gmlakeLatencies.size() == mLatencies.size(),
                      "repetitions differ in shape");
        for (std::size_t i = 0; i < mRuns.size(); ++i) {
            std::vector<std::uint64_t> &best = mRuns[i].windowNs;
            const std::vector<std::uint64_t> &now = rep.runs[i].windowNs;
            GMLAKE_ASSERT(best.size() == now.size(),
                          "repetitions differ in window count");
            for (std::size_t w = 0; w < best.size(); ++w)
                best[w] = std::min(best[w], now[w]);
        }
        for (std::size_t i = 0; i < mLatencies.size(); ++i) {
            mLatencies[i] =
                std::min(mLatencies[i], rep.gmlakeLatencies[i]);
        }
        ++mReps;
    }

    /** events/s of @p kind's runs over their best windows. */
    double
    eventsPerSecond(sim::AllocatorKind kind) const
    {
        std::uint64_t events = 0, ns = 0;
        for (const Run &run : mRuns) {
            if (run.kind != kind)
                continue;
            events += run.events;
            for (const std::uint64_t w : run.windowNs)
                ns += w;
        }
        return ns == 0 ? 0.0
                       : static_cast<double>(events) /
                             (static_cast<double>(ns) * 1e-9);
    }

    /** Input size behind eventsPerSecond(@p kind). */
    std::string
    inputSize(const std::string &workload, sim::AllocatorKind kind) const
    {
        std::uint64_t events = 0, allocs = 0, runs = 0;
        for (const Run &run : mRuns) {
            if (run.kind != kind)
                continue;
            events += run.events;
            allocs += run.allocs;
            ++runs;
        }
        std::string note = std::to_string(events) + " events, " +
                           std::to_string(allocs) + " allocations";
        if (workload == "train-matrix")
            note += ", " + std::to_string(runs) + " configs";
        if (workload == "serve-day")
            note += ", " + std::to_string(kServeDayRequests) + " requests";
        return note;
    }

    Percentiles
    latencies() const
    {
        std::vector<std::uint32_t> copy = mLatencies;
        return exactPercentiles(copy);
    }

    std::size_t reps() const { return mReps; }

  private:
    struct Run
    {
        sim::AllocatorKind kind;
        std::uint64_t events;
        std::uint64_t allocs;
        std::vector<std::uint64_t> windowNs;
    };

    std::vector<Run> mRuns;
    std::vector<std::uint32_t> mLatencies;
    std::size_t mReps = 0;
};

/** Host-time end-to-end metrics over the untraced repetitions. */
Metrics
hostMetrics(const std::string &workload, const BestOf &best)
{
    Metrics m;
    const std::string reps =
        "best of " + std::to_string(best.reps()) + " reps per window";
    for (const sim::AllocatorKind kind : benchAllocators()) {
        m[std::string(sim::allocatorKindName(kind)) + ".events_per_s"] = {
            best.eventsPerSecond(kind), "events/s",
            best.inputSize(workload, kind) + "; " + reps};
    }
    const Percentiles pct = best.latencies();
    const std::string note =
        std::to_string(pct.count) + " samples, " +
        std::to_string(pct.beyondP99) + " beyond p99" +
        (pct.thinTail ? " (thin tail: fewer than 10)" : "") +
        "; best of " + std::to_string(best.reps()) + " reps per call";
    m["gmlake.alloc_p50_us"] = {pct.p50 * 1e-3, "us", note};
    m["gmlake.alloc_p99_us"] = {pct.p99 * 1e-3, "us", note};
    return m;
}

/** Simulated end-to-end metrics (identical in every repetition). */
Metrics
simMetrics(const std::string &workload, const RepResult &rep)
{
    Metrics m;
    // On train-matrix the paper's comparison only counts configs
    // that both allocators complete.
    const bool completedOnly = workload == "train-matrix";
    const auto gmlake =
        runsOf(rep, sim::AllocatorKind::gmlake, completedOnly);
    const auto caching =
        runsOf(rep, sim::AllocatorKind::caching, completedOnly);
    const std::string note =
        std::to_string(gmlake.size()) + " runs averaged";
    m["gmlake.peak_reserved_gib"] = {
        meanOf(gmlake,
               [](const sim::RunResult &r) {
                   return static_cast<double>(r.peakReserved) / kGiB;
               }),
        "GiB", note};
    m["caching.peak_reserved_gib"] = {
        meanOf(caching,
               [](const sim::RunResult &r) {
                   return static_cast<double>(r.peakReserved) / kGiB;
               }),
        "GiB", note};
    m["gmlake.utilization"] = {
        meanOf(gmlake,
               [](const sim::RunResult &r) { return r.utilization; }),
        "ratio", note};
    m["gmlake.device_api_s"] = {
        meanOf(gmlake,
               [](const sim::RunResult &r) {
                   return static_cast<double>(r.deviceApiTime) * 1e-9;
               }),
        "s", note};
    m["gmlake.sim_time_s"] = {
        meanOf(gmlake,
               [](const sim::RunResult &r) {
                   return static_cast<double>(r.simTime) * 1e-9;
               }),
        "s", note};
    std::uint64_t attempted = 0, refused = 0;
    for (const RunOutcome &run : rep.runs) {
        attempted += run.cons.attempted;
        refused += run.cons.refused;
    }
    m["alloc_fail_ratio"] = {
        attempted == 0 ? 0.0
                       : static_cast<double>(refused) /
                             static_cast<double>(attempted),
        "ratio",
        std::to_string(refused) + " of " + std::to_string(attempted) +
            " allocate() calls refused"};
    return m;
}

/** Per-layer metrics of one traced repetition. */
Metrics
layerMetrics(const RepResult &rep)
{
    Metrics m;
    const auto sec = [](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-9;
    };
    const auto at = [](Layer layer) {
        return static_cast<std::size_t>(layer);
    };
    std::uint64_t covered = rep.genNs;
    for (const sim::AllocatorKind kind : benchAllocators()) {
        const std::string a = sim::allocatorKindName(kind);
        // Allocator-layer metrics: `caching.alloc.*`, `gmlake.core.*`.
        const std::string layer =
            kind == sim::AllocatorKind::gmlake ? a + ".core" : a;
        LayerTotals t;
        std::uint64_t events = 0, vmmCalls = 0, stallNs = 0;
        std::uint64_t allocs = 0, exact = 0, stitches = 0, splits = 0,
                      fresh = 0, failedReclaims = 0;
        Bytes evicted = 0, faulted = 0;
        for (const RunOutcome *run : runsOf(rep, kind, false)) {
            t += run->layers;
            events += run->events;
            vmmCalls += run->vmmCalls;
            stallNs += run->result.combined.stallNs;
            allocs += run->cons.attempted;
            exact += run->strategy.s1ExactMatch;
            stitches += run->strategy.stitches;
            splits += run->strategy.splits;
            fresh += run->strategy.s4Insufficient;
            evicted += run->tier.evictedBytes;
            faulted += run->tier.faultedBytes;
            failedReclaims += run->tier.failedReclaims;
        }
        covered += t.coveredNs();
        m[a + ".workload.events"] = {static_cast<double>(events),
                                     "count", ""};
        m[a + ".workload.busy_s"] = {sec(t.busyNs[at(Layer::workload)]),
                                     "s", ""};
        m[a + ".sim.self_s"] = {sec(t.selfNs[at(Layer::sim)]), "s", ""};
        m[layer + ".alloc.calls"] = {
            static_cast<double>(t.calls[at(Layer::alloc)]), "count", ""};
        m[layer + ".alloc.busy_s"] = {sec(t.busyNs[at(Layer::alloc)]),
                                      "s", ""};
        m[layer + ".alloc.search_s"] = {sec(t.selfNs[at(Layer::alloc)]),
                                        "s", "allocate minus vmm/offload"};
        m[layer + ".free.busy_s"] = {sec(t.busyNs[at(Layer::free)]), "s",
                                     ""};
        m[layer + ".sync.busy_s"] = {sec(t.busyNs[at(Layer::sync)]), "s",
                                     ""};
        if (kind == sim::AllocatorKind::gmlake) {
            m[layer + ".exact_hit_ratio"] = {
                allocs == 0 ? 0.0
                            : static_cast<double>(exact) /
                                  static_cast<double>(allocs),
                "ratio", ""};
            m[layer + ".stitches"] = {static_cast<double>(stitches),
                                      "count", ""};
            m[layer + ".splits"] = {static_cast<double>(splits), "count",
                                    ""};
            m[layer + ".fresh_reserves"] = {static_cast<double>(fresh),
                                            "count", ""};
        }
        m[a + ".vmm.alloc_s"] = {sec(t.vmmAllocNs), "s", ""};
        m[a + ".vmm.free_s"] = {sec(t.vmmFreeNs), "s", ""};
        m[a + ".vmm.other_s"] = {sec(t.vmmOtherNs), "s",
                                 "sync, offload and engine callers"};
        m[a + ".vmm.calls"] = {static_cast<double>(vmmCalls), "count",
                               ""};
        m[a + ".offload.busy_s"] = {sec(t.busyNs[at(Layer::offload)]),
                                    "s", ""};
        m[a + ".offload.evicted_gib"] = {
            static_cast<double>(evicted) / kGiB, "GiB", ""};
        m[a + ".offload.faulted_gib"] = {
            static_cast<double>(faulted) / kGiB, "GiB", ""};
        m[a + ".offload.refault_ratio"] = {
            evicted == 0 ? 0.0
                         : static_cast<double>(faulted) /
                               static_cast<double>(evicted),
            "ratio", ""};
        m[a + ".offload.stall_s"] = {sec(stallNs), "s", ""};
        m[a + ".offload.failed_reclaims"] = {
            static_cast<double>(failedReclaims), "count", ""};
    }
    m["workload.gen_s"] = {sec(rep.genNs), "s", ""};
    m["trace.residual_share"] = {
        static_cast<double>(residualNs(rep.wallNs, covered)) /
            static_cast<double>(rep.wallNs),
        "ratio", "traced wall no layer covers"};
    return m;
}

/** Median of each metric over @p reps (all share one key set). */
Metrics
medians(const std::vector<Metrics> &reps)
{
    Metrics out;
    for (const auto &[name, first] : reps.front()) {
        std::vector<double> values;
        for (const Metrics &rep : reps)
            values.push_back(rep.at(name).value);
        out[name] = {median(values), first.unit, first.note};
    }
    return out;
}

/**
 * Compares every repetition's simulated results with the first's:
 * replays are deterministic functions of the seed, traced or not.
 */
class DeterminismCheck
{
  public:
    void
    check(const RepResult &rep, const char *what)
    {
        if (mReference.empty()) {
            for (const RunOutcome &run : rep.runs)
                mReference.push_back(run.result);
            return;
        }
        GMLAKE_ASSERT(rep.runs.size() == mReference.size(), what,
                      " repetition ran ", rep.runs.size(), " runs, not ",
                      mReference.size());
        for (std::size_t i = 0; i < rep.runs.size(); ++i) {
            GMLAKE_ASSERT(sameSimulation(rep.runs[i].result,
                                         mReference[i]),
                          what, " repetition of ", rep.runs[i].label,
                          " [", sim::allocatorKindName(rep.runs[i].kind),
                          "] changed a simulated result");
        }
    }

  private:
    std::vector<sim::MultiRunResult> mReference;
};

void
printMetrics(const Metrics &metrics)
{
    for (const auto &[name, v] : metrics) {
        std::printf("  %-36s %16.6g %-9s %s\n", name.c_str(), v.value,
                    v.unit.c_str(), v.note.c_str());
    }
}

void
printJson(const Metrics &metrics, std::uint64_t attempted)
{
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
                "\"metrics\": {",
                static_cast<unsigned long long>(attempted));
    const char *sep = "";
    for (const auto &[name, v] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), v.value, v.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

/** Metrics gated by BENCHMARK.json's end_to_end list. */
bool
gatedEndToEnd(const std::string &name)
{
    return name != "alloc_fail_ratio";
}

int
run(const Args &args)
{
    const std::uint64_t start = nowNs();
    const auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) * 1e-9;
    };
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u engine_threads=1\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency());

    DeterminismCheck determinism;
    BestOf best;
    std::vector<Metrics> traced;
    std::vector<double> setups, untracedWalls, tracedWalls;
    Metrics sim;
    std::uint64_t attempted = 0;

    const auto untracedRep = [&] {
        const RepResult rep =
            runRep(args.workload, args.seed, Mode::untraced);
        determinism.check(rep, "untraced");
        best.fold(rep);
        if (sim.empty())
            sim = simMetrics(args.workload, rep);
        setups.push_back(static_cast<double>(rep.setupNs()) * 1e-9);
        untracedWalls.push_back(static_cast<double>(rep.wallNs));
        attempted += rep.runs.size();
        return static_cast<double>(rep.wallNs) * 1e-9;
    };
    const auto tracedRep = [&] {
        const RepResult rep =
            runRep(args.workload, args.seed, Mode::traced);
        determinism.check(rep, "traced");
        tracedWalls.push_back(static_cast<double>(rep.wallNs));
        traced.push_back(layerMetrics(rep));
        attempted += rep.runs.size();
        return static_cast<double>(rep.wallNs) * 1e-9;
    };
    // Extra set-ups between repetitions, so the set-up median spans
    // the whole run (up to 1% of the budget per repetition).
    const auto extraSetups = [&] {
        double spent = 0.0;
        for (int k = 0; k < 4 && spent < 0.01 * args.seconds; ++k) {
            const RepResult rep =
                runRep(args.workload, args.seed, Mode::setupOnly);
            setups.push_back(static_cast<double>(rep.setupNs()) * 1e-9);
            spent += static_cast<double>(rep.wallNs) * 1e-9;
        }
        return spent;
    };

    // Start another repetition only while it is expected to finish
    // inside the budget; the first always runs.
    double last = 0.0;
    do {
        last = untracedRep();
        if (args.trace)
            last += tracedRep();
        else
            last += extraSetups();
    } while (elapsed() + last <= args.seconds);

    Metrics report;
    if (!args.trace) {
        report = sim;
        for (const auto &[name, v] : hostMetrics(args.workload, best))
            report[name] = v;
        report["setup_s"] = {median(setups), "s",
                             "median of " + std::to_string(setups.size()) +
                                 " set-ups"};
        report["peak_rss_mib"] = {
            static_cast<double>(peakRssBytes()) / kMiB, "MiB",
            "whole benchmark process"};
    } else {
        report = medians(traced);
        report["trace.overhead_share"] = {
            median(tracedWalls) / median(untracedWalls) - 1.0, "ratio",
            "traced wall / untraced wall - 1"};
    }
    std::printf("%s metrics over %zu %s repetitions:\n",
                args.trace ? "per-layer" : "end-to-end",
                args.trace ? traced.size() : best.reps(),
                args.trace ? "traced" : "untraced");
    printMetrics(report);
    std::printf("checks passed: invariants, conservation, determinism "
                "over %llu runs\n",
                static_cast<unsigned long long>(attempted));

    Metrics gated;
    for (const auto &[name, v] : report) {
        if (args.trace || gatedEndToEnd(name))
            gated[name] = v;
    }
    printJson(gated, attempted);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    gmlake::setLogLevel(gmlake::LogLevel::error);
    std::fprintf(stderr, "perfbench: workload %s, seed %llu\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed));
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr,
                     "perfbench: CHECK FAILED on workload %s at seed %llu: "
                     "%s\nreplay: perfbench --workload %s --seed %llu "
                     "--seconds %g --trace %d\n",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed), e.what(),
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed),
                     args.seconds, args.trace ? 1 : 0);
        return 1;
    }
}
