/**
 * @file
 * perfbench_selftest: checks the benchmark itself.
 *
 *  - its arithmetic: exact percentiles, span self time, and the
 *    identity "layer self times + residual = traced wall";
 *  - decision neutrality: at seed 42 the traced train-matrix and
 *    serve-day runs reproduce, field for field, the simulated results
 *    the experiment registry records for `gmlake_sim run headline`
 *    and `gmlake_sim run serve-day`, so the decorators change no
 *    allocator decision;
 *  - a held-out seed: every workload generates and passes its checks
 *    at a seed other than 42, traced and untraced alike.
 *
 * Exits 0 when every check passes.
 */

#include <cstdio>
#include <sstream>

#include "sim/experiment.hh"
#include "stats.hh"
#include "support/logging.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

int gFailures = 0;

#define EXPECT(cond)                                                   \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__,     \
                         __LINE__, #cond);                             \
            ++gFailures;                                               \
        }                                                              \
    } while (0)

constexpr std::uint64_t kHeldOutSeed = 7919;

std::size_t
at(Layer layer)
{
    return static_cast<std::size_t>(layer);
}

void
testPercentiles()
{
    std::vector<std::uint32_t> hundred;
    for (std::uint32_t v = 100; v >= 1; --v)
        hundred.push_back(v);
    const Percentiles a = exactPercentiles(hundred);
    EXPECT(a.count == 100);
    EXPECT(a.p50 == 50.0);
    EXPECT(a.p99 == 99.0);
    EXPECT(a.beyondP99 == 1);
    EXPECT(a.thinTail);

    std::vector<std::uint32_t> many;
    for (std::uint32_t v = 1; v <= 2000; ++v)
        many.push_back((v * 7919) % 2000 + 1); // a permutation of 1..2000
    const Percentiles b = exactPercentiles(many);
    EXPECT(b.count == 2000);
    EXPECT(b.p50 == 1000.0);
    EXPECT(b.p99 == 1980.0);
    EXPECT(b.beyondP99 == 20);
    EXPECT(!b.thinTail);

    std::vector<std::uint32_t> one = {42};
    const Percentiles c = exactPercentiles(one);
    EXPECT(c.p50 == 42.0 && c.p99 == 42.0 && c.beyondP99 == 0);

    std::vector<std::uint32_t> none;
    EXPECT(exactPercentiles(none).count == 0);

    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

Clocks
clocks(std::uint64_t wall, std::uint64_t vmm = 0, std::uint64_t off = 0)
{
    return Clocks{wall, vmm, off};
}

void
testSelfTime()
{
    // sim [0,100) > alloc [10,40) with 5 ns of vmm; workload [50,60).
    Tracer t;
    t.enter(Layer::sim, clocks(0));
    t.enter(Layer::alloc, clocks(10));
    t.exit(clocks(40, 5));
    t.enter(Layer::workload, clocks(50, 5));
    t.exit(clocks(60, 5));
    t.exit(clocks(100, 5));
    const LayerTotals &a = t.totals();
    EXPECT(t.depth() == 0);
    EXPECT(a.busyNs[at(Layer::alloc)] == 30);
    EXPECT(a.selfNs[at(Layer::alloc)] == 25);
    EXPECT(a.vmmAllocNs == 5);
    EXPECT(a.selfNs[at(Layer::workload)] == 10);
    EXPECT(a.selfNs[at(Layer::sim)] == 60);
    EXPECT(a.coveredNs() == 100);

    // A reclaim nested in an allocate, plus offload work the engine
    // drives directly (touches): each lands on the offload layer.
    Tracer u;
    u.enter(Layer::sim, clocks(0));
    u.enter(Layer::alloc, clocks(10));
    u.enter(Layer::offload, clocks(20));
    u.exit(clocks(30, 4, 9));
    u.exit(clocks(50, 7, 9));
    u.exit(clocks(100, 9, 17));
    const LayerTotals &b = u.totals();
    EXPECT(b.selfNs[at(Layer::offload)] == 6 + 6);
    EXPECT(b.busyNs[at(Layer::offload)] == 10 + 8);
    EXPECT(b.vmmOtherNs == 4 + 2);
    EXPECT(b.vmmAllocNs == 3);
    EXPECT(b.selfNs[at(Layer::alloc)] == 40 - 10 - 3);
    EXPECT(b.selfNs[at(Layer::sim)] == 100 - 40 - 2 - 6);
    EXPECT(b.coveredNs() == 100);

    // A reclaim nested in an engine-driven touch: the manager counts
    // its wall time only when the touch returns, reclaim included.
    Tracer v;
    v.enter(Layer::sim, clocks(0));
    v.enter(Layer::offload, clocks(10));
    v.exit(clocks(20));
    v.exit(clocks(100, 0, 15));
    const LayerTotals &c = v.totals();
    EXPECT(c.selfNs[at(Layer::offload)] == 10 + 5);
    EXPECT(c.busyNs[at(Layer::offload)] == 10 + 5);
    EXPECT(c.selfNs[at(Layer::sim)] == 85);
    EXPECT(c.coveredNs() == 100);

    EXPECT(residualNs(100, 80) == 20);
    EXPECT(residualNs(100, 120) == 0);
}

/** Self times + residual = traced wall, on a real traced run. */
void
testResidualIdentity()
{
    const RepResult rep =
        runRep("oversub-offload", kHeldOutSeed, Mode::traced);
    std::uint64_t covered = rep.genNs;
    std::uint64_t replay = 0;
    for (const RunOutcome &run : rep.runs) {
        covered += run.layers.coveredNs();
        replay += run.replayNs;
        EXPECT(run.layers.calls[at(Layer::sim)] == 1);
        EXPECT(run.layers.busyNs[at(Layer::offload)] > 0);
    }
    EXPECT(covered <= rep.wallNs);
    EXPECT(residualNs(rep.wallNs, covered) + covered == rep.wallNs);
    // The sim span is timed inside the replay window.
    EXPECT(covered - rep.genNs <= replay);
}

/** Traced benchmark runs vs the registry's records at seed 42. */
void
testDecisionNeutrality(const std::string &workload,
                       const std::string &scenario)
{
    const RepResult rep = runRep(workload, 42, Mode::traced);
    sim::ExperimentOptions options;
    std::ostringstream sink;
    sim::ExperimentContext ctx(options, sink);
    const sim::Experiment *experiment = sim::findExperiment(scenario);
    EXPECT(experiment != nullptr);
    if (experiment == nullptr)
        return;
    experiment->run(ctx);

    std::size_t matched = 0;
    for (const RunOutcome &run : rep.runs) {
        for (const sim::RunRecord &record : ctx.records()) {
            if (record.label == run.label &&
                record.allocator == sim::allocatorKindName(run.kind)) {
                ++matched;
                if (!sameSimulation(record.result, run.result.combined)) {
                    std::fprintf(stderr, "%s %s [%s] differs\n",
                                 scenario.c_str(), run.label.c_str(),
                                 record.allocator.c_str());
                    ++gFailures;
                }
            }
        }
    }
    std::printf("decision neutrality: %s vs registry %s, %zu of %zu "
                "runs matched\n",
                workload.c_str(), scenario.c_str(), matched,
                rep.runs.size());
    EXPECT(matched == rep.runs.size());
}

/** Every workload runs and passes its checks at a held-out seed. */
void
testHeldOutSeed()
{
    for (const std::string &workload : workloadNames()) {
        const RepResult plain =
            runRep(workload, kHeldOutSeed, Mode::untraced);
        const RepResult traced =
            runRep(workload, kHeldOutSeed, Mode::traced);
        EXPECT(!plain.runs.empty());
        EXPECT(plain.runs.size() == traced.runs.size());
        bool same = plain.runs.size() == traced.runs.size();
        for (std::size_t i = 0; same && i < plain.runs.size(); ++i) {
            same = sameSimulation(plain.runs[i].result,
                                  traced.runs[i].result);
        }
        EXPECT(same);
        EXPECT(!plain.gmlakeLatencies.empty());
        std::printf("held-out seed %llu: %s ok (%zu runs)\n",
                    static_cast<unsigned long long>(kHeldOutSeed),
                    workload.c_str(), plain.runs.size());
    }
}

} // namespace
} // namespace perfbench

int
main()
{
    gmlake::setLogLevel(gmlake::LogLevel::error);
    try {
        perfbench::testPercentiles();
        perfbench::testSelfTime();
        perfbench::testResidualIdentity();
        perfbench::testDecisionNeutrality("train-matrix", "headline");
        perfbench::testDecisionNeutrality("serve-day", "serve-day");
        perfbench::testHeldOutSeed();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "selftest: check failed: %s\n", e.what());
        return 1;
    }
    if (perfbench::gFailures > 0) {
        std::fprintf(stderr, "selftest: %d failure(s)\n",
                     perfbench::gFailures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
