/**
 * @file
 * End-to-end provenance probe tests: `runProbe` replays a registry
 * row with the recorder active, builds the ledger, and answers
 * tensor / point-in-time queries with real attribution — non-trivial
 * origins (fresh reserve, stitch of N) and nonzero device-API cost
 * for large allocations, which is exactly what the ledger join-order
 * regression silently zeroed out.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/recorder.hh"
#include "sim/probe.hh"

using namespace gmlake;
using namespace gmlake::sim;

namespace
{

ProbeOptions
smokeOptions()
{
    ProbeOptions opt;
    opt.scenario = "sweep-smoke";
    opt.overrides.seed = 42;
    return opt;
}

} // namespace

TEST(Probe, SummaryListsTopAllocationsWithRealOrigins)
{
    std::ostringstream out;
    const ProbeSummary summary = runProbe(smokeOptions(), out);

    EXPECT_GT(summary.allocsRecorded, 100u);
    EXPECT_GT(summary.bindingsRecorded, 100u);
    EXPECT_GT(summary.eventsRecorded, summary.allocsRecorded);
    EXPECT_FALSE(summary.run.oom);

    const std::string text = out.str();
    EXPECT_NE(text.find("ledger:"), std::string::npos) << text;
    EXPECT_NE(text.find("top allocations"), std::string::npos);
    // The top-by-device-cost list must attribute real work: if the
    // token join breaks, every line reads "small-path, ... 0 device
    // calls" and these assertions catch it.
    EXPECT_NE(text.find("device calls"), std::string::npos);
    EXPECT_EQ(text.find("0 device calls"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("small-path"), std::string::npos) << text;

    // The probe deactivates its recorder on the way out.
    EXPECT_EQ(obs::active(), nullptr);
}

TEST(Probe, TensorQueryReportsProvenance)
{
    ProbeOptions opt = smokeOptions();
    opt.tensor = 1;
    std::ostringstream out;
    const ProbeSummary summary = runProbe(opt, out);
    EXPECT_GT(summary.bindingsRecorded, 0u);

    const std::string text = out.str();
    EXPECT_NE(text.find("tensor 1:"), std::string::npos) << text;
    EXPECT_NE(text.find("alloc #"), std::string::npos);
    EXPECT_NE(text.find("device API:"), std::string::npos);
}

TEST(Probe, AtQueryListsLiveTensors)
{
    ProbeOptions opt = smokeOptions();
    opt.atTick = 1'000'000; // 1 ms into the run
    std::ostringstream out;
    (void)runProbe(opt, out);

    const std::string text = out.str();
    EXPECT_NE(text.find("live tensor(s)"), std::string::npos)
        << text;
    // At 1 ms the smoke scenario's first big tensor is live and was
    // freshly reserved (nothing cached yet): attribution must show
    // device work, not an empty scope.
    EXPECT_NE(text.find("fresh reserve"), std::string::npos)
        << text;
}

TEST(Probe, IsDeterministicAcrossRuns)
{
    std::ostringstream a;
    std::ostringstream b;
    const ProbeSummary sa = runProbe(smokeOptions(), a);
    const ProbeSummary sb = runProbe(smokeOptions(), b);
    EXPECT_EQ(sa.allocsRecorded, sb.allocsRecorded);
    EXPECT_EQ(sa.bindingsRecorded, sb.bindingsRecorded);
    EXPECT_EQ(sa.eventsRecorded, sb.eventsRecorded);
    EXPECT_EQ(a.str(), b.str());
}
