/**
 * @file
 * Every verb reaches every workload: `probe`, `chaos` and `sweep`
 * replay the first row of each replaying registry scenario at smoke
 * scale, through the same row reference the CLI takes
 * ("<scenario>/<row label>"). Scenarios that record no run are
 * refused, and so is a sweep over a streamed row.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/chaos.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"
#include "support/logging.hh"

using namespace gmlake;
using namespace gmlake::sim;

namespace
{

ExperimentOptions
smokeScale()
{
    ExperimentOptions options;
    options.iterations = 1;
    return options;
}

std::vector<std::string>
replayingScenarios()
{
    std::vector<std::string> names;
    for (const Experiment &e : allExperiments()) {
        if (e.rows)
            names.push_back(e.name);
    }
    return names;
}

/** "<scenario>/<label of its first row>". */
std::string
firstRowRef(const std::string &scenario)
{
    return scenario + "/" +
           findExperiment(scenario)->rows(smokeScale()).front().label;
}

} // namespace

class ScenarioVerbs : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScenarioVerbs, ProbeChaosAndSweepReplayTheFirstRow)
{
    const std::string ref = firstRowRef(GetParam());

    ProbeOptions probe;
    probe.scenario = ref;
    probe.overrides = smokeScale();
    std::ostringstream out;
    const ProbeSummary summary = runProbe(probe, out);
    EXPECT_GT(summary.allocsRecorded, 0u) << ref;

    ChaosOptions chaos;
    chaos.scenario = ref;
    chaos.overrides = smokeScale();
    const ChaosReport report = runChaos(chaos);
    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_TRUE(report.trials[0].auditPassed)
        << ref << ": " << report.trials[0].error;

    const RunSpec row = findRow(ref, smokeScale());
    std::vector<SweepPoint> points =
        defaultSweepGrid().expand(row.gmlake);
    points.resize(2);
    if (GetParam() == "serve-day") {
        // A warm start splits materialized traces; serve-day streams.
        EXPECT_THROW(runSweep(row, points), FatalError);
        return;
    }
    const SweepReport sweep = runSweep(row, points);
    EXPECT_EQ(sweep.points.size(), 2u);
    EXPECT_GT(sweep.splitTime, 0u) << ref;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioVerbs,
    ::testing::ValuesIn(replayingScenarios()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ScenarioVerbs, ScenariosWithoutRunsAreRefused)
{
    for (const char *name : {"fig5", "fig6", "table1"}) {
        ProbeOptions probe;
        probe.scenario = name;
        std::ostringstream out;
        EXPECT_THROW(runProbe(probe, out), FatalError) << name;
        ChaosOptions chaos;
        chaos.scenario = name;
        EXPECT_THROW(runChaos(chaos), FatalError) << name;
    }
}
