/**
 * @file
 * Integration tests for the chaos soak harness (sim/chaos.hh):
 * trial-level determinism under a pinned fault seed, per-trial seed
 * derivation for replay, the exit-code contract of `gmlake_sim
 * chaos`, and clean audits across every built-in failure shape.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/chaos.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using sim::ChaosOptions;
using sim::ChaosReport;
using sim::ChaosTrialRecord;

namespace
{

/** Fast sweep-smoke baseline the cases below perturb. */
ChaosOptions
quickOptions()
{
    ChaosOptions options;
    options.scenario = "sweep-smoke";
    options.overrides.iterations = 1;
    options.killChance = 0.0;
    return options;
}

/** Field-by-field equality, excluding host wall time. */
void
expectSameTrial(const ChaosTrialRecord &a, const ChaosTrialRecord &b)
{
    EXPECT_EQ(a.faultSeed, b.faultSeed);
    EXPECT_EQ(a.oomSessions, b.oomSessions);
    EXPECT_EQ(a.scriptedKills, b.scriptedKills);
    EXPECT_EQ(a.capacityLost, b.capacityLost);
    EXPECT_EQ(a.auditPassed, b.auditPassed);
    EXPECT_EQ(a.internalError, b.internalError);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.result.injectedFaults, b.result.injectedFaults);
    EXPECT_EQ(a.result.recovered, b.result.recovered);
    EXPECT_EQ(a.result.rollbacks, b.result.rollbacks);
    EXPECT_EQ(a.result.abortedSessions, b.result.abortedSessions);
    EXPECT_EQ(a.result.oom, b.result.oom);
    EXPECT_EQ(a.result.simTime, b.result.simTime);
    EXPECT_EQ(a.result.allocCount, b.result.allocCount);
    EXPECT_EQ(a.result.freeCount, b.result.freeCount);
    EXPECT_EQ(a.result.peakReserved, b.result.peakReserved);
}

} // namespace

TEST(ChaosSoak, FaultFreeRunIsCleanWithZeroCounters)
{
    const ChaosReport report = sim::runChaos(quickOptions());
    ASSERT_EQ(report.trials.size(), 1u);
    const ChaosTrialRecord &trial = report.trials[0];
    EXPECT_TRUE(trial.auditPassed);
    EXPECT_FALSE(trial.internalError);
    EXPECT_EQ(trial.result.injectedFaults, 0u);
    EXPECT_EQ(trial.result.recovered, 0u);
    EXPECT_EQ(trial.result.rollbacks, 0u);
    EXPECT_EQ(trial.result.abortedSessions, 0u);
    EXPECT_EQ(trial.oomSessions, 0u);
    EXPECT_EQ(trial.capacityLost, 0u);
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_EQ(report.exitCode(), sim::kChaosExitClean);
}

TEST(ChaosSoak, PinnedSeedIsBitDeterministic)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "create:p=0.02;mapbatch:n=4";
    options.faultSeed = 7;
    options.trials = 3;
    options.killChance = 0.5;
    const ChaosReport first = sim::runChaos(options);
    const ChaosReport second = sim::runChaos(options);
    ASSERT_EQ(first.trials.size(), 3u);
    ASSERT_EQ(second.trials.size(), 3u);
    for (std::size_t k = 0; k < first.trials.size(); ++k) {
        SCOPED_TRACE(k);
        expectSameTrial(first.trials[k], second.trials[k]);
        EXPECT_TRUE(first.trials[k].auditPassed);
    }
    EXPECT_EQ(first.failures(), 0u);
    EXPECT_EQ(first.exitCode(), second.exitCode());
}

TEST(ChaosSoak, SoakTrialsReplayFromTheirDerivedSeed)
{
    ChaosOptions soak = quickOptions();
    soak.faultSpec = "create:p=0.05";
    soak.faultSeed = 11;
    soak.trials = 2;
    soak.killChance = 0.5;
    const ChaosReport report = sim::runChaos(soak);
    ASSERT_EQ(report.trials.size(), 2u);

    // Each trial must reproduce as a one-trial run of its own seed —
    // exactly the replay command the CLI prints on failure.
    for (std::size_t k = 0; k < report.trials.size(); ++k) {
        const ChaosTrialRecord &trial = report.trials[k];
        SCOPED_TRACE(trial.faultSeed);
        EXPECT_EQ(trial.faultSeed, deriveSeed(soak.faultSeed, k));
        ChaosOptions replay = soak;
        replay.faultSeed = trial.faultSeed;
        replay.trials = 1;
        const ChaosReport rerun = sim::runChaos(replay);
        ASSERT_EQ(rerun.trials.size(), 1u);
        expectSameTrial(trial, rerun.trials[0]);
    }
}

TEST(ChaosSoak, ScriptedKillsAbortSessions)
{
    ChaosOptions options = quickOptions();
    options.killChance = 1.0;
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    const ChaosTrialRecord &trial = report.trials[0];
    EXPECT_TRUE(trial.auditPassed);
    EXPECT_EQ(trial.scriptedKills, 2u); // sweep-smoke = 2 tenants
    EXPECT_GT(trial.result.abortedSessions, 0u);
    EXPECT_EQ(report.exitCode(), sim::kChaosExitAborted);
}

TEST(ChaosSoak, OomStormExitsWithOomOrAbort)
{
    ChaosOptions options = quickOptions();
    // Aggressive create failures on a cold cache starve tenants.
    options.faultSpec = "create:p=0.9";
    options.faultSeed = 3;
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_TRUE(report.trials[0].auditPassed);
    EXPECT_GT(report.trials[0].result.injectedFaults, 0u);
    const int code = report.exitCode();
    EXPECT_TRUE(code == sim::kChaosExitOom ||
                code == sim::kChaosExitAborted)
        << "exit code " << code;
}

TEST(ChaosSoak, CapacityLossIsAccounted)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "cap:t=1,b=1G";
    const ChaosReport report = sim::runChaos(options);
    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_TRUE(report.trials[0].auditPassed);
    EXPECT_EQ(report.trials[0].capacityLost, 1_GiB);
}

TEST(ChaosSoak, UnknownScenarioIsFatal)
{
    ChaosOptions options = quickOptions();
    options.scenario = "no-such-scenario";
    EXPECT_THROW(sim::runChaos(options), FatalError);
}

TEST(ChaosSoak, MalformedSpecFailsBeforeAnyTrial)
{
    ChaosOptions options = quickOptions();
    options.faultSpec = "create:p=2.0";
    options.trials = 5;
    EXPECT_THROW(sim::runChaos(options), FatalError);
}

namespace
{

/** Split a replay line into shell words (single quotes group). */
std::vector<std::string>
shellWords(const std::string &line)
{
    std::vector<std::string> words;
    std::string word;
    bool quoted = false, any = false;
    for (const char c : line) {
        if (c == '\'') {
            quoted = !quoted;
            any = true;
        } else if (c == ' ' && !quoted) {
            if (any)
                words.push_back(word);
            word.clear();
            any = false;
        } else {
            word += c;
            any = true;
        }
    }
    if (any)
        words.push_back(word);
    return words;
}

} // namespace

TEST(ChaosSoak, ReplayLineReproducesTheTrial)
{
    // Every value that shapes a trial is off its default here; the
    // printed line must carry all of them.
    ChaosOptions options;
    options.scenario = "colocate-train-serve/OPT-13B train+serve";
    options.allocator = {sim::AllocatorKind::gmlake,
                         gmlake::offload::PolicyKind::sizeAware};
    options.overrides.iterations = 1;
    options.overrides.seed = 9;
    options.overrides.deviceCapacity = 40_GiB;
    options.faultSpec = "create:p=0.02;cap:t=1,b=1G";
    options.faultSeed = 5;
    options.trials = 3;
    options.killChance = 0.3;
    const std::uint64_t trialSeed = deriveSeed(options.faultSeed, 2);
    const ChaosTrialRecord original =
        sim::runChaosTrial(options, trialSeed);

    const std::vector<std::string> words =
        shellWords(sim::chaosReplayLine(options, trialSeed));
    ASSERT_GE(words.size(), 3u);
    EXPECT_EQ(words[0], "gmlake_sim");
    EXPECT_EQ(words[1], "chaos");
    const sim::ChaosArgs replay =
        sim::parseChaosArgs({words.begin() + 2, words.end()});
    EXPECT_EQ(replay.options.scenario, options.scenario);
    EXPECT_EQ(replay.options.trials, 1u);
    ASSERT_EQ(replay.options.faultSeed, trialSeed);
    const ChaosReport rerun = sim::runChaos(replay.options);
    ASSERT_EQ(rerun.trials.size(), 1u);
    expectSameTrial(original, rerun.trials[0]);
    EXPECT_GT(original.result.injectedFaults, 0u);
    EXPECT_EQ(original.capacityLost, 1_GiB);
}
