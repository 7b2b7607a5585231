/**
 * @file
 * Experiment-registry coverage: every registered scenario must
 * resolve (allocator constructible, trace generable) and execute a
 * scaled-down run end to end, so a broken scenario fails CTest
 * instead of a nightly bench; its rows must reproduce what it
 * recorded. Also covers the CSV/JSON artifact writers the CI
 * bench-smoke job depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::sim;

namespace
{

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const auto &e : allExperiments())
        names.push_back(e.name);
    return names;
}

/**
 * Records that are not whole replays of a row: sweep-smoke records
 * its shared warmup prefix ("warmup") and each point's tail after
 * the checkpoint, never the row end to end.
 */
bool
recordsAreWholeReplays(const std::string &scenario)
{
    return scenario != "sweep-smoke";
}

/** Every deterministic RunResult field (host wall time excluded). */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.allocator, b.allocator);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.oomAt, b.oomAt);
    EXPECT_EQ(a.iterationsDone, b.iterationsDone);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.peakActive, b.peakActive);
    EXPECT_EQ(a.peakReserved, b.peakReserved);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.fragmentation, b.fragmentation);
    EXPECT_EQ(a.samplesPerSec, b.samplesPerSec);
    EXPECT_EQ(a.allocCount, b.allocCount);
    EXPECT_EQ(a.freeCount, b.freeCount);
    EXPECT_EQ(a.deviceApiTime, b.deviceApiTime);
    EXPECT_EQ(a.evictedBytes, b.evictedBytes);
    EXPECT_EQ(a.faultedBytes, b.faultedBytes);
    EXPECT_EQ(a.stallNs, b.stallNs);
    EXPECT_EQ(a.injectedFaults, b.injectedFaults);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.abortedSessions, b.abortedSessions);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].time, b.series[i].time);
        EXPECT_EQ(a.series[i].active, b.series[i].active);
        EXPECT_EQ(a.series[i].reserved, b.series[i].reserved);
    }
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

// ----------------------------------------------------- registration

TEST(ExperimentRegistry, BuiltinScenariosAreRegistered)
{
    const char *expected[] = {
        "headline", "fig3",     "fig4",
        "fig5",     "fig6",     "fig10",
        "fig11",    "fig12",    "fig13",
        "fig14",    "table1",   "ablation",
        "native-vs-caching",    "pytorch-knobs",
        "serving",  "stitch-vs-move",
        "vmm-designs",          "colocate-train-serve",
        "colocate-two-serving", "colocate-oversub",
        "cluster-ranks",        "stress-allocator",
        "frag-churn",           "oversub-offload",
        "serve-burst-offload",
    };
    for (const char *name : expected) {
        EXPECT_NE(findExperiment(name), nullptr)
            << "missing scenario: " << name;
    }
    EXPECT_GE(allExperiments().size(), std::size(expected));
}

TEST(ExperimentRegistry, NamesAreUniqueAndDescribed)
{
    const auto names = scenarioNames();
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << "duplicate scenario name";
    for (const auto &e : allExperiments()) {
        EXPECT_FALSE(e.title.empty()) << e.name;
        EXPECT_FALSE(e.claim.empty()) << e.name;
        EXPECT_FALSE(e.kind.empty()) << e.name;
        EXPECT_NE(e.run, nullptr) << e.name;
    }
}

TEST(ExperimentRegistry, FindIsExact)
{
    EXPECT_NE(findExperiment("fig10"), nullptr);
    EXPECT_EQ(findExperiment("fig10 "), nullptr);
    EXPECT_EQ(findExperiment("no-such-scenario"), nullptr);
}

// -------------------------------------------------------- overrides

TEST(ExperimentOptions, AppliesIterationAndSeedOverrides)
{
    ExperimentOptions options;
    options.iterations = 3;
    options.seed = 777;

    workload::TrainConfig cfg;
    cfg.iterations = 12;
    cfg.seed = 42;
    const auto adjusted = options.adjust(cfg);
    EXPECT_EQ(adjusted.iterations, 3);
    EXPECT_EQ(adjusted.seed, 777u);
    EXPECT_EQ(options.iterationsOr(12), 3);

    const ExperimentOptions plain;
    EXPECT_EQ(plain.adjust(cfg).iterations, 12);
    EXPECT_EQ(plain.adjust(cfg).seed, 42u);
}

TEST(ExperimentOptions, ScalesServingRequestsWithIterations)
{
    ExperimentOptions options;
    options.iterations = 2;

    workload::ServeConfig cfg;
    cfg.requests = 256;
    EXPECT_EQ(options.adjust(cfg).requests, 32);
    EXPECT_EQ(ExperimentOptions{}.adjust(cfg).requests, 256);
}

TEST(ExperimentOptions, AppliesDeviceCapacityOverride)
{
    ExperimentOptions options;
    options.deviceCapacity = 24_GiB;
    EXPECT_EQ(options.adjust(vmm::DeviceConfig{}).capacity, 24_GiB);
    // Every row of a scenario is built on the overridden device.
    for (const RunSpec &row : findExperiment("headline")->rows(options))
        EXPECT_EQ(row.device.capacity, 24_GiB) << row.label;
}

// ------------------------------------------------- scenario smoke

class ScenarioSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScenarioSmoke, ResolvesAndRunsOneTinyIteration)
{
    const Experiment *experiment = findExperiment(GetParam());
    ASSERT_NE(experiment, nullptr);

    ExperimentOptions options;
    options.iterations = 1;
    std::ostringstream sink;
    ExperimentContext ctx(options, sink);
    experiment->run(ctx);

    // Every scenario must leave machine-readable evidence behind.
    EXPECT_FALSE(ctx.records().empty() && ctx.metrics().empty())
        << experiment->name << " recorded nothing";

    // Any recorded allocator run must have actually replayed work
    // (or ended in a diagnosed OOM on the simulated device).
    bool anyCompleted = ctx.records().empty();
    for (const auto &r : ctx.records()) {
        EXPECT_FALSE(r.allocator.empty());
        EXPECT_TRUE(r.result.oom || r.result.allocCount > 0)
            << experiment->name << ": empty run for " << r.label;
        anyCompleted |= !r.result.oom;
    }
    EXPECT_TRUE(anyCompleted)
        << experiment->name << ": every recorded run hit OOM";

    // The scenario's rows are the single definition of its runs:
    // every record replays bit for bit from the row of its label
    // under the allocator variant it names.
    if (!experiment->rows) {
        EXPECT_TRUE(ctx.records().empty()) << experiment->name;
        return;
    }
    const std::vector<RunSpec> rows = experiment->rows(options);
    std::set<std::string> labels;
    for (const RunSpec &row : rows) {
        EXPECT_TRUE(labels.insert(row.label).second)
            << experiment->name << ": duplicate row " << row.label;
    }
    if (!recordsAreWholeReplays(experiment->name))
        return;
    for (const RunRecord &record : ctx.records()) {
        SCOPED_TRACE(record.label + " [" + record.allocator + "]");
        const auto row = std::find_if(
            rows.begin(), rows.end(),
            [&](const RunSpec &r) { return r.label == record.label; });
        ASSERT_NE(row, rows.end()) << "record without a row";
        const auto variant = parseAllocatorVariant(record.allocator);
        ASSERT_TRUE(variant.has_value());
        expectSameRun(replay(*row, *variant).combined, record.result);
    }
}

TEST(ExperimentRegistry, ListingRowsBuildsNoTrace)
{
    // Every row at default scale — tens of full-size training traces
    // and a 10^7-event serving day if any were built eagerly. Lazy
    // session factories make the listing a matter of microseconds.
    const auto start = std::chrono::steady_clock::now();
    std::size_t rows = 0;
    for (const Experiment &e : allExperiments()) {
        if (e.rows)
            rows += e.rows(ExperimentOptions{}).size();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GT(rows, 100u);
    EXPECT_LT(elapsed, std::chrono::milliseconds(500))
        << "listing " << rows << " rows took too long: a rows() "
           "function generates a workload instead of deferring it";
}

TEST(ExperimentRegistry, ScenariosWithoutRunsRefuseRowLookups)
{
    for (const char *name : {"fig5", "fig6", "table1"}) {
        const Experiment *e = findExperiment(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_FALSE(e->rows) << name;
        EXPECT_THROW(findRow(name, {}), FatalError) << name;
    }
    EXPECT_THROW(findRow("no-such-scenario", {}), FatalError);
    EXPECT_THROW(findRow("headline", {}), FatalError); // 68 rows
    EXPECT_THROW(findRow("headline/no-such-row", {}), FatalError);
    EXPECT_EQ(findRow("headline/OPT-13B/LR/b16", {}).label,
              "OPT-13B/LR/b16");
    EXPECT_EQ(findRow("sweep-smoke", {}).label, "smoke");
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioSmoke,
    ::testing::ValuesIn(scenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// -------------------------------------------------------- artifacts

TEST(ExperimentArtifacts, WritesJsonAndCsvReports)
{
    const Experiment *table1 = findExperiment("table1");
    ASSERT_NE(table1, nullptr);

    const auto dir = std::filesystem::temp_directory_path();
    const auto jsonPath = dir / "gmlake_BENCH_table1_test.json";
    const auto csvPath = dir / "gmlake_BENCH_table1_test.csv";
    std::filesystem::remove(jsonPath);
    std::filesystem::remove(csvPath);

    ExperimentRunOptions options;
    options.banner = false;
    options.jsonPath = jsonPath.string();
    options.csvPath = csvPath.string();
    std::ostringstream sink;
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);

    const std::string json = slurp(jsonPath);
    EXPECT_NE(json.find("\"scenario\": \"table1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
    EXPECT_NE(json.find("total_vs_cumemalloc"), std::string::npos);

    const std::string csv = slurp(csvPath);
    EXPECT_NE(csv.find("scenario,label,allocator,oom,utilization"),
              std::string::npos);

    std::filesystem::remove(jsonPath);
    std::filesystem::remove(csvPath);
}

TEST(ExperimentArtifacts, CsvAppendsWithoutDuplicatingHeader)
{
    const Experiment *table1 = findExperiment("table1");
    ASSERT_NE(table1, nullptr);

    const auto csvPath = std::filesystem::temp_directory_path() /
                         "gmlake_BENCH_append_test.csv";
    std::filesystem::remove(csvPath);

    ExperimentRunOptions options;
    options.banner = false;
    options.csvPath = csvPath.string();
    std::ostringstream sink;
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);
    EXPECT_EQ(runExperiment(*table1, options, sink), 0);

    const std::string csv = slurp(csvPath);
    std::size_t headers = 0;
    for (std::size_t pos = csv.find("scenario,label");
         pos != std::string::npos;
         pos = csv.find("scenario,label", pos + 1)) {
        ++headers;
    }
    EXPECT_EQ(headers, 1u);

    std::filesystem::remove(csvPath);
}

TEST(ExperimentArtifacts, DefaultPathsDeriveFromScenarioName)
{
    const Experiment *fig10 = findExperiment("fig10");
    ASSERT_NE(fig10, nullptr);
    EXPECT_EQ(defaultCsvPath(*fig10), "BENCH_fig10.csv");
    EXPECT_EQ(defaultJsonPath(*fig10), "BENCH_fig10.json");
}
