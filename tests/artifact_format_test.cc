/**
 * @file
 * Golden-header regression tests for every machine-readable artifact
 * `gmlake_sim` emits: the `--csv` column set, the `--json` record
 * keys, and the key sets of the sweep and chaos JSON reports.
 *
 * Downstream notebooks and the CI trend dashboards key on these
 * names. Renaming, reordering or dropping a column is an interface
 * break and must be done deliberately: update the pin here in the
 * same change as the writer, and say so in the commit message.
 * *Appending* new columns is fine — append to the pin too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/chaos.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

using namespace gmlake;
using namespace gmlake::sim;

namespace
{

/**
 * Every JSON object key in first-appearance order, deduplicated —
 * the writer's schema, independent of the values written.
 */
std::vector<std::string>
jsonKeys(const std::string &text)
{
    std::vector<std::string> keys;
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        const std::string token = text.substr(pos + 1,
                                              end - pos - 1);
        // A key is a quoted string immediately followed by ':'.
        std::size_t after = end + 1;
        while (after < text.size() && text[after] == ' ')
            ++after;
        if (after < text.size() && text[after] == ':' &&
            std::find(keys.begin(), keys.end(), token) ==
                keys.end())
            keys.push_back(token);
        pos = end + 1;
    }
    return keys;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

TEST(ArtifactFormat, CsvHeaderIsPinned)
{
    EXPECT_STREQ(
        experimentCsvHeader(),
        "scenario,label,allocator,oom,utilization,"
        "fragmentation,peak_active_bytes,peak_reserved_bytes,"
        "sim_time_ns,samples_per_sec,alloc_count,free_count,"
        "device_api_time_ns,alloc_wall_ns,alloc_wall_p50_ns,"
        "alloc_wall_p99_ns,run_wall_ns,vmm_wall_ns,"
        "evicted_bytes,faulted_bytes,stall_ns,offload_wall_ns,"
        "injected_faults,recovered,aborted_sessions,rollbacks");
}

TEST(ArtifactFormat, JsonRecordKeysArePinned)
{
    const std::vector<std::string> expected = {
        "label",
        "allocator",
        "oom",
        "utilization",
        "fragmentation",
        "peak_active_bytes",
        "peak_reserved_bytes",
        "sim_time_ns",
        "samples_per_sec",
        "alloc_count",
        "free_count",
        "device_api_time_ns",
        "alloc_wall_ns",
        "alloc_wall_p50_ns",
        "alloc_wall_p99_ns",
        "run_wall_ns",
        "vmm_wall_ns",
        "evicted_bytes",
        "faulted_bytes",
        "stall_ns",
        "offload_wall_ns",
        "injected_faults",
        "recovered",
        "aborted_sessions",
        "rollbacks",
    };
    EXPECT_EQ(experimentJsonRecordKeys(), expected);
}

TEST(ArtifactFormat, SweepJsonKeysArePinned)
{
    // A synthetic one-point report drives every branch of the
    // writer; only the schema matters here, not the values.
    SweepReport report;
    report.scenario = "smoke";
    report.allocator = "gmlake";
    SweepPointRecord record;
    record.point.label = "frag=16MiB";
    record.onFrontier = true;
    report.points.push_back(record);

    const std::string path = tempPath("artifact_sweep.json");
    writeSweepJson(report, SweepJsonMeta{}, path);
    const std::vector<std::string> expected = {
        "scenario",
        "mode",
        "allocator",
        "config",
        "seed",
        "iterations",
        "device_capacity_bytes",
        "threads",
        "warm_start",
        "split_time_ns",
        "warmup",
        "oom",
        "utilization",
        "fragmentation",
        "peak_active_bytes",
        "peak_reserved_bytes",
        "sim_time_ns",
        "alloc_count",
        "free_count",
        "device_api_time_ns",
        "wall_ns",
        "total_wall_ns",
        "points",
        "label",
        "frag_limit_bytes",
        "near_match_tolerance",
        "max_cached_sblocks",
        "max_va_overscribe",
        "enable_stitching",
        "point_wall_ns",
        "pareto",
        "pareto_frontier",
    };
    EXPECT_EQ(jsonKeys(slurp(path)), expected);
    std::filesystem::remove(path);
}

TEST(ArtifactFormat, ChaosJsonKeysArePinned)
{
    ChaosReport report;
    report.scenario = "smoke";
    report.allocator = "gmlake";
    ChaosTrialRecord trial;
    trial.auditPassed = true;
    report.trials.push_back(trial);

    const std::string path = tempPath("artifact_chaos.json");
    writeChaosJson(report, ChaosOptions{}, path);
    const std::vector<std::string> expected = {
        "scenario",
        "mode",
        "allocator",
        "config",
        "workload_seed",
        "fault_seed",
        "fault_spec",
        "soak",
        "iterations",
        "kill_chance",
        "exit_code",
        "failures",
        "total_wall_ns",
        "trials",
        "audit_passed",
        "internal_error",
        "injected_faults",
        "recovered",
        "rollbacks",
        "aborted_sessions",
        "oom_sessions",
        "scripted_kills",
        "capacity_lost_bytes",
        "oom",
        "fragmentation",
        "peak_reserved_bytes",
        "sim_time_ns",
        "alloc_count",
        "free_count",
        "wall_ns",
    };
    EXPECT_EQ(jsonKeys(slurp(path)), expected);
    std::filesystem::remove(path);
}
