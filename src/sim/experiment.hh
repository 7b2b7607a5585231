/**
 * @file
 * The experiment registry: every figure/table reproduction and
 * extension study registers here as a named scenario: its rows (one
 * RunSpec per recorded run) plus the table it prints. The gmlake_sim
 * `run`/`list` subcommands, CI's bench-smoke job and the registry
 * test drive scenarios through this one code path, and `sweep`,
 * `probe` and `chaos` replay any row of it, so a scenario that rots
 * fails CTest instead of a nightly bench.
 */

#ifndef GMLAKE_SIM_EXPERIMENT_HH
#define GMLAKE_SIM_EXPERIMENT_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workload/servegen.hh"

namespace gmlake::obs
{
class Recorder;
}

namespace gmlake::sim
{

/**
 * Cross-cutting overrides honoured by every scenario. CI's smoke job
 * shrinks iteration counts; the registry test shrinks the device.
 * Scenarios fold them into their rows, so every verb replaying a row
 * sees the same overridden workload.
 */
struct ExperimentOptions
{
    /** When > 0, replaces each scenario's training iteration count. */
    int iterations = 0;
    /** When != 0, overrides the simulated device capacity (bytes). */
    Bytes deviceCapacity = 0;
    /** When != 0, overrides the workload RNG base seed. */
    std::uint64_t seed = 0;
    /**
     * Worker threads for scenarios with independent sub-runs
     * (cluster ranks, sweep points). 1 = sequential; results are
     * identical either way, parallelism only changes wall-clock
     * time. 0 = use every hardware thread.
     */
    int threads = 1;
    /**
     * Write auxiliary plotting files (e.g. fig14's full-series
     * CSVs). Off by default so smoke runs and tests leave no stray
     * files; runExperiment() enables it when --csv is requested.
     */
    bool plotFiles = false;

    /** Scenario-default iteration count, unless overridden. */
    int iterationsOr(int scenarioDefault) const;
    /** Scenario-default workload seed, unless overridden. */
    std::uint64_t seedOr(std::uint64_t scenarioDefault) const;
    /** Resolved worker-thread count (0 -> hardware threads). */
    int threadCount() const;

    /** Fold the overrides into a workload/device description. */
    workload::TrainConfig adjust(workload::TrainConfig cfg) const;
    workload::ServeConfig adjust(workload::ServeConfig cfg) const;
    vmm::DeviceConfig adjust(vmm::DeviceConfig cfg) const;
};

/** One allocator run recorded while a scenario executes. */
struct RunRecord
{
    std::string label;     //!< scenario row, e.g. "OPT-13B/LR/b16"
    std::string allocator; //!< AllocatorVariant::name() of the run
    RunResult result;
};

/** A scalar fact a scenario adds to the machine-readable report. */
struct MetricRecord
{
    std::string label;
    std::string name;
    double value = 0.0;
};

/** The caching-vs-GMLake pair most figures compare. */
struct BenchPair
{
    RunResult caching;
    RunResult gmlake;
};

/**
 * Handed to a scenario's run function: replays its rows and records
 * every result for the CSV/JSON report. Human-facing tables go to
 * out(); machine-facing data is whatever was recorded.
 */
class ExperimentContext
{
  public:
    ExperimentContext(const ExperimentOptions &options,
                      std::ostream &out);

    const ExperimentOptions &options() const { return mOptions; }
    std::ostream &out() { return mOut; }

    /**
     * Replay @p row under @p variant and record the combined result
     * as (row.label, variant.name()) — before @p hooks.finish runs,
     * so a finish hook can add metrics that follow the record.
     */
    MultiRunResult replay(const RunSpec &row,
                          const AllocatorVariant &variant,
                          const ReplayHooks &hooks = {});

    /** replay() under both paper allocators (caching, gmlake). */
    BenchPair replayPair(const RunSpec &row);

    /** Record a run produced outside replay() (sweep, cluster). */
    void record(const std::string &label, const std::string &allocator,
                const RunResult &result);

    /** Record a scalar metric (latency ratios, aggregates, ...). */
    void metric(const std::string &label, const std::string &name,
                double value);

    /**
     * Attach an observability recorder (borrowed). replay() calls
     * beginRun() per row and variant so every allocator run gets its
     * own process lane in the exported timeline. nullptr (the
     * default) records nothing.
     */
    void setRecorder(obs::Recorder *recorder) { mRecorder = recorder; }
    obs::Recorder *recorder() const { return mRecorder; }

    const std::vector<RunRecord> &records() const { return mRecords; }
    const std::vector<MetricRecord> &metrics() const
    {
        return mMetrics;
    }

  private:
    ExperimentOptions mOptions;
    std::ostream &mOut;
    std::vector<RunRecord> mRecords;
    std::vector<MetricRecord> mMetrics;
    obs::Recorder *mRecorder = nullptr;
};

/** A named, registered scenario. */
struct Experiment
{
    std::string name;  //!< stable CLI id, e.g. "fig10", "headline"
    std::string kind;  //!< figure | table | section | aggregate | extension
    std::string title; //!< one-line banner headline
    std::string claim; //!< the paper claim being reproduced
    std::function<void(ExperimentContext &)> run;
    /**
     * The runs the scenario records, one RunSpec per row; run()
     * replays exactly these. Unset for scenarios that record no run
     * (fig5, fig6, table1). Listing rows builds no trace.
     */
    std::function<std::vector<RunSpec>(const ExperimentOptions &)>
        rows;
};

/** Every built-in scenario (registry.cc), in CLI order. */
const std::vector<Experiment> &allExperiments();

/** Look up one scenario by name; nullptr when unknown. */
const Experiment *findExperiment(const std::string &name);

/**
 * Resolve a row reference through the registry: "<scenario>" (a
 * scenario with one row) or "<scenario>/<row label>" (split at the
 * first '/'), built under @p options. Unknown names are fatal; the
 * message lists the replaying scenarios or the scenario's rows.
 */
RunSpec findRow(const std::string &ref,
                const ExperimentOptions &options);

/** Yields the argument of the flag being parsed (fatal if none). */
using FlagValue = std::function<std::string()>;

/**
 * Parse the arguments of a verb that replays one row (sweep, probe,
 * chaos): --help, the scenario flags `run` shares (--iterations N,
 * --capacity GiB, --seed N) plus --allocator VARIANT, the verb's own
 * flags through
 * @p verbFlag (false = not one of its flags) and the row reference,
 * which is returned (empty when missing). Unknown flags are fatal.
 */
std::string parseRowArgs(
    const std::vector<std::string> &args, ExperimentOptions &options,
    AllocatorVariant &allocator, bool &help,
    const std::function<bool(const std::string &, const FlagValue &)>
        &verbFlag);

/**
 * Parse a non-negative integer flag value (whole string, at most
 * @p max); fatal with the flag's name otherwise.
 */
std::uint64_t
parseUnsignedFlag(const char *flag, const std::string &value,
                  std::uint64_t max = ~std::uint64_t{0});

/** Parse a real-valued flag value (whole string); fatal otherwise. */
double parseRealFlag(const char *flag, const std::string &value);

/** --help lines for the scenario flags (and --allocator). */
std::string scenarioFlagsHelp(bool allocator);

/** Artifact emission for one executed scenario. */
struct ExperimentRunOptions
{
    ExperimentOptions experiment{};
    bool banner = true;
    /** Non-empty: append one CSV row per recorded run. */
    std::string csvPath;
    /** Non-empty: write the scenario report as JSON. */
    std::string jsonPath;
    /**
     * Non-empty: run with the observability recorder active and
     * export the merged timeline as Chrome-trace/Perfetto JSON.
     * Recording never advances the simulated clock, so every
     * decision digest and RunResult field is identical with or
     * without it.
     */
    std::string timelinePath;
    /** Non-empty: also export the columnar binary dump (.gmo). */
    std::string timelineBinPath;
};

/** Default artifact names: BENCH_<name>.csv / BENCH_<name>.json. */
std::string defaultCsvPath(const Experiment &experiment);
std::string defaultJsonPath(const Experiment &experiment);

/**
 * The exact --csv column set, golden-pinned by the format
 * regression test: adding, removing, or renaming a column must be a
 * deliberate, test-visible act because downstream plotting scripts
 * key on these names.
 */
const char *experimentCsvHeader();

/**
 * The per-record key set of the --json report, in emission order
 * (same golden-pinning contract as experimentCsvHeader()).
 */
const std::vector<std::string> &experimentJsonRecordKeys();

/**
 * Execute one scenario: banner, run function, artifact emission.
 * Returns a process exit code (0 on success).
 */
int runExperiment(const Experiment &experiment,
                  const ExperimentRunOptions &options,
                  std::ostream &out);

/**
 * main() body of `gmlake_sim run <name>`: parses the scenario flags
 * plus --threads/--csv/--json/--out/--timeline/--timeline-bin/
 * --log-level/--no-banner and runs the named scenario.
 */
int experimentMain(const std::string &name, int argc, char **argv);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_EXPERIMENT_HH
