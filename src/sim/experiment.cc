#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/export_chrome.hh"
#include "obs/export_columnar.hh"
#include "obs/recorder.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"

namespace gmlake::sim
{

// --------------------------------------------------------- options

int
ExperimentOptions::iterationsOr(int scenarioDefault) const
{
    return iterations > 0 ? iterations : scenarioDefault;
}

std::uint64_t
ExperimentOptions::seedOr(std::uint64_t scenarioDefault) const
{
    return seed != 0 ? seed : scenarioDefault;
}

int
ExperimentOptions::threadCount() const
{
    if (threads == 0)
        return static_cast<int>(ThreadPool::defaultThreads());
    return std::max(1, threads);
}

workload::TrainConfig
ExperimentOptions::adjust(workload::TrainConfig cfg) const
{
    cfg.iterations = iterationsOr(cfg.iterations);
    cfg.seed = seedOr(cfg.seed);
    return cfg;
}

workload::ServeConfig
ExperimentOptions::adjust(workload::ServeConfig cfg) const
{
    // Serving has no iteration knob; scale the request count so a
    // smoke run (--iterations 2) stays proportionally short.
    if (iterations > 0)
        cfg.requests = std::min(cfg.requests, 16 * iterations);
    cfg.seed = seedOr(cfg.seed);
    return cfg;
}

vmm::DeviceConfig
ExperimentOptions::adjust(vmm::DeviceConfig cfg) const
{
    if (deviceCapacity != 0)
        cfg.capacity = deviceCapacity;
    return cfg;
}

// --------------------------------------------------------- context

ExperimentContext::ExperimentContext(const ExperimentOptions &options,
                                     std::ostream &out)
    : mOptions(options), mOut(out)
{
}

MultiRunResult
ExperimentContext::replay(const RunSpec &row,
                          const AllocatorVariant &variant,
                          const ReplayHooks &hooks)
{
    if (mRecorder != nullptr)
        mRecorder->beginRun(row.label + " [" + variant.name() + "]");
    // The record is placed before the caller's finish hook runs, so
    // whatever it reports from the live device and allocator follows
    // the run; the result is filled in once the replay has released
    // its device, allocator and traces.
    const std::size_t index = mRecords.size();
    ReplayHooks recorded = hooks;
    recorded.finish = [&](vmm::Device &device, alloc::Allocator &allocator,
                          const MultiRunResult &multi) {
        record(row.label, variant.name(), RunResult{});
        if (hooks.finish)
            hooks.finish(device, allocator, multi);
    };
    MultiRunResult multi = sim::replay(row, variant, recorded);
    mRecords[index].result = multi.combined;
    return multi;
}

BenchPair
ExperimentContext::replayPair(const RunSpec &row)
{
    const RunSpec shared = materialize(row);
    return BenchPair{replay(shared, AllocatorKind::caching).combined,
                     replay(shared, AllocatorKind::gmlake).combined};
}

void
ExperimentContext::record(const std::string &label,
                          const std::string &allocator,
                          const RunResult &result)
{
    mRecords.push_back(RunRecord{label, allocator, result});
}

void
ExperimentContext::metric(const std::string &label,
                          const std::string &name, double value)
{
    mMetrics.push_back(MetricRecord{label, name, value});
}

// -------------------------------------------------------- registry

const Experiment *
findExperiment(const std::string &name)
{
    const auto &all = allExperiments();
    const auto it = std::find_if(
        all.begin(), all.end(),
        [&](const Experiment &e) { return e.name == name; });
    return it == all.end() ? nullptr : &*it;
}

namespace
{

std::string
replayingScenarioNames()
{
    std::string names;
    for (const Experiment &e : allExperiments()) {
        if (!e.rows)
            continue;
        names += names.empty() ? "" : ", ";
        names += e.name;
    }
    return names;
}

} // namespace

RunSpec
findRow(const std::string &ref, const ExperimentOptions &options)
{
    const std::size_t slash = ref.find('/');
    const std::string name = ref.substr(0, slash);
    const Experiment *experiment = findExperiment(name);
    if (experiment == nullptr)
        GMLAKE_FATAL("unknown scenario: ", name,
                     " (replaying scenarios: ", replayingScenarioNames(),
                     ")");
    if (!experiment->rows)
        GMLAKE_FATAL("scenario ", name, " records no run to replay "
                     "(replaying scenarios: ", replayingScenarioNames(),
                     ")");
    std::vector<RunSpec> rows = experiment->rows(options);
    std::string labels;
    for (const RunSpec &row : rows) {
        labels += labels.empty() ? "'" : ", '";
        labels += row.label;
        labels += '\'';
    }
    if (slash == std::string::npos) {
        if (rows.size() != 1)
            GMLAKE_FATAL("scenario ", name, " has ", rows.size(),
                         " rows; name one as ", name,
                         "/<row> (rows: ", labels, ")");
        return std::move(rows.front());
    }
    const std::string label = ref.substr(slash + 1);
    for (RunSpec &row : rows) {
        if (row.label == label)
            return std::move(row);
    }
    GMLAKE_FATAL("unknown row '", label, "' of scenario ", name,
                 " (rows: ", labels, ")");
}

// -------------------------------------------------------- artifacts

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** @p s as a quoted, escaped JSON string. */
std::string
jsonString(const std::string &s)
{
    std::string quoted = "\"";
    quoted += jsonEscape(s);
    quoted += '"';
    return quoted;
}

std::string
jsonDouble(double v)
{
    std::ostringstream oss;
    oss << v;
    const std::string s = oss.str();
    // JSON has no inf/nan literals.
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos) {
        return "null";
    }
    return s;
}

/**
 * Per-record (key, rendered value) rows of the JSON report, in
 * emission order. writeJson() and experimentJsonRecordKeys() both
 * derive from this one table so the golden-format test pins the
 * real emitted key set, not a copy that can drift.
 */
std::vector<std::pair<std::string, std::string>>
jsonRecordFields(const RunRecord &r)
{
    const RunResult &res = r.result;
    auto u = [](std::uint64_t v) { return std::to_string(v); };
    return {
        {"label", jsonString(r.label)},
        {"allocator", jsonString(r.allocator)},
        {"oom", res.oom ? "true" : "false"},
        {"utilization", jsonDouble(res.utilization)},
        {"fragmentation", jsonDouble(res.fragmentation)},
        {"peak_active_bytes", u(res.peakActive)},
        {"peak_reserved_bytes", u(res.peakReserved)},
        {"sim_time_ns", u(res.simTime)},
        {"samples_per_sec", jsonDouble(res.samplesPerSec)},
        {"alloc_count", u(res.allocCount)},
        {"free_count", u(res.freeCount)},
        {"device_api_time_ns", u(res.deviceApiTime)},
        {"alloc_wall_ns", u(res.allocWallNs)},
        {"alloc_wall_p50_ns", u(res.allocWallP50Ns)},
        {"alloc_wall_p99_ns", u(res.allocWallP99Ns)},
        {"run_wall_ns", u(res.runWallNs)},
        {"vmm_wall_ns", u(res.vmmWallNs)},
        {"evicted_bytes", u(res.evictedBytes)},
        {"faulted_bytes", u(res.faultedBytes)},
        {"stall_ns", u(res.stallNs)},
        {"offload_wall_ns", u(res.offloadWallNs)},
        {"injected_faults", u(res.injectedFaults)},
        {"recovered", u(res.recovered)},
        {"aborted_sessions", u(res.abortedSessions)},
        {"rollbacks", u(res.rollbacks)},
    };
}

/** The --csv header: "scenario" plus the JSON record keys. */
std::string
csvHeader()
{
    std::string header = "scenario";
    for (const auto &[key, value] : jsonRecordFields(RunRecord{})) {
        header += ',';
        header += key;
    }
    return header;
}

void
writeCsv(const Experiment &experiment,
         const ExperimentContext &context, const std::string &path)
{
    const bool fresh = !std::filesystem::exists(path) ||
                       std::filesystem::file_size(path) == 0;
    if (!fresh) {
        // Appending rows under a stale header (e.g. a CSV written
        // before a column was added) would silently misalign every
        // downstream reader; refuse instead.
        std::ifstream in(path);
        std::string header;
        std::getline(in, header);
        if (!header.empty() && header.back() == '\r')
            header.pop_back();
        if (header != csvHeader()) {
            GMLAKE_FATAL("CSV ", path, " has a different column "
                         "set; move it aside to start a fresh "
                         "trajectory");
        }
    }
    std::ofstream out(path, std::ios::app);
    if (!out)
        GMLAKE_FATAL("cannot open CSV for writing: ", path);
    if (fresh)
        out << csvHeader() << '\n';
    auto csvField = [](std::string s) {
        for (char &c : s) {
            if (c == ',' || c == '\n')
                c = ' ';
        }
        return s;
    };
    // The JSON record fields, in order, except that the two strings
    // are unquoted and oom is 0/1.
    for (const RunRecord &r : context.records()) {
        auto fields = jsonRecordFields(r);
        fields[0].second = csvField(r.label);
        fields[1].second = csvField(r.allocator);
        fields[2].second.assign(1, r.result.oom ? '1' : '0');
        out << experiment.name;
        for (const auto &[key, value] : fields)
            out << ',' << value;
        out << '\n';
    }
}

void
writeJson(const Experiment &experiment,
          const ExperimentContext &context,
          const ExperimentOptions &options, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    out << "{\n"
        << "  \"scenario\": \"" << jsonEscape(experiment.name)
        << "\",\n"
        << "  \"kind\": \"" << jsonEscape(experiment.kind) << "\",\n"
        << "  \"title\": \"" << jsonEscape(experiment.title)
        << "\",\n"
        << "  \"iterations_override\": " << options.iterations
        << ",\n"
        << "  \"device_capacity_override\": "
        << options.deviceCapacity << ",\n"
        // Everything a reader needs to reproduce the run: the
        // resolved override set, as one block (the legacy top-level
        // keys above stay for existing consumers).
        << "  \"config\": {"
        << "\"seed\": " << options.seed << ", "
        << "\"iterations\": " << options.iterations << ", "
        << "\"device_capacity_bytes\": " << options.deviceCapacity
        << ", "
        << "\"threads\": " << options.threads << "},\n"
        << "  \"records\": [";
    bool first = true;
    for (const RunRecord &r : context.records()) {
        out << (first ? "" : ",") << "\n    {";
        bool firstField = true;
        for (const auto &[key, value] : jsonRecordFields(r)) {
            out << (firstField ? "" : ", ") << '"' << key
                << "\": " << value;
            firstField = false;
        }
        out << "}";
        first = false;
    }
    out << "\n  ],\n  \"metrics\": [";
    first = true;
    for (const MetricRecord &m : context.metrics()) {
        out << (first ? "" : ",") << "\n    {"
            << "\"label\": \"" << jsonEscape(m.label) << "\", "
            << "\"name\": \"" << jsonEscape(m.name) << "\", "
            << "\"value\": " << jsonDouble(m.value) << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

} // namespace

const char *
experimentCsvHeader()
{
    static const std::string header = csvHeader();
    return header.c_str();
}

const std::vector<std::string> &
experimentJsonRecordKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> names;
        for (const auto &[key, value] : jsonRecordFields(RunRecord{}))
            names.push_back(key);
        return names;
    }();
    return keys;
}

std::string
defaultCsvPath(const Experiment &experiment)
{
    return "BENCH_" + experiment.name + ".csv";
}

std::string
defaultJsonPath(const Experiment &experiment)
{
    return "BENCH_" + experiment.name + ".json";
}

// ----------------------------------------------------------- driver

int
runExperiment(const Experiment &experiment,
              const ExperimentRunOptions &options, std::ostream &out)
{
    if (options.banner) {
        out << "\n====================================================="
               "===================\n"
            << experiment.title << "\n"
            << experiment.claim << "\n"
            << "======================================================="
               "=================\n";
    }
    ExperimentOptions experimentOptions = options.experiment;
    experimentOptions.plotFiles = !options.csvPath.empty();
    ExperimentContext context(experimentOptions, out);
    // Timeline capture: the recorder is activated for the whole
    // scenario; the run helpers call beginRun() per allocator run so
    // each gets its own process lane. Deactivated before export so
    // nothing emits while the segments merge.
    std::unique_ptr<obs::Recorder> recorder;
    if (!options.timelinePath.empty() ||
        !options.timelineBinPath.empty()) {
        recorder = std::make_unique<obs::Recorder>();
        context.setRecorder(recorder.get());
        recorder->activate();
    }
    experiment.run(context);
    if (recorder != nullptr) {
        recorder->deactivate();
        const obs::RecorderSnapshot snap = recorder->snapshot();
        if (!options.timelinePath.empty()) {
            obs::writeChromeTrace(snap, options.timelinePath);
            out << "(timeline written to " << options.timelinePath
                << ", " << snap.events.size() << " events";
            if (snap.dropped > 0)
                out << ", " << snap.dropped << " dropped";
            out << ")\n";
        }
        if (!options.timelineBinPath.empty()) {
            obs::writeColumnarTrace(snap, options.timelineBinPath);
            out << "(binary timeline written to "
                << options.timelineBinPath << ")\n";
        }
    }
    if (!options.csvPath.empty()) {
        writeCsv(experiment, context, options.csvPath);
        out << "(run records appended to " << options.csvPath
            << ")\n";
    }
    if (!options.jsonPath.empty()) {
        writeJson(experiment, context, options.experiment,
                  options.jsonPath);
        out << "(report written to " << options.jsonPath << ")\n";
    }
    return 0;
}

std::uint64_t
parseUnsignedFlag(const char *flag, const std::string &value,
                  std::uint64_t max)
{
    std::uint64_t parsed = 0;
    std::size_t consumed = 0;
    if (!value.empty() && value[0] >= '0' && value[0] <= '9') {
        try {
            parsed = std::stoull(value, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
    }
    if (consumed == 0 || consumed != value.size())
        GMLAKE_FATAL("flag ", flag, " needs a non-negative number, "
                     "got '", value, "'");
    if (parsed > max)
        GMLAKE_FATAL("flag ", flag, " accepts at most ", max,
                     ", got '", value, "'");
    return parsed;
}

double
parseRealFlag(const char *flag, const std::string &value)
{
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        if (consumed == value.size())
            return parsed;
    } catch (const std::exception &) {
    }
    GMLAKE_FATAL("flag ", flag, " needs a real number, got '", value,
                 "'");
}

namespace
{

/**
 * Apply one of the scenario flags (--iterations, --capacity, --seed,
 * and --allocator when @p allocator is non-null); false when @p flag
 * is not one of them.
 */
bool
applyScenarioFlag(const std::string &flag, const FlagValue &value,
                  ExperimentOptions &options,
                  AllocatorVariant *allocator = nullptr)
{
    if (flag == "--iterations") {
        options.iterations = static_cast<int>(parseUnsignedFlag(
            "--iterations", value(), std::numeric_limits<int>::max()));
    } else if (flag == "--capacity") {
        options.deviceCapacity =
            static_cast<Bytes>(parseUnsignedFlag(
                "--capacity", value(),
                std::numeric_limits<Bytes>::max() / GiB)) *
            GiB;
    } else if (flag == "--seed") {
        options.seed = parseUnsignedFlag("--seed", value());
    } else if (flag == "--allocator" && allocator != nullptr) {
        const std::string name = value();
        const auto variant = parseAllocatorVariant(name);
        if (!variant)
            GMLAKE_FATAL("unknown allocator: ", name,
                         " (a kind, optionally +offload(lru) or "
                         "+offload(size-aware); try --help)");
        *allocator = *variant;
    } else {
        return false;
    }
    return true;
}

} // namespace

std::string
parseRowArgs(
    const std::vector<std::string> &args, ExperimentOptions &options,
    AllocatorVariant &allocator, bool &help,
    const std::function<bool(const std::string &, const FlagValue &)>
        &verbFlag)
{
    std::string row;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const FlagValue value = [&]() -> std::string {
            if (i + 1 >= args.size())
                GMLAKE_FATAL("flag ", arg, " needs a value");
            return args[++i];
        };
        if (arg == "--help" || arg == "-h")
            help = true;
        else if (applyScenarioFlag(arg, value, options, &allocator) ||
                 verbFlag(arg, value))
            continue;
        else if (!arg.empty() && arg[0] == '-')
            GMLAKE_FATAL("unknown flag: ", arg, " (try --help)");
        else if (row.empty())
            row = arg;
        else
            GMLAKE_FATAL("unexpected argument: ", arg);
    }
    return row;
}

std::string
scenarioFlagsHelp(bool allocator)
{
    std::string help =
        "  --iterations N   override the scenario's iterations\n"
        "  --capacity GiB   override device capacity\n"
        "  --seed N         override the workload seed\n";
    if (allocator)
        help += "  --allocator A    allocator variant (default gmlake;\n"
                "                   e.g. caching, gmlake+offload(lru))\n";
    return help;
}

int
experimentMain(const std::string &name, int argc, char **argv)
try {
    const Experiment *experiment = findExperiment(name);
    if (experiment == nullptr) {
        std::cerr << "unknown experiment: " << name << "\n";
        return 1;
    }

    ExperimentRunOptions options;
    int i = 1;
    const auto need = [&]() -> std::string {
        if (i + 1 >= argc)
            GMLAKE_FATAL("flag ", argv[i], " needs a value");
        return argv[++i];
    };
    auto optional = [&]() -> const char * {
        if (i + 1 < argc && argv[i + 1][0] != '-')
            return argv[++i];
        return nullptr;
    };
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            std::cout
                << "usage: " << argv[0] << " [options]\n\n"
                << experiment->title << "\n\n"
                << scenarioFlagsHelp(false)
                << "  --threads N      worker threads for cluster "
                   "scenarios (0 = all cores)\n"
                << "  --csv [FILE]     append run records as CSV\n"
                << "  --json [FILE]    write the report as JSON\n"
                << "  --timeline FILE  record the runs and write a "
                   "Chrome-trace/Perfetto\n"
                << "                   timeline (open in "
                   "ui.perfetto.dev); results are\n"
                << "                   bit-identical with or without "
                   "recording\n"
                << "  --timeline-bin FILE\n"
                << "                   also write the columnar binary "
                   "event dump (.gmo)\n"
                << "  --log-level L    error | warn | info | debug "
                   "(default warn)\n"
                << "  --out FILE       write the JSON report to FILE "
                   "(overrides the\n"
                << "                   default BENCH_<scenario>.json "
                   "name)\n"
                << "  --no-banner      suppress the banner\n";
            return 0;
        } else if (applyScenarioFlag(flag, need, options.experiment)) {
        } else if (flag == "--threads") {
            options.experiment.threads = static_cast<int>(
                parseUnsignedFlag("--threads", need(), 4096));
        } else if (flag == "--csv") {
            const char *path = optional();
            options.csvPath =
                path ? path : defaultCsvPath(*experiment);
        } else if (flag == "--json") {
            const char *path = optional();
            options.jsonPath =
                path ? path : defaultJsonPath(*experiment);
        } else if (flag == "--timeline") {
            options.timelinePath = need();
        } else if (flag == "--timeline-bin") {
            options.timelineBinPath = need();
        } else if (flag == "--log-level") {
            setLogLevel(parseLogLevel(need()));
        } else if (flag == "--out") {
            const std::filesystem::path path = need();
            if (const auto dir = path.parent_path();
                !dir.empty() && !std::filesystem::is_directory(dir)) {
                GMLAKE_FATAL("--out directory does not exist: ",
                             dir.string());
            }
            if (std::filesystem::is_directory(path)) {
                GMLAKE_FATAL("--out must name a file, not a "
                             "directory: ", path.string());
            }
            options.jsonPath = path.string();
        } else if (flag == "--no-banner") {
            options.banner = false;
        } else {
            GMLAKE_FATAL("unknown flag: ", flag, " (try --help)");
        }
    }
    return runExperiment(*experiment, options, std::cout);
} catch (const FatalError &) {
    return 1; // diagnostic already printed by GMLAKE_FATAL
} catch (const PanicError &) {
    return 1; // diagnostic already printed by GMLAKE_PANIC
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
}

} // namespace gmlake::sim
