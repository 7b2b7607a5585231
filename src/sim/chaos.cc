#include "sim/chaos.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <memory>
#include <utility>

#include "alloc/allocator.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "support/units.hh"
#include "vmm/device.hh"

namespace gmlake::sim
{

namespace
{

/**
 * Post-run accounting: the deep allocator audit plus a simulated-
 * device leak check. After a clean completion every trace frees what
 * it allocated, so once the cache is flushed the device must hold
 * exactly the bytes the injector destroyed. A trial whose *last*
 * surviving session died keeps that tenant's allocations live (the
 * engine skips reclaim with nobody left to benefit), so the strict
 * check only applies when nothing is live.
 */
void
auditTrial(alloc::Allocator &allocator, vmm::Device &device,
           const ChaosTrialRecord &record)
{
    allocator.auditInvariants();

    const Bytes active = allocator.stats().activeBytes();
    const bool anyDeath = record.oomSessions > 0 ||
                          record.result.abortedSessions > 0;
    if (active != 0 && !anyDeath)
        GMLAKE_PANIC("chaos leak check: ", formatBytes(active),
                     " still active after a clean completion");
    if (active != 0)
        return;

    allocator.deviceSynchronize();
    allocator.emptyCache();
    allocator.auditInvariants();
    const Bytes residual = device.phys().inUse();
    if (residual != record.capacityLost)
        GMLAKE_PANIC("chaos leak check: device holds ",
                     formatBytes(residual), " after teardown, "
                     "expected exactly the injected capacity loss (",
                     formatBytes(record.capacityLost), ")");
    const std::size_t reservations = device.vaSpace().reservationCount();
    if (reservations != 0)
        GMLAKE_PANIC("chaos leak check: ", reservations,
                     " VA reservations survived teardown");
}

} // namespace

ChaosTrialRecord
runChaosTrial(const ChaosOptions &options, std::uint64_t trialSeed)
{
    ChaosTrialRecord record;
    record.faultSeed = trialSeed;
    const Stopwatch wall;
    try {
        RunSpec row = findRow(options.scenario, options.overrides);
        row.engine.recordSeries = false;
        row.engine.abortSessionOnFault = true;

        ReplayHooks hooks;
        hooks.setup = [&](vmm::Device &device, alloc::Allocator &,
                          EngineOptions &engine,
                          const std::vector<Session> &sessions) {
            if (!options.faultSpec.empty()) {
                vmm::FaultPlan plan =
                    vmm::FaultPlan::parse(options.faultSpec);
                if (!plan.empty())
                    device.installFaultInjector(std::move(plan),
                                                trialSeed);
            }
            // Scripted kills: each tenant dies with killChance at an
            // instant uniform over the row's span — a deterministic
            // function of the trial seed, like the fault plan draws.
            Rng rng(deriveSeed(trialSeed, 0xC4A05ULL));
            Tick span = 0;
            for (const Session &session : sessions) {
                span = std::max(span, sourceEnd(session.source(),
                                                session.startTime()));
            }
            for (std::size_t i = 0; i < sessions.size(); ++i) {
                if (!rng.chance(options.killChance))
                    continue;
                const Tick at = static_cast<Tick>(rng.uniformInt(
                    1,
                    span > 0 ? static_cast<std::uint64_t>(span) : 1));
                engine.tenantKills.emplace_back(i, at);
            }
            record.scriptedKills = engine.tenantKills.size();
        };
        hooks.finish = [&](vmm::Device &device,
                           alloc::Allocator &allocator,
                           const MultiRunResult &multi) {
            record.result = multi.combined;
            for (const SessionResult &session : multi.sessions) {
                if (session.oom)
                    ++record.oomSessions;
            }
            if (device.faultInjector() != nullptr)
                record.capacityLost =
                    device.faultInjector()->counters().capacityLost;
            auditTrial(allocator, device, record);
            record.auditPassed = true;
        };
        replay(row, options.allocator, hooks);
    } catch (const PanicError &e) {
        record.internalError = true;
        record.error = e.what();
    } catch (const FatalError &e) {
        record.internalError = true;
        record.error = e.what();
    }
    record.wallNs = wall.elapsedNs();
    return record;
}

ChaosReport
runChaos(const ChaosOptions &options)
{
    GMLAKE_ASSERT(options.trials >= 1, "chaos soak needs >= 1 trial");
    // Resolve the row and validate the spec once, loudly, before the
    // soak: a bad name or a malformed spec is user error, not K
    // identical internal-error trials.
    const RunSpec row = findRow(options.scenario, options.overrides);
    if (!options.faultSpec.empty())
        (void)vmm::FaultPlan::parse(options.faultSpec);

    const Stopwatch wall;
    ChaosReport report;
    report.scenario = options.scenario;
    report.allocator = options.allocator.name();
    report.faultSpec = options.faultSpec;
    report.faultSeed = options.faultSeed;
    report.workloadSeed = row.seed;
    report.trials.reserve(options.trials);
    for (std::size_t k = 0; k < options.trials; ++k) {
        // A one-trial run uses the base seed verbatim, so any trial
        // of a soak replays as a one-trial run of its own seed.
        const std::uint64_t trialSeed =
            options.trials > 1 ? deriveSeed(options.faultSeed, k)
                               : options.faultSeed;
        report.trials.push_back(runChaosTrial(options, trialSeed));
    }
    report.totalWallNs = wall.elapsedNs();
    return report;
}

namespace
{

/** @p word as one shell word (no value here holds a quote). */
std::string
shellWord(const std::string &word)
{
    const bool plain =
        !word.empty() &&
        word.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                               "abcdefghijklmnopqrstuvwxyz"
                               "0123456789_./:=,+-") == std::string::npos;
    return plain ? word : "'" + word + "'";
}

} // namespace

std::string
chaosReplayLine(const ChaosOptions &options, std::uint64_t trialSeed)
{
    const ExperimentOptions &o = options.overrides;
    // Shortest text that reads back as the same double.
    char killChance[32];
    const auto end = std::to_chars(killChance,
                                   killChance + sizeof(killChance),
                                   options.killChance)
                         .ptr;
    std::string line = detail::concat(
        "gmlake_sim chaos ", shellWord(options.scenario),
        " --fault-seed ", trialSeed, " --soak 1");
    if (o.seed != 0)
        line += detail::concat(" --seed ", o.seed);
    if (o.iterations > 0)
        line += detail::concat(" --iterations ", o.iterations);
    if (o.deviceCapacity != 0)
        line += detail::concat(" --capacity ", o.deviceCapacity / GiB);
    line += " --allocator " + shellWord(options.allocator.name()) +
            " --kill-chance " + std::string(killChance, end);
    if (!options.faultSpec.empty())
        line += " --faults " + shellWord(options.faultSpec);
    return line;
}

ChaosArgs
parseChaosArgs(const std::vector<std::string> &args)
{
    ChaosArgs parsed;
    ChaosOptions &o = parsed.options;
    o.scenario = parseRowArgs(
        args, o.overrides, o.allocator, parsed.help,
        [&](const std::string &arg, const FlagValue &value) {
            if (arg == "--faults") {
                o.faultSpec = value();
            } else if (arg == "--fault-seed") {
                o.faultSeed = parseUnsignedFlag("--fault-seed", value());
            } else if (arg == "--soak") {
                o.trials = parseUnsignedFlag("--soak", value());
                if (o.trials == 0)
                    GMLAKE_FATAL("--soak needs at least 1 trial");
            } else if (arg == "--kill-chance") {
                o.killChance = parseRealFlag("--kill-chance", value());
                if (!(o.killChance >= 0.0 && o.killChance <= 1.0))
                    GMLAKE_FATAL("--kill-chance needs a probability "
                                 "in [0, 1]");
            } else if (arg == "--out") {
                parsed.outPath = value();
            } else {
                return false;
            }
            return true;
        });
    return parsed;
}

std::size_t
ChaosReport::failures() const
{
    return static_cast<std::size_t>(std::count_if(
        trials.begin(), trials.end(),
        [](const ChaosTrialRecord &t) { return !t.auditPassed; }));
}

int
ChaosReport::exitCode() const
{
    int code = kChaosExitClean;
    for (const ChaosTrialRecord &trial : trials) {
        if (!trial.auditPassed)
            return kChaosExitInternal;
        if (trial.result.abortedSessions > 0)
            code = kChaosExitAborted;
        else if (trial.oomSessions > 0 && code == kChaosExitClean)
            code = kChaosExitOom;
    }
    return code;
}

void
writeChaosJson(const ChaosReport &report,
               const ChaosOptions &options, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    out << "{\n"
        << "  \"scenario\": \"" << report.scenario << "\",\n"
        << "  \"mode\": \"chaos\",\n"
        << "  \"allocator\": \"" << report.allocator << "\",\n"
        << "  \"config\": {"
        << "\"workload_seed\": " << report.workloadSeed << ", "
        << "\"fault_seed\": " << report.faultSeed << ", "
        << "\"fault_spec\": \"" << report.faultSpec << "\", "
        << "\"soak\": " << report.trials.size() << ", "
        << "\"iterations\": " << options.overrides.iterations << ", "
        << "\"kill_chance\": " << options.killChance << "},\n"
        << "  \"exit_code\": " << report.exitCode() << ",\n"
        << "  \"failures\": " << report.failures() << ",\n"
        << "  \"total_wall_ns\": " << report.totalWallNs << ",\n"
        << "  \"trials\": [";
    bool first = true;
    for (const ChaosTrialRecord &t : report.trials) {
        const RunResult &r = t.result;
        out << (first ? "" : ",") << "\n    {"
            << "\"fault_seed\": " << t.faultSeed << ", "
            << "\"audit_passed\": "
            << (t.auditPassed ? "true" : "false") << ", "
            << "\"internal_error\": "
            << (t.internalError ? "true" : "false") << ", "
            << "\"injected_faults\": " << r.injectedFaults << ", "
            << "\"recovered\": " << r.recovered << ", "
            << "\"rollbacks\": " << r.rollbacks << ", "
            << "\"aborted_sessions\": " << r.abortedSessions << ", "
            << "\"oom_sessions\": " << t.oomSessions << ", "
            << "\"scripted_kills\": " << t.scriptedKills << ", "
            << "\"capacity_lost_bytes\": " << t.capacityLost << ", "
            << "\"oom\": " << (r.oom ? "true" : "false") << ", "
            << "\"fragmentation\": " << r.fragmentation << ", "
            << "\"peak_reserved_bytes\": " << r.peakReserved << ", "
            << "\"sim_time_ns\": " << r.simTime << ", "
            << "\"alloc_count\": " << r.allocCount << ", "
            << "\"free_count\": " << r.freeCount << ", "
            << "\"wall_ns\": " << t.wallNs << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

} // namespace gmlake::sim
