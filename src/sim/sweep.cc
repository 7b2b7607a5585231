#include "sim/sweep.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <utility>

#include "alloc/allocator.hh"
#include "sim/session.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"
#include "workload/event_source.hh"

namespace gmlake::sim
{

namespace
{

using namespace gmlake::literals;

std::string
pointLabel(const core::GMLakeConfig &c)
{
    return detail::concat(
        "frag=", formatDouble(static_cast<double>(c.fragLimit) /
                                  static_cast<double>(MiB), 0),
        "M tol=", formatDouble(c.nearMatchTolerance, 3),
        " sblk=", c.maxCachedSBlocks,
        " ovs=", formatDouble(c.maxVaOverscribe, 1),
        " stitch=", c.enableStitching ? "on" : "off");
}

/** A session input that hands out one already-built trace. */
std::function<std::shared_ptr<const workload::Trace>()>
constantTrace(workload::Trace trace)
{
    return [shared = std::make_shared<const workload::Trace>(
                std::move(trace))] { return shared; };
}

/** What the warmup replay leaves behind for the per-point forks. */
struct WarmupArtifacts
{
    alloc::Checkpoint checkpoint;
    std::shared_ptr<const ResumeState> resume;
    RunResult result;
    bool oom = false;
};

WarmupArtifacts
replayWarmup(const RunSpec &warmupRow, AllocatorKind kind)
{
    WarmupArtifacts artifacts;
    ReplayHooks hooks;
    hooks.finish = [&](vmm::Device &, alloc::Allocator &allocator,
                       const MultiRunResult &) {
        artifacts.checkpoint = allocator.saveState();
    };
    MultiRunResult multi = replay(warmupRow, kind, hooks);
    GMLAKE_ASSERT(multi.resume != nullptr,
                  "warmup run captured no resume state");
    artifacts.resume = multi.resume;
    artifacts.oom = multi.anyOom();
    artifacts.result = std::move(multi.combined);
    return artifacts;
}

RunResult
replayTail(RunSpec tailRow, const core::GMLakeConfig &config,
           const WarmupArtifacts &warmup, AllocatorKind kind)
{
    tailRow.gmlake = config;
    tailRow.engine.startFrontier = warmup.resume->frontier;
    ReplayHooks hooks;
    hooks.setup = [&](vmm::Device &, alloc::Allocator &allocator,
                      EngineOptions &, const std::vector<Session> &) {
        allocator.restoreState(warmup.checkpoint);
    };
    // Every session rides along — even one whose tail is empty or
    // that died during warmup — so stream namespacing and reclaim's
    // survivor scan match the uninterrupted replay.
    hooks.start = [&](SimEngine &engine) {
        for (std::size_t i = 0; i < warmup.resume->sessions.size(); ++i)
            engine.seedSession(i, warmup.resume->sessions[i]);
    };
    return replay(tailRow, kind, hooks).combined;
}

/** a dominates b on (fragmentation, deviceApiTime, simTime). */
bool
dominates(const RunResult &a, const RunResult &b)
{
    if (a.fragmentation > b.fragmentation ||
        a.deviceApiTime > b.deviceApiTime || a.simTime > b.simTime)
        return false;
    return a.fragmentation < b.fragmentation ||
           a.deviceApiTime < b.deviceApiTime || a.simTime < b.simTime;
}

} // namespace

std::pair<workload::Trace, workload::Trace>
splitTraceAt(const workload::Trace &trace, Tick startTime,
             Tick splitTime)
{
    workload::Trace warmup;
    workload::Trace tail;
    Tick local = startTime;
    for (const workload::Event &event : trace.events()) {
        if (local < splitTime)
            warmup.append(event);
        else
            tail.append(event);
        if (event.kind == workload::EventKind::compute)
            local += event.computeNs;
    }
    return {std::move(warmup), std::move(tail)};
}

std::vector<SweepPoint>
SweepGrid::expand(const core::GMLakeConfig &base) const
{
    // Empty axes collapse to the base value so the product below
    // is never empty.
    const auto orBase = [](auto axis, auto baseValue) {
        if (axis.empty())
            axis.push_back(baseValue);
        return axis;
    };
    const auto frags = orBase(fragLimits, base.fragLimit);
    const auto tols =
        orBase(nearMatchTolerances, base.nearMatchTolerance);
    const auto sblocks =
        orBase(maxCachedSBlocks, base.maxCachedSBlocks);
    const auto overs = orBase(maxVaOverscribes, base.maxVaOverscribe);
    const auto stitch = orBase(enableStitching, base.enableStitching);

    std::vector<SweepPoint> points;
    points.reserve(frags.size() * tols.size() * sblocks.size() *
                   overs.size() * stitch.size());
    for (const Bytes frag : frags) {
        for (const double tol : tols) {
            for (const std::size_t sblk : sblocks) {
                for (const double over : overs) {
                    for (const bool on : stitch) {
                        core::GMLakeConfig config = base;
                        config.fragLimit = frag;
                        config.nearMatchTolerance = tol;
                        config.maxCachedSBlocks = sblk;
                        config.maxVaOverscribe = over;
                        config.enableStitching = on;
                        points.push_back(SweepPoint{
                            pointLabel(config), config});
                    }
                }
            }
        }
    }
    return points;
}

std::vector<SweepPoint>
randomSweepPoints(const core::GMLakeConfig &base, std::size_t count,
                  std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0x5eebULL));
    std::vector<SweepPoint> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        core::GMLakeConfig config = base;
        // Chunk-aligned power-of-two frag limits up to 128 MiB.
        config.fragLimit =
            base.chunkSize << rng.uniformInt(0, 6);
        config.nearMatchTolerance =
            static_cast<double>(rng.uniformInt(0, 16)) / 32.0;
        config.maxCachedSBlocks =
            std::size_t{1} << rng.uniformInt(2, 13);
        config.maxVaOverscribe =
            1.0 + static_cast<double>(rng.uniformInt(0, 28)) / 4.0;
        config.enableStitching = rng.chance(0.85);
        points.push_back(SweepPoint{pointLabel(config), config});
    }
    return points;
}

const SweepGrid &
defaultSweepGrid()
{
    static const SweepGrid grid = [] {
        SweepGrid g;
        g.fragLimits = {2_MiB, 16_MiB};
        g.nearMatchTolerances = {0.0, 0.125};
        g.enableStitching = {true, false};
        return g;
    }();
    return grid;
}

Tick
sweepSplitTime(const RunSpec &row)
{
    Tick span = 0;
    for (const SessionSpec &session : row.sessions) {
        GMLAKE_ASSERT(session.trace != nullptr, "session '",
                      session.name, "' has no materialized trace");
        workload::VectorSource source(session.trace().get());
        span = std::max(span, sourceEnd(source, session.start));
    }
    return span * 3 / 4;
}

std::vector<std::size_t>
SweepReport::frontier() const
{
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].onFrontier)
            indices.push_back(i);
    }
    return indices;
}

SweepReport
runSweep(const RunSpec &row, const std::vector<SweepPoint> &points,
         const SweepRunOptions &options)
{
    GMLAKE_ASSERT(!points.empty(), "sweep has no points");
    GMLAKE_ASSERT(!row.sessions.empty(), "sweep row has no sessions");
    for (const SessionSpec &session : row.sessions) {
        if (!session.trace)
            GMLAKE_FATAL("cannot sweep row '", row.label, "': session '",
                         session.name, "' is streamed, and a warm "
                         "start has to split a materialized trace");
    }
    for (const SweepPoint &point : points) {
        GMLAKE_ASSERT(
            point.config.chunkSize == row.gmlake.chunkSize &&
                point.config.smallThreshold ==
                    row.gmlake.smallThreshold,
            "sweep point '", point.label,
            "' changes a structural knob (chunkSize/smallThreshold); "
            "the checkpointed pool layout depends on those");
    }

    const Stopwatch totalWall;
    SweepReport report;
    report.scenario = row.label;
    report.allocator = allocatorKindName(options.kind);

    // Both halves replay without the row's training config: a prefix
    // or a tail is not a whole run to derive throughput from.
    const RunSpec built = materialize(row);
    report.splitTime = sweepSplitTime(built);
    RunSpec warmupRow = built;
    warmupRow.train.reset();
    warmupRow.engine.recordSeries = false;
    warmupRow.engine.captureResume = true;
    RunSpec tailRow = warmupRow;
    tailRow.engine.captureResume = false;
    for (std::size_t i = 0; i < built.sessions.size(); ++i) {
        auto [warmup, tail] =
            splitTraceAt(*built.sessions[i].trace(),
                         built.sessions[i].start, report.splitTime);
        warmupRow.sessions[i].trace = constantTrace(std::move(warmup));
        tailRow.sessions[i].trace = constantTrace(std::move(tail));
        // Seeds carry each session's absolute local time.
        tailRow.sessions[i].start = 0;
    }

    // Warm start: one shared warmup replay, checkpointed; every
    // point restores from the same immutable Checkpoint value
    // concurrently. Cold mode re-replays the warmup inside each
    // point's job instead — same results, N-1 extra warmup replays.
    std::unique_ptr<WarmupArtifacts> shared;
    if (options.warmStart) {
        const Stopwatch warmupWall;
        shared = std::make_unique<WarmupArtifacts>(
            replayWarmup(warmupRow, options.kind));
        report.warmupWallNs = warmupWall.elapsedNs();
        report.warmup = shared->result;
        report.warmupOom = shared->oom;
    }

    report.points.resize(points.size());
    parallelFor(
        points.size(), options.threads, [&](std::size_t i) {
            const Stopwatch pointWall;
            SweepPointRecord &record = report.points[i];
            record.point = points[i];
            if (shared != nullptr) {
                record.tail = replayTail(tailRow, points[i].config,
                                         *shared, options.kind);
            } else {
                const WarmupArtifacts warmup =
                    replayWarmup(warmupRow, options.kind);
                record.tail = replayTail(tailRow, points[i].config,
                                         warmup, options.kind);
                if (i == 0) {
                    // Every cold point replays the identical,
                    // deterministic prefix; report point 0's copy.
                    report.warmup = warmup.result;
                    report.warmupOom = warmup.oom;
                }
            }
            record.pointWallNs = pointWall.elapsedNs();
        });

    for (std::size_t i = 0; i < report.points.size(); ++i) {
        if (report.points[i].tail.oom)
            continue;
        bool dominated = false;
        for (std::size_t j = 0;
             j < report.points.size() && !dominated; ++j) {
            dominated = j != i && !report.points[j].tail.oom &&
                        dominates(report.points[j].tail,
                                  report.points[i].tail);
        }
        report.points[i].onFrontier = !dominated;
    }

    report.totalWallNs = totalWall.elapsedNs();
    return report;
}

void
printSweepTable(const SweepReport &report, std::ostream &out)
{
    Table table({"Point", "Frag", "Peak reserved", "Dev API",
                 "Sim time", "Wall", "Pareto"});
    for (const SweepPointRecord &rec : report.points) {
        table.addRow(
            {rec.point.label,
             rec.tail.oom ? "OOM"
                          : formatPercent(rec.tail.fragmentation),
             formatBytes(rec.tail.peakReserved),
             formatTime(rec.tail.deviceApiTime),
             formatTime(rec.tail.simTime), formatTime(rec.pointWallNs),
             rec.onFrontier ? "*" : ""});
    }
    table.print(out);
    out << "warmup " << formatTime(report.warmupWallNs) << ", total "
        << formatTime(report.totalWallNs) << " ("
        << report.frontier().size() << " Pareto point"
        << (report.frontier().size() == 1 ? "" : "s") << ")\n";
}

void
writeSweepJson(const SweepReport &report, const SweepJsonMeta &meta,
               const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        GMLAKE_FATAL("cannot open JSON for writing: ", path);
    const auto runFields = [&out](const RunResult &r) {
        out << "\"oom\": " << (r.oom ? "true" : "false") << ", "
            << "\"utilization\": " << r.utilization << ", "
            << "\"fragmentation\": " << r.fragmentation << ", "
            << "\"peak_active_bytes\": " << r.peakActive << ", "
            << "\"peak_reserved_bytes\": " << r.peakReserved << ", "
            << "\"sim_time_ns\": " << r.simTime << ", "
            << "\"alloc_count\": " << r.allocCount << ", "
            << "\"free_count\": " << r.freeCount << ", "
            << "\"device_api_time_ns\": " << r.deviceApiTime;
    };
    out << "{\n"
        << "  \"scenario\": \"" << report.scenario << "\",\n"
        << "  \"mode\": \"sweep\",\n"
        << "  \"allocator\": \"" << report.allocator << "\",\n"
        << "  \"config\": {"
        << "\"seed\": " << meta.seed << ", "
        << "\"iterations\": " << meta.iterations << ", "
        << "\"device_capacity_bytes\": " << meta.deviceCapacityBytes
        << ", "
        << "\"threads\": " << meta.threads << ", "
        << "\"warm_start\": " << (meta.warmStart ? "true" : "false")
        << ", "
        << "\"split_time_ns\": " << report.splitTime << "},\n"
        << "  \"warmup\": {";
    runFields(report.warmup);
    out << ", \"wall_ns\": " << report.warmupWallNs << "},\n"
        << "  \"total_wall_ns\": " << report.totalWallNs << ",\n"
        << "  \"points\": [";
    bool first = true;
    for (const SweepPointRecord &rec : report.points) {
        const core::GMLakeConfig &c = rec.point.config;
        out << (first ? "" : ",") << "\n    {"
            << "\"label\": \"" << rec.point.label << "\", "
            << "\"frag_limit_bytes\": " << c.fragLimit << ", "
            << "\"near_match_tolerance\": " << c.nearMatchTolerance
            << ", "
            << "\"max_cached_sblocks\": " << c.maxCachedSBlocks
            << ", "
            << "\"max_va_overscribe\": " << c.maxVaOverscribe << ", "
            << "\"enable_stitching\": "
            << (c.enableStitching ? "true" : "false") << ", ";
        runFields(rec.tail);
        out << ", \"point_wall_ns\": " << rec.pointWallNs
            << ", \"pareto\": " << (rec.onFrontier ? "true" : "false")
            << "}";
        first = false;
    }
    out << "\n  ],\n  \"pareto_frontier\": [";
    first = true;
    for (const std::size_t index : report.frontier()) {
        out << (first ? "" : ", ") << index;
        first = false;
    }
    out << "]\n}\n";
}

} // namespace gmlake::sim
