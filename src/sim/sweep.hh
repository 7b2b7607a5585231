/**
 * @file
 * Parallel policy-sweep harness with checkpoint/restore warm-starts.
 *
 * A sweep asks: if the GMLake policy knobs were set differently from
 * some point in time onward, how would fragmentation and stalls
 * change? Every sweep point shares the same warmup prefix, so the
 * harness replays it ONCE, captures an alloc::Checkpoint plus the
 * engine's ResumeState, and then forks: each point restores the
 * checkpoint into a fresh device + allocator built with the point's
 * GMLakeConfig and replays only the divergent tail. Points are
 * independent, so they fan out on a thread pool; results are
 * bit-identical to re-replaying the whole run per point (the
 * checkpoint_restore_test pins that equivalence), the warm start
 * just skips N-1 warmup replays.
 */

#ifndef GMLAKE_SIM_SWEEP_HH
#define GMLAKE_SIM_SWEEP_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/gmlake_config.hh"
#include "sim/runner.hh"
#include "workload/trace.hh"

namespace gmlake::sim
{

/** One candidate configuration in a policy sweep. */
struct SweepPoint
{
    std::string label; //!< knob summary, e.g. "frag=16MiB,tol=0.25"
    core::GMLakeConfig config;
};

/**
 * Axes of a grid search over the GMLakeConfig *policy* knobs. An
 * empty axis keeps the base value. chunkSize and smallThreshold are
 * structural — the checkpointed pool layout depends on them — so
 * they always keep the swept row's values and are not axes.
 */
struct SweepGrid
{
    std::vector<Bytes> fragLimits;
    std::vector<double> nearMatchTolerances;
    std::vector<std::size_t> maxCachedSBlocks;
    std::vector<double> maxVaOverscribes;
    std::vector<bool> enableStitching;

    /** Cartesian product of the non-empty axes over @p base. */
    std::vector<SweepPoint>
    expand(const core::GMLakeConfig &base) const;
};

/**
 * The grid `run sweep-smoke` and an unqualified `gmlake_sim sweep`
 * use: frag limit {2, 16} MiB x near-match tolerance {0, 0.125} x
 * stitching {on, off}, 8 points.
 */
const SweepGrid &defaultSweepGrid();

/**
 * Random search: @p count policy points drawn deterministically from
 * @p seed (ranges span the same knobs SweepGrid exposes).
 */
std::vector<SweepPoint>
randomSweepPoints(const core::GMLakeConfig &base, std::size_t count,
                  std::uint64_t seed);

/**
 * Split one session's trace at the virtual-time threshold. An event
 * belongs to the warmup prefix when the session's local time *before*
 * executing it is below @p splitTime (compute advances local time
 * after the event — the engine's merge-key convention), so the
 * warmup half is always a prefix. Exposed for checkpoint_restore_test
 * to drive the exact split the harness replays.
 */
std::pair<workload::Trace, workload::Trace>
splitTraceAt(const workload::Trace &trace, Tick startTime,
             Tick splitTime);

/**
 * Warmup/tail boundary of a sweep over @p row: 75% into its longest
 * session's timeline. The shared warmup prefix is the expensive part
 * a warm start amortizes; the swept tail is the divergent endgame.
 * Builds the row's traces (materialize() it first to share them).
 */
Tick sweepSplitTime(const RunSpec &row);

struct SweepRunOptions
{
    /** No host-offload tier: its state is not checkpointed. */
    AllocatorKind kind = AllocatorKind::gmlake;
    /** Worker threads forking the per-point tail replays. */
    std::size_t threads = 1;
    /**
     * false = cold mode: every point re-replays the warmup prefix
     * itself before its tail (the baseline the warm start beats;
     * results are identical by construction).
     */
    bool warmStart = true;
};

/** Outcome of one sweep point's tail replay. */
struct SweepPointRecord
{
    SweepPoint point;
    /** Combined result of the tail replay (post-switch metrics). */
    RunResult tail;
    /** Host wallclock for this point (includes warmup when cold). */
    std::uint64_t pointWallNs = 0;
    /**
     * On the Pareto frontier of (fragmentation, deviceApiTime,
     * simTime), minimizing all three; OOM points never qualify.
     * All axes are simulated, so the frontier is deterministic.
     */
    bool onFrontier = false;
};

struct SweepReport
{
    std::string scenario; //!< the swept row's label
    std::string allocator;
    /** Warmup/tail boundary on the merged virtual timeline. */
    Tick splitTime = 0;
    /** Shared warmup-prefix replay (warm mode replays it once). */
    RunResult warmup;
    bool warmupOom = false;
    std::uint64_t warmupWallNs = 0;
    std::uint64_t totalWallNs = 0;
    std::vector<SweepPointRecord> points;

    /** Indices of the frontier points, in point order. */
    std::vector<std::size_t> frontier() const;
};

/**
 * Run the sweep over @p row: split every session at
 * sweepSplitTime(), replay the warmup prefix (once when
 * warm-starting), checkpoint, fork the tail per point on a thread
 * pool. The point order in the report matches @p points regardless
 * of scheduling. A row with a streamed session is refused (fatal):
 * the warm start has to split a materialized trace.
 */
SweepReport runSweep(const RunSpec &row,
                     const std::vector<SweepPoint> &points,
                     const SweepRunOptions &options = {});

/**
 * Print @p report's points (knobs, fragmentation, reserved memory,
 * device and simulated time, wall time, Pareto mark) and the
 * warmup/total wall line.
 */
void printSweepTable(const SweepReport &report, std::ostream &out);

/**
 * Reproduction header of the sweep JSON report: the inputs a reader
 * needs to re-run the sweep, alongside what the report itself
 * carries.
 */
struct SweepJsonMeta
{
    std::uint64_t seed = 42;
    int iterations = 0; //!< 0 = scenario default
    Bytes deviceCapacityBytes = 0;
    std::size_t threads = 1;
    bool warmStart = true;
};

/**
 * Write the machine-readable sweep report. Lives in the library
 * (not the CLI) so the artifact-format regression test pins the
 * exact key set downstream plotting scripts consume.
 */
void writeSweepJson(const SweepReport &report,
                    const SweepJsonMeta &meta,
                    const std::string &path);

} // namespace gmlake::sim

#endif // GMLAKE_SIM_SWEEP_HH
