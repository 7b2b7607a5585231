/**
 * @file
 * The benchmark's workloads and one repetition of each: inputs are
 * generated from the seed through the public workload API, every
 * run is built from vmm::Device + sim::makeAllocator and replayed
 * through sim::SimEngine, and every run's outputs are checked.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/gmlake_allocator.hh"
#include "layers.hh"
#include "sim/runner.hh"
#include "sim/session.hh"

namespace perfbench
{

/** How much of a repetition to run. */
enum class Mode
{
    setupOnly, //!< generate inputs and build devices, no replay
    untraced,  //!< replay with no layer probe (end-to-end numbers)
    traced,    //!< replay with every layer decorator probing
};

/** One allocator replay of one job. */
struct RunOutcome
{
    std::string label; //!< job row, e.g. "OPT-13B/LR/b16"
    sim::AllocatorKind kind = sim::AllocatorKind::caching;
    sim::MultiRunResult result;
    std::uint64_t buildNs = 0;  //!< device + allocator construction
    std::uint64_t replayNs = 0; //!< SimEngine::run wall time
    /** replayNs split every WindowClock::kEvents consumed events. */
    std::vector<std::uint64_t> windowNs;
    std::uint64_t events = 0;   //!< events the engine consumed
    Conservation cons;
    LayerTotals layers;                   //!< traced runs only
    core::StrategyCounters strategy;      //!< GMLake runs only
    std::uint64_t vmmCalls = 0;           //!< device memory-API calls
    offload::OffloadStats tier;           //!< zero without a tier
};

/** One repetition of a workload. */
struct RepResult
{
    std::uint64_t wallNs = 0;  //!< the whole repetition
    std::uint64_t genNs = 0;   //!< input generation
    std::uint64_t buildNs = 0; //!< sum of RunOutcome::buildNs
    std::vector<RunOutcome> runs;
    /** Exact allocate() latencies of the GMLake runs (untraced). */
    std::vector<std::uint32_t> gmlakeLatencies;

    std::uint64_t setupNs() const { return genNs + buildNs; }
};

/** Requests one serve-day repetition serves. */
inline constexpr std::uint64_t kServeDayRequests = 56'000;

/** The workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The allocators every workload compares, in report order. */
const std::vector<sim::AllocatorKind> &benchAllocators();

/**
 * Run one repetition of @p workload at @p seed. Throws PanicError
 * (after printing the reason) when a run fails its checks:
 * auditInvariants(), allocation conservation, or the allocators
 * seeing different event streams.
 */
RepResult runRep(const std::string &workload, std::uint64_t seed,
                 Mode mode);

/** True when the simulated (deterministic) fields of @p a and @p b
 *  are identical: host-time fields are ignored. */
bool sameSimulation(const sim::RunResult &a, const sim::RunResult &b);
bool sameSimulation(const sim::MultiRunResult &a,
                    const sim::MultiRunResult &b);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
