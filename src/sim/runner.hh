/**
 * @file
 * The one scenario model: a RunSpec describes a workload (device,
 * allocator knobs, engine options, co-located sessions) and replay()
 * runs it under one allocator variant. replay() is the only code that
 * wires a device, an allocator, a host-offload tier and a SimEngine
 * together; every verb reaches a workload through it.
 */

#ifndef GMLAKE_SIM_RUNNER_HH
#define GMLAKE_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/allocator.hh"
#include "alloc/caching_allocator.hh"
#include "core/gmlake_config.hh"
#include "offload/eviction_policy.hh"
#include "sim/engine.hh"
#include "sim/session.hh"
#include "vmm/device.hh"
#include "workload/train_config.hh"

namespace gmlake::sim
{

enum class AllocatorKind
{
    native,
    caching,
    gmlake,
    compacting, //!< moving-defragmentation baseline (related work)
    expandable, //!< PyTorch expandable_segments (GMLake-inspired)
};

const char *allocatorKindName(AllocatorKind kind);

/**
 * Inverse of allocatorKindName(): parse an allocator name as used on
 * every CLI/config surface; nullopt for unknown names. The one
 * name<->kind mapping shared by tools, the registry, and tests.
 */
std::optional<AllocatorKind>
parseAllocatorKind(std::string_view name);

/** Every allocator kind, in CLI/report order. */
const std::vector<AllocatorKind> &allAllocatorKinds();

/** Construct an allocator of @p kind bound to @p device. */
std::unique_ptr<alloc::Allocator>
makeAllocator(AllocatorKind kind, vmm::Device &device,
              const core::GMLakeConfig &gmlakeConfig = {},
              const alloc::CachingConfig &cachingConfig = {});

/** An allocator kind plus an optional host-offload tier. */
struct AllocatorVariant
{
    AllocatorKind kind = AllocatorKind::gmlake;
    /** Eviction policy of the attached tier; nullopt = no tier. */
    std::optional<offload::PolicyKind> offload;

    AllocatorVariant(AllocatorKind k = AllocatorKind::gmlake,
                     std::optional<offload::PolicyKind> policy = {})
        : kind(k), offload(policy)
    {
    }

    /**
     * Report and CLI name, e.g. "gmlake", "gmlake+offload(lru)"; an
     * LRU tier on another kind is plain "caching+offload".
     */
    std::string name() const;
};

/** Inverse of AllocatorVariant::name(); nullopt when unknown. */
std::optional<AllocatorVariant>
parseAllocatorVariant(std::string_view name);

/**
 * One tenant of a RunSpec. Its input is built on demand, once per
 * replay, so listing rows builds no trace: `trace` for a materialized
 * trace (what a sweep can split) or `stream` for a streamed source.
 */
struct SessionSpec
{
    std::string name;
    std::function<std::shared_ptr<const workload::Trace>()> trace;
    std::function<std::shared_ptr<workload::EventSource>()> stream;
    Tick start = 0; //!< local-timeline offset of its arrival
};

/** A declarative workload: everything replay() needs but the allocator. */
struct RunSpec
{
    /** Row label, unique within its scenario, e.g. "OPT-13B/LR/b16". */
    std::string label;
    vmm::DeviceConfig device{};
    core::GMLakeConfig gmlake{};
    alloc::CachingConfig caching{};
    EngineOptions engine{};
    /** Training config the throughput figure derives from. */
    std::optional<workload::TrainConfig> train;
    /** Workload seed the sessions derive from (reported for replay). */
    std::uint64_t seed = 0;
    std::vector<SessionSpec> sessions;

    /** Append a session whose trace @p make builds on demand. */
    void addTrace(std::string name, std::function<workload::Trace()> make,
                  Tick start = 0);
};

/**
 * A training run: one "main" session generated from @p config, which
 * also sets train and seed; the label defaults to config.describe().
 */
RunSpec trainingRun(const workload::TrainConfig &config,
                    std::string label = "");

/** @p spec with every trace built once, shared by its replays. */
RunSpec materialize(RunSpec spec);

/** @p start plus the total compute of @p source (drains it). */
Tick sourceEnd(workload::EventSource &source, Tick start);

/** Caller access to one replay's parts (all borrowed). */
struct ReplayHooks
{
    /**
     * Device, allocator and sessions are built, the engine is not:
     * install a fault injector, restore a checkpoint, or edit the
     * run's engine options.
     */
    std::function<void(vmm::Device &, alloc::Allocator &,
                       EngineOptions &, const std::vector<Session> &)>
        setup;
    /** Sessions are registered and the run has not started. */
    std::function<void(SimEngine &)> start;
    /** The run is over; device and allocator are still alive. */
    std::function<void(vmm::Device &, alloc::Allocator &,
                       const MultiRunResult &)>
        finish;
};

/** Replay @p spec under @p variant on a fresh device. */
MultiRunResult replay(const RunSpec &spec,
                      const AllocatorVariant &variant,
                      const ReplayHooks &hooks = {});

} // namespace gmlake::sim

#endif // GMLAKE_SIM_RUNNER_HH
