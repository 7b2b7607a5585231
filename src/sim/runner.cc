#include "sim/runner.hh"

#include <utility>

#include "alloc/compacting_allocator.hh"
#include "alloc/expandable_allocator.hh"
#include "alloc/native_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "offload/offload_manager.hh"
#include "support/logging.hh"
#include "workload/tracegen.hh"

namespace gmlake::sim
{

const char *
allocatorKindName(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::native: return "native";
      case AllocatorKind::caching: return "caching";
      case AllocatorKind::gmlake: return "gmlake";
      case AllocatorKind::compacting: return "compacting";
      case AllocatorKind::expandable: return "expandable";
    }
    return "unknown";
}

std::optional<AllocatorKind>
parseAllocatorKind(std::string_view name)
{
    for (const AllocatorKind kind : allAllocatorKinds()) {
        if (name == allocatorKindName(kind))
            return kind;
    }
    return std::nullopt;
}

const std::vector<AllocatorKind> &
allAllocatorKinds()
{
    static const std::vector<AllocatorKind> kinds = {
        AllocatorKind::native,     AllocatorKind::caching,
        AllocatorKind::gmlake,     AllocatorKind::compacting,
        AllocatorKind::expandable,
    };
    return kinds;
}

std::unique_ptr<alloc::Allocator>
makeAllocator(AllocatorKind kind, vmm::Device &device,
              const core::GMLakeConfig &gmlakeConfig,
              const alloc::CachingConfig &cachingConfig)
{
    switch (kind) {
      case AllocatorKind::native:
        return std::make_unique<alloc::NativeAllocator>(device);
      case AllocatorKind::caching:
        return std::make_unique<alloc::CachingAllocator>(
            device, cachingConfig);
      case AllocatorKind::gmlake:
        return std::make_unique<core::GMLakeAllocator>(device,
                                                       gmlakeConfig);
      case AllocatorKind::compacting:
        return std::make_unique<alloc::CompactingAllocator>(device);
      case AllocatorKind::expandable:
        return std::make_unique<alloc::ExpandableSegmentsAllocator>(
            device);
    }
    GMLAKE_PANIC("unknown allocator kind");
}

// --------------------------------------------------------- variants

std::string
AllocatorVariant::name() const
{
    std::string name = allocatorKindName(kind);
    if (!offload)
        return name;
    name += "+offload";
    if (kind == AllocatorKind::gmlake ||
        *offload != offload::PolicyKind::lru)
        name += std::string("(") + offload::policyKindName(*offload) +
                ")";
    return name;
}

namespace
{

std::vector<AllocatorVariant>
allVariants()
{
    std::vector<AllocatorVariant> variants;
    for (const AllocatorKind kind : allAllocatorKinds()) {
        variants.emplace_back(kind);
        for (const auto policy :
             {offload::PolicyKind::lru, offload::PolicyKind::sizeAware})
            variants.emplace_back(kind, policy);
    }
    return variants;
}

} // namespace

std::optional<AllocatorVariant>
parseAllocatorVariant(std::string_view name)
{
    for (const AllocatorVariant &variant : allVariants()) {
        if (name == variant.name())
            return variant;
    }
    return std::nullopt;
}

// ------------------------------------------------------------ specs

void
RunSpec::addTrace(std::string name,
                  std::function<workload::Trace()> make, Tick start)
{
    sessions.push_back(SessionSpec{
        std::move(name),
        [make = std::move(make)] {
            return std::make_shared<const workload::Trace>(make());
        },
        nullptr, start});
}

RunSpec
trainingRun(const workload::TrainConfig &config, std::string label)
{
    RunSpec spec;
    spec.label = label.empty() ? config.describe() : std::move(label);
    spec.train = config;
    spec.seed = config.seed;
    spec.addTrace("main", [config] {
        return workload::generateTrainingTrace(config);
    });
    return spec;
}

RunSpec
materialize(RunSpec spec)
{
    for (SessionSpec &session : spec.sessions) {
        if (!session.trace)
            continue;
        session.trace = [trace = session.trace()] { return trace; };
    }
    return spec;
}

Tick
sourceEnd(workload::EventSource &source, Tick start)
{
    Tick local = start;
    source.reset();
    for (const workload::Event *event = source.peek();
         event != nullptr; event = source.peek()) {
        if (event->kind == workload::EventKind::compute)
            local += event->computeNs;
        source.advance();
    }
    return local;
}

MultiRunResult
replay(const RunSpec &spec, const AllocatorVariant &variant,
       const ReplayHooks &hooks)
{
    GMLAKE_ASSERT(!spec.sessions.empty(), "run '", spec.label,
                  "' has no sessions");
    vmm::Device device(spec.device);
    const auto allocator = makeAllocator(variant.kind, device,
                                         spec.gmlake, spec.caching);
    EngineOptions options = spec.engine;
    std::unique_ptr<offload::OffloadManager> tier;
    if (variant.offload) {
        offload::OffloadConfig config;
        config.policy = *variant.offload;
        tier = std::make_unique<offload::OffloadManager>(
            device, *allocator, config);
        options.offload = tier.get();
    }

    // Materialized traces are borrowed by their sessions, so they
    // must outlive the engine declared below.
    std::vector<std::shared_ptr<const workload::Trace>> traces;
    std::vector<Session> sessions;
    for (const SessionSpec &s : spec.sessions) {
        if (s.trace) {
            traces.push_back(s.trace());
            sessions.emplace_back(s.name, traces.back().get(), s.start);
        } else {
            GMLAKE_ASSERT(s.stream != nullptr, "session '", s.name,
                          "' of run '", spec.label, "' has no input");
            sessions.emplace_back(s.name, s.stream(), s.start);
        }
    }
    if (hooks.setup)
        hooks.setup(device, *allocator, options, sessions);

    SimEngine engine(*allocator, device, options);
    for (Session &session : sessions)
        engine.addSession(std::move(session));
    if (hooks.start)
        hooks.start(engine);
    MultiRunResult multi =
        engine.run(spec.train ? &*spec.train : nullptr);
    if (hooks.finish)
        hooks.finish(device, *allocator, multi);
    return multi;
}

} // namespace gmlake::sim
