#include "workloads.hh"

#include <functional>
#include <optional>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "workload/generators.hh"
#include "workload/tracegen.hh"

namespace perfbench
{

namespace
{

using namespace gmlake::literals;

/** One input replayed under every benchmark allocator. */
struct Job
{
    std::string label;
    vmm::DeviceConfig device;
    core::GMLakeConfig gmlake;
    sim::EngineOptions engine;
    /** Attach the default host-offload tier (LRU) to every run. */
    bool offload = false;
    /** Training config, for the engine's throughput figure. */
    std::optional<workload::TrainConfig> train;
    /** One session per source; the engine resets each per run. */
    std::vector<std::shared_ptr<workload::EventSource>> sources;
    std::vector<std::string> names;
    std::vector<Tick> starts;

    void
    addSession(std::string name,
               std::shared_ptr<workload::EventSource> source,
               Tick start = 0)
    {
        names.push_back(std::move(name));
        sources.push_back(std::move(source));
        starts.push_back(start);
    }
};

using JobPlan = std::function<Job()>;

// ------------------------------------------------------ train-matrix

/**
 * The paper's Section 5 headline matrix (as in the registry's
 * `headline` scenario): fine-tuning on ZeRO-3 with 4 GPUs for 8
 * iterations, 6 models x their batch sizes x {R, LR, RO, LRO}.
 */
std::vector<JobPlan>
trainMatrix(std::uint64_t seed)
{
    const struct
    {
        const char *model;
        std::vector<int> batches;
    } models[] = {
        {"OPT-1.3B", {64, 128, 192}}, {"GPT-2", {64, 128}},
        {"GLM-10B", {24, 48}},        {"OPT-13B", {16, 32, 48}},
        {"Vicuna-13B", {16, 32, 48}}, {"GPT-NeoX-20B", {24, 48, 72, 84}},
    };
    const char *strategies[] = {"R", "LR", "RO", "LRO"};

    std::vector<JobPlan> plans;
    for (const auto &m : models) {
        for (const int batch : m.batches) {
            for (const char *strat : strategies) {
                plans.push_back([=, model = m.model] {
                    workload::TrainConfig cfg;
                    cfg.model = workload::findModel(model);
                    cfg.strategies =
                        workload::Strategies::parse(strat);
                    cfg.gpus = 4;
                    cfg.batchSize = batch;
                    cfg.iterations = 8;
                    cfg.seed = seed;
                    Job job;
                    job.label = std::string(model) + "/" + strat +
                                "/b" + std::to_string(batch);
                    job.addSession(
                        "main",
                        std::make_shared<workload::VectorSource>(
                            workload::generateTrainingTrace(cfg)));
                    job.train = cfg;
                    return job;
                });
            }
        }
    }
    return plans;
}

// --------------------------------------------------------- serve-day

/** The registry's `serve-day`: 56,000 paged-KV requests, streamed. */
std::vector<JobPlan>
serveDay(std::uint64_t seed)
{
    return {[seed] {
        workload::KvServeConfig cfg;
        cfg.model = workload::findModel("OPT-1.3B");
        cfg.maxBatch = 48;
        cfg.requests = kServeDayRequests;
        cfg.medianPromptTokens = 384;
        cfg.meanGenerateTokens = 160;
        cfg.maxContextTokens = 4096;
        cfg.blockTokens = 64;
        cfg.seed = seed;
        Job job;
        job.label = "serve-day";
        job.device.capacity = 12_GiB;
        job.engine.recordSeries = false;
        job.addSession("main",
                       std::make_shared<workload::KvServeSource>(cfg));
        return job;
    }};
}

// -------------------------------------------------- stress-allocator

/**
 * Deep-pool stress trace: 512 freed 2-32 MiB blocks make GMLake's
 * inactive pool deep, then a 16-wide live window of 64-512 MiB
 * requests on 4 streams rarely repeats a size, so most allocations
 * miss the exact-match path and walk the BestFit search.
 */
workload::Trace
makeStressTrace(std::uint64_t seed, int churnOps)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    constexpr int kStreams = 4;
    constexpr int kPoolBlocks = 512;
    constexpr std::size_t kLiveWindow = 16;

    std::vector<workload::TensorId> pool;
    pool.reserve(kPoolBlocks);
    for (int i = 0; i < kPoolBlocks; ++i) {
        const Bytes size = 2_MiB * rng.uniformInt(1, 16);
        pool.push_back(builder.alloc(
            size, static_cast<StreamId>(i % kStreams)));
        builder.compute(20'000);
    }
    for (const workload::TensorId id : pool)
        builder.free(id);
    builder.streamSync(kAnyStream);

    std::vector<workload::TensorId> live;
    live.reserve(kLiveWindow);
    for (int i = 0; i < churnOps; ++i) {
        if (live.size() >= kLiveWindow) {
            const std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1));
            builder.free(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        const Bytes size = 2_MiB * rng.uniformInt(32, 256);
        const auto stream = static_cast<StreamId>(
            rng.uniformInt(0, kStreams - 1));
        live.push_back(builder.alloc(size, stream));
        builder.compute(50'000);
        if (i % 1024 == 1023)
            builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/**
 * Seed of independent device @p d of a workload that averages over
 * several: device 0 uses the workload seed itself.
 */
std::uint64_t
deviceSeed(std::uint64_t seed, int d)
{
    return d == 0 ? seed
                  : deriveSeed(seed, 64 + static_cast<std::uint64_t>(d));
}

/**
 * A device's BestFit cost depends on the pool its seed builds (up to
 * +-25% between seeds), so sixteen independent devices of 10,000
 * churn operations each are replayed and pooled. Shorter runs leave
 * the allocate() latency tail so thin that its p99 jumps between
 * seeds.
 */
std::vector<JobPlan>
stressAllocator(std::uint64_t seed)
{
    constexpr int kDevices = 16;
    std::vector<JobPlan> plans;
    for (int d = 0; d < kDevices; ++d) {
        plans.push_back([seed, d] {
            Job job;
            job.label = "stress #" + std::to_string(d);
            // Exact-fit discipline: only exact repeats take the fast
            // path, so the BestFit search carries the load.
            job.gmlake.nearMatchTolerance = 0.0;
            job.addSession("main",
                           std::make_shared<workload::VectorSource>(
                               makeStressTrace(deviceSeed(seed, d),
                                               10'000)));
            return job;
        });
    }
    return plans;
}

// --------------------------------------------------- oversub-offload

/** Chunk-aligned split of @p total into sizes 1, 2, ..., n units. */
std::vector<Bytes>
residentSplit(Bytes total, int n)
{
    const Bytes units =
        static_cast<Bytes>(n) * static_cast<Bytes>(n + 1) / 2;
    std::vector<Bytes> sizes;
    for (int i = 1; i <= n; ++i) {
        sizes.push_back(roundUp(
            total * static_cast<Bytes>(i) / units, 2_MiB));
    }
    return sizes;
}

/**
 * One oversubscription tenant: six resident tensors (12 GiB) touched
 * phase by phase every iteration with the next phase prefetched,
 * plus three 64-256 MiB transients churned inside each phase.
 */
workload::Trace
makeOffloadTenantTrace(std::uint64_t seed, int iterations)
{
    constexpr int kTransients = 3;
    constexpr Tick kPhaseNs = 40'000'000;
    Rng rng(seed);
    workload::TraceBuilder builder;

    std::vector<workload::TensorId> resident;
    for (const Bytes size : residentSplit(12_GiB, 6)) {
        resident.push_back(builder.alloc(size, 0));
        builder.compute(kPhaseNs / 8);
    }
    std::vector<workload::TensorId> transients;
    for (int iter = 0; iter < iterations; ++iter) {
        for (std::size_t phase = 0; phase < resident.size(); ++phase) {
            builder.prefetch(resident[(phase + 1) % resident.size()]);
            builder.touch(resident[phase]);
            transients.clear();
            for (int t = 0; t < kTransients; ++t) {
                const Bytes size = 2_MiB * rng.uniformInt(32, 128);
                const auto stream =
                    static_cast<StreamId>(1 + rng.uniformInt(0, 2));
                transients.push_back(builder.alloc(size, stream));
                builder.compute(kPhaseNs / (2 * kTransients));
            }
            builder.compute(kPhaseNs / 2);
            for (const workload::TensorId id : transients)
                builder.free(id);
        }
        builder.iterationMark();
    }
    builder.freeAll();
    return builder.take();
}

/**
 * The registry's `oversub-offload` shape — 4 tenants x 12 GiB on a
 * 32 GiB device (1.5x), staggered 25 ms apart — run long enough that
 * the spill/fault steady state dominates the warm-up. Eviction
 * outcomes swing with the seed, so six independent devices are
 * replayed and averaged.
 */
std::vector<JobPlan>
oversubOffload(std::uint64_t seed)
{
    constexpr int kDevices = 6;
    constexpr int kTenants = 4;
    constexpr int kIterations = 24;
    std::vector<JobPlan> plans;
    for (int d = 0; d < kDevices; ++d) {
        plans.push_back([seed, d] {
            Job job;
            job.label = "oversub 1.5x #" + std::to_string(d);
            job.device.capacity = 32_GiB;
            job.offload = true;
            for (int t = 0; t < kTenants; ++t) {
                const auto tenant = static_cast<std::uint64_t>(t);
                job.addSession(
                    "tenant" + std::to_string(t),
                    std::make_shared<workload::VectorSource>(
                        makeOffloadTenantTrace(
                            deriveSeed(deviceSeed(seed, d), tenant),
                            kIterations)),
                    static_cast<Tick>(t) * Tick{25'000'000});
            }
            return job;
        });
    }
    return plans;
}

std::vector<JobPlan>
plansFor(const std::string &name, std::uint64_t seed)
{
    if (name == "train-matrix")
        return trainMatrix(seed);
    if (name == "serve-day")
        return serveDay(seed);
    if (name == "stress-allocator")
        return stressAllocator(seed);
    if (name == "oversub-offload")
        return oversubOffload(seed);
    GMLAKE_PANIC("unknown workload '", name, "'");
}

std::uint64_t
vmmCallCount(const vmm::ApiCounters &c)
{
    return c.addressReserve + c.addressFree + c.create + c.release +
           c.map + c.unmap + c.setAccess + c.mallocNative +
           c.freeNative;
}

/** Replay @p job under @p kind and check the outcome. */
RunOutcome
runJob(const Job &job, sim::AllocatorKind kind, Mode mode,
       RepResult &rep)
{
    RunOutcome out;
    out.label = job.label;
    out.kind = kind;

    const std::uint64_t build0 = nowNs();
    vmm::Device device(job.device);
    const auto inner = sim::makeAllocator(kind, device, job.gmlake);
    std::unique_ptr<offload::OffloadManager> tier;
    if (job.offload)
        tier = std::make_unique<offload::OffloadManager>(device, *inner);
    out.buildNs = nowNs() - build0;
    if (mode == Mode::setupOnly)
        return out;

    std::optional<Probe> probe;
    std::optional<TimedHook> hook;
    if (mode == Mode::traced) {
        probe.emplace(device, tier.get());
        if (tier != nullptr) {
            hook.emplace(*tier, *probe);
            inner->setOffloadHook(&*hook);
        }
    }
    Probe *const p = probe ? &*probe : nullptr;
    const bool sampleLatency =
        mode == Mode::untraced && kind == sim::AllocatorKind::gmlake;
    TimedAllocator timed(*inner, p,
                         sampleLatency ? &rep.gmlakeLatencies : nullptr);

    sim::EngineOptions options = job.engine;
    options.offload = tier.get();
    sim::SimEngine engine(timed, device, options);
    WindowClock clock;
    for (std::size_t i = 0; i < job.sources.size(); ++i) {
        engine.addSession(sim::Session(
            job.names[i],
            std::make_shared<TimedSource>(job.sources[i], clock, p),
            job.starts[i]));
    }
    const std::uint64_t vmmCalls0 = vmmCallCount(device.counters());

    clock.start();
    {
        const Span span(p, Layer::sim);
        out.result = engine.run(job.train ? &*job.train : nullptr);
    }
    out.windowNs = clock.finish();
    for (const std::uint64_t ns : out.windowNs)
        out.replayNs += ns;
    out.events = clock.consumed();
    if (p != nullptr)
        out.layers = p->tracer().totals();
    out.vmmCalls = vmmCallCount(device.counters()) - vmmCalls0;
    if (tier != nullptr)
        out.tier = tier->stats();
    if (kind == sim::AllocatorKind::gmlake) {
        out.strategy =
            dynamic_cast<const core::GMLakeAllocator &>(*inner)
                .strategy();
    }
    if (hook)
        inner->setOffloadHook(tier.get());

    // Checks: every allocation is accounted for, nothing stays live,
    // and the allocator's books agree with the device.
    timed.reclaimLive(tier.get());
    out.cons = timed.conservation();
    const Conservation &c = out.cons;
    const alloc::AllocatorStats &stats = inner->stats();
    const std::string where =
        job.label + " [" + sim::allocatorKindName(kind) + "]";
    GMLAKE_ASSERT(c.attempted - c.refused == c.freed + c.reclaimed,
                  where, ": attempted ", c.attempted, " - refused ",
                  c.refused, " != freed ", c.freed, " + reclaimed ",
                  c.reclaimed);
    GMLAKE_ASSERT(stats.allocCount() == c.attempted - c.refused,
                  where, ": allocator counted ", stats.allocCount(),
                  " allocations, the benchmark ",
                  c.attempted - c.refused);
    GMLAKE_ASSERT(stats.freeCount() == c.freed + c.reclaimed, where,
                  ": allocator counted ", stats.freeCount(),
                  " frees, the benchmark ", c.freed + c.reclaimed);
    GMLAKE_ASSERT(stats.activeBytes() == 0, where, ": ",
                  stats.activeBytes(), " live bytes after reclaim");
    inner->auditInvariants();
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "train-matrix", "serve-day", "stress-allocator",
        "oversub-offload"};
    return names;
}

const std::vector<sim::AllocatorKind> &
benchAllocators()
{
    static const std::vector<sim::AllocatorKind> kinds = {
        sim::AllocatorKind::caching, sim::AllocatorKind::gmlake};
    return kinds;
}

RepResult
runRep(const std::string &workload, std::uint64_t seed, Mode mode)
{
    RepResult rep;
    const std::uint64_t rep0 = nowNs();
    for (const JobPlan &plan : plansFor(workload, seed)) {
        const std::uint64_t gen0 = nowNs();
        const Job job = plan();
        rep.genNs += nowNs() - gen0;
        const std::size_t first = rep.runs.size();
        for (const sim::AllocatorKind kind : benchAllocators()) {
            rep.runs.push_back(runJob(job, kind, mode, rep));
            rep.buildNs += rep.runs.back().buildNs;
        }
        if (mode == Mode::setupOnly)
            continue;
        // Allocators that both finish must have replayed one stream.
        for (std::size_t i = first + 1; i < rep.runs.size(); ++i) {
            const RunOutcome &a = rep.runs[first];
            const RunOutcome &b = rep.runs[i];
            if (a.result.anyOom() || b.result.anyOom())
                continue;
            GMLAKE_ASSERT(a.events == b.events, job.label,
                          ": allocators consumed ", a.events, " vs ",
                          b.events, " events");
        }
    }
    rep.wallNs = nowNs() - rep0;
    return rep;
}

bool
sameSimulation(const sim::RunResult &a, const sim::RunResult &b)
{
    auto sameSeries = [&] {
        if (a.series.size() != b.series.size())
            return false;
        for (std::size_t i = 0; i < a.series.size(); ++i) {
            const sim::SamplePoint &x = a.series[i];
            const sim::SamplePoint &y = b.series[i];
            if (x.time != y.time || x.active != y.active ||
                x.reserved != y.reserved)
                return false;
        }
        return true;
    };
    return a.allocator == b.allocator && a.oom == b.oom &&
           a.oomAt == b.oomAt && a.iterationsDone == b.iterationsDone &&
           a.simTime == b.simTime && a.peakActive == b.peakActive &&
           a.peakReserved == b.peakReserved &&
           a.utilization == b.utilization &&
           a.fragmentation == b.fragmentation &&
           a.samplesPerSec == b.samplesPerSec &&
           a.allocCount == b.allocCount && a.freeCount == b.freeCount &&
           a.deviceApiTime == b.deviceApiTime &&
           a.evictedBytes == b.evictedBytes &&
           a.faultedBytes == b.faultedBytes && a.stallNs == b.stallNs &&
           a.injectedFaults == b.injectedFaults &&
           a.recovered == b.recovered && a.rollbacks == b.rollbacks &&
           a.abortedSessions == b.abortedSessions && sameSeries();
}

bool
sameSimulation(const sim::MultiRunResult &a, const sim::MultiRunResult &b)
{
    if (!sameSimulation(a.combined, b.combined) ||
        a.sessions.size() != b.sessions.size())
        return false;
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        const sim::SessionResult &x = a.sessions[i];
        const sim::SessionResult &y = b.sessions[i];
        if (x.oom != y.oom || x.oomAt != y.oomAt ||
            x.iterationsDone != y.iterationsDone ||
            x.allocCount != y.allocCount ||
            x.freeCount != y.freeCount ||
            x.peakLiveBytes != y.peakLiveBytes ||
            x.endedAt != y.endedAt ||
            x.evictedBytes != y.evictedBytes ||
            x.faultedBytes != y.faultedBytes)
            return false;
    }
    return true;
}

} // namespace perfbench
