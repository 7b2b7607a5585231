/**
 * @file
 * Layer timing from outside the simulator: decorators around the
 * public entry points of each layer (alloc::Allocator,
 * workload::EventSource, alloc::OffloadHook) and the span arithmetic
 * that turns their timings into per-layer busy and self times.
 *
 * The decorators forward every call unchanged, so a decorated run
 * makes exactly the decisions of an undecorated one; the self-test
 * checks that against the experiment registry.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "alloc/allocator.hh"
#include "offload/offload_manager.hh"
#include "vmm/device.hh"
#include "workload/event_source.hh"

namespace perfbench
{

using namespace gmlake;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Layers a span can be charged to. */
enum class Layer : std::uint8_t
{
    sim,      //!< one SimEngine run (the root span of a replay)
    workload, //!< EventSource peek/advance/reset
    alloc,    //!< Allocator::allocate
    free,     //!< Allocator::deallocate
    sync,     //!< stream/device synchronize, emptyCache
    offload,  //!< OffloadHook::reclaimOnOom
    count,
};

inline constexpr std::size_t kLayers =
    static_cast<std::size_t>(Layer::count);

/**
 * Readings taken at every span boundary: host wall time plus the
 * program's own cumulative host-time counters for the layers that
 * have no public entry point of their own (vmm::ApiCounters
 * ::vmmWallNs, offload::OffloadStats::offloadWallNs).
 */
struct Clocks
{
    std::uint64_t wallNs = 0;
    std::uint64_t vmmNs = 0;
    std::uint64_t offloadNs = 0;
};

/** Accumulated span accounting of one replay. */
struct LayerTotals
{
    std::array<std::uint64_t, kLayers> calls{};
    std::array<std::uint64_t, kLayers> busyNs{};
    std::array<std::uint64_t, kLayers> selfNs{};
    /** Device memory-API host time, split by the calling layer. */
    std::uint64_t vmmAllocNs = 0;
    std::uint64_t vmmFreeNs = 0;
    std::uint64_t vmmOtherNs = 0;

    std::uint64_t vmmNs() const
    {
        return vmmAllocNs + vmmFreeNs + vmmOtherNs;
    }
    /** Every self time plus every vmm share: the time covered. */
    std::uint64_t coveredNs() const;
    LayerTotals &operator+=(const LayerTotals &other);
};

/**
 * Nested-span accounting. A span's self time is its duration minus
 * the part covered by its child spans and by the vmm time the
 * program counted inside it but outside those children.
 *
 * The root `sim` span additionally owns the offload and vmm time the
 * engine spends outside every timed child (touch/prefetch handling
 * in the offload manager): that time is charged to the offload layer
 * (vmm share to vmm) instead of to the engine.
 */
class Tracer
{
  public:
    void enter(Layer layer, const Clocks &at);
    void exit(const Clocks &at);

    const LayerTotals &totals() const { return mTotals; }
    std::size_t depth() const { return mDepth; }

  private:
    struct Frame
    {
        Layer layer = Layer::sim;
        Clocks start;
        std::uint64_t childWall = 0;
        std::uint64_t childVmm = 0;
        std::uint64_t childOffload = 0;
    };

    std::array<Frame, 16> mStack{};
    std::size_t mDepth = 0;
    LayerTotals mTotals;
};

/** A Tracer bound to the device (and offload tier) of one replay. */
class Probe
{
  public:
    Probe(const vmm::Device &device,
          const offload::OffloadManager *tier)
        : mDevice(device), mTier(tier)
    {
    }

    Clocks
    read() const
    {
        Clocks c;
        c.wallNs = nowNs();
        c.vmmNs = mDevice.counters().vmmWallNs;
        c.offloadNs =
            mTier != nullptr ? mTier->stats().offloadWallNs : 0;
        return c;
    }

    void enter(Layer layer) { mTracer.enter(layer, read()); }
    void exit() { mTracer.exit(read()); }

    const Tracer &tracer() const { return mTracer; }

  private:
    const vmm::Device &mDevice;
    const offload::OffloadManager *mTier;
    Tracer mTracer;
};

/** RAII span on an optional probe (nullptr = untraced). */
class Span
{
  public:
    Span(Probe *probe, Layer layer) : mProbe(probe)
    {
        if (mProbe != nullptr)
            mProbe->enter(layer);
    }
    ~Span()
    {
        if (mProbe != nullptr)
            mProbe->exit();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Probe *mProbe;
};

/** allocate() outcomes seen by the decorator. */
struct Conservation
{
    std::uint64_t attempted = 0;
    std::uint64_t refused = 0;
    std::uint64_t freed = 0;
    /** Live at the end of the replay, released by the benchmark. */
    std::uint64_t reclaimed = 0;
};

/**
 * Allocator decorator: counts allocate outcomes and keeps the set of
 * live ids (so allocations a dead tenant left behind can be released
 * and conservation checked), optionally records the exact host
 * latency of every allocate() call, and, with a probe, charges each
 * call to its layer.
 */
class TimedAllocator final : public alloc::Allocator
{
  public:
    TimedAllocator(alloc::Allocator &inner, Probe *probe,
                   std::vector<std::uint32_t> *latencies);

    using alloc::Allocator::allocate;
    Expected<alloc::Allocation> allocate(Bytes size,
                                         StreamId stream) override;
    Status deallocate(alloc::AllocId id) override;
    void streamSynchronize(StreamId stream) override;
    void deviceSynchronize() override;
    void emptyCache() override;

    const alloc::AllocatorStats &stats() const override
    {
        return mInner.stats();
    }
    std::string name() const override { return mInner.name(); }
    RecoveryCounters recoveryCounters() const override
    {
        return mInner.recoveryCounters();
    }
    void auditInvariants() const override { mInner.auditInvariants(); }
    alloc::Checkpoint saveState() const override
    {
        return mInner.saveState();
    }
    void restoreState(const alloc::Checkpoint &checkpoint) override
    {
        mInner.restoreState(checkpoint);
    }
    bool internallySynchronized() const override
    {
        return mInner.internallySynchronized();
    }
    std::uint64_t lockWaitNs() const override
    {
        return mInner.lockWaitNs();
    }
    Bytes trimCache(Bytes target) override
    {
        return mInner.trimCache(target);
    }
    Bytes trimmableBytes() const override
    {
        return mInner.trimmableBytes();
    }
    bool supportsLiveSpill() const override
    {
        return mInner.supportsLiveSpill();
    }
    Expected<Bytes> spillLive(alloc::AllocId id) override
    {
        return mInner.spillLive(id);
    }
    Status faultLive(alloc::AllocId id) override
    {
        return mInner.faultLive(id);
    }
    alloc::MemorySnapshot snapshot() const override
    {
        return mInner.snapshot();
    }

    /**
     * Deallocate every id still live (unregistering it from @p tier
     * first, as the engine does); counted as reclaimed.
     */
    void reclaimLive(offload::OffloadManager *tier);

    const Conservation &conservation() const { return mCons; }

  private:
    void setLive(alloc::AllocId id, bool live);

    alloc::Allocator &mInner;
    Probe *mProbe;
    std::vector<std::uint32_t> *mLatencies;
    Conservation mCons;
    /** Live flag per id; allocator ids are dense and start at 1. */
    std::vector<std::uint8_t> mLive;
};

/**
 * Wall-clock marks every kEvents events one replay consumes (all of
 * its sessions together). A window position replays identical work
 * in every repetition, so its best time over the repetitions is a
 * measurement that interference from other processes can only
 * lengthen.
 */
class WindowClock
{
  public:
    static constexpr std::uint64_t kEvents = 1024;

    void
    start()
    {
        mMarks.assign(1, nowNs());
        mConsumed = 0;
    }
    void
    tick()
    {
        if (++mConsumed % kEvents == 0)
            mMarks.push_back(nowNs());
    }
    /** Close the last window; returns every window's duration. */
    std::vector<std::uint64_t> finish();

    std::uint64_t consumed() const { return mConsumed; }

  private:
    std::vector<std::uint64_t> mMarks;
    std::uint64_t mConsumed = 0;
};

/**
 * EventSource decorator: ticks the replay's window clock per
 * consumed event and, with a probe, charges peek/advance/reset to
 * `workload`.
 */
class TimedSource final : public workload::EventSource
{
  public:
    TimedSource(std::shared_ptr<workload::EventSource> inner,
                WindowClock &clock, Probe *probe)
        : mInner(std::move(inner)), mClock(clock), mProbe(probe)
    {
    }

    const workload::Event *
    peek() override
    {
        const Span span(mProbe, Layer::workload);
        return mInner->peek();
    }
    void
    advance() override
    {
        mClock.tick();
        const Span span(mProbe, Layer::workload);
        mInner->advance();
    }
    void
    reset() override
    {
        const Span span(mProbe, Layer::workload);
        mInner->reset();
    }
    std::size_t sizeHint() const override { return mInner->sizeHint(); }
    bool pure() const override { return mInner->pure(); }

  private:
    std::shared_ptr<workload::EventSource> mInner;
    WindowClock &mClock;
    Probe *mProbe;
};

/** OffloadHook decorator charging reclaimOnOom to `offload`. */
class TimedHook final : public alloc::OffloadHook
{
  public:
    TimedHook(alloc::OffloadHook &inner, Probe &probe)
        : mInner(inner), mProbe(probe)
    {
    }

    Bytes
    reclaimOnOom(Bytes needed, StreamId stream) override
    {
        const Span span(&mProbe, Layer::offload);
        return mInner.reclaimOnOom(needed, stream);
    }

  private:
    alloc::OffloadHook &mInner;
    Probe &mProbe;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
