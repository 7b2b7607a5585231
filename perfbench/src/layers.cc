#include "layers.hh"

#include <algorithm>

#include "support/logging.hh"

namespace perfbench
{

namespace
{

std::size_t
index(Layer layer)
{
    return static_cast<std::size_t>(layer);
}

} // namespace

std::uint64_t
LayerTotals::coveredNs() const
{
    std::uint64_t sum = vmmNs();
    for (const std::uint64_t ns : selfNs)
        sum += ns;
    return sum;
}

LayerTotals &
LayerTotals::operator+=(const LayerTotals &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        calls[i] += other.calls[i];
        busyNs[i] += other.busyNs[i];
        selfNs[i] += other.selfNs[i];
    }
    vmmAllocNs += other.vmmAllocNs;
    vmmFreeNs += other.vmmFreeNs;
    vmmOtherNs += other.vmmOtherNs;
    return *this;
}

void
Tracer::enter(Layer layer, const Clocks &at)
{
    GMLAKE_ASSERT(mDepth < mStack.size(), "span stack overflow");
    Frame &frame = mStack[mDepth++];
    frame = Frame{};
    frame.layer = layer;
    frame.start = at;
}

void
Tracer::exit(const Clocks &at)
{
    GMLAKE_ASSERT(mDepth > 0, "span exit without enter");
    const Frame frame = mStack[--mDepth];
    const std::uint64_t wall = at.wallNs - frame.start.wallNs;
    const std::uint64_t vmm = at.vmmNs - frame.start.vmmNs;
    const std::uint64_t offload =
        at.offloadNs - frame.start.offloadNs;
    // Counter time inside this span but outside its timed children.
    const std::uint64_t ownVmm = vmm - std::min(vmm, frame.childVmm);
    const std::uint64_t ownOffload =
        offload - std::min(offload, frame.childOffload);

    const std::size_t i = index(frame.layer);
    ++mTotals.calls[i];
    mTotals.busyNs[i] += wall;

    std::uint64_t covered = frame.childWall + ownVmm;
    switch (frame.layer) {
      case Layer::sim: {
        // Offload work the engine drives directly (touch, prefetch,
        // registration); its device calls are already in ownVmm.
        const std::uint64_t offloadSelf =
            ownOffload - std::min(ownOffload, ownVmm);
        const std::size_t o = index(Layer::offload);
        mTotals.busyNs[o] += ownOffload;
        mTotals.selfNs[o] += offloadSelf;
        mTotals.vmmOtherNs += ownVmm;
        covered += offloadSelf;
        break;
      }
      case Layer::alloc:
        mTotals.vmmAllocNs += ownVmm;
        break;
      case Layer::free:
        mTotals.vmmFreeNs += ownVmm;
        break;
      default:
        mTotals.vmmOtherNs += ownVmm;
        break;
    }
    // Clock reads of nested spans are not atomic with each other, so
    // covered time can exceed the span by a few ns; clamp at zero.
    mTotals.selfNs[i] += wall - std::min(wall, covered);

    if (mDepth > 0) {
        Frame &parent = mStack[mDepth - 1];
        parent.childWall += wall;
        parent.childVmm += vmm;
        // The manager adds to its wall counter only when its outermost
        // call returns. A reclaim nested in an engine-driven touch has
        // not been counted yet when its span ends, and will be counted
        // with the touch: hand the parent the span's own duration so
        // the sim span does not charge that time twice.
        parent.childOffload +=
            frame.layer == Layer::offload ? std::max(offload, wall)
                                          : offload;
    }
}

std::vector<std::uint64_t>
WindowClock::finish()
{
    mMarks.push_back(nowNs());
    std::vector<std::uint64_t> windows;
    windows.reserve(mMarks.size() - 1);
    for (std::size_t i = 1; i < mMarks.size(); ++i)
        windows.push_back(mMarks[i] - mMarks[i - 1]);
    return windows;
}

TimedAllocator::TimedAllocator(alloc::Allocator &inner, Probe *probe,
                               std::vector<std::uint32_t> *latencies)
    : mInner(inner), mProbe(probe), mLatencies(latencies)
{
}

Expected<alloc::Allocation>
TimedAllocator::allocate(Bytes size, StreamId stream)
{
    ++mCons.attempted;
    Expected<alloc::Allocation> got = [&] {
        const Span span(mProbe, Layer::alloc);
        if (mLatencies == nullptr)
            return mInner.allocate(size, stream);
        const std::uint64_t t0 = nowNs();
        auto result = mInner.allocate(size, stream);
        mLatencies->push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(nowNs() - t0, UINT32_MAX)));
        return result;
    }();
    if (got.ok())
        setLive(got->id, true);
    else
        ++mCons.refused;
    return got;
}

Status
TimedAllocator::deallocate(alloc::AllocId id)
{
    Status status = [&] {
        const Span span(mProbe, Layer::free);
        return mInner.deallocate(id);
    }();
    if (status.ok()) {
        ++mCons.freed;
        setLive(id, false);
    }
    return status;
}

void
TimedAllocator::streamSynchronize(StreamId stream)
{
    const Span span(mProbe, Layer::sync);
    mInner.streamSynchronize(stream);
}

void
TimedAllocator::deviceSynchronize()
{
    const Span span(mProbe, Layer::sync);
    mInner.deviceSynchronize();
}

void
TimedAllocator::emptyCache()
{
    const Span span(mProbe, Layer::sync);
    mInner.emptyCache();
}

void
TimedAllocator::setLive(alloc::AllocId id, bool live)
{
    GMLAKE_ASSERT(id < (alloc::AllocId{1} << 34),
                  "allocation id outside the dense range: ", id);
    if (id >= mLive.size())
        mLive.resize(std::max<std::size_t>(id + 1, mLive.size() * 2));
    mLive[id] = live ? 1 : 0;
}

void
TimedAllocator::reclaimLive(offload::OffloadManager *tier)
{
    for (alloc::AllocId id = 0; id < mLive.size(); ++id) {
        if (mLive[id] == 0)
            continue;
        if (tier != nullptr)
            tier->onFreed(id);
        const Status status = mInner.deallocate(id);
        GMLAKE_ASSERT(status.ok(), "reclaim of live id ", id,
                      " failed");
        mLive[id] = 0;
        ++mCons.reclaimed;
    }
}

} // namespace perfbench
