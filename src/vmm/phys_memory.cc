#include "vmm/phys_memory.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/strings.hh"
#include "support/units.hh"

namespace gmlake::vmm
{

PhysMemory::PhysMemory(Bytes capacity, Bytes granularity)
    : mCapacity(capacity), mGranularity(granularity)
{
    GMLAKE_ASSERT(granularity > 0, "granularity must be positive");
    GMLAKE_ASSERT(isAligned(capacity, granularity),
                  "capacity must be a granularity multiple");
    mHoles.insert(0, capacity);
}

const PhysMemory::Slot *
PhysMemory::find(PhysHandle handle) const
{
    const auto slot = static_cast<std::uint32_t>(handle);
    const auto generation =
        static_cast<std::uint32_t>(handle >> 32);
    if (slot >= mSlots.size())
        return nullptr;
    const Slot &s = mSlots[slot];
    if (!s.live || s.generation != generation)
        return nullptr;
    return &s;
}

PhysMemory::Slot *
PhysMemory::find(PhysHandle handle)
{
    return const_cast<Slot *>(
        static_cast<const PhysMemory *>(this)->find(handle));
}

Status
PhysMemory::checkCreateSize(Bytes size) const
{
    if (size == 0 || !isAligned(size, mGranularity)) {
        return makeError(Errc::invalidValue,
                         "cuMemCreate size " + formatBytes(size) +
                         " is not a positive multiple of " +
                         formatBytes(mGranularity));
    }
    return Status::success();
}

Error
PhysMemory::noSpaceError(Bytes size) const
{
    // Both diagnostics are O(1) maintained aggregates, and the
    // message is only assembled on this error path.
    return makeError(Errc::outOfMemory,
                     "cuMemCreate " + formatBytes(size) +
                     " has no contiguous space (free " +
                     formatBytes(mCapacity - mInUse) +
                     ", largest hole " + formatBytes(largestHole()) +
                     ")");
}

PhysHandle
PhysMemory::acquireSlot(Bytes base, Bytes size)
{
    std::uint32_t index;
    if (!mFreeSlots.empty()) {
        index = mFreeSlots.back();
        mFreeSlots.pop_back();
    } else {
        index = static_cast<std::uint32_t>(mSlots.size());
        mSlots.emplace_back();
        // Generation 0 is reserved so a packed handle is never 0
        // (kNullHandle) and raw small integers never resolve.
        mSlots.back().generation = 0;
    }
    Slot &s = mSlots[index];
    ++s.generation;
    s.base = base;
    s.size = size;
    s.mapRefs = 0;
    s.live = true;
    ++mLiveHandles;
    return pack(index, s.generation);
}

Expected<PhysHandle>
PhysMemory::create(Bytes size)
{
    if (const Status s = checkCreateSize(size); !s.ok())
        return s.error();
    // First fit over the free holes: physical allocations must be
    // contiguous, exactly like real device memory. The extent map
    // answers "lowest-base hole with size >= request" in O(log n).
    const auto hole = mHoles.firstFit(size);
    if (!hole)
        return noSpaceError(size);
    if (hole->size == size)
        mHoles.erase(hole->base);
    else
        mHoles.shrinkFront(hole->base, size);

    const PhysHandle handle = acquireSlot(hole->base, size);
    mInUse += size;
    if (mInUse > mPeakInUse)
        mPeakInUse = mInUse;
    return handle;
}

Status
PhysMemory::createBatch(Bytes size, std::size_t count,
                        std::vector<PhysHandle> &out)
{
    if (count == 0)
        return Status::success();
    if (const Status s = checkCreateSize(size); !s.ok())
        return s;
    while (count > 0) {
        // Carving a chunk off the front of the lowest fitting hole
        // leaves it the lowest fitting hole while a chunk still fits,
        // so the loop's next first-fit answers land in the same hole:
        // take them all at once.
        const auto hole = mHoles.firstFit(size);
        if (!hole)
            return noSpaceError(size);
        const std::size_t take =
            std::min<std::size_t>(count, hole->size / size);
        const Bytes run = static_cast<Bytes>(take) * size;
        if (run == hole->size)
            mHoles.erase(hole->base);
        else
            mHoles.shrinkFront(hole->base, run);
        for (std::size_t i = 0; i < take; ++i) {
            out.push_back(acquireSlot(
                hole->base + static_cast<Bytes>(i) * size, size));
        }
        // inUse only grows here, so the per-chunk peak is the last.
        mInUse += run;
        if (mInUse > mPeakInUse)
            mPeakInUse = mInUse;
        count -= take;
    }
    return Status::success();
}

Status
PhysMemory::release(PhysHandle handle)
{
    Slot *s = find(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "release of unknown handle");
    if (s->mapRefs != 0)
        return makeError(Errc::handleInUse,
                         "release of a handle with live mappings");
    mInUse -= s->size;
    s->live = false;
    --mLiveHandles;
    mFreeSlots.push_back(static_cast<std::uint32_t>(s - mSlots.data()));

    // Return the range to the hole map, merging with neighbours.
    mHoles.insertCoalescing(s->base, s->size);
    if (mHoles.count() > mPeakHoles)
        mPeakHoles = mHoles.count();
    return Status::success();
}

Status
PhysMemory::releaseBatch(std::span<const PhysHandle> handles)
{
    // Validate by claiming: clearing a slot's live flag makes a
    // second listing of the same handle fail like the loop's second
    // release would. Any error gives every claimed slot back.
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const Slot *s = find(handles[i]);
        Status bad;
        if (s == nullptr) {
            bad = makeError(Errc::invalidValue,
                            "release of unknown handle");
        } else if (s->mapRefs != 0) {
            bad = makeError(Errc::handleInUse,
                            "release of a handle with live mappings");
        }
        if (!bad.ok()) {
            for (std::size_t j = 0; j < i; ++j)
                mSlots[static_cast<std::uint32_t>(handles[j])].live =
                    true;
            return bad;
        }
        mSlots[static_cast<std::uint32_t>(handles[i])].live = false;
    }

    std::size_t i = 0;
    while (i < handles.size()) {
        const Bytes runBase =
            mSlots[static_cast<std::uint32_t>(handles[i])].base;
        Bytes runEnd = runBase;
        std::size_t j = i;
        for (; j < handles.size(); ++j) {
            const auto index = static_cast<std::uint32_t>(handles[j]);
            const Slot &s = mSlots[index];
            if (s.base != runEnd)
                break;
            runEnd += s.size;
            mInUse -= s.size;
            --mLiveHandles;
            mFreeSlots.push_back(index);
        }
        const std::size_t before = mHoles.count();
        const auto merged =
            mHoles.insertCoalescing(runBase, runEnd - runBase);
        // The loop's hole count peaks right after the run's first
        // chunk returns: each later chunk merges into the hole before
        // it, and only the run's last chunk can meet a hole after it.
        const bool single = j - i == 1;
        const std::size_t peak = before + 1 - (merged.prev ? 1 : 0) -
                                 (single && merged.next ? 1 : 0);
        if (peak > mPeakHoles)
            mPeakHoles = peak;
        i = j;
    }
    return Status::success();
}

Status
PhysMemory::addMapRef(PhysHandle handle)
{
    Slot *s = find(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "map of unknown handle");
    ++s->mapRefs;
    return Status::success();
}

Status
PhysMemory::dropMapRef(PhysHandle handle)
{
    Slot *s = find(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "unmap of unknown handle");
    if (s->mapRefs == 0)
        return makeError(Errc::notMapped,
                         "unmap of a handle with no mappings");
    --s->mapRefs;
    return Status::success();
}

Expected<Bytes>
PhysMemory::sizeOf(PhysHandle handle) const
{
    const Slot *s = find(handle);
    if (s == nullptr)
        return makeError(Errc::invalidValue, "sizeOf unknown handle");
    return s->size;
}

bool
PhysMemory::isLive(PhysHandle handle) const
{
    return find(handle) != nullptr;
}

std::uint32_t
PhysMemory::mapRefs(PhysHandle handle) const
{
    const Slot *s = find(handle);
    return s == nullptr ? 0 : s->mapRefs;
}

PhysMemory::State
PhysMemory::saveState() const
{
    State state;
    state.inUse = mInUse;
    state.peakInUse = mPeakInUse;
    state.peakHoles = mPeakHoles;
    state.liveHandles = mLiveHandles;
    state.slots = mSlots;
    state.freeSlots = mFreeSlots;
    state.holes = mHoles.extents();
    return state;
}

void
PhysMemory::restoreState(const State &state)
{
    mInUse = state.inUse;
    mPeakInUse = state.peakInUse;
    mPeakHoles = state.peakHoles;
    mLiveHandles = state.liveHandles;
    mSlots = state.slots;
    mFreeSlots = state.freeSlots;
    mHoles.clear();
    for (const auto &hole : state.holes)
        mHoles.insert(hole.base, hole.size);
}

std::vector<std::pair<Bytes, Bytes>>
PhysMemory::liveRanges() const
{
    std::vector<std::pair<Bytes, Bytes>> out;
    out.reserve(mLiveHandles);
    for (const Slot &s : mSlots) {
        if (s.live)
            out.emplace_back(s.base, s.size);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace gmlake::vmm
