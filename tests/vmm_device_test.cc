/**
 * @file
 * Device facade tests: the CUDA-driver-like API surface, the native
 * cudaMalloc path, time charging and API counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/device.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::Device;
using vmm::DeviceConfig;

namespace
{

/**
 * Every simulated observable a loop of single calls and the batch
 * form must share: clock, API counters (host wall time excluded),
 * physical placement, peaks, and the slot recycling order that
 * decides future handle values.
 */
void
expectSameDevice(const Device &loop, const Device &batch)
{
    EXPECT_EQ(loop.now(), batch.now());
    const auto &a = loop.counters();
    const auto &b = batch.counters();
    EXPECT_EQ(a.addressReserve, b.addressReserve);
    EXPECT_EQ(a.addressFree, b.addressFree);
    EXPECT_EQ(a.create, b.create);
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.map, b.map);
    EXPECT_EQ(a.unmap, b.unmap);
    EXPECT_EQ(a.setAccess, b.setAccess);
    EXPECT_EQ(a.apiTime, b.apiTime);
    EXPECT_EQ(loop.phys().inUse(), batch.phys().inUse());
    EXPECT_EQ(loop.phys().peakInUse(), batch.phys().peakInUse());
    EXPECT_EQ(loop.phys().peakHoleCount(),
              batch.phys().peakHoleCount());
    EXPECT_EQ(loop.phys().liveRanges(), batch.phys().liveRanges());
    const auto loopHoles = loop.phys().holeExtents();
    const auto batchHoles = batch.phys().holeExtents();
    ASSERT_EQ(loopHoles.size(), batchHoles.size());
    for (std::size_t i = 0; i < loopHoles.size(); ++i) {
        EXPECT_EQ(loopHoles[i].base, batchHoles[i].base);
        EXPECT_EQ(loopHoles[i].size, batchHoles[i].size);
    }
    EXPECT_EQ(loop.phys().saveState().freeSlots,
              batch.phys().saveState().freeSlots);
}

/** Loop of memCreate() that stops at the first failure. */
Status
createLoop(Device &dev, Bytes size, std::size_t count,
           std::vector<PhysHandle> &out)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto h = dev.memCreate(size);
        if (!h.ok())
            return h.error();
        out.push_back(*h);
    }
    return Status::success();
}

DeviceConfig
smallDevice(Bytes capacity = 64_MiB)
{
    DeviceConfig cfg;
    cfg.capacity = capacity;
    cfg.granularity = 2_MiB;
    return cfg;
}

} // namespace

TEST(Device, FullVmmAllocationRoundTrip)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(4_MiB);
    ASSERT_TRUE(va.ok());
    const auto h1 = dev.memCreate(2_MiB);
    const auto h2 = dev.memCreate(2_MiB);
    ASSERT_TRUE(h1.ok() && h2.ok());
    ASSERT_TRUE(dev.memMap(*va, *h1).ok());
    ASSERT_TRUE(dev.memMap(*va + 2_MiB, *h2).ok());
    ASSERT_TRUE(dev.memSetAccess(*va, 4_MiB).ok());
    EXPECT_TRUE(dev.mappings().accessible(*va, 4_MiB));
    EXPECT_EQ(dev.phys().inUse(), 4_MiB);

    ASSERT_TRUE(dev.memUnmap(*va, 4_MiB).ok());
    ASSERT_TRUE(dev.memRelease(*h1).ok());
    ASSERT_TRUE(dev.memRelease(*h2).ok());
    ASSERT_TRUE(dev.memAddressFree(*va).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 0u);
}

TEST(Device, ReserveRoundsToGranularity)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(3_MiB);
    ASSERT_TRUE(va.ok());
    // The reservation internally covers 4 MiB.
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 4_MiB);
}

TEST(Device, AddressFreeWithLiveMappingsFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(2_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    ASSERT_TRUE(dev.memMap(*va, *h).ok());
    EXPECT_EQ(dev.memAddressFree(*va).code(), Errc::handleInUse);
    ASSERT_TRUE(dev.memUnmap(*va, 2_MiB).ok());
    EXPECT_TRUE(dev.memAddressFree(*va).ok());
}

TEST(Device, ReleaseMappedHandleFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(2_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    ASSERT_TRUE(dev.memMap(*va, *h).ok());
    EXPECT_EQ(dev.memRelease(*h).code(), Errc::handleInUse);
}

TEST(Device, MapOutsideReservationFails)
{
    Device dev(smallDevice());
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(dev.memMap(0x1234000, *h).code(), Errc::notReserved);
}

TEST(Device, MapUnalignedFails)
{
    Device dev(smallDevice());
    const auto va = dev.memAddressReserve(4_MiB);
    const auto h = dev.memCreate(2_MiB);
    ASSERT_TRUE(va.ok() && h.ok());
    EXPECT_EQ(dev.memMap(*va + 1024, *h).code(), Errc::invalidValue);
}

TEST(Device, CreateBeyondCapacityFails)
{
    Device dev(smallDevice(8_MiB));
    const auto a = dev.memCreate(6_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(dev.memCreate(4_MiB).code(), Errc::outOfMemory);
}

TEST(Device, NativeMallocFreeRoundTrip)
{
    Device dev(smallDevice());
    const auto p = dev.mallocNative(5_MiB);
    ASSERT_TRUE(p.ok());
    // Rounded up to granularity internally.
    EXPECT_EQ(dev.phys().inUse(), 6_MiB);
    EXPECT_TRUE(dev.mappings().accessible(*p, 5_MiB));
    ASSERT_TRUE(dev.freeNative(*p).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
}

TEST(Device, NativeFreeUnknownPointerFails)
{
    Device dev(smallDevice());
    EXPECT_EQ(dev.freeNative(0xabc).code(), Errc::invalidValue);
}

TEST(Device, NativeMallocOutOfMemory)
{
    Device dev(smallDevice(8_MiB));
    EXPECT_EQ(dev.mallocNative(16_MiB).code(), Errc::outOfMemory);
    EXPECT_EQ(dev.mallocNative(0).code(), Errc::invalidValue);
}

TEST(Device, ClockAdvancesOnApiCalls)
{
    Device dev(smallDevice());
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(2_MiB);
    ASSERT_TRUE(p.ok());
    const Tick t1 = dev.now();
    EXPECT_GT(t1, t0);
    ASSERT_TRUE(dev.freeNative(*p).ok());
    EXPECT_GT(dev.now(), t1);
    EXPECT_EQ(dev.counters().apiTime, dev.now());
}

TEST(Device, VmmCallsAreCheaperThanNativeForLargeChunks)
{
    // The premise of the whole design, Fig 2/6.
    Device dev(smallDevice(2_GiB + 64_MiB));
    const Tick t0 = dev.now();
    const auto p = dev.mallocNative(1_GiB);
    ASSERT_TRUE(p.ok());
    const Tick nativeCost = dev.now() - t0;

    const Tick t1 = dev.now();
    const auto va = dev.memAddressReserve(1_GiB);
    ASSERT_TRUE(va.ok());
    const Tick reserveCost = dev.now() - t1;
    EXPECT_LT(reserveCost, nativeCost / 100);
}

TEST(Device, CountersTrackCalls)
{
    Device dev(smallDevice());
    (void)dev.memAddressReserve(2_MiB);
    (void)dev.memCreate(2_MiB);
    (void)dev.mallocNative(2_MiB);
    dev.syncPenalty();
    dev.chargeCachedOp();
    const auto &c = dev.counters();
    EXPECT_EQ(c.addressReserve, 1u);
    EXPECT_EQ(c.create, 1u);
    EXPECT_EQ(c.mallocNative, 1u);
}

TEST(Device, FailedNativeMallocRollsBackCleanly)
{
    Device dev(smallDevice(8_MiB));
    const auto a = dev.mallocNative(8_MiB);
    ASSERT_TRUE(a.ok());
    const auto b = dev.mallocNative(2_MiB);
    EXPECT_FALSE(b.ok());
    // No leaked VA or physical bytes from the failed attempt.
    EXPECT_EQ(dev.phys().inUse(), 8_MiB);
    ASSERT_TRUE(dev.freeNative(*a).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
    EXPECT_EQ(dev.vaSpace().reservedBytes(), 0u);
}

TEST(Device, BatchCallsMatchSingleCallLoops)
{
    // Two devices replay one random create/map/unmap/release story:
    // one through single calls, one through the batch calls. Mapping
    // goes through the same calls on both, so released groups are
    // interleaved with live mappings and fragmented free space.
    Device loop(smallDevice(128_MiB));
    Device batch(smallDevice(128_MiB));
    Rng rng(301);
    struct Group
    {
        std::vector<PhysHandle> handles;
        VirtAddr va = 0; // 0 = not mapped
    };
    std::vector<Group> groups;
    for (int step = 0; step < 1500; ++step) {
        const auto op = rng.uniformInt(0, 9);
        if (groups.empty() || op < 4) {
            const auto count =
                static_cast<std::size_t>(rng.uniformInt(1, 16));
            Group g;
            const Status a = createLoop(loop, 2_MiB, count, g.handles);
            std::vector<PhysHandle> fromBatch;
            const Status b =
                batch.memCreateBatch(2_MiB, count, fromBatch);
            ASSERT_EQ(a.code(), b.code()) << step;
            ASSERT_EQ(g.handles, fromBatch) << step;
            if (!g.handles.empty())
                groups.push_back(std::move(g));
        } else {
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(0, groups.size() - 1));
            Group &g = groups[pick];
            const Bytes size = g.handles.size() * 2_MiB;
            if (g.va == 0 && op < 7) {
                // Map the group, then set access over it.
                for (Device *dev : {&loop, &batch}) {
                    const auto va = dev->memAddressReserve(size);
                    ASSERT_TRUE(va.ok());
                    g.va = *va;
                    std::vector<std::pair<VirtAddr, PhysHandle>> maps;
                    for (std::size_t i = 0; i < g.handles.size(); ++i)
                        maps.emplace_back(*va + i * 2_MiB,
                                          g.handles[i]);
                    ASSERT_TRUE(dev->memMapBatch(maps).ok());
                    ASSERT_TRUE(dev->memSetAccess(*va, size).ok());
                }
            } else if (g.va != 0) {
                for (Device *dev : {&loop, &batch}) {
                    ASSERT_TRUE(dev->memUnmap(g.va, size).ok());
                    ASSERT_TRUE(dev->memAddressFree(g.va).ok());
                }
                g.va = 0;
            } else {
                std::vector<PhysHandle> victims = std::move(g.handles);
                groups.erase(groups.begin() +
                             static_cast<std::ptrdiff_t>(pick));
                if (rng.chance(0.3))
                    std::reverse(victims.begin(), victims.end());
                for (const PhysHandle h : victims)
                    ASSERT_TRUE(loop.memRelease(h).ok());
                ASSERT_TRUE(batch.memReleaseBatch(victims).ok());
            }
        }
        expectSameDevice(loop, batch);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
}

TEST(Device, ReleaseBatchWithBadHandleReleasesNothing)
{
    Device dev(smallDevice());
    std::vector<PhysHandle> h;
    ASSERT_TRUE(dev.memCreateBatch(2_MiB, 3, h).ok());
    const auto va = dev.memAddressReserve(2_MiB);
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(dev.memMap(*va, h[1]).ok());

    // Mapped: rejected whole, though each chunk is still counted and
    // charged as the loop's call would be.
    const Tick t0 = dev.now();
    EXPECT_EQ(dev.memReleaseBatch(h).code(), Errc::handleInUse);
    EXPECT_EQ(dev.counters().release, 3u);
    EXPECT_EQ(dev.now() - t0, 3 * dev.costs().memRelease());
    EXPECT_EQ(dev.phys().liveHandles(), 3u);
    EXPECT_EQ(dev.phys().inUse(), 6_MiB);

    // Stale: rejected whole as well.
    ASSERT_TRUE(dev.memUnmap(*va, 2_MiB).ok());
    ASSERT_TRUE(dev.memRelease(h[1]).ok());
    EXPECT_EQ(dev.memReleaseBatch(h).code(), Errc::invalidValue);
    EXPECT_EQ(dev.phys().liveHandles(), 2u);
    EXPECT_TRUE(dev.phys().isLive(h[0]) && dev.phys().isLive(h[2]));

    EXPECT_TRUE(
        dev.memReleaseBatch(std::vector<PhysHandle>{h[0], h[2]}).ok());
    EXPECT_EQ(dev.phys().inUse(), 0u);
}

TEST(Device, CreateBatchUnderFaultsMatchesLoop)
{
    // With p = 0.3 most batches fail partway. The batch must draw
    // from the injector once per chunk through the failing one, in
    // the loop's order, and interleave the scheduled capacity losses
    // the same way, so both devices stay in lockstep.
    const auto plan = vmm::FaultPlan::parse(
        "create:p=0.3;cap:t=200000,b=6M;cap:t=900000,b=10M");
    Device loop(smallDevice(128_MiB));
    Device batch(smallDevice(128_MiB));
    loop.installFaultInjector(plan, 11);
    batch.installFaultInjector(plan, 11);
    Rng rng(5);
    std::size_t partial = 0;
    for (int step = 0; step < 400; ++step) {
        const auto count =
            static_cast<std::size_t>(rng.uniformInt(1, 10));
        std::vector<PhysHandle> a;
        std::vector<PhysHandle> b;
        const Status sa = createLoop(loop, 2_MiB, count, a);
        const Status sb = batch.memCreateBatch(2_MiB, count, b);
        ASSERT_EQ(sa.code(), sb.code()) << step;
        ASSERT_EQ(a, b) << step;
        if (!sa.ok() && !a.empty())
            ++partial;
        const auto &fa = loop.faultInjector()->counters();
        const auto &fb = batch.faultInjector()->counters();
        ASSERT_EQ(fa.calls, fb.calls) << step;
        ASSERT_EQ(fa.injected, fb.injected) << step;
        ASSERT_EQ(fa.capacityLost, fb.capacityLost) << step;
        // Keep roughly half of the chunks live between steps.
        if (rng.chance(0.5)) {
            for (const PhysHandle h : a)
                ASSERT_TRUE(loop.memRelease(h).ok());
            ASSERT_TRUE(batch.memReleaseBatch(b).ok());
        }
        expectSameDevice(loop, batch);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    EXPECT_GT(partial, 0u) << "no batch failed partway";
    EXPECT_GT(loop.faultInjector()->counters().capacityLost, 0u);
}
