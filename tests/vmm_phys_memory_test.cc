/**
 * @file
 * Physical memory manager tests: capacity accounting, granularity
 * checks, mapping refcounts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/phys_memory.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::PhysMemory;

namespace
{

/** Every observable a loop of single calls and its batch must share. */
void
expectSameState(const PhysMemory &loop, const PhysMemory &batch)
{
    EXPECT_EQ(loop.inUse(), batch.inUse());
    EXPECT_EQ(loop.peakInUse(), batch.peakInUse());
    EXPECT_EQ(loop.liveHandles(), batch.liveHandles());
    EXPECT_EQ(loop.holeCount(), batch.holeCount());
    EXPECT_EQ(loop.peakHoleCount(), batch.peakHoleCount());
    EXPECT_EQ(loop.largestHole(), batch.largestHole());
    EXPECT_EQ(loop.liveRanges(), batch.liveRanges());
    const auto loopHoles = loop.holeExtents();
    const auto batchHoles = batch.holeExtents();
    ASSERT_EQ(loopHoles.size(), batchHoles.size());
    for (std::size_t i = 0; i < loopHoles.size(); ++i) {
        EXPECT_EQ(loopHoles[i].base, batchHoles[i].base);
        EXPECT_EQ(loopHoles[i].size, batchHoles[i].size);
    }
    // Slot recycling order decides future handle values.
    EXPECT_EQ(loop.saveState().freeSlots, batch.saveState().freeSlots);
}

} // namespace

TEST(PhysMemory, CreateAndRelease)
{
    PhysMemory phys(16_MiB, 2_MiB);
    const auto h = phys.create(4_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(phys.inUse(), 4_MiB);
    EXPECT_EQ(phys.available(), 12_MiB);
    EXPECT_TRUE(phys.isLive(*h));
    EXPECT_TRUE(phys.release(*h).ok());
    EXPECT_EQ(phys.inUse(), 0u);
    EXPECT_FALSE(phys.isLive(*h));
}

TEST(PhysMemory, PeakTracksHighWaterMark)
{
    PhysMemory phys(16_MiB, 2_MiB);
    const auto a = phys.create(8_MiB);
    const auto b = phys.create(4_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(phys.release(*a).ok());
    EXPECT_EQ(phys.inUse(), 4_MiB);
    EXPECT_EQ(phys.peakInUse(), 12_MiB);
}

TEST(PhysMemory, RejectsUnalignedSize)
{
    PhysMemory phys(16_MiB, 2_MiB);
    EXPECT_EQ(phys.create(3_MiB).code(), Errc::invalidValue);
    EXPECT_EQ(phys.create(0).code(), Errc::invalidValue);
}

TEST(PhysMemory, OutOfMemoryAtCapacity)
{
    PhysMemory phys(8_MiB, 2_MiB);
    const auto a = phys.create(6_MiB);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(phys.create(4_MiB).code(), Errc::outOfMemory);
    // Exactly filling the device is allowed.
    EXPECT_TRUE(phys.create(2_MiB).ok());
}

TEST(PhysMemory, ReleaseUnknownHandleFails)
{
    PhysMemory phys(8_MiB, 2_MiB);
    EXPECT_EQ(phys.release(1234).code(), Errc::invalidValue);
}

TEST(PhysMemory, MapRefsBlockRelease)
{
    PhysMemory phys(8_MiB, 2_MiB);
    const auto h = phys.create(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(phys.addMapRef(*h).ok());
    EXPECT_TRUE(phys.addMapRef(*h).ok());
    EXPECT_EQ(phys.mapRefs(*h), 2u);
    EXPECT_EQ(phys.release(*h).code(), Errc::handleInUse);
    EXPECT_TRUE(phys.dropMapRef(*h).ok());
    EXPECT_EQ(phys.release(*h).code(), Errc::handleInUse);
    EXPECT_TRUE(phys.dropMapRef(*h).ok());
    EXPECT_TRUE(phys.release(*h).ok());
}

TEST(PhysMemory, DropRefWithoutMapFails)
{
    PhysMemory phys(8_MiB, 2_MiB);
    const auto h = phys.create(2_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(phys.dropMapRef(*h).code(), Errc::notMapped);
    EXPECT_EQ(phys.dropMapRef(999).code(), Errc::invalidValue);
}

TEST(PhysMemory, SizeOf)
{
    PhysMemory phys(8_MiB, 2_MiB);
    const auto h = phys.create(6_MiB);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*phys.sizeOf(*h), 6_MiB);
    EXPECT_EQ(phys.sizeOf(77).code(), Errc::invalidValue);
}

TEST(PhysMemory, HandlesAreUnique)
{
    PhysMemory phys(8_MiB, 2_MiB);
    const auto a = phys.create(2_MiB);
    const auto b = phys.create(2_MiB);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(*a, *b);
    // Released ids are not recycled.
    EXPECT_TRUE(phys.release(*a).ok());
    const auto c = phys.create(2_MiB);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(*c, *a);
}

TEST(PhysMemory, BatchesMatchSingleCallLoops)
{
    // Random churn fragments the space, so batches carve runs from
    // several holes, fail partway, and release runs in ascending,
    // descending, shuffled and merged orders.
    PhysMemory loop(96_MiB, 2_MiB);
    PhysMemory batch(96_MiB, 2_MiB);
    Rng rng(17);
    std::vector<std::vector<PhysHandle>> groups;
    for (int step = 0; step < 3000; ++step) {
        if (groups.empty() || rng.chance(0.55)) {
            const Bytes size = 2_MiB * rng.uniformInt(1, 2);
            const auto count =
                static_cast<std::size_t>(rng.uniformInt(1, 12));
            std::vector<PhysHandle> fromLoop;
            Status loopStatus;
            for (std::size_t i = 0; i < count; ++i) {
                const auto h = loop.create(size);
                if (!h.ok()) {
                    loopStatus = h.error();
                    break;
                }
                fromLoop.push_back(*h);
            }
            std::vector<PhysHandle> fromBatch;
            const Status batchStatus =
                batch.createBatch(size, count, fromBatch);
            ASSERT_EQ(loopStatus.code(), batchStatus.code()) << step;
            ASSERT_EQ(fromLoop, fromBatch) << step;
            if (!fromLoop.empty())
                groups.push_back(std::move(fromLoop));
        } else {
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(0, groups.size() - 1));
            std::vector<PhysHandle> victims = std::move(groups[pick]);
            groups.erase(groups.begin() +
                         static_cast<std::ptrdiff_t>(pick));
            switch (rng.uniformInt(0, 3)) {
              case 0:
                break; // creation (ascending) order
              case 1:
                std::reverse(victims.begin(), victims.end());
                break;
              case 2:
                for (std::size_t i = victims.size(); i > 1; --i) {
                    std::swap(victims[i - 1],
                              victims[rng.uniformInt(0, i - 1)]);
                }
                break;
              default:
                if (!groups.empty()) {
                    const auto &more = groups.back();
                    victims.insert(victims.begin(), more.begin(),
                                   more.end());
                    groups.pop_back();
                }
                break;
            }
            for (const PhysHandle h : victims)
                ASSERT_TRUE(loop.release(h).ok());
            ASSERT_TRUE(batch.releaseBatch(victims).ok());
        }
        expectSameState(loop, batch);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    // Handle values issued after the churn agree too.
    std::vector<PhysHandle> fromBatch;
    ASSERT_TRUE(batch.createBatch(2_MiB, 1, fromBatch).ok());
    EXPECT_EQ(*loop.create(2_MiB), fromBatch.front());
}

TEST(PhysMemory, CreateBatchCarvesAcrossHoles)
{
    PhysMemory phys(16_MiB, 2_MiB);
    std::vector<PhysHandle> all;
    ASSERT_TRUE(phys.createBatch(2_MiB, 8, all).ok());
    // Free chunks 1, 4 and 5: holes [2,4) and [8,12) MiB.
    const std::vector<PhysHandle> holes{all[1], all[4], all[5]};
    ASSERT_TRUE(phys.releaseBatch(holes).ok());
    EXPECT_EQ(phys.holeCount(), 2u);

    std::vector<PhysHandle> out;
    const Status s = phys.createBatch(2_MiB, 4, out);
    EXPECT_EQ(s.code(), Errc::outOfMemory);
    ASSERT_EQ(out.size(), 3u); // created before the failure stay
    EXPECT_EQ(phys.liveRanges(),
              (std::vector<std::pair<Bytes, Bytes>>{
                  {0, 2_MiB}, {2_MiB, 2_MiB}, {4_MiB, 2_MiB},
                  {6_MiB, 2_MiB}, {8_MiB, 2_MiB}, {10_MiB, 2_MiB},
                  {12_MiB, 2_MiB}, {14_MiB, 2_MiB}}));
    EXPECT_EQ(phys.peakInUse(), 16_MiB);
}

TEST(PhysMemory, ReleaseBatchPeakHoleCountIsExact)
{
    // Releasing chunks 1..3 of 0..4 one by one opens one hole after
    // the first, then only grows it: the peak is 1, not 0 or 3.
    PhysMemory phys(10_MiB, 2_MiB);
    std::vector<PhysHandle> all;
    ASSERT_TRUE(phys.createBatch(2_MiB, 5, all).ok());
    EXPECT_EQ(phys.peakHoleCount(), 1u); // the initial full hole
    ASSERT_TRUE(
        phys.releaseBatch(std::vector<PhysHandle>{all[1], all[2],
                                                  all[3]})
            .ok());
    EXPECT_EQ(phys.holeCount(), 1u);
    EXPECT_EQ(phys.peakHoleCount(), 1u);
    // Chunk 0 then 4: two separate holes at the peak, one at the end.
    PhysMemory other(10_MiB, 2_MiB);
    std::vector<PhysHandle> more;
    ASSERT_TRUE(other.createBatch(2_MiB, 5, more).ok());
    ASSERT_TRUE(
        other.releaseBatch(std::vector<PhysHandle>{more[0], more[4],
                                                   more[2]})
            .ok());
    EXPECT_EQ(other.holeCount(), 3u);
    EXPECT_EQ(other.peakHoleCount(), 3u);
}

TEST(PhysMemory, ReleaseBatchValidatesBeforeReleasing)
{
    PhysMemory phys(16_MiB, 2_MiB);
    std::vector<PhysHandle> h;
    ASSERT_TRUE(phys.createBatch(2_MiB, 3, h).ok());
    const auto holesBefore = phys.holeCount();

    // A mapped handle anywhere in the batch: nothing is released.
    ASSERT_TRUE(phys.addMapRef(h[2]).ok());
    EXPECT_EQ(phys.releaseBatch(h).code(), Errc::handleInUse);
    EXPECT_EQ(phys.liveHandles(), 3u);
    EXPECT_EQ(phys.inUse(), 6_MiB);
    EXPECT_EQ(phys.holeCount(), holesBefore);
    ASSERT_TRUE(phys.dropMapRef(h[2]).ok());

    // A stale handle, and a handle listed twice.
    ASSERT_TRUE(phys.release(h[2]).ok());
    EXPECT_EQ(phys.releaseBatch(h).code(), Errc::invalidValue);
    EXPECT_EQ(
        phys.releaseBatch(std::vector<PhysHandle>{h[0], h[1], h[0]})
            .code(),
        Errc::invalidValue);
    EXPECT_TRUE(phys.isLive(h[0]) && phys.isLive(h[1]));
    EXPECT_EQ(phys.liveHandles(), 2u);

    EXPECT_TRUE(
        phys.releaseBatch(std::vector<PhysHandle>{h[0], h[1]}).ok());
    EXPECT_EQ(phys.inUse(), 0u);
    EXPECT_EQ(phys.holeCount(), 1u);
}
