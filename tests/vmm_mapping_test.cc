/**
 * @file
 * Mapping table tests: VA->PA mapping semantics, the multi-VA
 * aliasing that virtual memory stitching relies on, and the error
 * paths for malformed map/unmap requests.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "support/rng.hh"
#include "support/units.hh"
#include "vmm/mapping_table.hh"
#include "vmm/phys_memory.hh"

using namespace gmlake;
using namespace gmlake::literals;
using vmm::MappingTable;
using vmm::PhysMemory;

namespace
{

class MappingTest : public ::testing::Test
{
  protected:
    MappingTest() : phys(64_MiB, 2_MiB), table(phys) {}

    PhysHandle
    chunk()
    {
        const auto h = phys.create(2_MiB);
        EXPECT_TRUE(h.ok());
        return *h;
    }

    PhysMemory phys;
    MappingTable table;
    static constexpr VirtAddr base = 0x100000000ULL;
};

} // namespace

TEST_F(MappingTest, MapAndTranslate)
{
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    EXPECT_EQ(*table.translate(base), h);
    EXPECT_EQ(*table.translate(base + 2_MiB - 1), h);
    EXPECT_EQ(table.translate(base + 2_MiB).code(), Errc::notMapped);
    EXPECT_EQ(phys.mapRefs(h), 1u);
}

TEST_F(MappingTest, OverlapRejected)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    EXPECT_EQ(table.map(base, h2).code(), Errc::alreadyMapped);
    EXPECT_EQ(table.map(base + 1_MiB, h2).code(), Errc::alreadyMapped);
    // Adjacent is fine.
    EXPECT_TRUE(table.map(base + 2_MiB, h2).ok());
}

TEST_F(MappingTest, SameHandleAtTwoAddresses)
{
    // The core trick of VMS: one physical chunk, several VAs.
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    ASSERT_TRUE(table.map(base + 64_MiB, h).ok());
    EXPECT_EQ(phys.mapRefs(h), 2u);
    EXPECT_EQ(*table.translate(base), h);
    EXPECT_EQ(*table.translate(base + 64_MiB), h);
}

TEST_F(MappingTest, UnmapExactRange)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    ASSERT_TRUE(table.unmap(base, 4_MiB).ok());
    EXPECT_EQ(phys.mapRefs(h1), 0u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(table.mappingCount(), 0u);
}

TEST_F(MappingTest, UnmapCannotSplitAMapping)
{
    const PhysHandle h = chunk();
    ASSERT_TRUE(table.map(base, h).ok());
    EXPECT_EQ(table.unmap(base, 1_MiB).code(), Errc::invalidValue);
    EXPECT_EQ(table.unmap(base + 1_MiB, 1_MiB).code(),
              Errc::invalidValue);
}

TEST_F(MappingTest, UnmapUnmappedRangeFails)
{
    EXPECT_EQ(table.unmap(base, 2_MiB).code(), Errc::notMapped);
}

TEST_F(MappingTest, SetAccessAndAccessible)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    EXPECT_FALSE(table.accessible(base, 4_MiB));
    ASSERT_TRUE(table.setAccess(base, 4_MiB).ok());
    EXPECT_TRUE(table.accessible(base, 4_MiB));
    EXPECT_TRUE(table.accessible(base + 1_MiB, 2_MiB));
    // Beyond the mapped range there is a gap.
    EXPECT_FALSE(table.accessible(base, 6_MiB));
}

TEST_F(MappingTest, SetAccessOnUnmappedFails)
{
    EXPECT_EQ(table.setAccess(base, 2_MiB).code(), Errc::notMapped);
}

TEST_F(MappingTest, MappingsInReportsOrderedEntries)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base + 2_MiB, h2).ok());
    ASSERT_TRUE(table.map(base, h1).ok());
    const auto entries = table.mappingsIn(base, 4_MiB);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].va, base);
    EXPECT_EQ(entries[0].handle, h1);
    EXPECT_EQ(entries[1].va, base + 2_MiB);
    EXPECT_EQ(entries[1].handle, h2);
}

TEST_F(MappingTest, MapUnknownHandleFails)
{
    EXPECT_EQ(table.map(base, 4242).code(), Errc::invalidValue);
}

// ------------------------------------------------- batched entry points

TEST_F(MappingTest, MapRangeCoalescesIntoOneExtent)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());
    // Three chunk-level mappings, one coalesced extent.
    EXPECT_EQ(table.mappingCount(), 3u);
    EXPECT_EQ(table.extentCount(), 1u);
    EXPECT_EQ(phys.mapRefs(h1), 1u);
    EXPECT_EQ(phys.mapRefs(h2), 1u);
    EXPECT_EQ(phys.mapRefs(h3), 1u);
    // translate resolves each chunk across the coalesced extent.
    EXPECT_EQ(*table.translate(base), h1);
    EXPECT_EQ(*table.translate(base + 2_MiB), h2);
    EXPECT_EQ(*table.translate(base + 4_MiB + 1), h3);
    EXPECT_EQ(*table.translate(base + 6_MiB - 1), h3);
    EXPECT_EQ(table.translate(base + 6_MiB).code(), Errc::notMapped);
    const auto entries = table.mappingsIn(base, 6_MiB);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].handle, h1);
    EXPECT_EQ(entries[1].va, base + 2_MiB);
    EXPECT_EQ(entries[2].handle, h3);
}

TEST_F(MappingTest, MapRangeOverlapLeavesTableUntouched)
{
    const PhysHandle mid = chunk();
    ASSERT_TRUE(table.map(base + 2_MiB, mid).ok());

    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    // The second target collides with the pre-existing mapping.
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::alreadyMapped);
    // Partial-failure atomicity: nothing from the batch landed.
    EXPECT_EQ(table.mappingCount(), 1u);
    EXPECT_EQ(phys.mapRefs(h1), 0u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(table.translate(base).code(), Errc::notMapped);
}

TEST_F(MappingTest, MapRangeUnknownHandleLeavesTableUntouched)
{
    const PhysHandle h1 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, 424242}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::invalidValue);
    EXPECT_EQ(table.mappingCount(), 0u);
    EXPECT_EQ(phys.mapRefs(h1), 0u);
}

TEST_F(MappingTest, MapRangeRejectsUnsortedBatch)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base + 2_MiB, h1}, {base, h2}};
    EXPECT_EQ(table.mapRange(batch).code(), Errc::invalidValue);
    EXPECT_EQ(table.mappingCount(), 0u);
}

TEST_F(MappingTest, UnmapSplitsCoalescedExtentAtChunkBoundary)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    // Carve the middle chunk out of the coalesced extent.
    ASSERT_TRUE(table.unmap(base + 2_MiB, 2_MiB).ok());
    EXPECT_EQ(table.mappingCount(), 2u);
    EXPECT_EQ(table.extentCount(), 2u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
    EXPECT_EQ(*table.translate(base), h1);
    EXPECT_EQ(table.translate(base + 2_MiB).code(), Errc::notMapped);
    EXPECT_EQ(*table.translate(base + 4_MiB), h3);

    // Mid-chunk cuts are still rejected.
    EXPECT_EQ(table.unmap(base + 1_MiB, 1_MiB).code(),
              Errc::invalidValue);
    EXPECT_EQ(table.unmap(base, 1_MiB).code(), Errc::invalidValue);
}

TEST_F(MappingTest, UnmapRangeIsAtomicAcrossRanges)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());
    ASSERT_TRUE(table.map(base + 4_MiB, h2).ok());

    // Second range is unmapped: the whole batch must fail without
    // touching the first range.
    const std::pair<VirtAddr, Bytes> bad[] = {
        {base, 2_MiB}, {base + 8_MiB, 2_MiB}};
    EXPECT_EQ(table.unmapRange(bad).code(), Errc::notMapped);
    EXPECT_EQ(table.mappingCount(), 2u);
    EXPECT_EQ(phys.mapRefs(h1), 1u);

    const std::pair<VirtAddr, Bytes> good[] = {
        {base, 2_MiB}, {base + 4_MiB, 2_MiB}};
    ASSERT_TRUE(table.unmapRange(good).ok());
    EXPECT_EQ(table.mappingCount(), 0u);
    EXPECT_EQ(phys.mapRefs(h1), 0u);
    EXPECT_EQ(phys.mapRefs(h2), 0u);
}

TEST_F(MappingTest, SetAccessSplitsMixedStateExtent)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const PhysHandle h3 = chunk();
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, h3}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    // Grant access to the middle chunk only: the extent splits so
    // chunk-level access state is preserved exactly.
    ASSERT_TRUE(table.setAccess(base + 2_MiB, 2_MiB).ok());
    EXPECT_FALSE(table.accessible(base, 2_MiB));
    EXPECT_TRUE(table.accessible(base + 2_MiB, 2_MiB));
    EXPECT_FALSE(table.accessible(base + 4_MiB, 2_MiB));
    EXPECT_FALSE(table.accessible(base, 6_MiB));
    // Chunk count is unchanged; the extents multiplied.
    EXPECT_EQ(table.mappingCount(), 3u);
    EXPECT_EQ(table.extentCount(), 3u);

    ASSERT_TRUE(table.setAccess(base, 6_MiB).ok());
    EXPECT_TRUE(table.accessible(base, 6_MiB));
}

TEST_F(MappingTest, SetAccessRangeIsAtomicAcrossRanges)
{
    const PhysHandle h1 = chunk();
    ASSERT_TRUE(table.map(base, h1).ok());

    const std::pair<VirtAddr, Bytes> bad[] = {
        {base, 2_MiB}, {base + 8_MiB, 2_MiB}};
    EXPECT_EQ(table.setAccessRange(bad).code(), Errc::notMapped);
    EXPECT_FALSE(table.accessible(base, 2_MiB));

    const std::pair<VirtAddr, Bytes> good[] = {{base, 2_MiB}};
    ASSERT_TRUE(table.setAccessRange(good).ok());
    EXPECT_TRUE(table.accessible(base, 2_MiB));
}

TEST_F(MappingTest, RangeStatsMatchMappingsIn)
{
    const PhysHandle h1 = chunk();
    const PhysHandle h2 = chunk();
    const auto big = phys.create(4_MiB);
    ASSERT_TRUE(big.ok());
    const std::pair<VirtAddr, PhysHandle> batch[] = {
        {base, h1}, {base + 2_MiB, h2}, {base + 4_MiB, *big}};
    ASSERT_TRUE(table.mapRange(batch).ok());

    for (const auto &[va, size] :
         {std::pair<VirtAddr, Bytes>{base, 8_MiB},
          {base, 2_MiB},
          {base + 2_MiB, 4_MiB},
          {base + 1_MiB, 2_MiB},
          {base + 6_MiB, 2_MiB}}) {
        const auto stats = table.rangeStats(va, size);
        const auto entries = table.mappingsIn(va, size);
        EXPECT_EQ(stats.chunks, entries.size()) << va;
        Bytes bytes = 0;
        for (const auto &e : entries)
            bytes += e.size;
        EXPECT_EQ(stats.bytes, bytes) << va;
        EXPECT_EQ(table.hasMappingsIn(va, size), !entries.empty())
            << va;
    }

    // The scratch-filling overload agrees with the allocating one.
    std::vector<MappingTable::Entry> scratch;
    table.mappingsIn(base, 8_MiB, scratch);
    const auto fresh = table.mappingsIn(base, 8_MiB);
    ASSERT_EQ(scratch.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(scratch[i].va, fresh[i].va);
        EXPECT_EQ(scratch[i].handle, fresh[i].handle);
    }
}

TEST_F(MappingTest, MixedSizeExtentKeepsChunkSemantics)
{
    // Adjacent handles of 2, 4, 2 and 6 MiB mapped before setAccess
    // coalesce into one extent with no common chunk size.
    const PhysHandle a = chunk();
    const auto b = phys.create(4_MiB);
    const PhysHandle c = chunk();
    const auto d = phys.create(6_MiB);
    ASSERT_TRUE(b.ok() && d.ok());
    ASSERT_TRUE(table.map(base, a).ok());
    ASSERT_TRUE(table.map(base + 2_MiB, *b).ok());
    ASSERT_TRUE(table.map(base + 6_MiB, c).ok());
    ASSERT_TRUE(table.map(base + 8_MiB, *d).ok());
    ASSERT_EQ(table.extentCount(), 1u);
    EXPECT_EQ(*table.translate(base + 5_MiB), *b);
    EXPECT_EQ(*table.translate(base + 13_MiB), *d);

    // Unmapping inside a chunk is still rejected, at either end.
    EXPECT_EQ(table.unmap(base + 4_MiB, 4_MiB).code(),
              Errc::invalidValue);
    EXPECT_EQ(table.unmap(base + 2_MiB, 3_MiB).code(),
              Errc::invalidValue);
    EXPECT_EQ(table.unmap(base + 6_MiB, 4_MiB).code(),
              Errc::invalidValue);
    EXPECT_EQ(table.mappingCount(), 4u);

    // A partial setAccess flips exactly the chunks starting inside
    // the range: c and d, not b (it starts before) even though the
    // range covers half of it.
    const auto stats = table.rangeStats(base + 4_MiB, 6_MiB);
    EXPECT_EQ(stats.chunks, 2u);
    EXPECT_EQ(stats.bytes, 8_MiB);
    ASSERT_TRUE(table.setAccess(base + 4_MiB, 6_MiB).ok());
    const auto entries = table.mappingsIn(base, 14_MiB);
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_FALSE(entries[0].accessible);
    EXPECT_FALSE(entries[1].accessible);
    EXPECT_TRUE(entries[2].accessible);
    EXPECT_TRUE(entries[3].accessible);
    EXPECT_EQ(entries[3].va, base + 8_MiB);
    EXPECT_EQ(entries[3].size, 6_MiB);

    // A partial unmap removes exactly b and c.
    ASSERT_TRUE(table.unmap(base + 2_MiB, 6_MiB).ok());
    EXPECT_EQ(table.mappingCount(), 2u);
    EXPECT_EQ(phys.mapRefs(*b), 0u);
    EXPECT_EQ(phys.mapRefs(c), 0u);
    EXPECT_EQ(*table.translate(base), a);
    EXPECT_EQ(table.translate(base + 2_MiB).code(), Errc::notMapped);
    EXPECT_EQ(*table.translate(base + 8_MiB), *d);
}

TEST(MappingTable, ChunkSemanticsMatchPerChunkModel)
{
    // A per-chunk reference model of the CUDA rules: unmap removes
    // the chunks starting in the range and fails if either end cuts
    // a chunk or nothing starts inside; setAccess flips the chunks
    // starting in the range. Mostly 2 MiB chunks keep most extents
    // uniform, and the odd 4/6 MiB chunk makes some mixed.
    PhysMemory phys(1_GiB, 2_MiB);
    MappingTable table(phys);
    struct Mapped
    {
        PhysHandle handle;
        Bytes size;
        bool accessible;
    };
    std::map<VirtAddr, Mapped> model;
    constexpr VirtAddr lo = 0x200000000ULL;
    const auto startsIn = [&](VirtAddr va, Bytes size) {
        std::vector<VirtAddr> out;
        for (auto it = model.lower_bound(va);
             it != model.end() && it->first < va + size; ++it)
            out.push_back(it->first);
        return out;
    };
    const auto cuts = [&](VirtAddr at) {
        auto it = model.upper_bound(at);
        if (it == model.begin())
            return false;
        --it;
        return it->first < at && at < it->first + it->second.size;
    };
    Rng rng(2024);
    for (int step = 0; step < 4000; ++step) {
        const auto op = rng.uniformInt(0, 9);
        if (op < 5) {
            // Map a run of 1..6 chunks, as one batch or one by one.
            const VirtAddr va = lo + rng.uniformInt(0, 47) * 2_MiB;
            const auto n = rng.uniformInt(1, 6);
            std::vector<std::pair<VirtAddr, PhysHandle>> batch;
            VirtAddr at = va;
            bool free = true;
            for (std::uint64_t i = 0; i < n; ++i) {
                const Bytes size = rng.chance(0.85)
                                       ? 2_MiB
                                       : 2_MiB * rng.uniformInt(2, 3);
                if (cuts(at) || !startsIn(at, size).empty())
                    free = false;
                const auto h = phys.create(size);
                ASSERT_TRUE(h.ok());
                batch.emplace_back(at, *h);
                at += size;
            }
            if (!free) {
                EXPECT_EQ(table.mapRange(batch).code(),
                          Errc::alreadyMapped);
                for (const auto &[v, h] : batch)
                    ASSERT_TRUE(phys.release(h).ok());
                continue;
            }
            if (rng.chance(0.5)) {
                ASSERT_TRUE(table.mapRange(batch).ok());
            } else {
                for (const auto &[v, h] : batch)
                    ASSERT_TRUE(table.map(v, h).ok());
            }
            for (const auto &[v, h] : batch)
                model[v] = Mapped{h, *phys.sizeOf(h), false};
        } else {
            // Unmap or setAccess a range on a 1 MiB grid, so some
            // ends land inside chunks.
            const VirtAddr va = lo + rng.uniformInt(0, 95) * 1_MiB;
            const Bytes size = rng.uniformInt(1, 16) * 1_MiB;
            const auto victims = startsIn(va, size);
            const auto stats = table.rangeStats(va, size);
            Bytes bytes = 0;
            for (const VirtAddr v : victims)
                bytes += model.at(v).size;
            ASSERT_EQ(stats.chunks, victims.size()) << step;
            ASSERT_EQ(stats.bytes, bytes) << step;
            if (op < 8) {
                Errc want = Errc::ok;
                if (cuts(va) || cuts(va + size))
                    want = Errc::invalidValue;
                else if (victims.empty())
                    want = Errc::notMapped;
                ASSERT_EQ(table.unmap(va, size).code(), want) << step;
                if (want == Errc::ok) {
                    for (const VirtAddr v : victims) {
                        ASSERT_TRUE(
                            phys.release(model.at(v).handle).ok());
                        model.erase(v);
                    }
                }
            } else {
                const Errc want =
                    victims.empty() ? Errc::notMapped : Errc::ok;
                ASSERT_EQ(table.setAccess(va, size).code(), want)
                    << step;
                for (const VirtAddr v : victims)
                    model.at(v).accessible = true;
            }
        }
        const auto entries = table.mappingsIn(lo, 256_MiB);
        ASSERT_EQ(entries.size(), model.size()) << step;
        auto it = model.begin();
        for (const auto &e : entries) {
            ASSERT_EQ(e.va, it->first) << step;
            ASSERT_EQ(e.handle, it->second.handle) << step;
            ASSERT_EQ(e.size, it->second.size) << step;
            ASSERT_EQ(e.accessible, it->second.accessible) << step;
            // Any byte of the chunk translates to its handle.
            ASSERT_EQ(*table.translate(e.va + e.size - 1), e.handle);
            ++it;
        }
        ASSERT_EQ(table.mappingCount(), model.size());
    }
}
