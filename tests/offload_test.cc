/**
 * @file
 * Host-offload tier tests: HostPool accounting, eviction-policy
 * ranking, the device's async copy lanes, GMLake's spill/fault
 * cooperation (cache trims keep stitched structures, which still
 * tear down cleanly with members spilled; live spills keep ids and
 * VAs valid), prefetch overlap, engine integration with
 * touch/prefetch trace events, determinism, and a threaded run that
 * gives TSan real concurrency over the copy-lane code paths.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "alloc/caching_allocator.hh"
#include "core/gmlake_allocator.hh"
#include "offload/eviction_policy.hh"
#include "offload/host_pool.hh"
#include "offload/offload_manager.hh"
#include "sim/session.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "support/units.hh"
#include "vmm/device.hh"
#include "workload/trace.hh"

using namespace gmlake;
using namespace gmlake::literals;
using offload::OffloadConfig;
using offload::OffloadManager;
using offload::PolicyKind;

// ----------------------------------------------------------- pool

TEST(HostPool, StagesWithinCapacityAndTracksPeak)
{
    offload::HostPool pool(1_GiB);
    EXPECT_TRUE(pool.tryStage(600_MiB));
    EXPECT_FALSE(pool.tryStage(600_MiB)); // would exceed capacity
    EXPECT_EQ(pool.stagedBytes(), 600_MiB);
    EXPECT_EQ(pool.refusedCount(), 1u);
    EXPECT_TRUE(pool.tryStage(400_MiB));
    EXPECT_EQ(pool.peakStagedBytes(), 1000_MiB);
    pool.unstage(600_MiB);
    EXPECT_EQ(pool.stagedBytes(), 400_MiB);
    EXPECT_EQ(pool.peakStagedBytes(), 1000_MiB);
    EXPECT_EQ(pool.stageCount(), 2u);
}

// --------------------------------------------------------- policy

TEST(EvictionPolicy, LruRanksColdestFirst)
{
    std::vector<offload::Victim> victims = {
        {1, 100, 50, 0}, {2, 10, 20, 0}, {3, 500, 20, 0}};
    offload::LruPolicy policy;
    policy.rank(victims);
    EXPECT_EQ(victims[0].id, 2u); // lastTouch 20, id tie-break
    EXPECT_EQ(victims[1].id, 3u);
    EXPECT_EQ(victims[2].id, 1u);
}

TEST(EvictionPolicy, SizeAwareRanksLargestFirst)
{
    std::vector<offload::Victim> victims = {
        {1, 100, 50, 0}, {2, 500, 99, 0}, {3, 500, 20, 0}};
    offload::SizeAwarePolicy policy;
    policy.rank(victims);
    EXPECT_EQ(victims[0].id, 3u); // size tie: colder first
    EXPECT_EQ(victims[1].id, 2u);
    EXPECT_EQ(victims[2].id, 1u);
}

TEST(EvictionPolicy, KindNamesRoundTrip)
{
    for (const PolicyKind kind :
         {PolicyKind::lru, PolicyKind::sizeAware}) {
        const auto parsed =
            offload::parsePolicyKind(offload::policyKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
        EXPECT_STREQ(offload::makePolicy(kind)->name(),
                     offload::policyKindName(kind));
    }
    EXPECT_FALSE(offload::parsePolicyKind("mru").has_value());
}

// ------------------------------------------------------ copy lanes

TEST(CopyLanes, SameDirectionSerializesAndWaitStalls)
{
    vmm::Device device;
    const Tick done1 = *device.copyD2HAsync(1_GiB);
    const Tick done2 = *device.copyD2HAsync(1_GiB);
    EXPECT_GT(done2, done1); // one lane per direction
    // The opposite direction has its own lane: it completes before
    // the second D2H despite being submitted after it.
    const Tick doneH2d = *device.copyH2DAsync(1_GiB);
    EXPECT_LT(doneH2d, done2);

    const Tick before = device.now();
    EXPECT_EQ(device.copyWait(before - 1), 0); // already past
    const Tick stalled = device.copyWait(done2);
    EXPECT_EQ(stalled, done2 - before);
    EXPECT_EQ(device.counters().copyStallNs, stalled);
    EXPECT_EQ(device.counters().d2hCopies, 2u);
    EXPECT_EQ(device.counters().h2dCopies, 1u);
    EXPECT_EQ(device.counters().d2hBytes, 2 * 1_GiB);
}

// ------------------------------------------- gmlake spill / fault

namespace
{

struct LakeRig
{
    vmm::Device device;
    core::GMLakeAllocator lake;
    OffloadManager tier;

    explicit LakeRig(Bytes capacity, OffloadConfig config = {},
                     core::GMLakeConfig lakeConfig = {})
        : device(vmm::DeviceConfig{capacity, 2_MiB, {}}),
          lake(device, lakeConfig),
          tier(device, lake, config)
    {
    }

    alloc::AllocId
    alloc(Bytes bytes, std::size_t session = 0)
    {
        const auto got = lake.allocate(bytes);
        EXPECT_TRUE(got.ok());
        tier.onAllocated(got->id, bytes, session);
        return got->id;
    }

    void
    release(alloc::AllocId id)
    {
        tier.onFreed(id);
        ASSERT_TRUE(lake.deallocate(id).ok());
    }

    /**
     * Free @p ids, then allocate their total back as one request:
     * GMLake stitches the freed blocks into one sBlock. Leaves the
     * sBlock cached and every stream synchronized.
     */
    void
    stitchFreed(std::initializer_list<alloc::AllocId> ids, Bytes total)
    {
        for (const alloc::AllocId id : ids)
            release(id);
        lake.deviceSynchronize();
        release(alloc(total));
        lake.deviceSynchronize();
        ASSERT_EQ(lake.strategy().stitches, 1u);
        ASSERT_EQ(lake.sBlockCount(), 1u);
    }

    /**
     * Flush the cache with nothing live: the books must audit clean
     * and the device must hold no chunk, mapping or reservation.
     */
    void
    expectEmptyAfterFlush()
    {
        lake.emptyCache();
        lake.auditInvariants();
        EXPECT_EQ(device.mappings().mappingCount(), 0u);
        EXPECT_EQ(device.vaSpace().reservationCount(), 0u);
        EXPECT_EQ(device.phys().liveHandles(), 0u);
    }
};

} // namespace

TEST(GmlakeOffload, OomSpillsLiveVictimAndTouchFaultsBack)
{
    LakeRig rig(1_GiB);
    const auto a = rig.alloc(600_MiB);
    // B does not fit next to A: the tier must spill A (live!) while
    // keeping its allocation id and virtual address valid.
    const auto b = rig.alloc(600_MiB);
    rig.lake.checkConsistency();
    EXPECT_EQ(rig.tier.stats().evictedBytes, 600_MiB);
    EXPECT_EQ(rig.tier.stats().evictions, 1u);
    EXPECT_EQ(rig.tier.spilledCount(), 1u);
    EXPECT_EQ(rig.lake.spilledBytes(), 600_MiB);
    EXPECT_GT(rig.device.counters().copyStallNs, 0);

    // Touching A faults it back, which must displace B.
    ASSERT_TRUE(rig.tier.touch(a).ok());
    rig.lake.checkConsistency();
    EXPECT_EQ(rig.tier.stats().faults, 1u);
    EXPECT_EQ(rig.tier.stats().faultedBytes, 600_MiB);
    EXPECT_EQ(rig.tier.stats().evictedBytes, 2 * 600_MiB);
    EXPECT_EQ(rig.tier.spilledCount(), 1u); // now B

    // Freeing the spilled B discards its host copy without traffic.
    rig.tier.onFreed(b);
    ASSERT_TRUE(rig.lake.deallocate(b).ok());
    EXPECT_EQ(rig.tier.hostPool().stagedBytes(), 0u);
    rig.tier.onFreed(a);
    ASSERT_TRUE(rig.lake.deallocate(a).ok());
    rig.lake.checkConsistency();
}

TEST(GmlakeOffload, CacheTrimKeepsStitchedStructures)
{
    LakeRig rig(1_GiB);
    // Build a stitched pattern: two 300 MiB blocks, freed, then a
    // 600 MiB request that stitches them.
    const auto a = rig.alloc(300_MiB);
    const auto b = rig.alloc(300_MiB);
    rig.tier.onFreed(a);
    ASSERT_TRUE(rig.lake.deallocate(a).ok());
    rig.tier.onFreed(b);
    ASSERT_TRUE(rig.lake.deallocate(b).ok());
    rig.lake.deviceSynchronize();
    const auto c = rig.alloc(600_MiB);
    EXPECT_EQ(rig.lake.strategy().stitches, 1u);
    ASSERT_EQ(rig.lake.sBlockCount(), 1u);
    rig.tier.onFreed(c);
    ASSERT_TRUE(rig.lake.deallocate(c).ok());
    rig.lake.deviceSynchronize();

    // Trim the cache: the members' physical memory comes back, but
    // the stitched sBlock (and the pattern tape) survives.
    const Bytes trimmed = rig.lake.trimCache(600_MiB);
    EXPECT_GE(trimmed, 600_MiB);
    EXPECT_EQ(rig.lake.sBlockCount(), 1u);
    EXPECT_GE(rig.lake.spilledBytes(), 600_MiB);
    rig.lake.checkConsistency();

    // The repeat request faults the members in under the existing
    // stitched VA: an exact-match hit, zero new stitches, and — with
    // no live data spilled — zero copy traffic.
    const auto evictedBefore = rig.tier.stats().evictedBytes;
    const auto faultedBefore = rig.tier.stats().faultedBytes;
    const auto c2 = rig.alloc(600_MiB);
    EXPECT_EQ(rig.lake.strategy().stitches, 1u);
    EXPECT_EQ(rig.lake.spilledBytes(), 0u);
    EXPECT_EQ(rig.tier.stats().evictedBytes, evictedBefore);
    EXPECT_EQ(rig.tier.stats().faultedBytes, faultedBefore);
    rig.lake.checkConsistency();
    rig.release(c2);

    // Spill the members again: nothing is mapped under the stitched
    // VA any more, and flushing the cache must still tear the sBlock
    // down without leaking a mapping or a reservation.
    rig.lake.deviceSynchronize();
    EXPECT_GE(rig.lake.trimCache(600_MiB), 600_MiB);
    EXPECT_EQ(rig.lake.spilledBytes(), 600_MiB);
    EXPECT_EQ(rig.lake.sBlockCount(), 1u);
    rig.expectEmptyAfterFlush();
}

TEST(GmlakeOffload, SplitDestroysPartlySpilledStitch)
{
    LakeRig rig(1_GiB);
    rig.stitchFreed({rig.alloc(400_MiB), rig.alloc(200_MiB)}, 600_MiB);
    // Both members went idle together, so the trim spills the lower
    // id first: the 400 MiB member.
    EXPECT_GE(rig.lake.trimCache(400_MiB), 400_MiB);
    EXPECT_EQ(rig.lake.spilledBytes(), 400_MiB);

    // A 100 MiB request splits the resident 200 MiB member, which
    // destroys the sBlock over it, hole and all.
    const auto d = rig.alloc(100_MiB);
    EXPECT_EQ(rig.lake.strategy().splits, 1u);
    EXPECT_EQ(rig.lake.spilledBytes(), 400_MiB);
    rig.lake.auditInvariants();

    // The split re-stitched its halves; spill them both and flush.
    rig.release(d);
    rig.lake.deviceSynchronize();
    EXPECT_GE(rig.lake.trimCache(200_MiB), 200_MiB);
    EXPECT_EQ(rig.lake.spilledBytes(), 600_MiB);
    EXPECT_EQ(rig.lake.sBlockCount(), 1u);
    rig.expectEmptyAfterFlush();
}

TEST(GmlakeOffload, StitchFreeDestroysSpilledStitch)
{
    core::GMLakeConfig config;
    config.maxCachedSBlocks = 0; // evict every idle sBlock
    LakeRig rig(1_GiB, {}, config);
    rig.stitchFreed({rig.alloc(300_MiB), rig.alloc(300_MiB)}, 600_MiB);
    EXPECT_GE(rig.lake.trimCache(600_MiB), 600_MiB);
    EXPECT_EQ(rig.lake.spilledBytes(), 600_MiB);

    // The next large request runs StitchFree before its search, and
    // StitchFree evicts the spilled sBlock.
    const auto d = rig.alloc(300_MiB);
    EXPECT_EQ(rig.lake.strategy().stitchFrees, 1u);
    EXPECT_EQ(rig.lake.sBlockCount(), 0u);
    rig.lake.auditInvariants();
    rig.release(d);
    rig.expectEmptyAfterFlush();
}

TEST(GmlakeOffload, PrefetchHidesTheFaultStall)
{
    auto runOnce = [](bool withPrefetch) {
        LakeRig rig(1_GiB);
        const auto a = rig.alloc(400_MiB);
        const auto b = rig.alloc(700_MiB); // spills A
        rig.tier.onFreed(b);
        EXPECT_TRUE(rig.lake.deallocate(b).ok());
        const Tick stallBefore = rig.device.counters().copyStallNs;
        if (withPrefetch) {
            rig.tier.prefetch(a);
            // Compute long enough for the H2D to land.
            rig.device.clock().advance(Tick{1'000'000'000});
        }
        EXPECT_TRUE(rig.tier.touch(a).ok());
        return rig.device.counters().copyStallNs - stallBefore;
    };
    const Tick coldStall = runOnce(false);
    const Tick warmStall = runOnce(true);
    EXPECT_GT(coldStall, 0);
    EXPECT_EQ(warmStall, 0);
}

TEST(GmlakeOffload, PrefetchNeverEvicts)
{
    LakeRig rig(1_GiB);
    const auto a = rig.alloc(600_MiB);
    const auto b = rig.alloc(600_MiB); // spills A
    (void)b;
    const auto statsBefore = rig.tier.stats();
    // No room for A without displacing B: the hint must be dropped.
    rig.tier.prefetch(a);
    EXPECT_EQ(rig.tier.spilledCount(), 1u);
    EXPECT_EQ(rig.tier.stats().prefetches, statsBefore.prefetches);
    EXPECT_EQ(rig.tier.stats().evictions, statsBefore.evictions);
    rig.lake.checkConsistency();
}

TEST(GmlakeOffload, FullHostPoolMeansHonestOom)
{
    OffloadConfig config;
    config.hostCapacity = 100_MiB; // cannot hold a victim
    LakeRig rig(1_GiB, config);
    const auto a = rig.alloc(600_MiB);
    (void)a;
    const auto got = rig.lake.allocate(600_MiB);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code, Errc::outOfMemory);
    EXPECT_EQ(rig.tier.spilledCount(), 0u);
    EXPECT_GE(rig.tier.stats().failedReclaims, 1u);
    rig.lake.checkConsistency();
}

// ------------------------------------------------ caching allocator

TEST(CachingOffload, TrimReleasesWholeFreeSegmentsUpToTarget)
{
    vmm::Device device(vmm::DeviceConfig{4_GiB, 2_MiB, {}});
    alloc::CachingAllocator caching(device);
    std::vector<alloc::AllocId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(caching.allocate(200_MiB).value().id);
    for (const auto id : ids)
        ASSERT_TRUE(caching.deallocate(id).ok());
    const Bytes cached = caching.trimmableBytes();
    EXPECT_GE(cached, 4 * 200_MiB);

    const Bytes trimmed = caching.trimCache(200_MiB);
    EXPECT_GE(trimmed, 200_MiB);
    EXPECT_LT(trimmed, cached); // targeted, not emptyCache
    EXPECT_FALSE(caching.supportsLiveSpill());
    EXPECT_FALSE(caching.spillLive(1).ok());
    caching.checkConsistency();
}

// -------------------------------------------------- engine + traces

namespace
{

/** Two tenants whose combined resident sets oversubscribe 1 GiB. */
workload::Trace
tenantTrace(std::uint64_t seed)
{
    Rng rng(seed);
    workload::TraceBuilder builder;
    const auto weights = builder.alloc(600_MiB, 0);
    builder.compute(1'000'000);
    for (int round = 0; round < 6; ++round) {
        builder.prefetch(weights);
        builder.touch(weights);
        const auto scratch = builder.alloc(
            2_MiB * rng.uniformInt(8, 32), 1);
        builder.compute(5'000'000);
        builder.free(scratch);
    }
    builder.freeAll();
    return builder.take();
}

sim::MultiRunResult
runTenants(bool withOffload, PolicyKind policy = PolicyKind::lru)
{
    const workload::Trace t0 = tenantTrace(7);
    const workload::Trace t1 = tenantTrace(8);
    vmm::Device device(vmm::DeviceConfig{1_GiB, 2_MiB, {}});
    core::GMLakeAllocator lake(device);
    std::unique_ptr<OffloadManager> tier;
    sim::EngineOptions options;
    if (withOffload) {
        OffloadConfig config;
        config.policy = policy;
        tier = std::make_unique<OffloadManager>(device, lake, config);
        options.offload = tier.get();
    }
    sim::SimEngine engine(lake, device, options);
    engine.addSession(sim::Session("t0", &t0));
    engine.addSession(sim::Session("t1", &t1, Tick{2'500'000}));
    auto multi = engine.run();
    lake.checkConsistency();
    return multi;
}

} // namespace

TEST(OffloadEngine, OversubscribedTenantsSurviveOnlyWithTheTier)
{
    const auto without = runTenants(false);
    EXPECT_TRUE(without.anyOom());
    EXPECT_EQ(without.combined.evictedBytes, 0u);
    EXPECT_EQ(without.combined.stallNs, 0);

    const auto with = runTenants(true);
    EXPECT_FALSE(with.anyOom());
    EXPECT_GT(with.combined.evictedBytes, 0u);
    EXPECT_GT(with.combined.faultedBytes, 0u);
    EXPECT_GT(with.combined.stallNs, 0);
    // Tenant attribution: both tenants paid eviction traffic.
    Bytes perSession = 0;
    for (const auto &s : with.sessions) {
        perSession += s.evictedBytes;
        EXPECT_EQ(s.oomRequestedBytes, 0u);
    }
    EXPECT_GT(perSession, 0u);
    EXPECT_LE(perSession, with.combined.evictedBytes);
}

TEST(OffloadEngine, KilledTenantCarriesAnOomPostMortem)
{
    // No offload: the second tenant dies; the post-mortem must name
    // the request and the free-extent/evictable state at death.
    const auto without = runTenants(false);
    bool sawReport = false;
    for (const auto &s : without.sessions) {
        if (!s.oom)
            continue;
        sawReport = true;
        EXPECT_GT(s.oomRequestedBytes, 0u);
        EXPECT_LT(s.oomLargestFree, s.oomRequestedBytes);
    }
    EXPECT_TRUE(sawReport);
}

TEST(OffloadEngine, ReplaysAreDeterministic)
{
    for (const PolicyKind policy :
         {PolicyKind::lru, PolicyKind::sizeAware}) {
        const auto first = runTenants(true, policy);
        const auto second = runTenants(true, policy);
        EXPECT_EQ(first.combined.evictedBytes,
                  second.combined.evictedBytes);
        EXPECT_EQ(first.combined.faultedBytes,
                  second.combined.faultedBytes);
        EXPECT_EQ(first.combined.stallNs, second.combined.stallNs);
        EXPECT_EQ(first.combined.simTime, second.combined.simTime);
        ASSERT_EQ(first.sessions.size(), second.sessions.size());
        for (std::size_t i = 0; i < first.sessions.size(); ++i) {
            EXPECT_EQ(first.sessions[i].evictedBytes,
                      second.sessions[i].evictedBytes);
            EXPECT_EQ(first.sessions[i].faultedBytes,
                      second.sessions[i].faultedBytes);
        }
    }
}

// -------------------------------------------------------- threading

TEST(OffloadThreaded, ParallelRanksMatchSequential)
{
    // Each rank owns a full device + allocator + tier; the thread
    // pool only schedules them. TSan gets real concurrency over the
    // copy-lane and manager code; determinism gets cross-checked
    // against the sequential replay of the same ranks.
    constexpr std::size_t kRanks = 4;
    std::vector<sim::MultiRunResult> sequential(kRanks);
    for (std::size_t r = 0; r < kRanks; ++r) {
        sequential[r] =
            runTenants(true, r % 2 == 0 ? PolicyKind::lru
                                        : PolicyKind::sizeAware);
    }
    std::vector<sim::MultiRunResult> parallel(kRanks);
    parallelFor(kRanks, kRanks, [&](std::size_t r) {
        parallel[r] =
            runTenants(true, r % 2 == 0 ? PolicyKind::lru
                                        : PolicyKind::sizeAware);
    });
    for (std::size_t r = 0; r < kRanks; ++r) {
        EXPECT_FALSE(parallel[r].anyOom());
        EXPECT_EQ(parallel[r].combined.evictedBytes,
                  sequential[r].combined.evictedBytes);
        EXPECT_EQ(parallel[r].combined.faultedBytes,
                  sequential[r].combined.faultedBytes);
        EXPECT_EQ(parallel[r].combined.simTime,
                  sequential[r].combined.simTime);
    }
}
