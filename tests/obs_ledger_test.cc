/**
 * @file
 * obs::Ledger unit tests on synthetic event streams: the token join
 * between alloc spans and their in-scope events, binding intervals,
 * point-in-time queries, and origin labelling.
 *
 * The join regression test matters most: the `alloc` span is stamped
 * with the allocate() *start* time but emitted after the scope body,
 * so in the merged (simTime-sorted) stream it precedes the events it
 * must join with. An order-dependent single-pass join reads an empty
 * scope and mislabels every allocation "small-path, 0 device calls".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "obs/ledger.hh"
#include "obs/recorder.hh"

using namespace gmlake;
using namespace gmlake::obs;

namespace
{

/** Emit one full allocate() scope the way the allocator does: inner
 *  events first (later simulated times), the alloc span last with
 *  the scope's start time. */
void
emitAllocScope(Recorder &rec, std::uint32_t track,
               std::uint64_t allocId, std::uint64_t token,
               std::uint64_t t0, std::uint64_t bytes,
               AllocPhase phase)
{
    rec.span(EvName::devMap, EventCat::device, track, t0 + 10, 30,
             bytes, 0, token);
    rec.span(EvName::devSetAccess, EventCat::device, track, t0 + 40,
             5, 1, 0, token);
    rec.instant(EvName::allocPhase, EventCat::alloc, track, t0 + 50,
                static_cast<std::uint64_t>(phase), bytes, token);
    // The span sorts *before* everything above despite being emitted
    // last — that is the whole point of this fixture.
    rec.span(EvName::alloc, EventCat::alloc, track, t0, 60, allocId,
             bytes, token);
}

} // namespace

TEST(ObsLedger, JoinSurvivesAllocSpanSortingFirst)
{
    Recorder rec;
    rec.beginRun("r");
    const std::uint32_t track = rec.track("alloc");

    emitAllocScope(rec, track, /*allocId=*/7, /*token=*/101,
                   /*t0=*/1000, /*bytes=*/64 << 20,
                   AllocPhase::s4Insufficient);

    const RecorderSnapshot snap = rec.snapshot();
    // Fixture sanity: the merged stream really does put the alloc
    // span first.
    ASSERT_EQ(snap.events.front().name, EvName::alloc);

    const Ledger ledger = Ledger::build(snap);
    const AllocProvenance *p = ledger.alloc(7);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->phase, AllocPhase::s4Insufficient);
    EXPECT_EQ(p->deviceCalls, 2u);
    EXPECT_EQ(p->deviceCostNs, 35u);
    EXPECT_EQ(p->requested, std::uint64_t{64 << 20});
    EXPECT_EQ(p->token, 101u);
    EXPECT_EQ(p->originLabel(), "fresh reserve");
}

TEST(ObsLedger, StitchMembersAndOffloadJoinByToken)
{
    Recorder rec;
    rec.beginRun("r");
    const std::uint32_t track = rec.track("alloc");

    const std::uint64_t token = 55;
    const std::uint64_t members[] = {3, 5, 8};
    rec.instant(EvName::reclaimRung, EventCat::alloc, track, 1005, 1,
                0, token);
    rec.span(EvName::spill, EventCat::offload, track, 1010, 20, 3,
             2 << 20, token);
    rec.span(EvName::faultIn, EventCat::offload, track, 1040, 20, 3,
             2 << 20, token);
    Event stitch;
    stitch.simTime = 1060;
    stitch.track = track;
    stitch.name = EvName::stitch;
    stitch.kind = EventKind::instant;
    stitch.cat = EventCat::alloc;
    stitch.a0 = 42;       // sBlock id
    stitch.a1 = 6 << 20;
    stitch.a2 = token;
    rec.emitWithBlob(stitch, members, 3);
    rec.instant(EvName::allocPhase, EventCat::alloc, track, 1070,
                static_cast<std::uint64_t>(AllocPhase::s3MultiBlocks),
                6 << 20, token);
    rec.span(EvName::alloc, EventCat::alloc, track, 1000, 80, 9,
             6 << 20, token);

    // Another scope with a different token must not bleed in.
    emitAllocScope(rec, track, 10, 56, 2000, 1 << 20,
                   AllocPhase::s1ExactMatch);

    const Ledger ledger = Ledger::build(rec.snapshot());
    const AllocProvenance *p = ledger.alloc(9);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->phase, AllocPhase::s3MultiBlocks);
    EXPECT_EQ(p->sBlockId, 42u);
    ASSERT_EQ(p->members.size(), 3u);
    EXPECT_EQ(p->members[0], 3u);
    EXPECT_EQ(p->members[2], 8u);
    EXPECT_EQ(p->spills, 1u);
    EXPECT_EQ(p->faultIns, 1u);
    EXPECT_EQ(p->reclaimRungs, 1u);
    EXPECT_EQ(p->originLabel(), "stitch of 3 + post-spill remap");

    const AllocProvenance *q = ledger.alloc(10);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->phase, AllocPhase::s1ExactMatch);
    EXPECT_EQ(q->members.size(), 0u);
    EXPECT_EQ(q->spills, 0u);
}

TEST(ObsLedger, FailedAllocationsAreNotPinned)
{
    Recorder rec;
    rec.beginRun("r");
    const std::uint32_t track = rec.track("alloc");
    // a0 = 0 marks a failed allocate() span.
    rec.span(EvName::alloc, EventCat::alloc, track, 100, 10, 0,
             1 << 30, 77);
    const Ledger ledger = Ledger::build(rec.snapshot());
    EXPECT_EQ(ledger.allocCount(), 0u);
}

TEST(ObsLedger, BindingIntervalsAndLiveAt)
{
    Recorder rec;
    rec.beginRun("r");
    const std::uint32_t track = rec.track("engine");

    // tensor 1 bound to alloc 7 over [100, 500); tensor 2 bound to
    // alloc 8 at 300, never freed; tensor 1 rebound to alloc 9 at
    // 600.
    rec.instant(EvName::tensorBind, EventCat::engine, track, 100, 1,
                7, 4 << 20);
    rec.instant(EvName::tensorBind, EventCat::engine, track, 300, 2,
                8, 2 << 20);
    rec.instant(EvName::tensorFree, EventCat::engine, track, 500, 1,
                7);
    rec.instant(EvName::tensorBind, EventCat::engine, track, 600, 1,
                9, 4 << 20);

    const Ledger ledger = Ledger::build(rec.snapshot());
    EXPECT_EQ(ledger.bindingCount(), 3u);

    const auto t1 = ledger.tensor(1);
    ASSERT_EQ(t1.size(), 2u);
    EXPECT_EQ(t1[0]->allocId, 7u);
    EXPECT_EQ(t1[0]->boundAt, 100u);
    EXPECT_EQ(t1[0]->freedAt, 500u);
    EXPECT_EQ(t1[1]->allocId, 9u);
    EXPECT_EQ(t1[1]->freedAt, ~std::uint64_t{0});

    // Interval semantics: live on [boundAt, freedAt).
    EXPECT_TRUE(t1[0]->liveAt(100));
    EXPECT_TRUE(t1[0]->liveAt(499));
    EXPECT_FALSE(t1[0]->liveAt(500));
    EXPECT_FALSE(t1[0]->liveAt(99));

    const auto live400 = ledger.liveAt(400);
    ASSERT_EQ(live400.size(), 2u);
    EXPECT_EQ(live400[0]->tensor, 1u);
    EXPECT_EQ(live400[1]->tensor, 2u);

    const auto live550 = ledger.liveAt(550);
    ASSERT_EQ(live550.size(), 1u);
    EXPECT_EQ(live550[0]->tensor, 2u);

    EXPECT_TRUE(ledger.tensor(99).empty());
}

TEST(ObsLedger, ReportsNameUnknownProvenance)
{
    Recorder rec;
    rec.beginRun("r");
    const std::uint32_t track = rec.track("engine");
    // A binding whose allocation predates tracing: report must say
    // so instead of inventing provenance.
    rec.instant(EvName::tensorBind, EventCat::engine, track, 100, 4,
                123, 1 << 20);
    const Ledger ledger = Ledger::build(rec.snapshot());
    std::ostringstream out;
    ledger.reportTensor(out, 4);
    EXPECT_NE(out.str().find("no provenance recorded"),
              std::string::npos);
    std::ostringstream missing;
    ledger.reportTensor(missing, 5);
    EXPECT_NE(missing.str().find("never bound"), std::string::npos);
}

TEST(ObsLedger, DroppedEventsMakeEveryReportPartial)
{
    // A ring of three events keeps the first three of the five below
    // and drops the rest: tensor 3's bind and tensor 1's free are
    // lost. Without the drop count the ledger would call tensor 3
    // "never bound" and tensor 1 "still live" — both wrong.
    RecorderOptions options;
    options.ringCapacity = 3;
    Recorder rec(options);
    rec.beginRun("r");
    const std::uint32_t track = rec.track("engine");
    rec.instant(EvName::tensorBind, EventCat::engine, track, 100, 1,
                7, 4 << 20);
    rec.instant(EvName::tensorBind, EventCat::engine, track, 200, 2,
                8, 2 << 20);
    rec.instant(EvName::tensorFree, EventCat::engine, track, 250, 2,
                8);
    rec.instant(EvName::tensorBind, EventCat::engine, track, 300, 3,
                9, 1 << 20);
    rec.instant(EvName::tensorFree, EventCat::engine, track, 400, 1,
                7);

    const RecorderSnapshot snap = rec.snapshot();
    ASSERT_EQ(snap.dropped, 2u);
    const Ledger ledger = Ledger::build(snap);
    EXPECT_EQ(ledger.dropped(), 2u);

    const std::string partial = "PARTIAL: 2 events dropped";
    auto startsPartial = [&](const std::string &text) {
        return text.rfind(partial, 0) == 0;
    };

    std::ostringstream missing;
    ledger.reportTensor(missing, 3);
    EXPECT_TRUE(startsPartial(missing.str())) << missing.str();
    EXPECT_NE(missing.str().find("not in the recorded prefix"),
              std::string::npos)
        << missing.str();
    EXPECT_EQ(missing.str().find("never bound"), std::string::npos);

    std::ostringstream bound;
    ledger.reportTensor(bound, 1);
    EXPECT_TRUE(startsPartial(bound.str())) << bound.str();
    EXPECT_EQ(bound.str().find("still live"), std::string::npos)
        << bound.str();
    EXPECT_NE(bound.str().find("no free in the recorded prefix"),
              std::string::npos)
        << bound.str();

    std::ostringstream at;
    ledger.reportAt(at, 350);
    EXPECT_TRUE(startsPartial(at.str())) << at.str();

    // A complete recording stays unmarked.
    Recorder full;
    full.beginRun("r");
    const Ledger complete = Ledger::build(full.snapshot());
    EXPECT_EQ(complete.dropped(), 0u);
    std::ostringstream clean;
    complete.reportAt(clean, 0);
    EXPECT_EQ(clean.str().find("PARTIAL"), std::string::npos);
}

TEST(ObsLedger, OriginLabels)
{
    AllocProvenance p;
    p.phase = AllocPhase::smallPath;
    EXPECT_EQ(p.originLabel(), "small-path");
    p.phase = AllocPhase::s1ExactMatch;
    EXPECT_EQ(p.originLabel(), "cache reuse");
    p.phase = AllocPhase::s4Insufficient;
    EXPECT_EQ(p.originLabel(), "fresh reserve");
    p.members = {1, 2};
    EXPECT_EQ(p.originLabel(), "stitch of 2");
    p.phase = AllocPhase::s3MultiBlocks;
    p.members = {1, 2, 3};
    p.faultIns = 1;
    EXPECT_EQ(p.originLabel(), "stitch of 3 + post-spill remap");
}
