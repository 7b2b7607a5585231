/**
 * @file
 * Tests for Algorithm 1 (BestFit): state classification, candidate
 * selection, the fragmentation limit, and the exact-sum swap.
 * Includes a parameterized property sweep over random pools.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/best_fit.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;
using core::FitState;

namespace
{
constexpr Bytes kNoLimit = 0;

/** One size-list entry, carrying its original index. */
struct SizedEntry
{
    Bytes size = 0;
    std::size_t index = 0;
};

/**
 * Gives a descending size list the pool interface bestFitOverPools
 * needs (pointer-like iteration + lower_bound).
 */
class SizeListPool
{
  public:
    SizeListPool(const std::vector<Bytes> &sizes, const char *what)
    {
        mEntries.reserve(sizes.size());
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            GMLAKE_ASSERT(i == 0 || sizes[i] <= sizes[i - 1],
                          what, " sizes must be sorted descending");
            mEntries.push_back(SizedEntry{sizes[i], i});
        }
        mRefs.reserve(mEntries.size());
        for (const SizedEntry &e : mEntries)
            mRefs.push_back(&e);
    }

    using value_type = const SizedEntry *;

    auto begin() const { return mRefs.begin(); }
    auto end() const { return mRefs.end(); }

    /** First entry whose size is <= @p size (descending order). */
    auto
    lower_bound(Bytes size) const
    {
        return std::lower_bound(
            mRefs.begin(), mRefs.end(), size,
            [](const SizedEntry *e, Bytes b) { return e->size > b; });
    }

  private:
    std::vector<SizedEntry> mEntries;
    std::vector<const SizedEntry *> mRefs;
};

/** Index-based result of the size-list search. */
struct FitResult
{
    FitState state = FitState::insufficient;
    /** S1 only: true when the exact match is an sBlock. */
    bool useSBlock = false;
    /** S1 with useSBlock: index into the sBlock size list. */
    std::size_t sIndex = 0;
    /** Candidate indices into the pBlock size list (all states). */
    std::vector<std::size_t> pIndices;
    /** Total size of the candidates in pIndices. */
    Bytes candidateBytes = 0;
};

/**
 * Algorithm 1 over plain size lists (every block eligible): the
 * pure-function surface the cases below exercise exhaustively.
 *
 * @param sBlockSizes inactive sBlock sizes, descending
 * @param pBlockSizes inactive pBlock sizes, descending
 */
FitResult
bestFit(Bytes bSize, const std::vector<Bytes> &sBlockSizes,
        const std::vector<Bytes> &pBlockSizes, Bytes fragLimit)
{
    const SizeListPool sPool(sBlockSizes, "sBlock");
    const SizeListPool pPool(pBlockSizes, "pBlock");
    std::vector<const SizedEntry *> candidates;
    const auto fit = core::bestFitOverPools(
        bSize, sPool, pPool, fragLimit,
        [](const SizedEntry *) { return true; },
        [](const SizedEntry *) { return true; }, candidates);

    FitResult result;
    result.state = fit.state;
    result.candidateBytes = fit.candidateBytes;
    if (fit.sBlock != nullptr) {
        result.useSBlock = true;
        result.sIndex = fit.sBlock->index;
        return result;
    }
    result.pIndices.reserve(candidates.size());
    for (const SizedEntry *e : candidates)
        result.pIndices.push_back(e->index);
    return result;
}

} // namespace

TEST(BestFit, ExactMatchPrefersSBlock)
{
    const auto r = bestFit(8_MiB, {8_MiB}, {8_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::exactMatch);
    EXPECT_TRUE(r.useSBlock);
    EXPECT_EQ(r.sIndex, 0u);
}

TEST(BestFit, ExactMatchOnPBlockWhenNoSBlock)
{
    const auto r = bestFit(8_MiB, {16_MiB}, {10_MiB, 8_MiB, 4_MiB},
                           kNoLimit);
    EXPECT_EQ(r.state, FitState::exactMatch);
    EXPECT_FALSE(r.useSBlock);
    ASSERT_EQ(r.pIndices.size(), 1u);
    EXPECT_EQ(r.pIndices[0], 1u);
}

TEST(BestFit, SingleBlockPicksSmallestSufficient)
{
    const auto r =
        bestFit(6_MiB, {}, {20_MiB, 12_MiB, 10_MiB, 4_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::singleBlock);
    ASSERT_EQ(r.pIndices.size(), 1u);
    EXPECT_EQ(r.pIndices[0], 2u); // the 10 MiB block
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, MultiBlocksAccumulatesGreedily)
{
    const auto r = bestFit(10_MiB, {}, {6_MiB, 4_MiB, 2_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::multiBlocks);
    ASSERT_EQ(r.pIndices.size(), 2u);
    EXPECT_EQ(r.pIndices[0], 0u);
    EXPECT_EQ(r.pIndices[1], 1u);
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, InsufficientReturnsAllUsableCandidates)
{
    const auto r = bestFit(20_MiB, {}, {6_MiB, 4_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_EQ(r.pIndices.size(), 2u);
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, EmptyPoolsAreInsufficient)
{
    const auto r = bestFit(2_MiB, {}, {}, kNoLimit);
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_TRUE(r.pIndices.empty());
}

TEST(BestFit, SBlockNeverUsedForNonExactStates)
{
    // A larger sBlock exists but only pBlocks may serve S2/S3.
    const auto r = bestFit(6_MiB, {32_MiB}, {4_MiB, 4_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::multiBlocks);
}

TEST(BestFit, FragLimitSkipsSmallCandidates)
{
    // 4 MiB blocks are below the 8 MiB limit: not stitchable.
    const auto r = bestFit(12_MiB, {},
                           {8_MiB, 4_MiB, 4_MiB, 4_MiB}, 8_MiB);
    // Only the 8 MiB block qualifies -> insufficient.
    EXPECT_EQ(r.state, FitState::insufficient);
    EXPECT_EQ(r.candidateBytes, 8_MiB);
    ASSERT_EQ(r.pIndices.size(), 1u);
    EXPECT_EQ(r.pIndices[0], 0u);
}

TEST(BestFit, FragLimitStillAllowsExactMatch)
{
    const auto r = bestFit(4_MiB, {}, {4_MiB}, 8_MiB);
    EXPECT_EQ(r.state, FitState::exactMatch);
}

TEST(BestFit, ExactSumSwapAvoidsOvershoot)
{
    // Greedy picks 6+4=10 for an 8 MiB request (overshoot 2); a
    // 2 MiB block completes 6+2=8 exactly and must be swapped in.
    const auto r = bestFit(8_MiB, {}, {6_MiB, 4_MiB, 2_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::multiBlocks);
    ASSERT_EQ(r.pIndices.size(), 2u);
    EXPECT_EQ(r.pIndices[0], 0u);
    EXPECT_EQ(r.pIndices[1], 2u); // swapped from index 1 to index 2
    EXPECT_EQ(r.candidateBytes, 8_MiB);
}

TEST(BestFit, SingleBlockBeatsAccumulation)
{
    // 10 > 8: a single block exists, S2 wins over stitching smaller.
    const auto r = bestFit(8_MiB, {}, {10_MiB, 6_MiB, 4_MiB}, kNoLimit);
    EXPECT_EQ(r.state, FitState::singleBlock);
    EXPECT_EQ(r.candidateBytes, 10_MiB);
}

TEST(BestFit, UnsortedInputPanics)
{
    EXPECT_THROW(bestFit(8_MiB, {}, {4_MiB, 6_MiB}, kNoLimit),
                 std::logic_error);
}

// ------------------------------------------------- property sweep

struct SweepParam
{
    std::uint64_t seed;
    Bytes fragLimit;
};

class BestFitSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(BestFitSweep, InvariantsHoldOnRandomPools)
{
    Rng rng(GetParam().seed);
    const Bytes fragLimit = GetParam().fragLimit;

    for (int round = 0; round < 200; ++round) {
        std::vector<Bytes> pSizes;
        const int n = static_cast<int>(rng.uniformInt(0, 24));
        for (int i = 0; i < n; ++i)
            pSizes.push_back(2_MiB * rng.uniformInt(1, 64));
        std::sort(pSizes.rbegin(), pSizes.rend());

        std::vector<Bytes> sSizes;
        const int m = static_cast<int>(rng.uniformInt(0, 8));
        for (int i = 0; i < m; ++i)
            sSizes.push_back(2_MiB * rng.uniformInt(1, 64));
        std::sort(sSizes.rbegin(), sSizes.rend());

        const Bytes want = 2_MiB * rng.uniformInt(1, 96);
        const auto r = bestFit(want, sSizes, pSizes, fragLimit);

        const Bytes usable = std::accumulate(
            pSizes.begin(), pSizes.end(), Bytes{0},
            [&](Bytes acc, Bytes s) {
                return acc + ((fragLimit == 0 || s >= fragLimit ||
                               s == want)
                                  ? s
                                  : 0);
            });

        switch (r.state) {
          case FitState::exactMatch:
            if (r.useSBlock) {
                EXPECT_EQ(sSizes[r.sIndex], want);
            } else {
                ASSERT_EQ(r.pIndices.size(), 1u);
                EXPECT_EQ(pSizes[r.pIndices[0]], want);
            }
            break;
          case FitState::singleBlock:
            ASSERT_EQ(r.pIndices.size(), 1u);
            EXPECT_GT(pSizes[r.pIndices[0]], want);
            // No exact pBlock may exist in this state.
            EXPECT_EQ(std::count(pSizes.begin(), pSizes.end(), want),
                      0);
            break;
          case FitState::multiBlocks: {
            Bytes sum = 0;
            std::vector<std::size_t> seen;
            for (std::size_t idx : r.pIndices) {
                sum += pSizes[idx];
                EXPECT_EQ(std::count(seen.begin(), seen.end(), idx),
                          0) << "duplicate candidate";
                seen.push_back(idx);
                EXPECT_LT(pSizes[idx], want);
            }
            EXPECT_EQ(sum, r.candidateBytes);
            EXPECT_GE(sum, want);
            break;
          }
          case FitState::insufficient:
            EXPECT_LT(r.candidateBytes, want);
            // The candidates really are everything usable.
            EXPECT_LE(r.candidateBytes, usable);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BestFitSweep,
    ::testing::Values(SweepParam{1, 0}, SweepParam{2, 0},
                      SweepParam{3, 8_MiB}, SweepParam{4, 8_MiB},
                      SweepParam{5, 32_MiB}, SweepParam{6, 2_MiB},
                      SweepParam{7, 128_MiB}, SweepParam{8, 0}));
