/**
 * @file
 * VA -> physical-handle mapping table (cuMemMap / cuMemUnmap /
 * cuMemSetAccess). One mapping covers exactly one physical handle;
 * a VA byte can be covered by at most one mapping, but one handle may
 * be mapped at several VAs (that is what virtual memory stitching
 * exploits).
 *
 * Storage is extent-based: virtually-adjacent mappings in the same
 * access state coalesce into one *extent* — a single tree node whose
 * per-chunk handles live in a contiguous vector. Stitching a 2 GiB
 * sBlock from 2 MiB chunks therefore costs one tree splice plus 1024
 * vector appends instead of 1024 tree inserts, and unmapping it is
 * one erase. Range queries (mappingsIn / rangeStats / unmap
 * validation) walk O(extents touched), not O(chunks in the table).
 * The chunk-level semantics of the CUDA API are preserved exactly:
 * extents split at chunk boundaries whenever an unmap or setAccess
 * addresses part of one, and it is still an error to split a chunk.
 * An extent whose chunks all have one size (every GMLake extent)
 * records it, so locating a VA inside the extent — a chunk
 * boundary, the first chunk starting in a range, a split point — is
 * arithmetic rather than a walk from the extent's start.
 *
 * Batched entry points (mapRange / unmapRange / setAccessRange)
 * validate their whole batch first and only then mutate, so a batch
 * that would fail leaves the table (and the handle refcounts)
 * untouched.
 */

#ifndef GMLAKE_VMM_MAPPING_TABLE_HH
#define GMLAKE_VMM_MAPPING_TABLE_HH

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "support/expected.hh"
#include "support/types.hh"

namespace gmlake::vmm
{

class PhysMemory;

class MappingTable
{
  public:
    /** One mapped chunk inside an extent. */
    struct Chunk
    {
        PhysHandle handle;
        Bytes size;
    };

    /**
     * A run of virtually-contiguous chunks in one access state.
     * size is the sum of the chunk sizes; chunkSize is their common
     * size, or 0 once two of them differ.
     */
    struct Extent
    {
        Bytes size = 0;
        Bytes chunkSize = 0;
        bool accessible = false;
        std::vector<Chunk> chunks;
    };

    /** Chunk count and bytes of the mappings starting in a range. */
    struct RangeStats
    {
        std::size_t chunks = 0;
        Bytes bytes = 0;
    };

    /**
     * Checkpoint of the table (vmm/device.hh Device checkpoints).
     * Handle refcounts are not part of it — they live in the
     * PhysMemory slots, restored alongside.
     */
    struct State
    {
        std::map<VirtAddr, Extent> extents;
        std::size_t chunkCount = 0;
    };

    explicit MappingTable(PhysMemory &phys);

    State saveState() const { return State{mExtents, mChunkCount}; }

    /** Replace the table contents with @p state. */
    void
    restoreState(const State &state)
    {
        mExtents = state.extents;
        mChunkCount = state.chunkCount;
    }

    /** Map @p handle (whole) at @p va. The VA range must be free. */
    Status map(VirtAddr va, PhysHandle handle);

    /**
     * Map a batch of (va, handle) pairs, each handle whole at its
     * va. The batch must be sorted by va with disjoint targets; all
     * targets are validated against the table (and each other)
     * before any mapping is installed — on error nothing changes.
     * Consecutive pairs whose ranges abut coalesce into one extent.
     */
    Status mapRange(
        std::span<const std::pair<VirtAddr, PhysHandle>> batch);

    /**
     * Remove all mappings inside [va, va+size). The range boundary
     * must not split a mapping.
     */
    Status unmap(VirtAddr va, Bytes size);

    /**
     * unmap() that also sets @p stats to the rangeStats() of the
     * range before the call, found in the same search — what
     * cuMemUnmap is charged for. Set on error too.
     */
    Status unmap(VirtAddr va, Bytes size, RangeStats &stats);

    /**
     * Batched unmap of disjoint ranges: every range is validated
     * first (boundary and coverage rules of unmap()); on error the
     * table is untouched.
     */
    Status unmapRange(
        std::span<const std::pair<VirtAddr, Bytes>> ranges);

    /** Grant read/write access to every mapping in [va, va+size). */
    Status setAccess(VirtAddr va, Bytes size);

    /** setAccess() reporting rangeStats() like unmap(va, size, stats). */
    Status setAccess(VirtAddr va, Bytes size, RangeStats &stats);

    /**
     * Batched setAccess of disjoint ranges, validate-then-apply
     * like unmapRange().
     */
    Status setAccessRange(
        std::span<const std::pair<VirtAddr, Bytes>> ranges);

    /** Mappings starting inside [va, va+size), in address order. */
    struct Entry
    {
        VirtAddr va;
        Bytes size;
        PhysHandle handle;
        bool accessible;
    };
    std::vector<Entry> mappingsIn(VirtAddr va, Bytes size) const;
    /** Allocation-free variant: clears and fills @p out. */
    void mappingsIn(VirtAddr va, Bytes size,
                    std::vector<Entry> &out) const;

    /** True when any mapping starts inside [va, va+size). */
    bool hasMappingsIn(VirtAddr va, Bytes size) const;

    /**
     * Count and total bytes of the mappings starting inside
     * [va, va+size) without materializing them — O(extents touched)
     * (interior and uniform extents contribute in O(1)).
     */
    RangeStats rangeStats(VirtAddr va, Bytes size) const;

    /** True when every byte of [va, va+size) is mapped + accessible. */
    bool accessible(VirtAddr va, Bytes size) const;

    /** Physical handle backing the byte at @p va, if mapped. */
    Expected<PhysHandle> translate(VirtAddr va) const;

    /** Number of chunk-level mappings (not extents). */
    std::size_t mappingCount() const { return mChunkCount; }
    /** Number of coalesced extents backing them. */
    std::size_t extentCount() const { return mExtents.size(); }

  private:
    using ExtentMap = std::map<VirtAddr, Extent>;

    PhysMemory &mPhys;
    /** va -> extent; extents are disjoint, never empty. */
    ExtentMap mExtents;
    std::size_t mChunkCount = 0;
    /** Reusable scratch for batch validation (handle sizes). */
    std::vector<Bytes> mSizeScratch;

    /** True when [va, va+size) overlaps an existing extent. */
    bool overlaps(VirtAddr va, Bytes size) const;

    /** Append a chunk to @p extent, keeping size and chunkSize. */
    static void appendChunk(Extent &extent, PhysHandle handle,
                            Bytes size);

    /**
     * Number of chunks of @p extent whose start VA is below @p va
     * (0..chunks): the index of the first chunk starting at or
     * after it.
     */
    static std::size_t chunksStartingBefore(VirtAddr extentVa,
                                            const Extent &extent,
                                            VirtAddr va);

    /**
     * Visit every chunk of @p extent whose start VA lies in
     * [lo, hi), in address order: fn(chunkVa, chunk) returns false
     * to stop. The one encoding of the "mapping starts in range"
     * rule every range query shares.
     */
    template <typename Fn>
    static void
    forEachChunkStartingIn(VirtAddr extentVa, const Extent &extent,
                           VirtAddr lo, VirtAddr hi, Fn &&fn)
    {
        if (extent.chunkSize != 0) {
            for (std::size_t i =
                     chunksStartingBefore(extentVa, extent, lo);
                 i < extent.chunks.size(); ++i) {
                const VirtAddr chunkVa =
                    extentVa + static_cast<VirtAddr>(i) *
                                   extent.chunkSize;
                if (chunkVa >= hi || !fn(chunkVa, extent.chunks[i]))
                    break;
            }
            return;
        }
        VirtAddr cursor = extentVa;
        for (const Chunk &chunk : extent.chunks) {
            if (cursor >= hi)
                break;
            if (cursor >= lo && !fn(cursor, chunk))
                break;
            cursor += chunk.size;
        }
    }

    /** rangeStats() restricted to the chunks of one extent. */
    static RangeStats statsStartingIn(VirtAddr extentVa,
                                      const Extent &extent,
                                      VirtAddr lo, VirtAddr hi);

    /**
     * rangeStats() of [va, end), where @p first is
     * mExtents.lower_bound(va).
     */
    RangeStats statsFrom(ExtentMap::const_iterator first, VirtAddr va,
                         VirtAddr end) const;

    /**
     * Chunk index of the boundary at @p va inside @p extent
     * (0..chunks); SIZE_MAX when @p va falls strictly inside a
     * chunk.
     */
    static std::size_t chunkBoundary(VirtAddr extentVa,
                                     const Extent &extent,
                                     VirtAddr va);

    /**
     * Split the extent at @p it at chunk index @p at (must be a
     * proper interior boundary); returns the iterator of the new
     * tail extent.
     */
    ExtentMap::iterator splitExtent(ExtentMap::iterator it,
                                    std::size_t at);

    /**
     * Validation half of unmap() (the table is not modified), with
     * @p first = mExtents.lower_bound(va); fills @p stats.
     */
    Status checkUnmap(ExtentMap::const_iterator first, VirtAddr va,
                      Bytes size, RangeStats &stats) const;
    /** unmap() minus the validation, from @p first as above. */
    void unmapValidated(ExtentMap::iterator first, VirtAddr va,
                        Bytes size);
    /** setAccess() minus the validation, from @p first as above. */
    void setAccessValidated(ExtentMap::iterator first, VirtAddr va,
                            Bytes size);
    /**
     * Install one validated (va, handle, size) mapping, coalescing
     * with an adjacent still-assembling extent; returns the extent
     * that received the chunk.
     */
    ExtentMap::iterator installChunk(VirtAddr va, PhysHandle handle,
                                     Bytes size);
};

} // namespace gmlake::vmm

#endif // GMLAKE_VMM_MAPPING_TABLE_HH
