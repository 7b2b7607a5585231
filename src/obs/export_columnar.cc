#include "obs/export_columnar.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <vector>

#include "support/columnar_file.hh"
#include "support/logging.hh"

namespace gmlake::obs
{

namespace
{

/** Where each column's field lives in an Event, in file order:
 *  simTime, dur, a0, a1, a2, seq, track, blobOff, blobLen, name,
 *  kind, cat. */
constexpr std::size_t kFields[] = {
    offsetof(Event, simTime), offsetof(Event, dur),
    offsetof(Event, a0),      offsetof(Event, a1),
    offsetof(Event, a2),      offsetof(Event, seq),
    offsetof(Event, track),   offsetof(Event, blobOff),
    offsetof(Event, blobLen), offsetof(Event, name),
    offsetof(Event, kind),    offsetof(Event, cat)};
/** Byte width of each of those fields. */
constexpr std::uint8_t kColumns[] = {8, 8, 8, 8, 8, 4,
                                     4, 4, 4, 2, 1, 1};

/** v2 moved to the shared container. */
constexpr ColumnarFormat kFormat{"GMOBSEV1", 2, kColumns, ".gmo"};

} // namespace

void
writeColumnarTrace(const RecorderSnapshot &snap,
                   const std::string &path)
{
    ColumnarWriter out(path, kFormat);
    // A chunk's columns hold less than one Event per row.
    std::vector<std::uint8_t> buffer(
        sizeof(Event) * std::min(kObsChunkEvents, snap.events.size()));
    for (std::size_t begin = 0; begin < snap.events.size();
         begin += kObsChunkEvents) {
        const std::size_t count =
            std::min(kObsChunkEvents, snap.events.size() - begin);
        const void *columns[kMaxColumns];
        std::uint8_t *at = buffer.data();
        for (std::size_t c = 0; c < std::size(kColumns); ++c) {
            columns[c] = at;
            for (std::size_t i = 0; i < count; ++i, at += kColumns[c])
                std::memcpy(at,
                            reinterpret_cast<const std::uint8_t *>(
                                &snap.events[begin + i]) +
                                kFields[c],
                            kColumns[c]);
        }
        out.writeChunk(static_cast<std::uint32_t>(count), columns);
    }

    std::string meta;
    appendPod(meta, static_cast<std::uint64_t>(snap.blob.size()));
    meta.append(reinterpret_cast<const char *>(snap.blob.data()),
                snap.blob.size() * sizeof(std::uint64_t));
    appendPod(meta, static_cast<std::uint32_t>(snap.tracks.size()));
    for (const TrackInfo &t : snap.tracks) {
        appendPod(meta, t.run);
        appendString(meta, t.name);
    }
    appendPod(meta, static_cast<std::uint32_t>(snap.runs.size()));
    for (const std::string &run : snap.runs)
        appendString(meta, run);
    appendPod(meta, snap.dropped);
    out.endSection("timeline", meta);
    out.finish();
}

RecorderSnapshot
readColumnarTrace(const std::string &path)
{
    const ColumnarFile file = ColumnarFile::open(path, kFormat);
    if (file.sections().size() != 1)
        GMLAKE_FATAL("obs trace '", path, "' has ",
                     file.sections().size(), " sections, expected 1");
    const ColumnarSection &section = file.sections()[0];

    RecorderSnapshot snap;
    ColumnarCursor meta = file.meta(section);
    const auto blobWords = meta.read<std::uint64_t>();
    const std::uint8_t *blob = meta.take(blobWords, 8);
    snap.blob.resize(static_cast<std::size_t>(blobWords));
    if (blobWords != 0)
        std::memcpy(snap.blob.data(), blob, blobWords * 8);
    const auto trackCount = meta.read<std::uint32_t>();
    for (std::uint32_t i = 0; i < trackCount; ++i) {
        TrackInfo t;
        t.run = meta.read<std::uint32_t>();
        t.name = meta.string();
        snap.tracks.push_back(std::move(t));
    }
    const auto runCount = meta.read<std::uint32_t>();
    for (std::uint32_t i = 0; i < runCount; ++i)
        snap.runs.push_back(meta.string());
    snap.dropped = meta.read<std::uint64_t>();
    meta.expectEnd();

    snap.events.reserve(static_cast<std::size_t>(section.events));
    std::uint64_t offset = section.offset;
    for (std::uint64_t left = section.events; left > 0;) {
        const ColumnarChunk c = file.chunk(section, offset, left);
        for (std::uint32_t i = 0; i < c.count; ++i) {
            Event e;
            for (std::size_t col = 0; col < std::size(kColumns); ++col)
                std::memcpy(reinterpret_cast<std::uint8_t *>(&e) +
                                kFields[col],
                            c.columns[col] + i * kColumns[col],
                            kColumns[col]);
            if (e.name >= EvName::count_ ||
                e.kind > EventKind::counter || e.cat > EventCat::sample)
                GMLAKE_FATAL("obs trace '", path, "' event ",
                             snap.events.size(), " has name ",
                             static_cast<int>(e.name), ", kind ",
                             static_cast<int>(e.kind), ", cat ",
                             static_cast<int>(e.cat), " out of range");
            // 64-bit sum: two u32 fields must not wrap past the arena.
            if (e.blobLen != 0 &&
                std::uint64_t{e.blobOff} + e.blobLen > snap.blob.size())
                GMLAKE_FATAL("obs trace '", path,
                             "' blob reference out of bounds");
            snap.events.push_back(e);
        }
        left -= c.count;
        offset = c.next;
    }
    return snap;
}

bool
looksLikeObsTrace(const std::string &path)
{
    return hasColumnarMagic(path, kFormat.magic);
}

} // namespace gmlake::obs
