/**
 * @file
 * Fuzz-lite robustness corpus over the trace and timeline formats: a
 * seeded, deterministic sweep of truncations and bit flips applied
 * to a generated text trace, its packed `.gmt` twin and a recorded
 * `.gmo` timeline. The property is the loader contract, not any
 * particular diagnostic. A mutated text trace either loads (the text
 * format tolerates benign whitespace / comment damage) or is rejected
 * with FatalError/PanicError. A mutated binary file either loads
 * equal to the original or is rejected with FatalError. Nothing may
 * crash, hang, or replay silently different data: a binary file whose
 * event payload was tampered with must be rejected via the per-chunk
 * payload hash of the shared columnar container.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export_columnar.hh"
#include "obs/recorder.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"
#include "workload/binary_trace.hh"
#include "workload/trace.hh"
#include "workload/tracegen.hh"

using namespace gmlake;
using namespace gmlake::literals;
using namespace gmlake::workload;

namespace
{

std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + "gmlake_trace_fuzz_" + name;
}

struct ScopedFile
{
    explicit ScopedFile(std::string p) : path(std::move(p)) {}
    ~ScopedFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Small but representative generated trace (all event kinds). */
const Trace &
corpusTrace()
{
    static const Trace trace = [] {
        TrainConfig cfg;
        cfg.model = findModel("GPT-2");
        cfg.gpus = 1;
        cfg.batchSize = 2;
        cfg.iterations = 2;
        return generateTrainingTrace(cfg);
    }();
    return trace;
}

std::string
corpusText()
{
    std::stringstream buffer;
    corpusTrace().save(buffer);
    return buffer.str();
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * The loader contract for one text mutation: Trace::load either
 * returns a validated trace or throws the project's fatal/panic
 * exceptions. Anything else (std::bad_alloc, segfault, silent
 * partial parse past validate()) fails the test.
 */
void
expectTextContract(const std::string &mutated, const char *what)
{
    std::stringstream in(mutated);
    try {
        const Trace loaded = Trace::load(in);
        loaded.validate();
    } catch (const FatalError &) {
    } catch (const PanicError &) {
    } catch (...) {
        FAIL() << what << ": escaped a non-gmlake exception";
    }
}

/** Small recorded timeline: every event name, counters, blobs. */
const obs::RecorderSnapshot &
corpusTimeline()
{
    static const obs::RecorderSnapshot snap = [] {
        obs::Recorder rec;
        Rng rng(77);
        const auto names =
            static_cast<std::uint64_t>(obs::EvName::count_);
        for (std::uint64_t run = 0; run < 2; ++run) {
            rec.beginRun("fuzz-" + std::to_string(run));
            const std::uint32_t dev = rec.track("device");
            const std::uint32_t mem = rec.track("mem.active");
            for (std::uint64_t i = 0; i < 600; ++i) {
                rec.span(static_cast<obs::EvName>(i % names),
                         obs::EventCat::device, dev, 10 * i, 5,
                         rng.uniformInt(0, 1u << 30), i, run);
                rec.counter(mem, 10 * i + 3,
                            rng.uniformInt(0, 1u << 30));
                if (i % 16 == 0) {
                    const std::uint64_t members[] = {i, i + 1, i + 2};
                    obs::Event stitch;
                    stitch.simTime = 10 * i + 7;
                    stitch.track = dev;
                    stitch.name = obs::EvName::stitch;
                    stitch.cat = obs::EventCat::alloc;
                    rec.emitWithBlob(stitch, members, 3);
                }
            }
        }
        return rec.snapshot();
    }();
    return snap;
}

/** Full `.gmt` decode walk; true when it replays the corpus trace. */
bool
gmtLoadsEqual(const std::string &path)
{
    const std::vector<Event> &want = corpusTrace().events();
    BinaryTraceSource source(path);
    std::size_t i = 0;
    for (const Event *e = source.peek(); e != nullptr;
         source.advance(), e = source.peek(), ++i) {
        if (i >= want.size() ||
            std::tie(e->kind, e->tensor, e->bytes, e->computeNs,
                     e->stream) != std::tie(want[i].kind,
                                            want[i].tensor,
                                            want[i].bytes,
                                            want[i].computeNs,
                                            want[i].stream))
            return false;
    }
    return i == want.size();
}

/** Full `.gmo` read; true when it returns the corpus timeline. */
bool
gmoLoadsEqual(const std::string &path)
{
    const obs::RecorderSnapshot &want = corpusTimeline();
    const obs::RecorderSnapshot got = obs::readColumnarTrace(path);
    const auto fields = [](const obs::Event &e) {
        return std::tie(e.simTime, e.dur, e.a0, e.a1, e.a2, e.seq,
                        e.track, e.blobOff, e.blobLen, e.name, e.kind,
                        e.cat);
    };
    if (got.events.size() != want.events.size() ||
        got.blob != want.blob || got.runs != want.runs ||
        got.dropped != want.dropped ||
        got.tracks.size() != want.tracks.size())
        return false;
    for (std::size_t i = 0; i < want.events.size(); ++i) {
        if (fields(got.events[i]) != fields(want.events[i]))
            return false;
    }
    for (std::size_t i = 0; i < want.tracks.size(); ++i) {
        if (got.tracks[i].name != want.tracks[i].name ||
            got.tracks[i].run != want.tracks[i].run)
            return false;
    }
    return true;
}

/** One binary format under fuzz. */
struct BinaryFormat
{
    const char *name;
    /** The header version this reader no longer accepts. */
    std::uint32_t previousVersion;
    /** Write the pristine corpus to a path. */
    void (*write)(const std::string &path);
    /** Load a path in full: whether it equals the corpus, or throw. */
    bool (*loadsEqual)(const std::string &path);
};

const BinaryFormat kBinaryFormats[] = {
    {"gmt", 2,
     [](const std::string &path) {
         packTrace(corpusTrace(), path, "fuzz");
     },
     gmtLoadsEqual},
    {"gmo", 1,
     [](const std::string &path) {
         obs::writeColumnarTrace(corpusTimeline(), path);
     },
     gmoLoadsEqual},
};

std::vector<char>
pristineBytes(const BinaryFormat &format)
{
    ScopedFile file(scratchPath(std::string("pristine.") + format.name));
    format.write(file.path);
    return readAll(file.path);
}

/** The binary loader contract: equal to the original or FatalError. */
void
expectBinaryContract(const BinaryFormat &format,
                     const std::string &path, const char *what)
{
    try {
        EXPECT_TRUE(format.loadsEqual(path))
            << format.name << " " << what
            << ": loaded data that differs from the original";
    } catch (const FatalError &) {
    } catch (...) {
        FAIL() << format.name << " " << what
               << ": escaped a non-FatalError exception";
    }
}

} // namespace

TEST(TraceFuzz, TextTruncationNeverCrashes)
{
    const std::string text = corpusText();
    ASSERT_GT(text.size(), 64u);
    // Every prefix at a deterministic stride, plus the tight tail.
    for (std::size_t len = 0; len < text.size();
         len += (text.size() > 4096 ? 101 : 7)) {
        expectTextContract(text.substr(0, len), "truncation");
    }
    for (std::size_t back = 1; back <= 32; ++back)
        expectTextContract(text.substr(0, text.size() - back),
                           "tail truncation");
}

TEST(TraceFuzz, TextBitFlipsNeverCrash)
{
    const std::string text = corpusText();
    Rng rng(2024);
    for (int round = 0; round < 400; ++round) {
        std::string mutated = text;
        const std::size_t flips = rng.uniformInt(1, 4);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t at =
                rng.uniformInt(0, mutated.size() - 1);
            mutated[at] = static_cast<char>(
                mutated[at] ^
                static_cast<char>(1u << rng.uniformInt(0, 7)));
        }
        expectTextContract(mutated, "bit flip");
    }
}

TEST(TraceFuzz, BinaryTruncationNeverCrashes)
{
    for (const BinaryFormat &format : kBinaryFormats) {
        const std::vector<char> bytes = pristineBytes(format);
        ASSERT_GT(bytes.size(), 128u) << format.name;

        ScopedFile cut(scratchPath(std::string("trunc.") + format.name));
        const std::size_t stride = bytes.size() > 8192 ? 257 : 13;
        for (std::size_t len = 0; len < bytes.size(); len += stride) {
            writeAll(cut.path,
                     std::vector<char>(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               len)));
            expectBinaryContract(format, cut.path, "truncation");
        }
        for (std::size_t back = 1; back <= 32; ++back) {
            writeAll(cut.path,
                     std::vector<char>(bytes.begin(),
                                       bytes.end() -
                                           static_cast<std::ptrdiff_t>(
                                               back)));
            expectBinaryContract(format, cut.path, "tail truncation");
        }
    }
}

TEST(TraceFuzz, BinaryBitFlipsNeverCrash)
{
    for (const BinaryFormat &format : kBinaryFormats) {
        const std::vector<char> bytes = pristineBytes(format);
        ScopedFile flipped(scratchPath(std::string("flip.") + format.name));
        Rng rng(4242);
        for (int round = 0; round < 300; ++round) {
            std::vector<char> mutated = bytes;
            const std::size_t at =
                rng.uniformInt(0, mutated.size() - 1);
            mutated[at] = static_cast<char>(
                mutated[at] ^
                static_cast<char>(1u << rng.uniformInt(0, 7)));
            writeAll(flipped.path, mutated);
            expectBinaryContract(format, flipped.path, "bit flip");
        }
    }
}

TEST(TraceFuzz, BinaryPayloadTamperIsRejectedLoudly)
{
    for (const BinaryFormat &format : kBinaryFormats) {
        std::vector<char> bytes = pristineBytes(format);
        // The first chunk starts right after the 16-byte file header:
        // u32 count · u32 payloadHash · columns. Flip one payload byte
        // past the 8-byte chunk header; the footer hash does not cover
        // it, so only the per-chunk hash can catch this.
        const std::size_t target = 16 + 8 + 3;
        ASSERT_LT(target, bytes.size());
        bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
        ScopedFile file(scratchPath(std::string("tamper.") + format.name));
        writeAll(file.path, bytes);
        EXPECT_THROW((void)format.loadsEqual(file.path), FatalError)
            << format.name;
    }
}

TEST(TraceFuzz, BinaryOldVersionIsRejectedLoudly)
{
    for (const BinaryFormat &format : kBinaryFormats) {
        // The u32 version follows the 8-byte magic.
        std::vector<char> bytes = pristineBytes(format);
        std::memcpy(bytes.data() + 8, &format.previousVersion,
                    sizeof format.previousVersion);
        ScopedFile file(scratchPath(std::string("oldver.") + format.name));
        writeAll(file.path, bytes);
        try {
            (void)format.loadsEqual(file.path);
            ADD_FAILURE() << format.name << ": old version accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unsupported"),
                      std::string::npos)
                << format.name << ": " << e.what();
        }
    }
}

TEST(TraceFuzz, UnmutatedCorpusStillLoadsEquivalently)
{
    // Sanity anchor for the whole suite: the pristine corpus loads
    // from every format with identical events.
    const Trace &original = corpusTrace();
    std::stringstream buffer;
    original.save(buffer);
    const Trace reloaded = Trace::load(buffer);
    ASSERT_EQ(reloaded.size(), original.size());

    for (const BinaryFormat &format : kBinaryFormats) {
        ScopedFile file(scratchPath(std::string("pristine.") + format.name));
        format.write(file.path);
        EXPECT_TRUE(format.loadsEqual(file.path)) << format.name;
    }
}
