/**
 * @file
 * Unit tests for the support library: units, logging, Expected,
 * RNG, histogram, table, CSV helpers and the columnar container.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "support/columnar_file.hh"
#include "support/csv.hh"
#include "support/expected.hh"
#include "support/histogram.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/units.hh"

using namespace gmlake;
using namespace gmlake::literals;

// ---------------------------------------------------------------- units

TEST(Units, Literals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(80_GiB, Bytes{80} * 1024 * 1024 * 1024);
}

TEST(Units, RoundUp)
{
    EXPECT_EQ(roundUp(0, 512), 0u);
    EXPECT_EQ(roundUp(1, 512), 512u);
    EXPECT_EQ(roundUp(512, 512), 512u);
    EXPECT_EQ(roundUp(513, 512), 1024u);
    EXPECT_EQ(roundUp(3_MiB, 2_MiB), 4_MiB);
}

TEST(Units, RoundDown)
{
    EXPECT_EQ(roundDown(1023, 512), 512u);
    EXPECT_EQ(roundDown(512, 512), 512u);
    EXPECT_EQ(roundDown(511, 512), 0u);
}

TEST(Units, IsAligned)
{
    EXPECT_TRUE(isAligned(4_MiB, 2_MiB));
    EXPECT_FALSE(isAligned(3_MiB, 2_MiB));
    EXPECT_FALSE(isAligned(4_MiB, 0));
}

// -------------------------------------------------------------- logging

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(GMLAKE_PANIC("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(GMLAKE_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(GMLAKE_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(GMLAKE_ASSERT(false, "nope"), std::logic_error);
}

// ------------------------------------------------------------- expected

TEST(Expected, HoldsValue)
{
    Expected<int> e(7);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, 7);
    EXPECT_EQ(e.code(), Errc::ok);
}

TEST(Expected, HoldsError)
{
    Expected<int> e(makeError(Errc::outOfMemory, "full"));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.code(), Errc::outOfMemory);
    EXPECT_EQ(e.error().message, "full");
}

TEST(Expected, ValueOnErrorPanics)
{
    Expected<int> e(makeError(Errc::invalidValue, "x"));
    EXPECT_THROW(e.value(), std::logic_error);
}

TEST(Expected, StatusSuccessAndError)
{
    Status ok = Status::success();
    EXPECT_TRUE(ok.ok());
    Status bad(makeError(Errc::notMapped, "y"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::notMapped);
}

TEST(Expected, ErrcNamesCoverAllCodes)
{
    for (Errc e : {Errc::ok, Errc::outOfMemory, Errc::invalidValue,
                   Errc::alreadyMapped, Errc::notMapped,
                   Errc::notReserved, Errc::handleInUse,
                   Errc::addressSpaceFull}) {
        EXPECT_STRNE(errcName(e), "unknown");
    }
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(123), c2(124);
    bool differs = false;
    for (int i = 0; i < 16 && !differs; ++i)
        differs = a2.next() != c2.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniformInt(5, 5), 5u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LogNormalPositiveAndCentred)
{
    Rng rng(13);
    double logsum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.logNormal(100.0, 0.5);
        ASSERT_GT(v, 0.0);
        logsum += std::log(v);
    }
    // The median of a lognormal is its scale parameter.
    EXPECT_NEAR(logsum / 20000.0, std::log(100.0), 0.05);
}

// ------------------------------------------------------------ histogram

TEST(SummaryStats, Accumulates)
{
    SummaryStats s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(SummaryStats, EmptyMeanIsZeroAndMinPanics)
{
    SummaryStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_THROW(s.min(), std::logic_error);
}

TEST(SizeHistogram, BucketsPowersOfTwo)
{
    SizeHistogram h;
    h.add(1);          // bucket 0
    h.add(1024);       // bucket 10
    h.add(1536);       // bucket 10
    h.add(2048);       // bucket 11
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(10), 2u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.totalBytes(), 1u + 1024 + 1536 + 2048);
    EXPECT_FALSE(h.render().empty());
}

// -------------------------------------------------------------- strings

TEST(Strings, FormatBytes)
{
    EXPECT_EQ(formatBytes(17), "17 B");
    EXPECT_EQ(formatBytes(2_KiB), "2.0 KB");
    EXPECT_EQ(formatBytes(Bytes{5} * 1024 * 1024 * 1024 / 2),
              "2.5 GB");
}

TEST(Strings, FormatPercentAndDouble)
{
    EXPECT_EQ(formatPercent(0.931), "93.1%");
    EXPECT_EQ(formatDouble(1.005, 2), "1.00");
}

TEST(Strings, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500 ns");
    EXPECT_EQ(formatTime(1'500), "1.50 us");
    EXPECT_EQ(formatTime(2'500'000), "2.50 ms");
    EXPECT_EQ(formatTime(3'000'000'000LL), "3.00 s");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedRows)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

// ------------------------------------------------------------------ csv

TEST(Csv, WritesQuotedCells)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "gmlake_csv_test.csv";
    {
        CsvWriter csv(path.string(), {"a", "b"});
        csv.addRow({"1", "x,y"});
        csv.addRow({"2", "he said \"hi\""});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,\"x,y\"");
    std::getline(in, line);
    EXPECT_EQ(line, "2,\"he said \"\"hi\"\"\"");
    std::filesystem::remove(path);
}

// ------------------------------------------------------------ columnar

TEST(ColumnarFile, SectionsChunksAndMetaRoundTrip)
{
    static constexpr std::uint8_t kWidths[] = {2, 8};
    const ColumnarFormat kToy{"GMTOYFMT", 1, kWidths, ".toy"};
    const std::string path =
        (std::filesystem::temp_directory_path() / "gmlake_toy.col")
            .string();
    {
        ColumnarWriter out(path, kToy);
        const std::uint16_t a[] = {1, 2, 3};
        const std::uint64_t b[] = {10, 20, 30};
        const void *const first[] = {a, b};
        const void *const second[] = {a + 2, b + 2};
        out.writeChunk(2, first);
        out.writeChunk(1, second);
        out.endSection("first", "meta");
        out.endSection("empty", "");
        out.finish();
    }

    const ColumnarFile file = ColumnarFile::open(path, kToy);
    ASSERT_EQ(file.sections().size(), 2u);
    const ColumnarSection &s = file.sections()[0];
    EXPECT_EQ(s.name, "first");
    EXPECT_EQ(s.events, 3u);
    EXPECT_EQ(s.chunks, 2u);
    EXPECT_EQ(file.sections()[1].events, 0u);
    ColumnarCursor meta = file.meta(s);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(meta.take(4)),
                          4),
              "meta");
    meta.expectEnd();
    const ColumnarChunk c0 = file.chunk(s, s.offset, 3);
    ASSERT_EQ(c0.count, 2u);
    EXPECT_EQ(c0.get<std::uint16_t>(0, 1), 2u);
    EXPECT_EQ(c0.get<std::uint64_t>(1, 1), 20u);
    const ColumnarChunk c1 = file.chunk(s, c0.next, 1);
    EXPECT_EQ(c1.get<std::uint64_t>(1, 0), 30u);
    EXPECT_EQ(c1.next, s.offset + s.byteLength);
    // A chunk may not hold more events than its section has left.
    EXPECT_THROW(file.chunk(s, s.offset, 1), FatalError);

    // The generic open lists the index of any container file.
    const ColumnarFile any = ColumnarFile::open(path);
    EXPECT_EQ(any.magic(), "GMTOYFMT");
    EXPECT_EQ(any.version(), 1u);
    ASSERT_EQ(any.sections().size(), 2u);
    EXPECT_EQ(any.sections()[1].name, "empty");

    const ColumnarFormat kNewer{"GMTOYFMT", 2, kWidths, ".toy"};
    EXPECT_THROW(ColumnarFile::open(path, kNewer), FatalError);
    const ColumnarFormat kOther{"GMOTHER1", 1, kWidths, ".oth"};
    EXPECT_THROW(ColumnarFile::open(path, kOther), FatalError);
    EXPECT_TRUE(hasColumnarMagic(path, "GMTOYFMT"));
    EXPECT_FALSE(hasColumnarMagic(path, "GMOTHER1"));
    std::filesystem::remove(path);
}

TEST(ColumnarFile, RejectsIndexDefectsTheFooterHashMisses)
{
    static constexpr std::uint8_t kWidths[] = {2, 8};
    const ColumnarFormat kToy{"GMTOYFMT", 1, kWidths, ".toy"};
    const std::string path =
        (std::filesystem::temp_directory_path() / "gmlake_toy_bad.col")
            .string();
    std::string pristine;
    {
        ColumnarWriter out(path, kToy);
        const std::uint16_t a[] = {1, 2};
        const std::uint64_t b[] = {10, 20};
        const void *const columns[] = {a, b};
        out.writeChunk(2, columns);
        out.endSection("first", "");
        out.endSection("second", "");
        out.finish();
        std::ifstream in(path, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto rewrite = [&](std::size_t at, char byte) {
        std::string bytes = pristine;
        bytes[at] = byte;
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    };
    // The trailer must end with the header's magic.
    rewrite(pristine.size() - 1, 'X');
    EXPECT_THROW(ColumnarFile::open(path, kToy), FatalError);
    EXPECT_THROW(ColumnarFile::open(path), FatalError);
    // The section count sits in the trailer, outside the footer hash:
    // one section fewer leaves an index record unread.
    rewrite(pristine.size() - 24, 1);
    EXPECT_THROW(ColumnarFile::open(path, kToy), FatalError);
    // Read with wider columns, the section cannot hold its events.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << pristine;
    static constexpr std::uint8_t kWide[] = {8, 8, 8};
    EXPECT_THROW(
        ColumnarFile::open(path, ColumnarFormat{"GMTOYFMT", 1, kWide,
                                                ".toy"}),
        FatalError);
    std::filesystem::remove(path);
}
