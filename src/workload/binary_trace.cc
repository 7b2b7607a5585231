#include "workload/binary_trace.hh"

#include "support/logging.hh"

namespace gmlake::workload
{

namespace
{

/** Byte widths of kind, tensor, bytes, computeNs, stream. */
constexpr std::uint8_t kColumns[] = {1, 8, 8, 8, 4};

/** v3 moved to the shared container (metadata length in the index,
 *  file magic in the trailer, word-wise footer hash). */
constexpr ColumnarFormat kFormat{"GMTRACE1", 3, kColumns, ".gmt"};

} // namespace

// ----------------------------------------------------------- writer

GmtWriter::GmtWriter(const std::string &path,
                     std::size_t chunkEvents)
    : mOut(path, kFormat), mChunkEvents(chunkEvents)
{
    GMLAKE_ASSERT(chunkEvents > 0, "zero-event chunks");
    mKind.reserve(chunkEvents);
    mTensor.reserve(chunkEvents);
    mBytes.reserve(chunkEvents);
    mComputeNs.reserve(chunkEvents);
    mStream.reserve(chunkEvents);
}

GmtWriter::~GmtWriter()
{
    // Best effort on the unwound path; explicit finish() reports
    // write failures, the destructor must not throw.
    if (!mFinished) {
        try {
            finish();
        } catch (...) {
        }
    }
}

void
GmtWriter::beginSection(const std::string &name)
{
    GMLAKE_ASSERT(!mFinished, "section after finish()");
    GMLAKE_ASSERT(!name.empty(), "unnamed trace section");
    if (mInSection)
        endSection();
    mStats = TraceStats{};
    mSectionName = name;
    mInSection = true;
}

void
GmtWriter::append(const Event &event)
{
    GMLAKE_ASSERT(mInSection,
                  "append outside a section (call beginSection)");
    mKind.push_back(static_cast<std::uint8_t>(event.kind));
    mTensor.push_back(event.tensor);
    mBytes.push_back(event.bytes);
    mComputeNs.push_back(event.computeNs);
    mStream.push_back(event.stream);
    if (event.kind == EventKind::alloc) {
        ++mStats.allocCount;
        mStats.totalAllocBytes += event.bytes;
        if (event.bytes > mStats.maxAllocBytes)
            mStats.maxAllocBytes = event.bytes;
    } else if (event.kind == EventKind::iterationMark) {
        ++mStats.iterations;
    }
    if (mKind.size() >= mChunkEvents)
        flushChunk();
}

void
GmtWriter::append(EventSource &source)
{
    for (const Event *e = source.peek(); e != nullptr;
         source.advance(), e = source.peek())
        append(*e);
}

void
GmtWriter::flushChunk()
{
    const void *const columns[] = {mKind.data(), mTensor.data(),
                                   mBytes.data(), mComputeNs.data(),
                                   mStream.data()};
    mOut.writeChunk(static_cast<std::uint32_t>(mKind.size()), columns);
    mKind.clear();
    mTensor.clear();
    mBytes.clear();
    mComputeNs.clear();
    mStream.clear();
}

void
GmtWriter::endSection()
{
    flushChunk();
    std::string meta;
    appendPod(meta, mStats.allocCount);
    appendPod(meta, static_cast<std::uint64_t>(mStats.totalAllocBytes));
    appendPod(meta, static_cast<std::uint64_t>(mStats.maxAllocBytes));
    appendPod(meta, static_cast<std::uint64_t>(mStats.iterations));
    mOut.endSection(mSectionName, meta);
    mInSection = false;
}

void
GmtWriter::finish()
{
    if (mFinished)
        return;
    if (mInSection)
        endSection();
    mFinished = true;
    mOut.finish();
}

// ----------------------------------------------------------- reader

std::shared_ptr<const GmtFile>
GmtFile::open(const std::string &path)
{
    // make_shared needs a public constructor; this does not.
    std::shared_ptr<GmtFile> file(
        new GmtFile(ColumnarFile::open(path, kFormat)));
    for (const ColumnarSection &s : file->mFile.sections()) {
        GmtSection section{s, {}};
        ColumnarCursor meta = file->mFile.meta(s);
        section.stats.allocCount = meta.read<std::uint64_t>();
        section.stats.totalAllocBytes =
            static_cast<Bytes>(meta.read<std::uint64_t>());
        section.stats.maxAllocBytes =
            static_cast<Bytes>(meta.read<std::uint64_t>());
        section.stats.iterations =
            static_cast<int>(meta.read<std::uint64_t>());
        meta.expectEnd();
        file->mSections.push_back(std::move(section));
    }
    return file;
}

// ----------------------------------------------------------- cursor

BinaryTraceSource::BinaryTraceSource(const std::string &path,
                                     std::size_t section)
    : BinaryTraceSource(GmtFile::open(path), section)
{
}

BinaryTraceSource::BinaryTraceSource(
    std::shared_ptr<const GmtFile> file, std::size_t section)
    : mFile(std::move(file)), mSection(section)
{
    GMLAKE_ASSERT(mFile != nullptr, "null .gmt file");
    if (section >= mFile->sections().size())
        GMLAKE_FATAL("no section ", section, " in ",
                     mFile->path(), " (", mFile->sections().size(),
                     " sections)");
    reset();
}

const GmtSection &
BinaryTraceSource::section() const
{
    return mFile->sections()[mSection];
}

void
BinaryTraceSource::reset()
{
    mChunk = ColumnarChunk{};
    mChunk.next = section().offset;
    mRemaining = section().events;
    mIndex = 0;
    mHave = false;
}

const Event *
BinaryTraceSource::peek()
{
    if (mHave)
        return &mCurrent;
    if (mRemaining == 0)
        return nullptr;
    if (mIndex >= mChunk.count) {
        mChunk = mFile->container().chunk(section(), mChunk.next,
                                          mRemaining);
        mIndex = 0;
    }
    const auto kind = mChunk.get<std::uint8_t>(0, mIndex);
    if (kind > static_cast<std::uint8_t>(EventKind::prefetch))
        GMLAKE_FATAL("corrupt .gmt event kind ", int{kind}, ": ",
                     mFile->path());
    mCurrent.kind = static_cast<EventKind>(kind);
    mCurrent.tensor = mChunk.get<std::uint64_t>(1, mIndex);
    mCurrent.bytes =
        static_cast<Bytes>(mChunk.get<std::uint64_t>(2, mIndex));
    mCurrent.computeNs = mChunk.get<std::int64_t>(3, mIndex);
    mCurrent.stream = mChunk.get<std::uint32_t>(4, mIndex);
    mHave = true;
    return &mCurrent;
}

void
BinaryTraceSource::advance()
{
    GMLAKE_ASSERT(peek() != nullptr, "advance past end of stream");
    ++mIndex;
    --mRemaining;
    mHave = false;
}

std::size_t
BinaryTraceSource::sizeHint() const
{
    return static_cast<std::size_t>(section().events);
}

// ---------------------------------------------------------- helpers

bool
looksLikeGmtFile(const std::string &path)
{
    return hasColumnarMagic(path, kFormat.magic);
}

void
packTrace(const Trace &trace, const std::string &path,
          const std::string &sectionName)
{
    GmtWriter writer(path);
    writer.beginSection(sectionName);
    for (const Event &e : trace.events())
        writer.append(e);
    writer.finish();
}

} // namespace gmlake::workload
