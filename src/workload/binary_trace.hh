/**
 * @file
 * Binary columnar trace format (`.gmt`): the storage layer behind
 * BinaryTraceSource. Text traces (workload/trace.hh) are convenient
 * to read and diff but parse at ~10⁶ events/s and must be fully
 * materialized; a packed `.gmt` file is mmap-ed and decoded field by
 * field, so replay cost is a few unaligned loads per event and the
 * resident footprint is the page cache's problem.
 *
 * The file is a support/columnar_file.hh container with magic
 * "GMTRACE1": one section per session, five event columns per chunk
 *
 *   u8 kind · u64 tensor · u64 bytes · i64 computeNs · u32 stream
 *
 * and the section's TraceStats (u64 allocCount · totalAllocBytes ·
 * maxAllocBytes · iterations) as its metadata. Format v3 moved to
 * the shared container; files of older versions are rejected.
 */

#ifndef GMLAKE_WORKLOAD_BINARY_TRACE_HH
#define GMLAKE_WORKLOAD_BINARY_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/columnar_file.hh"
#include "workload/event_source.hh"
#include "workload/trace.hh"

namespace gmlake::workload
{

/** Events per chunk: ~1.8 MiB of columns, streams comfortably. */
inline constexpr std::size_t kGmtChunkEvents = 64 * 1024;

/** One section (= one session's event stream) of a `.gmt` file. */
struct GmtSection : ColumnarSection
{
    /** Aggregate shape, from the section's metadata. */
    TraceStats stats;
};

/**
 * A validated, read-only mapping of a `.gmt` file. The container
 * checks header, trailer and footer at open, and each chunk as
 * cursors walk it. Shared by every BinaryTraceSource over the file,
 * so a multi-session replay maps the file once.
 */
class GmtFile
{
  public:
    /** Map and validate @p path; GMLAKE_FATAL on any defect. */
    static std::shared_ptr<const GmtFile> open(
        const std::string &path);

    const std::string &path() const { return mFile.path(); }
    std::uint32_t version() const { return mFile.version(); }
    std::uint64_t fileBytes() const { return mFile.fileBytes(); }
    const std::vector<GmtSection> &sections() const
    {
        return mSections;
    }

    /** Raw mapped bytes (valid for [0, fileBytes())). */
    const std::uint8_t *data() const { return mFile.data(); }

    /** The container the sections live in. */
    const ColumnarFile &container() const { return mFile; }

  private:
    explicit GmtFile(ColumnarFile file) : mFile(std::move(file)) {}

    ColumnarFile mFile;
    std::vector<GmtSection> mSections;
};

/**
 * Streaming `.gmt` writer: buffers one chunk of columns, flushes it
 * when full, and emits the footer + trailer at finish(). Memory use
 * is one chunk regardless of trace length, so packing a 10⁷-event
 * stream needs no materialization either.
 */
class GmtWriter
{
  public:
    explicit GmtWriter(const std::string &path,
                       std::size_t chunkEvents = kGmtChunkEvents);
    ~GmtWriter();
    GmtWriter(const GmtWriter &) = delete;
    GmtWriter &operator=(const GmtWriter &) = delete;

    /** Start a new section; events append to it until the next. */
    void beginSection(const std::string &name);

    void append(const Event &event);

    /** Drain @p source into the current section. */
    void append(EventSource &source);

    /** Flush, write footer + trailer, close. Idempotent. */
    void finish();

  private:
    void flushChunk();
    void endSection();

    ColumnarWriter mOut;
    std::size_t mChunkEvents;
    bool mFinished = false;
    bool mInSection = false;

    // Column buffers of the chunk being filled.
    std::vector<std::uint8_t> mKind;
    std::vector<std::uint64_t> mTensor;
    std::vector<std::uint64_t> mBytes;
    std::vector<std::int64_t> mComputeNs;
    std::vector<std::uint32_t> mStream;

    // The section being written.
    std::string mSectionName;
    TraceStats mStats;
};

/**
 * EventSource over one section of a `.gmt` file: walks the chunks in
 * place, decoding one event per peek() from the mapped columns.
 */
class BinaryTraceSource final : public EventSource
{
  public:
    /** Open @p path and cursor its section @p section. */
    explicit BinaryTraceSource(const std::string &path,
                               std::size_t section = 0);

    /** Cursor section @p section of an already-open file. */
    BinaryTraceSource(std::shared_ptr<const GmtFile> file,
                      std::size_t section);

    const Event *peek() override;
    void advance() override;
    std::size_t sizeHint() const override;
    void reset() override;

    const GmtFile &file() const { return *mFile; }
    const GmtSection &section() const;

  private:
    std::shared_ptr<const GmtFile> mFile;
    std::size_t mSection = 0;

    ColumnarChunk mChunk;           //!< the loaded chunk
    std::uint64_t mRemaining = 0;   //!< events left in the section
    std::uint32_t mIndex = 0;       //!< cursor within the chunk
    Event mCurrent;
    bool mHave = false;
};

/** True when @p path starts with the `.gmt` magic. */
bool looksLikeGmtFile(const std::string &path);

/** Pack a materialized trace as a one-section `.gmt` file. */
void packTrace(const Trace &trace, const std::string &path,
               const std::string &sectionName = "trace");

} // namespace gmlake::workload

#endif // GMLAKE_WORKLOAD_BINARY_TRACE_HH
