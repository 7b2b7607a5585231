/**
 * @file
 * Chunked columnar container shared by the binary workload traces
 * (`.gmt`, workload/binary_trace.hh) and the recorded timelines
 * (`.gmo`, obs/export_columnar.hh). A format names its magic, its
 * version and the byte width of each event column, and gives its
 * per-section metadata a meaning; the container owns the rest.
 *
 * On-disk layout (little-endian, no alignment padding):
 *
 *   ┌────────────────────────────────────────────────────┐
 *   │ Header   magic · u32 version · u32 0               │  16 bytes
 *   ├────────────────────────────────────────────────────┤
 *   │ Section 0:  Chunk · Chunk · …                      │  event
 *   │ Section 1:  Chunk · …                              │  columns
 *   │ …                                                  │
 *   ├────────────────────────────────────────────────────┤
 *   │ Footer: one index record per section               │
 *   │   u64 offset · u64 bytes · u64 events · u64 chunks │
 *   │   · u64 metaLen · meta · u32 nameLen · name        │
 *   ├────────────────────────────────────────────────────┤
 *   │ Trailer  u64 footerOffset · u64 sectionCount ·     │
 *   │          u64 footerHash · magic                    │
 *   └────────────────────────────────────────────────────┘
 *
 *   Chunk = u32 count · u32 payloadHash
 *           · column 0 [count] · column 1 [count] · …
 *
 * The footer sits at the end so the writer streams: chunks are
 * appended with O(chunk) memory and the index is emitted at finish().
 * Readers mmap the file, find the footer through the fixed-size
 * trailer, check its hash and bounds-check every section extent at
 * open. The footer hash does not cover event data, so each chunk
 * header carries a folded hash of its own columns, checked when the
 * chunk is first read: a truncated file or a flipped bit anywhere is
 * rejected with GMLAKE_FATAL, never decoded as different data.
 */

#ifndef GMLAKE_SUPPORT_COLUMNAR_FILE_HH
#define GMLAKE_SUPPORT_COLUMNAR_FILE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gmlake
{

inline constexpr std::size_t kMagicBytes = 8;
inline constexpr std::size_t kMaxColumns = 12;

/** What a file holds: its magic plus the widths of its columns. */
struct ColumnarFormat
{
    std::string_view magic;  //!< kMagicBytes, opens and closes a file
    std::uint32_t version = 0;
    /** Bytes per event of each column, in file order. */
    std::span<const std::uint8_t> columns;
    std::string_view label;  //!< names the format in diagnostics
};

/** One section's index record. */
struct ColumnarSection
{
    std::string name;
    std::uint64_t events = 0;
    std::uint64_t chunks = 0;
    /** Section extent within the file. */
    std::uint64_t offset = 0;
    std::uint64_t byteLength = 0;
    /** Format-defined metadata extent (inside the footer). */
    std::uint64_t metaOffset = 0;
    std::uint64_t metaLength = 0;
};

/** Unaligned load of a T at @p data + @p offset. */
template <typename T>
T
loadAt(const std::uint8_t *data, std::uint64_t offset)
{
    T value;
    std::memcpy(&value, data + offset, sizeof value);
    return value;
}

/** Append the raw bytes of @p value to @p out. */
template <typename T>
void
appendPod(std::string &out, const T &value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/** Append @p text as u32 length · bytes. */
void appendString(std::string &out, std::string_view text);

/** A verified chunk: its event count and column bases. */
struct ColumnarChunk
{
    std::uint32_t count = 0;
    /** File offset of the chunk after this one. */
    std::uint64_t next = 0;
    std::array<const std::uint8_t *, kMaxColumns> columns{};

    /** Row @p row of column @p column, read as a T. */
    template <typename T>
    T
    get(std::size_t column, std::uint32_t row) const
    {
        return loadAt<T>(columns[column],
                         std::uint64_t{sizeof(T)} * row);
    }
};

class ColumnarCursor;

/**
 * A validated, read-only mapping of a container file. Copies share
 * the mapping, which lives until the last copy goes.
 */
class ColumnarFile
{
  public:
    /**
     * Map @p path as a file of @p format. Magic and version are
     * checked before anything else, then the trailer, the footer
     * hash and every section extent; GMLAKE_FATAL on any defect.
     */
    static ColumnarFile open(const std::string &path,
                             const ColumnarFormat &format);

    /**
     * Map any container file, whatever its magic (the trailer must
     * repeat the header's) and version. Its index can be listed; its
     * chunks cannot be read.
     */
    static ColumnarFile open(const std::string &path);

    const std::string &path() const { return mPath; }
    std::string_view magic() const { return mFormat.magic; }
    std::uint32_t version() const { return mVersion; }
    std::uint64_t fileBytes() const { return mSize; }
    const std::vector<ColumnarSection> &sections() const
    {
        return mSections;
    }

    /** Raw mapped bytes (valid for [0, fileBytes())). */
    const std::uint8_t *data() const { return mData; }

    /**
     * Verify and locate the chunk at @p offset of @p section, which
     * has @p remaining events left: the frame must fit the section
     * extent, hold 1..remaining events, and match its payload hash.
     */
    ColumnarChunk chunk(const ColumnarSection &section,
                        std::uint64_t offset,
                        std::uint64_t remaining) const;

    /** Sequential reader over @p section's metadata. */
    ColumnarCursor meta(const ColumnarSection &section) const;

  private:
    friend class ColumnarCursor;

    /** Map @p path and read its header. */
    ColumnarFile(const std::string &path, const ColumnarFormat &format);
    void readIndex();

    /** GMLAKE_FATAL: "corrupt <label> <args>: <path>". */
    template <typename... Args>
    [[noreturn]] void corrupt(const Args &...args) const;

    std::string mPath;
    ColumnarFormat mFormat;
    std::shared_ptr<const void> mOwner; //!< mapping or read buffer
    const std::uint8_t *mData = nullptr;
    std::uint64_t mSize = 0;
    std::uint32_t mVersion = 0;
    std::uint64_t mRowBytes = 0; //!< sum of column widths
    std::vector<ColumnarSection> mSections;
};

/**
 * Bounds-checked sequential reads over one extent of a mapped file;
 * GMLAKE_FATAL on a read past the end.
 */
class ColumnarCursor
{
  public:
    ColumnarCursor(const ColumnarFile &file, std::uint64_t begin,
                   std::uint64_t end, std::string_view what)
        : mFile(file), mAt(begin), mEnd(end), mWhat(what)
    {
    }

    /** The next @p count items of @p width bytes each. */
    const std::uint8_t *take(std::uint64_t count,
                             std::uint64_t width = 1);

    template <typename T>
    T
    read()
    {
        return loadAt<T>(take(sizeof(T)), 0);
    }

    /** A u32 length · bytes string. */
    std::string string();

    /** GMLAKE_FATAL unless the extent was consumed exactly. */
    void expectEnd() const;

  private:
    const ColumnarFile &mFile;
    std::uint64_t mAt;
    std::uint64_t mEnd;
    std::string_view mWhat;
};

/**
 * Streaming writer: header at construction, chunks as they come,
 * footer and trailer at finish(). Memory use is the footer index
 * plus whatever chunk the caller buffers. A section holds the chunks
 * written since the previous section ended.
 */
class ColumnarWriter
{
  public:
    ColumnarWriter(const std::string &path,
                   const ColumnarFormat &format);

    /**
     * Append one chunk of @p count events; @p columns holds one base
     * pointer per format column, each @p count entries long.
     */
    void writeChunk(std::uint32_t count, const void *const *columns);

    /** Close the current section with its name and metadata. */
    void endSection(std::string_view name, std::string_view meta);

    /** Write footer and trailer, flush, close; GMLAKE_FATAL if any
     *  write failed. */
    void finish();

  private:
    void write(const void *data, std::size_t size);

    std::string mPath;
    ColumnarFormat mFormat;
    std::ofstream mOut;
    std::uint64_t mWritten = 0;
    // The section being written.
    std::uint64_t mSectionStart = 0;
    std::uint64_t mEvents = 0;
    std::uint64_t mChunks = 0;
    std::uint64_t mSectionCount = 0;
    std::string mFooter;
};

/** True when @p path starts with the 8-byte @p magic. */
bool hasColumnarMagic(const std::string &path, std::string_view magic);

} // namespace gmlake

#endif // GMLAKE_SUPPORT_COLUMNAR_FILE_HH
