#include "support/columnar_file.hh"

#include <utility>

#include "support/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define GMLAKE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace gmlake
{

namespace
{

constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kTrailerBytes = 32;
constexpr std::uint64_t kChunkHeaderBytes = 8;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/**
 * Word-wise FNV-1a over one span: eight bytes per multiply instead
 * of one, so verifying a chunk costs a fraction of decoding it (the
 * byte-wise variant ate the `.gmt` loader's 5x-over-text margin).
 * Word grouping restarts at each span, so writer-side column buffers
 * and the reader's mapped columns hash identically as long as both
 * sides chain column by column.
 */
std::uint64_t
hashSpan(const std::uint8_t *data, std::size_t size,
         std::uint64_t hash)
{
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        hash ^= loadAt<std::uint64_t>(data, i);
        hash *= 0x100000001b3ULL;
    }
    for (; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Chained hash of @p count rows of @p format's columns, folded to
 *  the chunk header's 32-bit word. */
template <typename Pointer>
std::uint32_t
chunkHash(const ColumnarFormat &format, const Pointer *columns,
          std::uint32_t count)
{
    std::uint64_t hash = kFnvBasis;
    for (std::size_t c = 0; c < format.columns.size(); ++c)
        hash = hashSpan(static_cast<const std::uint8_t *>(columns[c]),
                        std::size_t{format.columns[c]} * count, hash);
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

void
checkFormat(const ColumnarFormat &format)
{
    GMLAKE_ASSERT(format.magic.size() == kMagicBytes &&
                      !format.columns.empty() &&
                      format.columns.size() <= kMaxColumns,
                  "malformed columnar format ", format.label);
}

} // namespace

void
appendString(std::string &out, std::string_view text)
{
    appendPod(out, static_cast<std::uint32_t>(text.size()));
    out.append(text);
}

// ----------------------------------------------------------- reader

ColumnarFile
ColumnarFile::open(const std::string &path,
                   const ColumnarFormat &format)
{
    checkFormat(format);
    ColumnarFile file(path, format);
    for (const std::uint8_t width : format.columns)
        file.mRowBytes += width;
    if (std::memcmp(file.mData, format.magic.data(), kMagicBytes) != 0)
        GMLAKE_FATAL("not a ", format.label, " file: ", path);
    if (file.mVersion != format.version)
        GMLAKE_FATAL("unsupported ", format.label, " version ",
                     file.mVersion, ": ", path);
    file.readIndex();
    return file;
}

ColumnarFile
ColumnarFile::open(const std::string &path)
{
    ColumnarFile file(path, ColumnarFormat{{}, 0, {}, "columnar"});
    file.mFormat.magic = std::string_view(
        reinterpret_cast<const char *>(file.mData), kMagicBytes);
    // Older format versions end differently, so say which one it is.
    if (std::memcmp(file.mData + file.mSize - kMagicBytes, file.mData,
                    kMagicBytes) != 0)
        GMLAKE_FATAL("not a current columnar file (header '",
                     file.magic(), "' v", file.mVersion,
                     ", no matching trailer): ", path);
    file.readIndex();
    return file;
}

ColumnarFile::ColumnarFile(const std::string &path,
                           const ColumnarFormat &format)
    : mPath(path), mFormat(format)
{
#ifdef GMLAKE_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        GMLAKE_FATAL("cannot open ", format.label, " file: ", path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        GMLAKE_FATAL("cannot stat ", format.label, " file: ", path);
    }
    mSize = static_cast<std::uint64_t>(st.st_size);
    void *map = mSize == 0 ? MAP_FAILED
                           : ::mmap(nullptr, mSize, PROT_READ,
                                    MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED) {
        const std::uint64_t size = mSize;
        mOwner.reset(map, [size](const void *p) {
            ::munmap(const_cast<void *>(p), size);
        });
        mData = static_cast<const std::uint8_t *>(map);
    } else if (mSize != 0) {
        GMLAKE_FATAL("cannot map ", format.label, " file: ", path);
    }
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        GMLAKE_FATAL("cannot open ", format.label, " file: ", path);
    mSize = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    auto buffer = std::make_shared<std::vector<std::uint8_t>>(mSize);
    in.read(reinterpret_cast<char *>(buffer->data()),
            static_cast<std::streamsize>(mSize));
    if (!in)
        GMLAKE_FATAL("cannot read ", format.label, " file: ", path);
    mData = buffer->data();
    mOwner = std::move(buffer);
#endif
    if (mSize < kHeaderBytes + kTrailerBytes)
        GMLAKE_FATAL("truncated ", format.label, " file (", mSize,
                     " bytes): ", path);
    mVersion = loadAt<std::uint32_t>(mData, kMagicBytes);
}

template <typename... Args>
void
ColumnarFile::corrupt(const Args &...args) const
{
    GMLAKE_FATAL("corrupt ", mFormat.label, " ", args..., ": ", mPath);
}

void
ColumnarFile::readIndex()
{
    const std::uint64_t trailer = mSize - kTrailerBytes;
    if (std::memcmp(mData + trailer + 24, mData, kMagicBytes) != 0)
        GMLAKE_FATAL("missing ", mFormat.label,
                     " trailer (truncated?): ", mPath);
    const auto footerOffset = loadAt<std::uint64_t>(mData, trailer);
    const auto sectionCount =
        loadAt<std::uint64_t>(mData, trailer + 8);
    if (footerOffset < kHeaderBytes || footerOffset > trailer)
        corrupt("trailer (footer offset ", footerOffset, ")");
    if (hashSpan(mData + footerOffset, trailer - footerOffset,
                 kFnvBasis) != loadAt<std::uint64_t>(mData, trailer + 16))
        corrupt("footer (hash mismatch)");

    ColumnarCursor index(*this, footerOffset, trailer, "footer");
    for (std::uint64_t i = 0; i < sectionCount; ++i) {
        ColumnarSection s;
        s.offset = index.read<std::uint64_t>();
        s.byteLength = index.read<std::uint64_t>();
        s.events = index.read<std::uint64_t>();
        s.chunks = index.read<std::uint64_t>();
        s.metaLength = index.read<std::uint64_t>();
        s.metaOffset = static_cast<std::uint64_t>(
            index.take(s.metaLength) - mData);
        s.name = index.string();
        if (s.offset < kHeaderBytes || s.offset > footerOffset ||
            s.byteLength > footerOffset - s.offset)
            corrupt("section extent '", s.name, "'");
        // Every event takes a row of column bytes, so a count the
        // extent cannot hold is corrupt (and never sizes a buffer).
        if (mRowBytes != 0 && s.events > s.byteLength / mRowBytes)
            corrupt("section '", s.name, "' (", s.events,
                    " events in ", s.byteLength, " bytes)");
        mSections.push_back(std::move(s));
    }
    index.expectEnd();
}

ColumnarChunk
ColumnarFile::chunk(const ColumnarSection &section,
                    std::uint64_t offset,
                    std::uint64_t remaining) const
{
    GMLAKE_ASSERT(mRowBytes != 0, "chunks of ", mPath,
                  " read without a format");
    const std::uint64_t end = section.offset + section.byteLength;
    if (offset > end || end - offset < kChunkHeaderBytes)
        corrupt("chunk header at ", offset);
    ColumnarChunk chunk;
    chunk.count = loadAt<std::uint32_t>(mData, offset);
    if (chunk.count == 0 || chunk.count > remaining ||
        (end - offset - kChunkHeaderBytes) / mRowBytes < chunk.count)
        corrupt("chunk (", chunk.count, " events) at ", offset);
    chunk.next = offset + kChunkHeaderBytes;
    for (std::size_t c = 0; c < mFormat.columns.size(); ++c) {
        chunk.columns[c] = mData + chunk.next;
        chunk.next += std::uint64_t{mFormat.columns[c]} * chunk.count;
    }
    if (chunkHash(mFormat, chunk.columns.data(), chunk.count) !=
        loadAt<std::uint32_t>(mData, offset + 4))
        corrupt("chunk (payload hash mismatch) at ", offset);
    return chunk;
}

ColumnarCursor
ColumnarFile::meta(const ColumnarSection &section) const
{
    return ColumnarCursor(*this, section.metaOffset,
                          section.metaOffset + section.metaLength,
                          "section metadata");
}

const std::uint8_t *
ColumnarCursor::take(std::uint64_t count, std::uint64_t width)
{
    if (count > (mEnd - mAt) / width)
        mFile.corrupt(mWhat, " (short read at ", mAt, ")");
    const std::uint8_t *at = mFile.mData + mAt;
    mAt += count * width;
    return at;
}

std::string
ColumnarCursor::string()
{
    const auto size = read<std::uint32_t>();
    return std::string(reinterpret_cast<const char *>(take(size)),
                       size);
}

void
ColumnarCursor::expectEnd() const
{
    if (mAt != mEnd)
        mFile.corrupt(mWhat, " (trailing bytes)");
}

// ----------------------------------------------------------- writer

ColumnarWriter::ColumnarWriter(const std::string &path,
                               const ColumnarFormat &format)
    : mPath(path), mFormat(format),
      mOut(path, std::ios::binary | std::ios::trunc)
{
    checkFormat(format);
    if (!mOut)
        GMLAKE_FATAL("cannot open ", format.label,
                     " file for writing: ", path);
    const std::uint32_t reserved = 0;
    write(format.magic.data(), kMagicBytes);
    write(&format.version, sizeof format.version);
    write(&reserved, sizeof reserved);
    mSectionStart = mWritten;
}

void
ColumnarWriter::write(const void *data, std::size_t size)
{
    mOut.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
    mWritten += size;
}

void
ColumnarWriter::writeChunk(std::uint32_t count,
                           const void *const *columns)
{
    if (count == 0)
        return;
    const std::uint32_t payloadHash =
        chunkHash(mFormat, columns, count);
    write(&count, sizeof count);
    write(&payloadHash, sizeof payloadHash);
    for (std::size_t c = 0; c < mFormat.columns.size(); ++c)
        write(columns[c], std::size_t{mFormat.columns[c]} * count);
    mEvents += count;
    ++mChunks;
}

void
ColumnarWriter::endSection(std::string_view name, std::string_view meta)
{
    appendPod(mFooter, mSectionStart);
    appendPod(mFooter, mWritten - mSectionStart);
    appendPod(mFooter, mEvents);
    appendPod(mFooter, mChunks);
    appendPod(mFooter, static_cast<std::uint64_t>(meta.size()));
    mFooter.append(meta);
    appendString(mFooter, name);
    ++mSectionCount;
    mSectionStart = mWritten;
    mEvents = mChunks = 0;
}

void
ColumnarWriter::finish()
{
    const std::uint64_t footerOffset = mWritten;
    const std::uint64_t hash = hashSpan(
        reinterpret_cast<const std::uint8_t *>(mFooter.data()),
        mFooter.size(), kFnvBasis);
    write(mFooter.data(), mFooter.size());
    write(&footerOffset, sizeof footerOffset);
    write(&mSectionCount, sizeof mSectionCount);
    write(&hash, sizeof hash);
    write(mFormat.magic.data(), kMagicBytes);
    mOut.flush();
    if (!mOut)
        GMLAKE_FATAL("write failed on ", mFormat.label, " file: ",
                     mPath);
    mOut.close();
}

bool
hasColumnarMagic(const std::string &path, std::string_view magic)
{
    std::ifstream in(path, std::ios::binary);
    char head[kMagicBytes] = {};
    in.read(head, sizeof head);
    return in.gcount() == sizeof head && magic.size() == sizeof head &&
           std::memcmp(head, magic.data(), sizeof head) == 0;
}

} // namespace gmlake
