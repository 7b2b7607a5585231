/**
 * @file
 * Columnar binary dump of a recorder snapshot (`.gmo`).
 *
 * The file is a support/columnar_file.hh container with magic
 * "GMOBSEV1" and one section, "timeline", whose chunks hold twelve
 * event columns
 *
 *   u64 simTime · dur · a0 · a1 · a2 · u32 seq · track · blobOff ·
 *   blobLen · u16 name · u8 kind · u8 cat
 *
 * and whose metadata holds the side tables: u64 blobWords · blob
 * arena · u32 trackCount · (u32 run · string name)* · u32 runCount
 * · string* · u64 dropped (strings are u32 length · bytes). Format
 * v2 moved to the shared container; v1 files are rejected.
 */

#ifndef GMLAKE_OBS_EXPORT_COLUMNAR_HH
#define GMLAKE_OBS_EXPORT_COLUMNAR_HH

#include <string>

#include "obs/recorder.hh"

namespace gmlake::obs
{

/** Events per chunk of the columnar dump. */
inline constexpr std::size_t kObsChunkEvents = 16 * 1024;

/** Write @p snap to @p path; GMLAKE_FATAL on I/O failure. */
void writeColumnarTrace(const RecorderSnapshot &snap,
                        const std::string &path);

/**
 * Read a `.gmo` file back into a snapshot through the container's
 * mapping, verifying the trailer, footer hash, every chunk's payload
 * hash, every event's enum values and blob reference; GMLAKE_FATAL
 * on any defect.
 */
RecorderSnapshot readColumnarTrace(const std::string &path);

/** True when @p path starts with the `.gmo` magic. */
bool looksLikeObsTrace(const std::string &path);

} // namespace gmlake::obs

#endif // GMLAKE_OBS_EXPORT_COLUMNAR_HH
