// File helpers shared by the storage layer's three formats (WAL segments,
// block files, the MANIFEST): one reader, one write loop, one directory
// fsync, one errno mapping and one numbered-name scheme, so every format
// reads, writes, fails and names its files the same way.
#ifndef BQS_STORAGE_FILE_IO_H_
#define BQS_STORAGE_FILE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace bqs {

/// IoError for the current errno about `what`. A full disk (ENOSPC) is
/// prefixed "ENOSPC: " so IsEnospc can classify it.
Status ErrnoError(const std::string& what);

/// True when a status smells like disk-full: ErrnoError's ENOSPC statuses
/// and injected kEnospc firings (manifest.h) alike start with "ENOSPC".
bool IsEnospc(const Status& status);

/// Reads bytes [offset, offset + length) of the regular file at `path`
/// into `out`: the whole file by default, and a range running past the end
/// stops at the end. NotFound only when the file does not exist (ENOENT);
/// IoError when it cannot be opened or read, or is not a regular file.
Status ReadFileBytes(const std::string& path, std::string* out,
                     uint64_t offset = 0, uint64_t length = UINT64_MAX);

/// The bytes ReadFileBytes read, as the span the format decoders take.
inline std::span<const uint8_t> AsBytes(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

/// write(2)s all of `data` to `fd`, resuming short writes and EINTR.
/// `what` names the file in errors.
Status WriteFully(int fd, std::string_view data, std::string_view what);

/// fsyncs directory `dir`, making the names created, renamed or removed in
/// it durable.
Status FsyncDir(const std::string& dir);

/// "<prefix><id, zero-padded to 6 digits><suffix>", e.g. "wal-000001.log".
std::string NumberedFileName(std::string_view prefix, uint64_t id,
                             std::string_view suffix);

/// Parses "<prefix><digits><suffix>" (any digit count up to 19) into its
/// id; false for every other name.
bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* id);

/// True for "*.tmp": debris of a crashed atomic publication.
bool IsTempFileName(std::string_view name);

}  // namespace bqs

#endif  // BQS_STORAGE_FILE_IO_H_
