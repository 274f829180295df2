#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace bqs {

Status ErrnoError(const std::string& what) {
  const int err = errno;
  const char* const tag = err == ENOSPC ? "ENOSPC: " : "";
  return Status::IoError(tag + what + ": " + std::strerror(err));
}

bool IsEnospc(const Status& status) {
  return !status.ok() && status.message().rfind("ENOSPC", 0) == 0;
}

Status ReadFileBytes(const std::string& path, std::string* out,
                     uint64_t offset, uint64_t length) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return ErrnoError("open " + path);
  }
  Status st;
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    st = ErrnoError("stat " + path);
  } else if (!S_ISREG(info.st_mode)) {
    // A directory opens fine and reports a nonsense size; never trust it.
    st = Status::IoError(path + " is not a regular file");
  } else {
    const auto size = static_cast<uint64_t>(info.st_size);
    const uint64_t begin = std::min(offset, size);
    out->resize(static_cast<std::size_t>(std::min(length, size - begin)));
    std::size_t done = 0;
    while (done < out->size()) {
      const ssize_t n = ::pread(fd, out->data() + done, out->size() - done,
                                static_cast<off_t>(begin + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        st = ErrnoError("read " + path);
        break;
      }
      if (n == 0) {  // the file shrank since fstat
        out->resize(done);
        break;
      }
      done += static_cast<std::size_t>(n);
    }
  }
  (void)::close(fd);
  return st;
}

Status WriteFully(int fd, std::string_view data, std::string_view what) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write " + std::string(what));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) return ErrnoError("open dir " + dir);
  Status st;
  if (::fsync(dirfd) != 0) st = ErrnoError("fsync dir " + dir);
  (void)::close(dirfd);
  return st;
}

std::string NumberedFileName(std::string_view prefix, uint64_t id,
                             std::string_view suffix) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(id));
  std::string name(prefix);
  name += digits;
  name += suffix;
  return name;
}

bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* id) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) return false;
  const std::string_view digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.size() > 19) return false;  // > 19 digits may overflow
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

bool IsTempFileName(std::string_view name) {
  return name.size() > 4 && name.ends_with(".tmp");
}

}  // namespace bqs
