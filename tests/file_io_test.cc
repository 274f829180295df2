// The storage layer's shared file helpers: the reader's ranges and failure
// classes, the numbered file names, and the disk-full tag.
#include "storage/file_io.h"

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace bqs {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FileIoTest, ReadsWholeFilesAndRangesCutAtTheEnd) {
  const std::string path = FreshDir("file_io_ranges") + "/data";
  std::ofstream(path, std::ios::binary) << "0123456789";
  std::string out = "stale";
  ASSERT_TRUE(ReadFileBytes(path, &out).ok());
  EXPECT_EQ(out, "0123456789");
  ASSERT_TRUE(ReadFileBytes(path, &out, 3, 4).ok());
  EXPECT_EQ(out, "3456");
  ASSERT_TRUE(ReadFileBytes(path, &out, 8, 100).ok());
  EXPECT_EQ(out, "89");
  ASSERT_TRUE(ReadFileBytes(path, &out, 20, 4).ok());
  EXPECT_EQ(out, "");
}

TEST(FileIoTest, OnlyAMissingFileIsNotFound) {
  const std::string dir = FreshDir("file_io_failures");
  std::string out;
  EXPECT_EQ(ReadFileBytes(dir + "/missing", &out).code(),
            StatusCode::kNotFound);
  // A directory opens like a file but is not one.
  std::filesystem::create_directories(dir + "/sub");
  EXPECT_EQ(ReadFileBytes(dir + "/sub", &out).code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFileBytes(dir + "/missing/x", &out).code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, NumberedFileNamesRoundTrip) {
  EXPECT_EQ(NumberedFileName("wal-", 1, ".log"), "wal-000001.log");
  EXPECT_EQ(NumberedFileName("blk-", 12345678, ".bqb"), "blk-12345678.bqb");
  uint64_t id = 0;
  EXPECT_TRUE(ParseNumberedFileName("wal-000042.log", "wal-", ".log", &id));
  EXPECT_EQ(id, 42u);
  EXPECT_TRUE(ParseNumberedFileName("wal-7.log", "wal-", ".log", &id));
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(ParseNumberedFileName("wal-9999999999999999999.log", "wal-",
                                    ".log", &id));  // 19 digits, the most
  EXPECT_EQ(id, 9999999999999999999u);
  EXPECT_FALSE(ParseNumberedFileName("wal-.log", "wal-", ".log", &id));
  EXPECT_FALSE(ParseNumberedFileName("wal-1x.log", "wal-", ".log", &id));
  EXPECT_FALSE(ParseNumberedFileName("wal-1.log.tmp", "wal-", ".log", &id));
  EXPECT_FALSE(ParseNumberedFileName("wal-12345678901234567890.log", "wal-",
                                     ".log", &id));
  EXPECT_TRUE(IsTempFileName("MANIFEST.tmp"));
  EXPECT_FALSE(IsTempFileName(".tmp"));
  EXPECT_FALSE(IsTempFileName("wal-000001.log"));
}

TEST(FileIoTest, ErrnoErrorTagsDiskFull) {
  errno = ENOSPC;
  const Status full = ErrnoError("write x");
  EXPECT_EQ(full.code(), StatusCode::kIoError);
  EXPECT_TRUE(IsEnospc(full)) << full.message();
  errno = EIO;
  EXPECT_FALSE(IsEnospc(ErrnoError("write x")));
  EXPECT_FALSE(IsEnospc(Status::OK()));
}

}  // namespace
}  // namespace bqs
