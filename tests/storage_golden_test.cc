// Golden bytes of the three on-disk formats: a WAL segment (header plus two
// records, one with hostile int64 values), a two-block block file and a
// two-file MANIFEST, each encoded from a fixed fixture and compared
// byte for byte against hex captured from the reference encoder. The other
// storage suites only round-trip, so an encoder and decoder that drift
// together would pass them; these pins catch any change to what lands on
// disk. The same bytes are also required of the real write paths:
// KeyPointWal's segment file, and the block file and MANIFEST a
// compaction of that segment publishes.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/block_format.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"
#include "storage/wal_format.h"

namespace bqs {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

wal::WalQuantization WalQuant() { return {}; }  // 1 mm, 1 ms

/// The WAL fixture: an ordinary record and a record of hostile values.
std::vector<wal::WalCheckpoint> WalCheckpoints() {
  wal::WalCheckpoint plain;
  plain.device = 42;
  plain.seq = 7;
  plain.points = {{0, 1000, -5000, 250000},
                  {3, 2000, -4990, 250123},
                  {9, 3500, -5100, 249900}};
  wal::WalCheckpoint hostile;
  hostile.device = kU64Max;
  hostile.seq = 8;
  hostile.points = {{kU64Max, kMin, kMax, -1}, {0, kMax, kMin, 0}};
  return {plain, hostile};
}

std::string EncodeWalSegment() {
  std::string out;
  wal::EncodeSegmentHeader(WalQuant(), /*first_seq=*/7, &out);
  for (const wal::WalCheckpoint& c : WalCheckpoints()) {
    wal::EncodeRecord(c, &out);
  }
  return out;
}

/// The block fixture: device 42's two checkpoints, then a hostile device.
std::vector<std::vector<wal::WalCheckpoint>> BlockRuns() {
  wal::WalCheckpoint a;
  a.device = 42;
  a.seq = 7;
  a.points = {{0, 1000, -5000, 250000}, {3, 2000, -4990, 250123}};
  wal::WalCheckpoint b;
  b.device = 42;
  b.seq = 9;
  b.points = {{9, 3500, -5100, 249900}};
  wal::WalCheckpoint c;
  c.device = 43;
  c.seq = 8;
  c.points = {{kU64Max, kMin, kMax, -1}, {0, kMax, kMin, 0}};
  return {{a, b}, {c}};
}

wal::WalQuantization BlockQuant() { return {0.01, 0.5}; }

std::string EncodeBlockFile(std::vector<ManifestBlockEntry>* entries) {
  std::string out;
  const auto runs = BlockRuns();
  blk::EncodeBlockFileHeader(BlockQuant(), static_cast<uint32_t>(runs.size()),
                             &out);
  for (const auto& run : runs) {
    ManifestBlockEntry entry;
    entry.offset = out.size();
    blk::EncodeBlock(run, &out, &entry.meta);
    entries->push_back(entry);
  }
  return out;
}

Manifest TwoFileManifest() {
  Manifest m;
  m.quant = BlockQuant();
  m.last_applied_seq = 99;
  ManifestBlockFile first;
  first.file_id = 1;
  first.file_bytes = EncodeBlockFile(&first.blocks).size();
  ManifestBlockFile second;
  second.file_id = 5;
  second.file_bytes = 1234;
  ManifestBlockEntry hostile;
  hostile.offset = 32;
  hostile.meta = {kU64Max, 1, kU64Max, 3, 4, kMin, kMax, kMin, kMax, -1, 0};
  second.blocks.push_back(hostile);
  m.files = {first, second};
  return m;
}

// Captured from the reference encoder; a change here is a format change.
const char kWalSegmentHex[] =
    "4251574c01000000fca9f1d24d62503ffca9f1d24d62503f0700000000000000"
    "008f521418000000fe1ec3ec2a070300d00f8f4ea0c21e06d00f14f6010cb817"
    "db01bd032f000000cb599175ffffffffffffffffff010802ffffffffffffffff"
    "ff01ffffffffffffffffff01feffffffffffffffff010102010202";
const char kBlockFileHex[] =
    "4251424b01000000000000000000e03f7b14ae47e17a843f0200000076df47fb"
    "2a000000e57c150d2a020704020103d00fd836d74ffb4dd8c01e96c41e00060c"
    "d00fd00fb8178f4e14db01a0c21ef601bd03520000004b65291d2b01080202ff"
    "ffffffffffffffff01feffffffffffffffff01ffffffffffffffffff01feffff"
    "ffffffffffff010100ffffffffffffffffff0102ffffffffffffffffff0101fe"
    "ffffffffffffffff01020102";
const char kManifestHex[] =
    "42514d4601000000000000000000e03f7b14ae47e17a843f6300000000000000"
    "020000009d0bac774800000020d1343001ac0102202a07090203d00fd836d74f"
    "fb4dd8c01e96c41e522b08080102ffffffffffffffffff01feffffffffffffff"
    "ff01ffffffffffffffffff01feffffffffffffffff01010046000000dd9d9596"
    "05d2090120ffffffffffffffffff0101ffffffffffffffffff010304ffffffff"
    "ffffffffff01feffffffffffffffff01ffffffffffffffffff01feffffffffff"
    "ffffff010100";
const char kCompactedBlockFileHex[] =
    "4251424b01000000fca9f1d24d62503ffca9f1d24d62503f020000005ebe07c2"
    "28000000148e4bd12a01070303d00fd836d74ffb4dd8c01e96c41e00060cd00f"
    "d00fb8178f4e14db01a0c21ef601bd035b000000027c886effffffffffffffff"
    "ff0101080202ffffffffffffffffff01feffffffffffffffff01ffffffffffff"
    "ffffff01feffffffffffffffff010100ffffffffffffffffff0102ffffffffff"
    "ffffffff0101feffffffffffffffff01020102";
const char kCompactedManifestHex[] =
    "42514d4601000000fca9f1d24d62503ffca9f1d24d62503f0800000000000000"
    "01000000ba84524b5100000036d4ddf501b30102202a07070103d00fd836d74f"
    "fb4dd8c01e96c41e50ffffffffffffffffff0108080102ffffffffffffffffff"
    "01feffffffffffffffff01ffffffffffffffffff01feffffffffffffffff0101"
    "00";

TEST(StorageGoldenTest, WalSegmentBytes) {
  const std::string bytes = EncodeWalSegment();
  EXPECT_EQ(Hex(bytes), kWalSegmentHex);
  std::vector<wal::WalCheckpoint> out;
  WalRecoveryReport report;
  WalReader::RecoverSegment(
      {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()},
      /*is_last=*/true, &out, &report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(out, WalCheckpoints());
}

TEST(StorageGoldenTest, BlockFileBytes) {
  std::vector<ManifestBlockEntry> entries;
  EXPECT_EQ(Hex(EncodeBlockFile(&entries)), kBlockFileHex);
}

TEST(StorageGoldenTest, ManifestBytes) {
  std::string bytes;
  EncodeManifest(TwoFileManifest(), &bytes);
  EXPECT_EQ(Hex(bytes), kManifestHex);
  Manifest decoded;
  ASSERT_TRUE(DecodeManifest(
      {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()},
      &decoded));
  EXPECT_EQ(decoded, TwoFileManifest());
}

TEST(StorageGoldenTest, WriterAndCompactorPublishTheSameBytes) {
  const std::string wal_dir = FreshDir("golden_wal");
  const std::string block_dir = FreshDir("golden_blocks");
  {
    KeyPointWalOptions options;
    options.dir = wal_dir;
    options.quant = WalQuant();
    KeyPointWal writer(options);
    ASSERT_TRUE(writer.Open(/*first_seq=*/7).ok());
    for (const wal::WalCheckpoint& c : WalCheckpoints()) {
      ASSERT_TRUE(writer.AppendCheckpoint(c).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_EQ(Hex(ReadAll(wal_dir + "/wal-000001.log")), kWalSegmentHex);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(Hex(ReadAll(block_dir + "/" + BlockFileName(1))),
            kCompactedBlockFileHex);
  EXPECT_EQ(Hex(ReadAll(block_dir + "/MANIFEST")), kCompactedManifestHex);
}

}  // namespace
}  // namespace bqs
