// Compaction functional tests: WAL segments drain into columnar blocks
// behind an atomic manifest, recovery off blocks ∪ WAL tail is exact,
// failures degrade (ENOSPC) or retry (rename) per policy, and range
// queries answer off the compressed blocks — pruned by file, block and
// chunk bounds, in (block id, stored order) — decoding only what matches
// once per open, through a byte-capped decoded-block cache that is safe
// under concurrent queries and never caches a block that failed a check.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "storage/block_format.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"

namespace bqs {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<KeyPoint> MakeKeys(uint64_t start_index, int n, double t0,
                               double x0, double y0) {
  std::vector<KeyPoint> keys;
  for (int i = 0; i < n; ++i) {
    KeyPoint k;
    k.index = start_index + static_cast<uint64_t>(i);
    k.point.t = t0 + i * 5.0;
    k.point.pos = {x0 + i * 3.25, y0 - i * 2.5};
    keys.push_back(k);
  }
  return keys;
}

/// Fills `dir` with a multi-segment WAL (2 devices, forced rotations) and
/// returns every key appended, in append order per device.
void BuildWal(const std::string& dir,
              std::vector<std::vector<KeyPoint>>* appended = nullptr) {
  KeyPointWalOptions options;
  options.dir = dir;
  options.segment_bytes = 256;  // rotate every append or two
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  for (int c = 0; c < 6; ++c) {
    const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 10, 4, 100.0 * c,
                 device == 1 ? 0.0 : 5000.0, device == 1 ? 0.0 : -5000.0);
    ASSERT_TRUE(wal.Append(device, keys).ok());
    if (appended != nullptr) appended->push_back(keys);
  }
  ASSERT_TRUE(wal.Close().ok());
}

/// The ground truth the union must reproduce: a plain WAL recovery taken
/// before any compaction ran.
std::vector<wal::WalCheckpoint> AckedCheckpoints(const std::string& dir) {
  Result<WalRecovery> r = WalReader::Recover(dir);
  EXPECT_TRUE(r.ok());
  return std::move(r.value().checkpoints);
}

void ExpectExactRecovery(const std::string& wal_dir,
                         const std::string& block_dir,
                         const std::vector<wal::WalCheckpoint>& acked) {
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok()) << r.status().message();
  const std::vector<wal::WalCheckpoint>& got = r.value().wal.checkpoints;
  ASSERT_EQ(got.size(), acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(got[i] == acked[i]) << "checkpoint " << i;
  }
}

std::size_t CountFiles(const std::string& dir, const std::string& suffix) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

TEST(CompactionTest, CompactsEverythingAndRecoveryIsExact) {
  const std::string wal_dir = FreshDir("compact_basic_wal");
  const std::string block_dir = FreshDir("compact_basic_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);
  ASSERT_GE(acked.size(), 6u);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());

  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_EQ(stats.checkpoints_compacted, acked.size());
  EXPECT_GT(stats.segments_consumed, 1u);  // the WAL really rotated
  EXPECT_EQ(stats.segments_deleted, stats.segments_consumed);
  EXPECT_EQ(stats.block_files_written, 1u);
  EXPECT_GE(stats.blocks_written, 2u);  // one run per device at least

  // The WAL directory is drained; the block directory is published.
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 1u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);
  Manifest manifest;
  ASSERT_TRUE(ReadManifest(block_dir, &manifest).ok());
  EXPECT_EQ(manifest.last_applied_seq, acked.back().seq);

  ExpectExactRecovery(wal_dir, block_dir, acked);
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.clean());
  EXPECT_EQ(r.value().report.checkpoints_from_wal, 0u);
  EXPECT_EQ(r.value().wal.next_seq, acked.back().seq + 1);
}

TEST(CompactionTest, RespectsSegmentBoundAndCompactsIncrementally) {
  const std::string wal_dir = FreshDir("compact_incr_wal");
  const std::string block_dir = FreshDir("compact_incr_blk");

  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.segment_bytes = 256;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  for (int c = 0; c < 6; ++c) {
    ASSERT_TRUE(
        wal.Append(1, MakeKeys(static_cast<uint64_t>(c) * 100, 16,
                               100.0 * c, 0.0, 0.0))
            .ok());
  }

  // Ground truth so far: everything acked before any compaction ran.
  std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);
  ASSERT_EQ(acked.size(), 6u);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  // Compact only the sealed segments; the active one stays.
  const uint64_t active = wal.current_segment_index();
  ASSERT_GT(active, 1u);  // the WAL really rotated
  ASSERT_TRUE(compactor.CompactOnce(active).ok());
  EXPECT_EQ(compactor.stats().block_files_written, 1u);
  EXPECT_GE(CountFiles(wal_dir, ".log"), 1u);  // active segment survives
  EXPECT_TRUE(
      std::filesystem::exists(wal_dir + "/wal-00000" +
                              std::to_string(active) + ".log"));

  // More appends, close, compact the rest: a second block file appears and
  // the union is still the exact acked prefix.
  for (int c = 4; c < 7; ++c) {
    ASSERT_TRUE(
        wal.Append(2, MakeKeys(static_cast<uint64_t>(c) * 10, 3,
                               100.0 * c, 9000.0, 9000.0))
            .ok());
  }
  ASSERT_TRUE(wal.Close().ok());
  // The remaining WAL tail overlaps the first six; union by seq.
  for (const wal::WalCheckpoint& c : AckedCheckpoints(wal_dir)) {
    if (c.seq > acked.back().seq) acked.push_back(c);
  }
  ASSERT_EQ(acked.size(), 9u);

  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);
  ExpectExactRecovery(wal_dir, block_dir, acked);

  // A third run with nothing to do is a successful no-op.
  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(compactor.stats().runs_completed, 3u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 2u);
}

TEST(CompactionTest, QuarantinesStaleTempAndOrphanBlocks) {
  const std::string wal_dir = FreshDir("compact_debris_wal");
  const std::string block_dir = FreshDir("compact_debris_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  std::filesystem::create_directories(block_dir);
  {
    std::ofstream tmp(block_dir + "/" + BlockFileName(5) + ".tmp",
                      std::ios::binary);
    tmp << "half-written block file";
    std::ofstream mtmp(block_dir + "/MANIFEST.tmp", std::ios::binary);
    mtmp << "half-written manifest";
    std::ofstream orphan(block_dir + "/" + BlockFileName(5),
                         std::ios::binary);
    orphan << "published but never referenced";
  }

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.orphan_tmp_removed, 2u);
  EXPECT_EQ(stats.orphan_blocks_removed, 1u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), 1u);  // only the real one
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, UnreadableManifestDeletesNoBlockFile) {
  // A MANIFEST that exists but cannot be read (a directory in its place)
  // is not a fresh directory: the run must fail, and its cleanup must not
  // take every block file for an orphan.
  const std::string wal_dir = FreshDir("compact_unreadable_wal");
  const std::string block_dir = FreshDir("compact_unreadable_blk");
  BuildWal(wal_dir);
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  ASSERT_TRUE(Compactor(options).CompactOnce().ok());
  const std::size_t blocks = CountFiles(block_dir, ".bqb");
  ASSERT_GT(blocks, 0u);
  std::filesystem::remove(block_dir + "/MANIFEST");
  std::filesystem::create_directories(block_dir + "/MANIFEST");

  BuildWal(wal_dir);  // fresh segments for the next run to drain
  Compactor compactor(options);
  const Status st = compactor.CompactOnce();
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.message();
  EXPECT_EQ(CountFiles(block_dir, ".bqb"), blocks);
  EXPECT_EQ(compactor.stats().orphan_blocks_removed, 0u);
  EXPECT_EQ(compactor.stats().runs_failed, 1u);
  EXPECT_EQ(RecoverStore(wal_dir, block_dir).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(BlockStore::Open(block_dir).status().code(),
            StatusCode::kIoError);
}

TEST(CompactionTest, PersistentEnospcDegradesAndResetRecovers) {
  const std::string wal_dir = FreshDir("compact_enospc_wal");
  const std::string block_dir = FreshDir("compact_enospc_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultSite::kEnospc, /*probability=*/1.0);  // persistent

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.fault_injector = &injector;
  Compactor compactor(options);

  const Status st = compactor.CompactOnce();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsEnospc(st)) << st.message();
  EXPECT_TRUE(compactor.degraded());
  {
    const CompactionStats stats = compactor.stats();
    EXPECT_EQ(stats.runs_failed, 1u);
    EXPECT_EQ(stats.enospc_events, 1u);
    EXPECT_EQ(stats.last_error_code, StatusCode::kIoError);
    // Exhausted the whole retry budget before degrading.
    EXPECT_EQ(stats.io_retries, options.backoff.max_attempts - 1);
  }
  // Degrade-and-continue: the WAL is untouched, recovery still exact, and
  // further runs are fast no-op errors that do not touch disk.
  EXPECT_GT(CountFiles(wal_dir, ".log"), 0u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
  ASSERT_FALSE(compactor.CompactOnce().ok());
  EXPECT_EQ(compactor.stats().runs_started, 1u);  // degraded runs don't start

  // Space comes back: disarm, re-arm the compactor, and it drains fully.
  injector.Arm(FaultSite::kEnospc, /*probability=*/0.0);
  compactor.ResetDegraded();
  EXPECT_FALSE(compactor.degraded());
  ASSERT_TRUE(compactor.CompactOnce().ok());
  EXPECT_EQ(CountFiles(wal_dir, ".log"), 0u);
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, RenameFailuresRetryUnderBackoffAndSucceed) {
  const std::string wal_dir = FreshDir("compact_rename_wal");
  const std::string block_dir = FreshDir("compact_rename_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  FaultInjector injector(/*seed=*/7);
  injector.Arm(FaultSite::kRenameFail, /*probability=*/1.0, /*max_fires=*/2);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.fault_injector = &injector;
  Compactor compactor(options);

  ASSERT_TRUE(compactor.CompactOnce().ok());
  const CompactionStats stats = compactor.stats();
  EXPECT_EQ(stats.runs_completed, 1u);
  EXPECT_EQ(stats.io_retries, 2u);  // two injected failures, then success
  EXPECT_EQ(stats.runs_failed, 0u);
  EXPECT_EQ(CountFiles(block_dir, ".tmp"), 0u);  // retries left no debris
  ExpectExactRecovery(wal_dir, block_dir, acked);
}

TEST(CompactionTest, CorruptManifestFallbackRecoversExactly) {
  const std::string wal_dir = FreshDir("compact_fallback_wal");
  const std::string block_dir = FreshDir("compact_fallback_blk");
  BuildWal(wal_dir);
  const std::vector<wal::WalCheckpoint> acked = AckedCheckpoints(wal_dir);

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());

  // Trash the manifest: recovery falls back to scanning published block
  // files and still reproduces the exact acked prefix.
  {
    std::ofstream out(block_dir + "/MANIFEST",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().report.manifest_corrupt);
  EXPECT_FALSE(r.value().report.clean());
  ASSERT_EQ(r.value().wal.checkpoints.size(), acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    EXPECT_TRUE(r.value().wal.checkpoints[i] == acked[i]);
  }

  // A compactor refuses to run over a corrupt manifest (it cannot trust
  // the watermark), and does NOT degrade — this is not disk-full.
  Compactor again(options);
  ASSERT_FALSE(again.CompactOnce().ok());
  EXPECT_FALSE(again.degraded());
}

TEST(CompactionTest, RecoveryWalksSkipOrStopAtDamagedBlocks) {
  // RecoverStore verifies each block straight from the file image it read.
  // A damaged block costs exactly itself on the manifest walk (offsets
  // come from the manifest), but ends the manifest-less fallback walk,
  // which has lost the framing it steps through.
  const auto recover = [](const std::string& wal_dir,
                          const std::string& block_dir) {
    Result<StoreRecovery> r = RecoverStore(wal_dir, block_dir);
    EXPECT_TRUE(r.ok());
    return r.value().report;
  };
  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncated last block" : "flipped first block");
    const std::string wal_dir = FreshDir("compact_damage_wal");
    const std::string block_dir = FreshDir("compact_damage_blk");
    BuildWal(wal_dir);
    CompactionOptions options;
    options.wal_dir = wal_dir;
    options.block_dir = block_dir;
    Compactor compactor(options);
    ASSERT_TRUE(compactor.CompactOnce().ok());
    Manifest manifest;
    ASSERT_TRUE(ReadManifest(block_dir, &manifest).ok());
    ASSERT_EQ(manifest.files.size(), 1u);
    const ManifestBlockFile& file = manifest.files[0];
    ASSERT_EQ(file.blocks.size(), 2u);  // one block per device
    const std::string path = block_dir + "/" + BlockFileName(file.file_id);
    if (truncate) {
      // Cut into the last block's payload: a short read, not a CRC miss.
      std::filesystem::resize_file(
          path, file.blocks[1].offset + wal::kFrameHeaderBytes + 2);
    } else {
      std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
      const auto at = static_cast<std::streamoff>(file.blocks[0].offset +
                                                  wal::kFrameHeaderBytes + 1);
      io.seekg(at);
      const char byte = static_cast<char>(io.get());
      io.seekp(at);
      io.put(static_cast<char>(byte ^ 0x5a));
    }

    const StoreRecoveryReport referenced = recover(wal_dir, block_dir);
    EXPECT_EQ(referenced.blocks_decoded, 1u);
    EXPECT_EQ(referenced.blocks_corrupt, 1u);
    EXPECT_FALSE(referenced.clean());

    std::filesystem::remove(block_dir + "/MANIFEST");
    const StoreRecoveryReport fallback = recover(wal_dir, block_dir);
    EXPECT_FALSE(fallback.manifest_found);
    // Damage in the first block stops the walk before the second; damage
    // in the last one leaves the first decoded.
    EXPECT_EQ(fallback.blocks_decoded, truncate ? 1u : 0u);
    EXPECT_EQ(fallback.blocks_corrupt, 1u);
  }
}

TEST(WalSegmentListingTest, QuarantinesDuplicatesAndTempsDeterministically) {
  const std::string dir = FreshDir("wal_dirty_dir");
  std::filesystem::create_directories(dir);
  const auto touch = [&](const std::string& name, const std::string& body) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << body;
  };
  touch("wal-000001.log", "a");
  touch("wal-1.log", "duplicate of 1");  // same index, different spelling
  touch("wal-000002.log", "b");
  touch("wal-000002.log.tmp", "stale temp");
  touch("notes.txt", "foreign");

  for (int round = 0; round < 3; ++round) {  // deterministic across calls
    std::vector<std::string> ignored;
    Result<std::vector<WalSegmentFile>> listed = ListWalSegments(dir, &ignored);
    ASSERT_TRUE(listed.ok());
    ASSERT_EQ(listed.value().size(), 2u);
    EXPECT_EQ(listed.value()[0].index, 1u);
    // Lexicographically smallest path wins the duplicate index.
    EXPECT_EQ(listed.value()[0].path, dir + "/wal-000001.log");
    EXPECT_EQ(listed.value()[1].index, 2u);
    std::sort(ignored.begin(), ignored.end());
    ASSERT_EQ(ignored.size(), 2u);
    EXPECT_EQ(ignored[0], dir + "/wal-000002.log.tmp");
    EXPECT_EQ(ignored[1], dir + "/wal-1.log");
  }
  // The no-out-param overload still dedupes (foreign/tmp just unreported).
  Result<std::vector<WalSegmentFile>> listed = ListWalSegments(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().size(), 2u);
}

TEST(WalHealthTest, StatsReportCauseOfDeath) {
  const std::string dir = FreshDir("wal_health");
  FaultInjector injector(/*seed=*/3);
  injector.Arm(FaultSite::kFsyncFail, /*probability=*/1.0, /*max_fires=*/1);
  KeyPointWalOptions options;
  options.dir = dir;
  options.durability = WalDurability::kFsyncEveryBatch;
  options.fault_injector = &injector;
  KeyPointWal wal(options);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_TRUE(wal.stats().healthy());

  ASSERT_FALSE(wal.Append(1, MakeKeys(0, 3, 0.0, 0.0, 0.0)).ok());
  EXPECT_TRUE(wal.dead());
  const KeyPointWalStats stats = wal.stats();
  EXPECT_FALSE(stats.healthy());
  EXPECT_EQ(stats.last_error_code, StatusCode::kIoError);
  EXPECT_NE(stats.last_error.find("fsync"), std::string::npos);
}

// --- range queries off compressed blocks ----------------------------------

TEST(BlockStoreTest, RangeQueryPrunesAndHonorsQuantumBound) {
  const std::string wal_dir = FreshDir("blockstore_wal");
  const std::string block_dir = FreshDir("blockstore_blk");

  // Two far-apart clusters so pruning is observable; small blocks so each
  // cluster spans several.
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  ASSERT_TRUE(wal.Open().ok());
  std::vector<KeyPoint> originals;
  for (int c = 0; c < 8; ++c) {
    const DeviceId device = 1 + static_cast<DeviceId>(c % 2);
    const double x0 = device == 1 ? 0.0 : 100000.0;
    const double y0 = device == 1 ? 0.0 : 100000.0;
    const std::vector<KeyPoint> keys =
        MakeKeys(static_cast<uint64_t>(c) * 10, 5, 50.0 * c, x0, y0);
    originals.insert(originals.end(), keys.begin(), keys.end());
    ASSERT_TRUE(wal.Append(device, keys).ok());
  }
  ASSERT_TRUE(wal.Close().ok());

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.max_points_per_block = 5;  // one block per checkpoint here
  Compactor compactor(options);
  ASSERT_TRUE(compactor.CompactOnce().ok());
  ASSERT_GE(compactor.stats().blocks_written, 8u);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  EXPECT_EQ(store.block_count(), compactor.stats().blocks_written);

  const wal::WalQuantization quant = store.manifest().quant;
  const Vec2 center{10.0, -10.0};
  const double radius = 60.0;
  const double t_min = 0.0, t_max = 200.0;

  std::vector<KeyPoint> got;
  RangeQueryStats qstats;
  ASSERT_TRUE(store.Query(center, radius, t_min, t_max, &got, &qstats).ok());

  // Brute-force expectation over the quantized originals (what storage
  // holds): each within quantum/2 per axis of the raw input.
  std::size_t expected = 0;
  for (const KeyPoint& k : originals) {
    const KeyPoint q = wal::Dequantize(wal::Quantize(k, quant), quant);
    EXPECT_LE(std::abs(q.point.t - k.point.t), quant.time_quantum / 2 + 1e-12);
    EXPECT_LE(std::abs(q.point.pos.x - k.point.pos.x),
              quant.coord_quantum / 2 + 1e-12);
    EXPECT_LE(std::abs(q.point.pos.y - k.point.pos.y),
              quant.coord_quantum / 2 + 1e-12);
    if (q.point.t >= t_min && q.point.t <= t_max &&
        Distance(q.point.pos, center) <= radius) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(got.size(), expected);
  EXPECT_EQ(qstats.points_returned, expected);
  for (const KeyPoint& k : got) {
    EXPECT_LE(Distance(k.point.pos, center), radius);
    EXPECT_GE(k.point.t, t_min);
    EXPECT_LE(k.point.t, t_max);
  }

  // Pruning really pruned: the far cluster's blocks were never decoded.
  EXPECT_EQ(qstats.blocks_total, store.block_count());
  EXPECT_LT(qstats.blocks_decoded, qstats.blocks_total);
  EXPECT_LE(qstats.blocks_decoded, qstats.grid_candidates);

  // A query over empty space decodes nothing at all.
  std::vector<KeyPoint> none;
  RangeQueryStats far_stats;
  ASSERT_TRUE(store
                  .Query(Vec2{-50000.0, 50000.0}, 100.0, t_min, t_max, &none,
                         &far_stats)
                  .ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(far_stats.blocks_decoded, 0u);

  // A time window that misses everything prunes by time span alone.
  RangeQueryStats late_stats;
  ASSERT_TRUE(
      store.Query(center, radius, 1e6, 2e6, &none, &late_stats).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(late_stats.blocks_decoded, 0u);
}

TEST(BlockStoreTest, OpenReportsNotFoundWithoutManifest) {
  const std::string dir = FreshDir("blockstore_empty");
  std::filesystem::create_directories(dir);
  Result<BlockStore> opened = BlockStore::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

// --- decoded-block cache --------------------------------------------------

using Batches = std::vector<std::pair<DeviceId, std::vector<KeyPoint>>>;

/// Strict weak order so query results compare as sorted point sets.
bool KeyLess(const KeyPoint& a, const KeyPoint& b) {
  return std::tie(a.point.t, a.point.pos.x, a.point.pos.y, a.index) <
         std::tie(b.point.t, b.point.pos.x, b.point.pos.y, b.index);
}

std::vector<KeyPoint> Sorted(std::vector<KeyPoint> keys) {
  std::sort(keys.begin(), keys.end(), KeyLess);
  return keys;
}

/// Appends every batch to a fresh WAL, compacts all of it into
/// `block_dir`, and returns every point as storage holds it (quantized,
/// then dequantized) — the brute-force reference.
std::vector<KeyPoint> CompactBatches(const std::string& wal_dir,
                                     const std::string& block_dir,
                                     const Batches& batches,
                                     std::size_t max_points_per_block) {
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  KeyPointWal wal(wal_options);
  EXPECT_TRUE(wal.Open().ok());
  std::vector<KeyPoint> stored;
  for (const auto& [device, keys] : batches) {
    EXPECT_TRUE(wal.Append(device, keys).ok());
    for (const KeyPoint& k : keys) {
      stored.push_back(wal::Dequantize(wal::Quantize(k, wal_options.quant),
                                       wal_options.quant));
    }
  }
  EXPECT_TRUE(wal.Close().ok());

  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.max_points_per_block = max_points_per_block;
  Compactor compactor(options);
  EXPECT_TRUE(compactor.CompactOnce().ok());
  return stored;
}

std::vector<KeyPoint> BruteForce(const std::vector<KeyPoint>& stored,
                                 Vec2 center, double radius, double t_min,
                                 double t_max) {
  std::vector<KeyPoint> hits;
  for (const KeyPoint& k : stored) {
    if (k.point.t >= t_min && k.point.t <= t_max &&
        DistanceSq(k.point.pos, center) <= radius * radius) {
      hits.push_back(k);
    }
  }
  return Sorted(std::move(hits));
}

/// Every stored point in (block id, stored order), read straight off the
/// block files the manifest names: block ids number the manifest's files'
/// entries in order, and a query returns its hits in this order.
std::vector<KeyPoint> StoredInBlockOrder(const std::string& block_dir) {
  Manifest manifest;
  EXPECT_TRUE(ReadManifest(block_dir, &manifest).ok());
  std::vector<KeyPoint> points;
  for (const ManifestBlockFile& file : manifest.files) {
    std::ifstream in(block_dir + "/" + BlockFileName(file.file_id),
                     std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    for (const ManifestBlockEntry& entry : file.blocks) {
      EXPECT_LE(entry.offset + wal::kFrameHeaderBytes, bytes.size());
      if (entry.offset + wal::kFrameHeaderBytes > bytes.size()) break;
      const uint8_t* const framed =
          reinterpret_cast<const uint8_t*>(bytes.data()) + entry.offset;
      blk::BlockMeta meta;
      std::vector<wal::WalCheckpoint> decoded;
      EXPECT_TRUE(blk::DecodeBlockPayload(
          {framed + wal::kFrameHeaderBytes, wal::GetU32(framed)}, &meta,
          &decoded));
      for (const wal::WalCheckpoint& c : decoded) {
        for (const wal::WalPoint& p : c.points) {
          points.push_back(wal::Dequantize(p, manifest.quant));
        }
      }
    }
  }
  return points;
}

/// The brute-force walk a query must reproduce exactly, order included.
std::vector<KeyPoint> OrderedBruteForce(const std::vector<KeyPoint>& in_order,
                                        Vec2 center, double radius,
                                        double t_min, double t_max) {
  std::vector<KeyPoint> hits;
  for (const KeyPoint& k : in_order) {
    if (k.point.t >= t_min && k.point.t <= t_max &&
        DistanceSq(k.point.pos, center) <= radius * radius) {
      hits.push_back(k);
    }
  }
  return hits;
}

/// Every block that survives the exact prune is either decoded or served
/// from the cache — never skipped, never both.
void ExpectEveryHitServed(const RangeQueryStats& qs) {
  EXPECT_EQ(qs.blocks_decoded + qs.blocks_cached,
            qs.grid_candidates - qs.blocks_pruned);
}

struct RangeSpec {
  Vec2 center;
  double radius = 0.0;
  double t_min = 0.0;
  double t_max = 0.0;
};

TEST(BlockStoreTest, SecondQueryIsServedFromTheCache) {
  const std::string wal_dir = FreshDir("blockstore_warm_wal");
  const std::string block_dir = FreshDir("blockstore_warm_blk");
  Batches batches;
  for (int c = 0; c < 6; ++c) {
    batches.emplace_back(1, MakeKeys(static_cast<uint64_t>(c) * 10, 8,
                                     100.0 * c, 50.0 * c, 0.0));
  }
  const std::vector<KeyPoint> stored =
      CompactBatches(wal_dir, block_dir, batches, 8);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  EXPECT_EQ(store.cached_bytes(), 0u);

  const RangeSpec q{{100.0, -5.0}, 120.0, 0.0, 1e6};
  const std::vector<KeyPoint> expected =
      BruteForce(stored, q.center, q.radius, q.t_min, q.t_max);
  ASSERT_FALSE(expected.empty());

  std::vector<KeyPoint> cold, warm;
  RangeQueryStats cold_stats, warm_stats;
  ASSERT_TRUE(
      store.Query(q.center, q.radius, q.t_min, q.t_max, &cold, &cold_stats)
          .ok());
  ASSERT_TRUE(
      store.Query(q.center, q.radius, q.t_min, q.t_max, &warm, &warm_stats)
          .ok());
  EXPECT_EQ(Sorted(cold), expected);
  EXPECT_EQ(warm, cold);  // same blocks, same order
  EXPECT_GT(cold_stats.blocks_decoded, 0u);
  EXPECT_EQ(cold_stats.blocks_cached, 0u);
  EXPECT_EQ(warm_stats.blocks_decoded, 0u);
  EXPECT_EQ(warm_stats.blocks_cached, cold_stats.blocks_decoded);
  EXPECT_EQ(warm_stats.points_scanned, cold_stats.points_scanned);
  ExpectEveryHitServed(cold_stats);
  ExpectEveryHitServed(warm_stats);

  // Once a query has touched every block, the cache holds each block's
  // points plus one six-double box per started kChunkPoints chunk.
  std::vector<KeyPoint> all;
  ASSERT_TRUE(store.Query(q.center, 1e9, 0.0, 1e6, &all).ok());
  EXPECT_EQ(all.size(), stored.size());
  std::size_t expected_bytes = 0;
  for (const ManifestBlockFile& file : store.manifest().files) {
    for (const ManifestBlockEntry& entry : file.blocks) {
      const auto n = static_cast<std::size_t>(entry.meta.point_count);
      const std::size_t chunks =
          (n + BlockStore::kChunkPoints - 1) / BlockStore::kChunkPoints;
      expected_bytes += n * sizeof(KeyPoint) + chunks * 6 * sizeof(double);
    }
  }
  EXPECT_EQ(store.cached_bytes(), expected_bytes);
}

// Parked devices make zero-extent blocks and chunk boxes; queries of
// every width must agree with brute force, order included — near the
// origin and at UTM scale.
TEST(BlockStoreTest, ParkedDevicesWideQueryMatchesBruteForce) {
  const std::vector<Vec2> spots = {
      {0.0, 0.0}, {350.0, -120.0}, {-800.0, 400.0}, {5000.0, 5000.0}};
  int run = 0;
  for (const Vec2 origin : {Vec2{0.0, 0.0}, Vec2{500000.0, 5000000.0}}) {
    SCOPED_TRACE(testing::Message() << "origin y " << origin.y);
    const std::string tag = std::to_string(run++);
    const std::string wal_dir = FreshDir("blockstore_parked_wal" + tag);
    const std::string block_dir = FreshDir("blockstore_parked_blk" + tag);
    Batches batches;
    for (std::size_t d = 0; d < spots.size(); ++d) {
      std::vector<KeyPoint> keys;
      for (int i = 0; i < 4; ++i) {
        KeyPoint k;
        k.index = static_cast<uint64_t>(i);
        k.point.t = 60.0 * i;
        k.point.pos = {origin.x + spots[d].x, origin.y + spots[d].y};
        keys.push_back(k);
      }
      batches.emplace_back(static_cast<DeviceId>(d + 1), std::move(keys));
    }
    const std::vector<KeyPoint> stored =
        CompactBatches(wal_dir, block_dir, batches, 4096);
    const std::vector<KeyPoint> in_order = StoredInBlockOrder(block_dir);
    ASSERT_EQ(Sorted(in_order), Sorted(stored));

    Result<BlockStore> opened = BlockStore::Open(block_dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const BlockStore& store = opened.value();
    ASSERT_EQ(store.block_count(), spots.size());

    const Vec2 center{origin.x + 100.0, origin.y};
    for (const double radius : {10.0, 50.0, 1200.0}) {
      std::vector<KeyPoint> got;
      RangeQueryStats qs;
      ASSERT_TRUE(store.Query(center, radius, 0.0, 1e6, &got, &qs).ok());
      EXPECT_EQ(got, OrderedBruteForce(in_order, center, radius, 0.0, 1e6))
          << "radius " << radius;
      ExpectEveryHitServed(qs);
    }
    std::vector<KeyPoint> wide;
    ASSERT_TRUE(store.Query(center, 1200.0, 0.0, 1e6, &wide).ok());
    EXPECT_EQ(wide.size(), 12u);  // three parked devices within reach
  }
}

/// Runs each query twice on one open store (cold, then warm) and expects
/// the exact ordered brute-force answer both times.
void ExpectOrderedParity(const BlockStore& store,
                         const std::vector<KeyPoint>& in_order,
                         const std::vector<RangeSpec>& queries) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const RangeSpec& q = queries[i];
    const std::vector<KeyPoint> expected =
        OrderedBruteForce(in_order, q.center, q.radius, q.t_min, q.t_max);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<KeyPoint> got;
      RangeQueryStats qs;
      ASSERT_TRUE(
          store.Query(q.center, q.radius, q.t_min, q.t_max, &got, &qs).ok());
      EXPECT_EQ(got, expected) << "query " << i << " pass " << pass;
      EXPECT_EQ(qs.points_returned, expected.size());
      EXPECT_LE(qs.points_returned, qs.points_scanned);
      ExpectEveryHitServed(qs);
    }
  }
}

/// A point `d2` away (squared) from a query center sits exactly on the
/// circle of the smallest radius whose square reaches `d2`.
double RadiusReaching(double d2) {
  double r = std::sqrt(d2);
  while (r * r < d2) r = std::nextafter(r, 2.0 * r + 1.0);
  while (r > 0.0 && std::nextafter(r, 0.0) * std::nextafter(r, 0.0) >= d2) {
    r = std::nextafter(r, 0.0);
  }
  return r;
}

// Blocks of 1, 31, 32, 33 and max_points_per_block points, a block whose
// timestamps go back and forth, and parked devices whose chunks have zero
// extent; queries include points exactly on the circle (just in and just
// out) and exactly at t_min/t_max. Results must match a brute-force walk
// in (block id, stored order), element for element.
TEST(BlockStoreTest, OrderedParityAcrossChunkEdges) {
  const std::string wal_dir = FreshDir("blockstore_chunks_wal");
  const std::string block_dir = FreshDir("blockstore_chunks_blk");
  constexpr std::size_t kMaxPoints = 96;
  Rng rng(23);
  Batches batches;
  DeviceId device = 1;
  // Walking devices, one block each (a single checkpoint per device).
  for (const std::size_t n : {std::size_t{1}, std::size_t{31},
                              std::size_t{32}, std::size_t{33}, kMaxPoints}) {
    Vec2 pos{300.0 * static_cast<double>(device), 0.0};
    std::vector<KeyPoint> keys;
    for (std::size_t i = 0; i < n; ++i) {
      KeyPoint k;
      k.index = i;
      k.point.t = 10.0 * static_cast<double>(i);
      pos.x += rng.Uniform(0.5, 6.0);
      pos.y += rng.Uniform(-4.0, 4.0);
      k.point.pos = pos;
      keys.push_back(k);
    }
    batches.emplace_back(device++, std::move(keys));
  }
  // Timestamps that jump back and forth inside one block (two
  // checkpoints of 40 that pack into one 80-point block).
  const DeviceId shuffled = device++;
  for (int c = 0; c < 2; ++c) {
    std::vector<KeyPoint> keys;
    for (int i = 0; i < 40; ++i) {
      KeyPoint k;
      k.index = static_cast<uint64_t>(c * 40 + i);
      k.point.t = 5.0 * static_cast<double>((c * 40 + i) * 37 % 80);
      k.point.pos = {-500.0 + 2.0 * i, 700.0 - 3.0 * c};
      keys.push_back(k);
    }
    batches.emplace_back(shuffled, std::move(keys));
  }
  // Parked: one device moves only in time, one not even in time.
  for (const double dt : {7.0, 0.0}) {
    std::vector<KeyPoint> keys;
    for (int i = 0; i < 70; ++i) {
      KeyPoint k;
      k.index = static_cast<uint64_t>(i);
      k.point.t = 100.0 + dt * i;
      k.point.pos = {-200.0, -200.0 - 50.0 * dt};
      keys.push_back(k);
    }
    batches.emplace_back(device++, std::move(keys));
  }
  const std::vector<KeyPoint> stored =
      CompactBatches(wal_dir, block_dir, batches, kMaxPoints);
  const std::vector<KeyPoint> in_order = StoredInBlockOrder(block_dir);
  ASSERT_EQ(Sorted(in_order), Sorted(stored));

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  ASSERT_EQ(store.block_count(), 8u);

  std::vector<RangeSpec> queries;
  for (int i = 0; i < 40; ++i) {
    const KeyPoint& at = in_order[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(in_order.size()) - 1))];
    const double t_lo = rng.Uniform(-50.0, 800.0);
    queries.push_back(RangeSpec{
        {at.point.pos.x + rng.Uniform(-60.0, 60.0),
         at.point.pos.y + rng.Uniform(-60.0, 60.0)},
        rng.Uniform(0.5, 400.0), t_lo, t_lo + rng.Uniform(0.0, 600.0)});
  }
  // Boundaries: each stored point's distance from a shifted center is
  // met exactly by one radius and missed by the next one down, and its
  // timestamp is the window's closed end on either side.
  for (std::size_t i = 0; i < in_order.size(); i += 7) {
    const KeyPoint& k = in_order[i];
    const Vec2 center{k.point.pos.x - 13.0, k.point.pos.y + 2.5};
    const double r = RadiusReaching(DistanceSq(k.point.pos, center));
    queries.push_back(RangeSpec{center, r, 0.0, 1e6});
    queries.push_back(RangeSpec{center, std::nextafter(r, 0.0), 0.0, 1e6});
    queries.push_back(RangeSpec{center, 1e4, k.point.t, k.point.t + 30.0});
    queries.push_back(RangeSpec{center, 1e4, k.point.t - 30.0, k.point.t});
    queries.push_back(RangeSpec{center, r, k.point.t, k.point.t});
  }
  ExpectOrderedParity(store, in_order, queries);

  // A radius just short of a point excludes it; the one reaching it
  // includes it.
  const KeyPoint& edge = in_order.back();
  const Vec2 off{edge.point.pos.x + 3.0, edge.point.pos.y - 4.0};
  const double reach = RadiusReaching(DistanceSq(edge.point.pos, off));
  std::vector<KeyPoint> in, out;
  ASSERT_TRUE(store.Query(off, reach, 0.0, 1e6, &in).ok());
  ASSERT_TRUE(store.Query(off, std::nextafter(reach, 0.0), 0.0, 1e6, &out)
                  .ok());
  EXPECT_NE(std::find(in.begin(), in.end(), edge), in.end());
  EXPECT_EQ(std::find(out.begin(), out.end(), edge), out.end());

  // Chunk boxes prune inside a block: a tight query at the start of the
  // max-size walk scans its first chunk only.
  const std::size_t walk_start = 1 + 31 + 32 + 33;
  ASSERT_EQ(in_order[walk_start].index, 0u);
  const KeyPoint& first = in_order[walk_start];
  std::vector<KeyPoint> got;
  RangeQueryStats qs;
  ASSERT_TRUE(store.Query(first.point.pos, 0.25, 0.0, 1e6, &got, &qs).ok());
  EXPECT_EQ(got, OrderedBruteForce(in_order, first.point.pos, 0.25, 0.0,
                                   1e6));
  EXPECT_EQ(qs.blocks_total - qs.blocks_pruned, 1u);
  EXPECT_EQ(qs.points_scanned, BlockStore::kChunkPoints);
}

// Three compaction rounds over disjoint time slices make three block
// files; a window inside one slice screens out the other files whole.
TEST(BlockStoreTest, FileScreenSkipsWholeFilesInOrder) {
  const std::string wal_dir = FreshDir("blockstore_files_wal");
  const std::string block_dir = FreshDir("blockstore_files_blk");
  Rng rng(5);
  CompactionOptions options;
  options.wal_dir = wal_dir;
  options.block_dir = block_dir;
  options.max_points_per_block = 40;
  Compactor compactor(options);
  uint64_t next_seq = 1;
  std::vector<Vec2> pos = {{0, 0}, {400, 0}, {0, 400}};
  std::vector<uint64_t> index(pos.size(), 0);
  for (int round = 0; round < 3; ++round) {
    KeyPointWalOptions wal_options;
    wal_options.dir = wal_dir;
    KeyPointWal wal(wal_options);
    ASSERT_TRUE(wal.Open(next_seq).ok());
    for (int c = 0; c < 4; ++c) {
      for (std::size_t d = 0; d < pos.size(); ++d) {
        std::vector<KeyPoint> keys;
        for (int i = 0; i < 25; ++i) {
          KeyPoint k;
          k.index = index[d]++;
          k.point.t = 1000.0 * round + 10.0 * (c * 25 + i) + rng.Uniform(0.0, 1.0);
          pos[d].x += rng.Uniform(-8.0, 8.0);
          pos[d].y += rng.Uniform(-8.0, 8.0);
          k.point.pos = pos[d];
          keys.push_back(k);
        }
        ASSERT_TRUE(wal.Append(static_cast<DeviceId>(d + 1), keys).ok());
      }
    }
    next_seq = wal.next_seq();
    ASSERT_TRUE(wal.Close().ok());
    ASSERT_TRUE(compactor.CompactOnce().ok());
  }
  const std::vector<KeyPoint> in_order = StoredInBlockOrder(block_dir);
  ASSERT_EQ(in_order.size(), 3u * 4u * 3u * 25u);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  const std::vector<ManifestBlockFile>& files = store.manifest().files;
  ASSERT_EQ(files.size(), 3u);

  // The middle slice's window reaches the exact test with the middle
  // file's blocks only.
  std::vector<KeyPoint> got;
  RangeQueryStats qs;
  ASSERT_TRUE(store.Query({200.0, 200.0}, 5000.0, 1100.0, 1900.0, &got, &qs)
                  .ok());
  EXPECT_EQ(qs.grid_candidates, files[1].blocks.size());
  EXPECT_EQ(got,
            OrderedBruteForce(in_order, {200.0, 200.0}, 5000.0, 1100.0,
                              1900.0));
  EXPECT_FALSE(got.empty());

  // A window spanning all three slices reaches every block, in id order.
  std::vector<RangeSpec> queries = {{{200.0, 200.0}, 5000.0, 0.0, 1e6}};
  for (int i = 0; i < 30; ++i) {
    const double t_lo = rng.Uniform(-100.0, 3000.0);
    queries.push_back(RangeSpec{{rng.Uniform(-200.0, 600.0),
                                 rng.Uniform(-200.0, 600.0)},
                                rng.Uniform(10.0, 500.0), t_lo,
                                t_lo + rng.Uniform(0.0, 1500.0)});
  }
  ExpectOrderedParity(store, in_order, queries);
}

TEST(BlockStoreTest, EmptyManifestAnswersNothing) {
  const std::string dir = FreshDir("blockstore_no_files");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteManifest(dir, Manifest{}).ok());
  Result<BlockStore> opened = BlockStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  EXPECT_EQ(store.block_count(), 0u);
  std::vector<KeyPoint> got;
  RangeQueryStats qs;
  ASSERT_TRUE(store.Query({0.0, 0.0}, 1e9, -1e9, 1e9, &got, &qs).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(qs.grid_candidates, 0u);
  EXPECT_EQ(qs.points_scanned, 0u);
  EXPECT_EQ(store.cached_bytes(), 0u);
}

TEST(BlockStoreTest, ConcurrentQueriesMatchSingleThreadedAnswers) {
  const std::string wal_dir = FreshDir("blockstore_mt_wal");
  const std::string block_dir = FreshDir("blockstore_mt_blk");
  Rng rng(91);
  Batches batches;
  std::vector<Vec2> pos = {{0, 0}, {2000, 0}, {0, 2000}, {2000, 2000}};
  std::vector<double> t(pos.size(), 0.0);
  std::vector<uint64_t> index(pos.size(), 0);
  for (int c = 0; c < 30; ++c) {
    for (std::size_t d = 0; d < pos.size(); ++d) {
      std::vector<KeyPoint> keys;
      for (int i = 0; i < 16; ++i) {
        KeyPoint k;
        k.index = index[d]++;
        t[d] += rng.Uniform(1.0, 5.0);
        pos[d].x += rng.Uniform(-25.0, 25.0);
        pos[d].y += rng.Uniform(-25.0, 25.0);
        k.point.t = t[d];
        k.point.pos = pos[d];
        keys.push_back(k);
      }
      batches.emplace_back(static_cast<DeviceId>(d + 1), std::move(keys));
    }
  }
  const std::vector<KeyPoint> stored =
      CompactBatches(wal_dir, block_dir, batches, 32);

  std::vector<RangeSpec> queries;
  for (int q = 0; q < 24; ++q) {
    const Vec2 base = q % 2 == 0 ? Vec2{0, 0} : Vec2{2000, 2000};
    const double t_lo = rng.Uniform(0.0, 1000.0);
    queries.push_back(RangeSpec{
        {base.x + rng.Uniform(-300.0, 300.0),
         base.y + rng.Uniform(-300.0, 300.0)},
        rng.Uniform(50.0, 600.0), t_lo, t_lo + rng.Uniform(100.0, 2000.0)});
  }

  // Single-threaded answers, from their own open.
  std::vector<std::vector<KeyPoint>> expected;
  {
    Result<BlockStore> opened = BlockStore::Open(block_dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    for (const RangeSpec& q : queries) {
      std::vector<KeyPoint> got;
      ASSERT_TRUE(
          opened.value().Query(q.center, q.radius, q.t_min, q.t_max, &got)
              .ok());
      got = Sorted(std::move(got));
      EXPECT_EQ(got, BruteForce(stored, q.center, q.radius, q.t_min, q.t_max));
      expected.push_back(std::move(got));
    }
  }

  // Four threads race a cold store over overlapping, rotated query sets.
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<KeyPoint>>> results(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const RangeSpec& q =
              queries[(i + static_cast<std::size_t>(th) * 5) % queries.size()];
          std::vector<KeyPoint> got;
          RangeQueryStats qs;
          if (!store.Query(q.center, q.radius, q.t_min, q.t_max, &got, &qs)
                   .ok() ||
              qs.blocks_decoded + qs.blocks_cached !=
                  qs.grid_candidates - qs.blocks_pruned) {
            ++failures[static_cast<std::size_t>(th)];
          }
          results[static_cast<std::size_t>(th)].push_back(
              Sorted(std::move(got)));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int th = 0; th < kThreads; ++th) {
    const auto& mine = results[static_cast<std::size_t>(th)];
    EXPECT_EQ(failures[static_cast<std::size_t>(th)], 0) << "thread " << th;
    ASSERT_EQ(mine.size(), queries.size() * kRounds);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const std::size_t qi =
          (k % queries.size() + static_cast<std::size_t>(th) * 5) %
          queries.size();
      EXPECT_EQ(mine[k], expected[qi]) << "thread " << th << " query " << qi;
    }
  }
  EXPECT_LE(store.cached_bytes(), BlockStore::kCacheBytes);
}

TEST(BlockStoreTest, CorruptBlockFailsEveryQueryThatTouchesIt) {
  const std::string wal_dir = FreshDir("blockstore_corrupt_wal");
  const std::string block_dir = FreshDir("blockstore_corrupt_blk");
  // Device 1 walks east in well-separated steps (one block each); device 2
  // sits far away.
  Batches batches;
  for (int c = 0; c < 6; ++c) {
    batches.emplace_back(1, MakeKeys(static_cast<uint64_t>(c) * 10, 5,
                                     50.0 * c, 200.0 * c, 0.0));
    batches.emplace_back(2, MakeKeys(static_cast<uint64_t>(c) * 10, 5,
                                     50.0 * c, 90000.0, 90000.0));
  }
  const std::vector<KeyPoint> stored =
      CompactBatches(wal_dir, block_dir, batches, 5);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const BlockStore& store = opened.value();
  const RangeSpec far{{90000.0, 90000.0}, 500.0, 0.0, 1e6};
  {
    std::vector<KeyPoint> got;  // warm the far cluster before the damage
    ASSERT_TRUE(store.Query(far.center, far.radius, far.t_min, far.t_max,
                            &got)
                    .ok());
  }

  // Flip one payload byte of device 1's third block, on disk, after Open.
  ASSERT_EQ(store.manifest().files.size(), 1u);
  const ManifestBlockFile& file = store.manifest().files[0];
  const ManifestBlockEntry* victim = nullptr;
  int seen = 0;
  for (const ManifestBlockEntry& entry : file.blocks) {
    if (entry.meta.device == 1 && seen++ == 2) victim = &entry;
  }
  ASSERT_NE(victim, nullptr);
  {
    std::fstream f(block_dir + "/" + BlockFileName(file.file_id),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const auto at = static_cast<std::streamoff>(victim->offset +
                                                wal::kFrameHeaderBytes + 3);
    char byte = 0;
    f.seekg(at);
    ASSERT_TRUE(f.read(&byte, 1));
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(at);
    ASSERT_TRUE(f.write(&byte, 1));
  }
  const wal::WalQuantization quant = store.manifest().quant;
  const Vec2 victim_center{
      0.5 * static_cast<double>(victim->meta.qx_min + victim->meta.qx_max) *
          quant.coord_quantum,
      0.5 * static_cast<double>(victim->meta.qy_min + victim->meta.qy_max) *
          quant.coord_quantum};

  // Every query touching the block fails — repeats too: failures are
  // never cached.
  const std::vector<RangeSpec> touching = {
      {victim_center, 1.0, 0.0, 1e6},
      {victim_center, 1.0, 0.0, 1e6},
      {{500.0, 0.0}, 2000.0, 0.0, 1e6},
      {{500.0, 0.0}, 2000.0, 0.0, 1e6}};
  for (const RangeSpec& q : touching) {
    std::vector<KeyPoint> got;
    const Status st = store.Query(q.center, q.radius, q.t_min, q.t_max, &got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }

  // Queries that miss it stay OK and exact: the warm far cluster, and
  // device 1's first block (cold).
  const std::vector<RangeSpec> clear = {
      far, {{0.0, 0.0}, 20.0, 0.0, 1e6}, far};
  for (const RangeSpec& q : clear) {
    std::vector<KeyPoint> got;
    ASSERT_TRUE(
        store.Query(q.center, q.radius, q.t_min, q.t_max, &got).ok());
    EXPECT_EQ(Sorted(std::move(got)),
              BruteForce(stored, q.center, q.radius, q.t_min, q.t_max));
  }
}

}  // namespace

/// Lowers a store's cache cap so that a small store can overflow it:
/// filling the real 64 MiB cap takes ~1.75 M points, too slow and large
/// for the sanitizer jobs.
class BlockStoreTestPeer {
 public:
  static std::size_t CacheCap(const BlockStore& store) {
    return store.cache_cap_;
  }
  static void SetCacheCap(BlockStore* store, std::size_t cap) {
    store->cache_cap_ = cap;
  }
};

namespace {

// A store bigger than the cache: the cap holds, overflow blocks are
// decoded per query, and results stay exact.
TEST(BlockStoreTest, CacheNeverExceedsItsCap) {
  const std::string wal_dir = FreshDir("blockstore_cap_wal");
  const std::string block_dir = FreshDir("blockstore_cap_blk");
  constexpr std::size_t kCap = std::size_t{2} << 20;
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kBatch = 256;
  const std::size_t total_points = kCap / sizeof(KeyPoint) * 5 / 4;
  const std::size_t batches_per_device =
      total_points / (kDevices * kBatch) + 1;

  Rng rng(17);
  Batches batches;
  std::vector<Vec2> centers;
  for (std::size_t d = 0; d < kDevices; ++d) {
    centers.push_back({10000.0 * static_cast<double>(d), 0.0});
  }
  std::vector<Vec2> pos = centers;
  std::vector<double> t(kDevices, 0.0);
  std::vector<uint64_t> index(kDevices, 0);
  for (std::size_t b = 0; b < batches_per_device; ++b) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      std::vector<KeyPoint> keys(kBatch);
      for (KeyPoint& k : keys) {
        k.index = index[d]++;
        t[d] += 1.0;
        // Pulled back toward the center so the walk stays bounded.
        pos[d].x += rng.Uniform(-1.0, 1.0) - 1e-3 * (pos[d].x - centers[d].x);
        pos[d].y += rng.Uniform(-1.0, 1.0) - 1e-3 * (pos[d].y - centers[d].y);
        k.point.t = t[d];
        k.point.pos = pos[d];
      }
      batches.emplace_back(static_cast<DeviceId>(d + 1), std::move(keys));
    }
  }
  const std::vector<KeyPoint> stored =
      CompactBatches(wal_dir, block_dir, batches, 4 * kBatch);
  ASSERT_GT(stored.size() * sizeof(KeyPoint), kCap);

  Result<BlockStore> opened = BlockStore::Open(block_dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  BlockStore& store = opened.value();
  ASSERT_EQ(BlockStoreTestPeer::CacheCap(store), BlockStore::kCacheBytes);
  BlockStoreTestPeer::SetCacheCap(&store, kCap);

  // Two sweeps, each with a whole-device query per device plus a sliver
  // of time; the second sweep finds the cache full.
  uint64_t decoded[2] = {0, 0};
  uint64_t cached[2] = {0, 0};
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      const double t_end = t[d];
      for (const RangeSpec& q :
           {RangeSpec{centers[d], 3000.0, 0.0, t_end},
            RangeSpec{centers[d], 40.0, 0.25 * t_end, 0.3 * t_end}}) {
        std::vector<KeyPoint> got;
        RangeQueryStats qs;
        ASSERT_TRUE(
            store.Query(q.center, q.radius, q.t_min, q.t_max, &got, &qs).ok());
        EXPECT_LE(store.cached_bytes(), kCap);
        EXPECT_EQ(Sorted(std::move(got)),
                  BruteForce(stored, q.center, q.radius, q.t_min, q.t_max));
        ExpectEveryHitServed(qs);
        decoded[sweep] += qs.blocks_decoded;
        cached[sweep] += qs.blocks_cached;
      }
    }
  }
  EXPECT_EQ(decoded[0] + cached[0], decoded[1] + cached[1]);
  EXPECT_GT(cached[1], 0u);   // what fit is served from memory...
  EXPECT_GT(decoded[1], 0u);  // ...what did not is decoded again
  EXPECT_GT(store.cached_bytes(), kCap / 2);
}

}  // namespace
}  // namespace bqs
