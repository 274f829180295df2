#include "storage/compaction.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <system_error>
#include <utility>

#include "common/fault_injector.h"
#include "storage/file_io.h"

namespace bqs {

namespace {

/// A block directory's census: stale "*.tmp" files and block files (with
/// their ids), in directory order.
struct BlockDirListing {
  std::vector<std::string> temps;
  std::vector<std::pair<uint64_t, std::string>> blocks;
};

Status ListBlockDir(const std::string& dir, BlockDirListing* out) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    uint64_t id = 0;
    if (IsTempFileName(name)) {
      out->temps.push_back(it->path().string());
    } else if (ParseBlockFileName(name, &id)) {
      out->blocks.emplace_back(id, it->path().string());
    }
  }
  if (ec) return Status::IoError("list " + dir + ": " + ec.message());
  return Status::OK();
}

/// The ids of the block files `manifest` references.
std::set<uint64_t> ReferencedFileIds(const Manifest& manifest) {
  std::set<uint64_t> ids;
  for (const ManifestBlockFile& file : manifest.files) ids.insert(file.file_id);
  return ids;
}

/// The crash-point ladder: At() is consulted at every state-machine
/// transition, in execution order. When the armed kCompactionCrashAt
/// param matches the current transition index, the run "dies" — At()
/// returns (and latches) an IoError and every later consultation
/// short-circuits to it, so retries cannot resurrect a crashed run.
struct CrashGate {
  FaultInjector* injector = nullptr;
  uint64_t counter = 0;
  bool crashed = false;
  Status status;

  Status At() {
    if (crashed) return status;
    const uint64_t point = counter++;
    if (injector != nullptr &&
        injector->param(FaultSite::kCompactionCrashAt) == point &&
        injector->ShouldFire(FaultSite::kCompactionCrashAt)) {
      crashed = true;
      status = Status::IoError("injected compaction crash at transition " +
                               std::to_string(point));
      return status;
    }
    return Status::OK();
  }
};

/// The one block check, shared by recovery's walk over a file image and
/// BlockStore's loads: the frame at the start of `bytes`, the payload
/// decode with its embedded-meta check, and, when `expect` is set, the
/// manifest's meta. Any failure is Corruption. On success `*size` (when
/// set) is the frame's size.
Status CheckBlock(std::span<const uint8_t> bytes, const std::string& path,
                  const blk::BlockMeta* expect,
                  std::vector<wal::WalCheckpoint>* out,
                  std::size_t* size = nullptr) {
  const wal::Frame frame = wal::CheckFrame(bytes, blk::kMaxBlockPayload);
  switch (frame.status) {
    case wal::FrameStatus::kShortHeader:
      return Status::Corruption("short block framing in " + path);
    case wal::FrameStatus::kBadLength:
      return Status::Corruption("bad block length in " + path);
    case wal::FrameStatus::kBadCrc:
      return Status::Corruption("block crc mismatch in " + path);
    case wal::FrameStatus::kOk:
      break;
  }
  blk::BlockMeta meta;
  if (!blk::DecodeBlockPayload(frame.payload, &meta, out)) {
    return Status::Corruption("block payload decode failed in " + path);
  }
  if (expect != nullptr && !(meta == *expect)) {
    return Status::Corruption("block metadata mismatch in " + path);
  }
  if (size != nullptr) *size = frame.size();
  return Status::OK();
}

}  // namespace

// --- compactor ------------------------------------------------------------

Compactor::Compactor(const CompactionOptions& options) : options_(options) {}

bool Compactor::degraded() const {
  MutexLock lock(mu_);
  return degraded_;
}

void Compactor::ResetDegraded() {
  MutexLock lock(mu_);
  degraded_ = false;
}

CompactionStats Compactor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Status Compactor::CompactOnce(uint64_t max_segment_exclusive) {
  MutexLock lock(mu_);
  if (degraded_) {
    return Status::IoError(
        "compactor degraded (persistent ENOSPC); wal-only mode");
  }
  return CompactOnceLocked(max_segment_exclusive);
}

Status Compactor::CompactOnceLocked(uint64_t max_segment_exclusive) {
  FaultInjector* const injector = options_.fault_injector;
  CrashGate gate;
  gate.injector = injector;
  // Seeded per run so every run replays its own schedule: the sweep can
  // re-execute run k and see identical retry timing.
  Backoff backoff(options_.backoff,
                  options_.backoff_seed + stats_.runs_started,
                  options_.sleep, options_.sleep_ctx);
  ++stats_.runs_started;

  // Every I/O step goes through here: bounded deterministic retries, a
  // crashed gate short-circuits re-attempts (a dead process retries
  // nothing), and retry counts exclude crash-aborted steps.
  const auto step = [&](auto&& op) -> Status {
    const uint64_t before = backoff.attempts();
    const Status st = backoff.Run([&]() -> Status {
      if (gate.crashed) return gate.status;
      return op();
    });
    if (!gate.crashed && backoff.attempts() > before) {
      stats_.io_retries += backoff.attempts() - before - 1;
    }
    return st;
  };
  const auto fail = [&](const Status& st) -> Status {
    if (gate.crashed) {
      ++stats_.runs_crashed;
    } else {
      ++stats_.runs_failed;
      stats_.last_error_code = st.code();
      stats_.last_error = st.message();
      if (IsEnospc(st)) {
        ++stats_.enospc_events;
        degraded_ = true;  // degrade-and-continue: ingest stays WAL-only
      }
    }
    return st;
  };

  // [cleanup] -- block dir, current manifest, stale temp/orphan files.
  Manifest manifest;
  Status st = step([&]() -> Status {
    manifest = Manifest{};
    std::error_code ec;
    std::filesystem::create_directories(options_.block_dir, ec);
    if (ec) {
      return Status::IoError("create " + options_.block_dir + ": " +
                             ec.message());
    }
    // No manifest yet (NotFound) is the fresh-directory case. A manifest
    // that cannot be read or trusted is not ours to paper over: cleanup
    // would take every block file for an orphan, and compacting on top of
    // an untrusted watermark could delete WAL bytes not provably in
    // blocks. Refuse and report.
    const Status ms = ReadManifest(options_.block_dir, &manifest);
    return ms.code() == StatusCode::kNotFound ? Status::OK() : ms;
  });
  if (!st.ok()) return fail(st);

  st = step([&]() -> Status {
    BlockDirListing listing;
    BQS_RETURN_NOT_OK(ListBlockDir(options_.block_dir, &listing));
    // Published but never referenced blocks: a crash landed between block
    // and manifest publication. The WAL still holds their contents
    // (segments are deleted only after the manifest rename), so an orphan
    // is redundant bytes, not data.
    const std::set<uint64_t> referenced = ReferencedFileIds(manifest);
    std::vector<std::string> doomed = listing.temps;
    for (const auto& [id, path] : listing.blocks) {
      if (!referenced.contains(id)) doomed.push_back(path);
    }
    for (const std::string& path : doomed) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      if (ec) return Status::IoError("remove " + path + ": " + ec.message());
    }
    stats_.orphan_tmp_removed += listing.temps.size();
    stats_.orphan_blocks_removed += doomed.size() - listing.temps.size();
    return Status::OK();
  });
  if (!st.ok()) return fail(st);
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T0: cleaned up

  // [scan] -- sealed segments below the bound; keep what the manifest
  // does not already cover.
  std::vector<WalSegmentFile> consumed;
  std::vector<wal::WalCheckpoint> fresh;
  wal::WalQuantization quant = manifest.quant;
  uint64_t already = 0;
  st = step([&]() -> Status {
    consumed.clear();
    fresh.clear();
    already = 0;
    Result<std::vector<WalSegmentFile>> listed =
        ListWalSegments(options_.wal_dir);
    if (!listed.ok()) {
      if (listed.status().code() == StatusCode::kNotFound) {
        return Status::OK();  // no WAL directory: nothing to drain
      }
      return listed.status();
    }
    const std::vector<WalSegmentFile>& all = listed.value();
    for (const WalSegmentFile& file : all) {
      if (file.index < max_segment_exclusive) consumed.push_back(file);
    }
    std::string bytes;
    WalRecoveryReport scan_report;
    for (const WalSegmentFile& file : consumed) {
      BQS_RETURN_NOT_OK(ReadFileBytes(file.path, &bytes));
      const std::span<const uint8_t> image = AsBytes(bytes);
      wal::SegmentHeaderInfo header;
      if (wal::DecodeSegmentHeader(image, &header)) quant = header.quant;
      // Same torn-tail rule as WalReader::Recover: only the directory's
      // final segment gets truncation semantics, so the compactor reads
      // exactly what recovery would have.
      const bool is_last = !all.empty() && file.index == all.back().index;
      std::vector<wal::WalCheckpoint> replayed;
      WalReader::RecoverSegment(image, is_last, &replayed, &scan_report);
      for (wal::WalCheckpoint& c : replayed) {
        if (c.seq <= manifest.last_applied_seq) {
          ++already;
        } else {
          fresh.push_back(std::move(c));
        }
      }
    }
    return Status::OK();
  });
  if (!st.ok()) return fail(st);
  if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // T1: scanned

  stats_.segments_consumed += consumed.size();
  stats_.checkpoints_already_compacted += already;
  if (consumed.empty()) {
    ++stats_.runs_completed;
    return Status::OK();
  }

  if (!fresh.empty()) {
    // Replay order is already seq order (monotone writer, ordered
    // segments); the sort is belt-and-braces for hand-built directories.
    std::stable_sort(fresh.begin(), fresh.end(),
                     [](const wal::WalCheckpoint& a,
                        const wal::WalCheckpoint& b) { return a.seq < b.seq; });
    uint64_t new_watermark = manifest.last_applied_seq;
    uint64_t fresh_points = 0;
    for (const wal::WalCheckpoint& c : fresh) {
      new_watermark = std::max(new_watermark, c.seq);
      fresh_points += c.points.size();
    }

    // Group per device, split into bounded blocks of whole checkpoints.
    std::map<DeviceId, std::vector<wal::WalCheckpoint>> by_device;
    for (wal::WalCheckpoint& c : fresh) {
      by_device[c.device].push_back(std::move(c));
    }
    std::vector<std::vector<wal::WalCheckpoint>> pending;
    for (auto& [device, run] : by_device) {
      (void)device;
      std::vector<wal::WalCheckpoint> current;
      std::size_t current_points = 0;
      for (wal::WalCheckpoint& c : run) {
        if (!current.empty() &&
            current_points + c.points.size() > options_.max_points_per_block) {
          pending.push_back(std::move(current));
          current.clear();
          current_points = 0;
        }
        current_points += c.points.size();
        current.push_back(std::move(c));
      }
      if (!current.empty()) pending.push_back(std::move(current));
    }

    // Encode the whole block file in memory (a compaction's unit of work
    // is bounded by the WAL rotation threshold times segments drained).
    uint64_t file_id = 1;
    for (const ManifestBlockFile& file : manifest.files) {
      file_id = std::max(file_id, file.file_id + 1);
    }
    std::string file_bytes;
    blk::EncodeBlockFileHeader(quant, static_cast<uint32_t>(pending.size()),
                               &file_bytes);
    ManifestBlockFile new_file;
    new_file.file_id = file_id;
    for (const std::vector<wal::WalCheckpoint>& block : pending) {
      ManifestBlockEntry entry;
      entry.offset = file_bytes.size();
      blk::EncodeBlock(block, &file_bytes, &entry.meta);
      new_file.blocks.push_back(std::move(entry));
    }
    new_file.file_bytes = file_bytes.size();

    // [write + publish block file] (crash points inside: temp durable,
    // renamed; one more after the directory fsync below).
    st = step([&]() -> Status {
      return WriteFileAtomic(options_.block_dir, BlockFileName(file_id),
                             file_bytes, injector,
                             [&]() -> Status { return gate.At(); });
    });
    if (!st.ok()) return fail(st);
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // block durable
    stats_.block_files_written += 1;
    stats_.blocks_written += pending.size();
    stats_.block_bytes_written += file_bytes.size();
    stats_.checkpoints_compacted += fresh.size();
    stats_.points_compacted += fresh_points;

    // [write + publish manifest] -- the commit point.
    Manifest next = manifest;
    next.quant = quant;
    next.last_applied_seq = new_watermark;
    next.files.push_back(std::move(new_file));
    st = step([&]() -> Status {
      return WriteManifest(options_.block_dir, next, injector,
                           [&]() -> Status { return gate.At(); });
    });
    if (!st.ok()) return fail(st);
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);  // committed
    manifest = std::move(next);
  }

  // [delete consumed WAL segments] -- safe now (and safe to redo: every
  // checkpoint they held is at or below the published watermark).
  for (const WalSegmentFile& file : consumed) {
    if (Status cs = gate.At(); !cs.ok()) return fail(cs);
    st = step([&]() -> Status {
      std::error_code ec;
      std::filesystem::remove(file.path, ec);  // ENOENT is fine (redo)
      if (ec && ec != std::errc::no_such_file_or_directory) {
        return Status::IoError("remove " + file.path + ": " + ec.message());
      }
      return Status::OK();
    });
    if (!st.ok()) return fail(st);
    ++stats_.segments_deleted;
  }
  // Best-effort, like the WAL writer's: the data-path fsyncs gate the
  // contract, the directory sync narrows the window.
  (void)FsyncDir(options_.wal_dir);

  ++stats_.runs_completed;
  return Status::OK();
}

// --- recovery -------------------------------------------------------------

Result<StoreRecovery> RecoverStore(const std::string& wal_dir,
                                   const std::string& block_dir) {
  StoreRecovery recovery;
  StoreRecoveryReport& report = recovery.report;

  Manifest manifest;
  bool have_manifest = false;
  {
    const Status ms = ReadManifest(block_dir, &manifest);
    if (ms.ok()) {
      have_manifest = true;
      report.manifest_found = true;
    } else if (ms.code() == StatusCode::kCorruption) {
      report.manifest_found = true;
      report.manifest_corrupt = true;
    } else if (ms.code() != StatusCode::kNotFound) {
      return ms;  // environmental (unreadable directory/file)
    }
  }

  // Census of the block directory: stale temp files are counted (the next
  // compaction quarantines them); block files are collected for either
  // the referenced walk or the manifest-less fallback scan. A directory
  // that cannot be listed holds nothing to recover.
  BlockDirListing listing;
  (void)ListBlockDir(block_dir, &listing);
  report.orphan_tmp_files = listing.temps.size();
  // id -> path, deterministic
  const std::map<uint64_t, std::string> on_disk(listing.blocks.begin(),
                                                listing.blocks.end());

  std::vector<wal::WalCheckpoint> from_blocks;
  std::set<uint64_t> block_seqs;
  bool quant_known = false;

  const auto walk_file = [&](const std::string& path,
                             const ManifestBlockFile* file) {
    std::string bytes;
    if (!ReadFileBytes(path, &bytes).ok()) {
      ++report.block_files_unreadable;
      return;
    }
    const std::span<const uint8_t> image = AsBytes(bytes);
    blk::BlockFileHeaderInfo header;
    if (!blk::DecodeBlockFileHeader(image, &header)) {
      ++report.block_files_unreadable;
      return;
    }
    if (!have_manifest && !quant_known) {
      recovery.wal.quant = header.quant;
      quant_known = true;
    }
    ++report.block_files_read;
    std::size_t offset = blk::kBlockFileHeaderBytes;
    for (uint32_t b = 0; b < header.block_count; ++b) {
      // Referenced walks jump by manifest offsets (and cross-check the
      // stored metadata); the fallback walks the framing sequentially.
      const blk::BlockMeta* expect = nullptr;
      if (file != nullptr) {
        if (b >= file->blocks.size()) break;
        offset = static_cast<std::size_t>(
            std::min<uint64_t>(file->blocks[b].offset, image.size()));
        expect = &file->blocks[b].meta;
      }
      std::vector<wal::WalCheckpoint> decoded;
      std::size_t size = 0;
      if (!CheckBlock(image.subspan(offset), path, expect, &decoded, &size)
               .ok()) {
        ++report.blocks_corrupt;
        if (file == nullptr) break;  // framing lost; stop the walk
        continue;
      }
      ++report.blocks_decoded;
      for (wal::WalCheckpoint& c : decoded) {
        // The seq set only dedupes the WAL when no manifest says what the
        // blocks cover.
        if (!have_manifest) block_seqs.insert(c.seq);
        from_blocks.push_back(std::move(c));
      }
      offset += size;  // the fallback walk's framing advance
    }
  };

  if (have_manifest) {
    recovery.wal.quant = manifest.quant;
    quant_known = true;
    for (const ManifestBlockFile& file : manifest.files) {
      const auto it = on_disk.find(file.file_id);
      if (it == on_disk.end()) {
        ++report.block_files_unreadable;  // referenced but gone: data loss
        continue;
      }
      walk_file(it->second, &file);
    }
    const std::set<uint64_t> referenced = ReferencedFileIds(manifest);
    for (const auto& [id, path] : on_disk) {
      (void)path;
      if (!referenced.contains(id)) ++report.unreferenced_blocks;
    }
  } else {
    // No (trustworthy) manifest: scan every published block file. Each is
    // complete by construction (published via atomic rename), so whatever
    // decodes is real data; the WAL union below dedupes by seq.
    for (const auto& [id, path] : on_disk) {
      (void)id;
      walk_file(path, nullptr);
    }
  }
  report.checkpoints_from_blocks = from_blocks.size();

  // The WAL side: full replay, then take what blocks do not already hold.
  uint64_t max_block_seq = 0;
  for (const wal::WalCheckpoint& c : from_blocks) {
    max_block_seq = std::max(max_block_seq, c.seq);
  }
  Result<WalRecovery> walr = WalReader::Recover(wal_dir);
  if (!walr.ok()) {
    if (walr.status().code() != StatusCode::kNotFound) return walr.status();
  } else {
    WalRecovery& wal = walr.value();
    recovery.wal.report = wal.report;
    recovery.wal.next_seq = wal.next_seq;
    if (!quant_known) recovery.wal.quant = wal.quant;
    for (wal::WalCheckpoint& c : wal.checkpoints) {
      const bool covered =
          have_manifest
              ? c.seq <= manifest.last_applied_seq
              : block_seqs.find(c.seq) != block_seqs.end();
      if (covered) {
        ++report.duplicates_dropped;
      } else {
        ++report.checkpoints_from_wal;
        from_blocks.push_back(std::move(c));
      }
    }
  }

  std::stable_sort(from_blocks.begin(), from_blocks.end(),
                   [](const wal::WalCheckpoint& a,
                      const wal::WalCheckpoint& b) { return a.seq < b.seq; });
  recovery.wal.checkpoints = std::move(from_blocks);
  for (const wal::WalCheckpoint& c : recovery.wal.checkpoints) {
    if (c.seq != UINT64_MAX && c.seq >= recovery.wal.next_seq) {
      recovery.wal.next_seq = c.seq + 1;
    }
  }
  if (have_manifest && manifest.last_applied_seq != UINT64_MAX &&
      manifest.last_applied_seq >= recovery.wal.next_seq) {
    recovery.wal.next_seq = manifest.last_applied_seq + 1;
  }
  return recovery;
}

// --- range queries --------------------------------------------------------

void BlockStore::Bounds::Include(const Bounds& b) {
  t0 = std::min(t0, b.t0);
  t1 = std::max(t1, b.t1);
  x0 = std::min(x0, b.x0);
  x1 = std::max(x1, b.x1);
  y0 = std::min(y0, b.y0);
  y1 = std::max(y1, b.y1);
}

// Monotone in the bounds: where a file's union misses, so does every
// block inside it.
bool BlockStore::Bounds::Misses(Vec2 center, double radius_sq, double t_min,
                                double t_max) const {
  const double dx = std::max({x0 - center.x, center.x - x1, 0.0});
  const double dy = std::max({y0 - center.y, center.y - y1, 0.0});
  return t1 < t_min || t0 > t_max || dx * dx + dy * dy > radius_sq;
}

struct BlockStore::DecodedBlock {
  std::vector<KeyPoint> points;  ///< Dequantized, in stored order.
  /// chunks[c] bounds points [c * kChunkPoints, (c + 1) * kChunkPoints).
  std::vector<Bounds> chunks;

  std::size_t bytes() const {
    return points.size() * sizeof(KeyPoint) + chunks.size() * sizeof(Bounds);
  }

  /// Appends the points in range to `out`, skipping whole chunks that
  /// cannot hold one.
  void Filter(Vec2 center, double radius_sq, double t_min, double t_max,
              std::vector<KeyPoint>* out, RangeQueryStats* stats) const;
};

/// The per-point range filter every query runs over each surviving block.
/// It dominates warm query time, and its speed moved by ~10% with where
/// unrelated edits to this file happened to place its loop in the
/// instruction stream. Kept out of line at a fixed 64-byte alignment so
/// that placement no longer depends on the surrounding code.
///
/// A chunk is skipped when its time span misses the window or its box's
/// nearest point to `center` is out of range. That nearest point goes
/// through the same DistanceSq as the points: each point's per-axis
/// offset is at least the clamp's, and rounding is monotone, so a skipped
/// chunk holds no point the per-point test would keep.
__attribute__((noinline, aligned(64))) void BlockStore::DecodedBlock::Filter(
    Vec2 center, double radius_sq, double t_min, double t_max,
    std::vector<KeyPoint>* out, RangeQueryStats* stats) const {
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const Bounds& box = chunks[c];
    if (box.t1 < t_min || box.t0 > t_max) continue;
    const Vec2 nearest{std::clamp(center.x, box.x0, box.x1),
                       std::clamp(center.y, box.y0, box.y1)};
    if (DistanceSq(nearest, center) > radius_sq) continue;
    const std::size_t begin = c * kChunkPoints;
    const std::size_t end = std::min(begin + kChunkPoints, points.size());
    stats->points_scanned += end - begin;
    for (std::size_t i = begin; i < end; ++i) {
      const KeyPoint& key = points[i];
      if (key.point.t < t_min || key.point.t > t_max) continue;
      if (DistanceSq(key.point.pos, center) > radius_sq) continue;
      out->push_back(key);
      ++stats->points_returned;
    }
  }
}

struct BlockStore::Cache {
  explicit Cache(std::size_t block_count) : blocks(block_count) {}

  Mutex mu;
  /// Decoded blocks per block id; null until cached. A filled slot never
  /// changes again, so readers use it outside the lock.
  std::vector<std::unique_ptr<const DecodedBlock>> blocks GUARDED_BY(mu);
  std::size_t bytes GUARDED_BY(mu) = 0;
};

BlockStore::BlockStore(std::string dir, Manifest manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {}

BlockStore::BlockStore(BlockStore&&) noexcept = default;
BlockStore& BlockStore::operator=(BlockStore&&) noexcept = default;
BlockStore::~BlockStore() = default;

Result<BlockStore> BlockStore::Open(const std::string& block_dir) {
  Manifest manifest;
  BQS_RETURN_NOT_OK(ReadManifest(block_dir, &manifest));

  BlockStore store(block_dir, std::move(manifest));
  const double cq = store.manifest_.quant.coord_quantum;
  const double tq = store.manifest_.quant.time_quantum;
  for (std::size_t slot = 0; slot < store.manifest_.files.size(); ++slot) {
    FileSpan span;
    span.first = store.blocks_.size();
    for (const ManifestBlockEntry& entry :
         store.manifest_.files[slot].blocks) {
      const blk::BlockMeta& m = entry.meta;
      // The same products the dequantized points are, so every point of
      // a block lies inside its bounds exactly.
      const Bounds b{static_cast<double>(m.qt_min) * tq,
                     static_cast<double>(m.qt_max) * tq,
                     static_cast<double>(m.qx_min) * cq,
                     static_cast<double>(m.qx_max) * cq,
                     static_cast<double>(m.qy_min) * cq,
                     static_cast<double>(m.qy_max) * cq};
      if (store.blocks_.size() == span.first) {
        span.bounds = b;
      } else {
        span.bounds.Include(b);
      }
      store.block_bounds_.push_back(b);
      store.blocks_.push_back(BlockRef{slot, entry.offset, m});
    }
    span.end = store.blocks_.size();
    store.files_.push_back(span);
  }
  store.cache_ = std::make_unique<Cache>(store.blocks_.size());
  return store;
}

std::size_t BlockStore::cached_bytes() const {
  MutexLock lock(cache_->mu);
  return cache_->bytes;
}

Status BlockStore::LoadBlock(std::size_t id, DecodedBlock* block) const {
  const BlockRef& ref = blocks_[id];
  const ManifestBlockFile& file = manifest_.files[ref.file_slot];
  const std::string path = dir_ + "/" + BlockFileName(file.file_id);
  // The block spans up to the next block of its file, or the file's end.
  // Opened per cache miss: a store holds no descriptors between queries.
  const uint64_t end = id + 1 < files_[ref.file_slot].end
                           ? blocks_[id + 1].offset
                           : file.file_bytes;
  std::string bytes;
  BQS_RETURN_NOT_OK(ReadFileBytes(
      path, &bytes, ref.offset, end > ref.offset ? end - ref.offset : 0));
  std::vector<wal::WalCheckpoint> decoded;
  BQS_RETURN_NOT_OK(CheckBlock(AsBytes(bytes), path, &ref.meta, &decoded));
  const auto n = static_cast<std::size_t>(ref.meta.point_count);
  block->points.clear();
  block->points.reserve(n);
  block->chunks.clear();
  block->chunks.reserve((n + kChunkPoints - 1) / kChunkPoints);
  for (const wal::WalCheckpoint& c : decoded) {
    for (const wal::WalPoint& p : c.points) {
      const KeyPoint key = wal::Dequantize(p, manifest_.quant);
      const double t = key.point.t, x = key.point.pos.x, y = key.point.pos.y;
      const Bounds at{t, t, x, x, y, y};
      if (block->points.size() % kChunkPoints == 0) {
        block->chunks.push_back(at);
      } else {
        block->chunks.back().Include(at);
      }
      block->points.push_back(key);
    }
  }
  return Status::OK();
}

Status BlockStore::Query(Vec2 center, double radius, double t_min,
                         double t_max, std::vector<KeyPoint>* out,
                         RangeQueryStats* stats) const {
  RangeQueryStats local;
  RangeQueryStats* const s = stats != nullptr ? stats : &local;
  *s = RangeQueryStats{};
  s->blocks_total = blocks_.size();
  const double radius_sq = radius * radius;

  // File screen, then the exact block test, in id order.
  std::vector<std::size_t> hits;
  for (const FileSpan& file : files_) {
    if (file.bounds.Misses(center, radius_sq, t_min, t_max)) continue;
    s->grid_candidates += file.end - file.first;
    for (std::size_t id = file.first; id < file.end; ++id) {
      if (block_bounds_[id].Misses(center, radius_sq, t_min, t_max)) {
        ++s->blocks_pruned;
        continue;
      }
      hits.push_back(id);
    }
  }

  // One critical section finds what is already cached.
  std::vector<const DecodedBlock*> cached(hits.size(), nullptr);
  {
    MutexLock lock(cache_->mu);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      cached[i] = cache_->blocks[hits[i]].get();
    }
  }

  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (cached[i] != nullptr) {
      ++s->blocks_cached;
      cached[i]->Filter(center, radius_sq, t_min, t_max, out, s);
      continue;
    }
    auto block = std::make_unique<DecodedBlock>();
    BQS_RETURN_NOT_OK(LoadBlock(hits[i], block.get()));
    ++s->blocks_decoded;
    block->Filter(center, radius_sq, t_min, t_max, out, s);
    // Admit it if it fits; a concurrent query may have cached it already.
    const std::size_t bytes = block->bytes();
    MutexLock lock(cache_->mu);
    std::unique_ptr<const DecodedBlock>& slot = cache_->blocks[hits[i]];
    if (slot == nullptr && cache_->bytes + bytes <= cache_cap_) {
      slot = std::move(block);
      cache_->bytes += bytes;
    }
  }
  return Status::OK();
}

}  // namespace bqs
