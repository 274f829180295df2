// On-disk format of compacted key-point block files — the read-optimized
// half of the storage layer (the WAL in wal_format.h is the write half).
//
// A block directory holds numbered block files ("blk-000001.bqb", ...)
// published by the compactor (storage/compaction.h) plus a MANIFEST
// (storage/manifest.h) naming which of them are live. Each block file is:
//
//   BlockFileHeader (32 bytes, fixed): a header stamp (wal_format.h; magic
//     'BQBK', kBlockFormatVersion) whose one field is
//     block_count   u32  LE   device blocks that follow
//
//   Blocks: one frame (wal_format.h) per block, payload <=
//   kMaxBlockPayload bytes, holding whole WAL checkpoints from ONE device,
//   seq-ascending, re-encoded columnarly:
//     device            varint
//     checkpoint_count  varint   n >= 1
//     seq run:          seq0 varint, then zigzag deltas (n-1 values)
//     count run:        points per checkpoint, varint each (all >= 1)
//     point_count       varint   sum of the count run (redundancy check)
//     bbox:             qt_min qt_max qx_min qx_max qy_min qy_max, zigzag
//     index column:     index0 varint, then zigzag deltas over ALL points
//     qt column:        qt0 zigzag, then wrap-safe zigzag deltas
//     qx column, qy column: same shape
//
// Why this shape:
//   * Checkpoint boundaries (seq + count runs) survive compaction, so a
//     decoded block reproduces the exact WalCheckpoints the WAL acked —
//     "recovers exactly the acked prefix" stays a bit-level equality even
//     after records have been rewritten into blocks.
//   * Columns delta-code the whole device run, not per-checkpoint, so the
//     first point of checkpoint k is a small delta from the last point of
//     checkpoint k-1 — denser than the WAL's per-record absolutes.
//   * The bbox + time span ride in the payload (and again in the MANIFEST)
//     so a range query prunes blocks without decoding them; the decoder
//     re-derives both and rejects a payload whose embedded metadata lies.
//
// Everything here is pure encode/decode over in-memory buffers — no file
// I/O — so fuzz_manifest_recovery drives the exact production codec.
#ifndef BQS_STORAGE_BLOCK_FORMAT_H_
#define BQS_STORAGE_BLOCK_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/varint.h"
#include "storage/wal_format.h"
#include "trajectory/point.h"

namespace bqs {
namespace blk {

inline constexpr uint32_t kBlockMagic = 0x4b425142u;  // 'BQBK' little-endian
inline constexpr uint16_t kBlockFormatVersion = 1;
inline constexpr std::size_t kBlockFileHeaderBytes = 32;
/// Upper bound on one block payload; a decoded length above this is
/// corruption by definition.
inline constexpr std::size_t kMaxBlockPayload = std::size_t{1} << 26;

/// Everything a reader may know about a block without decoding it — the
/// pruning metadata. Stored inside the block payload (self-check) and in
/// the MANIFEST entry referencing the block (prune without I/O).
struct BlockMeta {
  DeviceId device = 0;
  uint64_t first_seq = 0;         ///< Lowest WAL checkpoint seq inside.
  uint64_t last_seq = 0;          ///< Highest.
  uint64_t checkpoint_count = 0;
  uint64_t point_count = 0;
  int64_t qt_min = 0, qt_max = 0;  ///< Time span, quantum steps.
  int64_t qx_min = 0, qx_max = 0;  ///< Bounding box, quantum steps.
  int64_t qy_min = 0, qy_max = 0;

  constexpr bool operator==(const BlockMeta&) const = default;
};

/// Appends the varint encoding of a BlockMeta (manifest entries and the
/// block payload share this layout).
inline void PutBlockMeta(std::string* out, const BlockMeta& m) {
  varint::PutU64(out, m.device);
  varint::PutU64(out, m.first_seq);
  varint::PutU64(out, m.last_seq);
  varint::PutU64(out, m.checkpoint_count);
  varint::PutU64(out, m.point_count);
  varint::PutI64(out, m.qt_min);
  varint::PutI64(out, m.qt_max);
  varint::PutI64(out, m.qx_min);
  varint::PutI64(out, m.qx_max);
  varint::PutI64(out, m.qy_min);
  varint::PutI64(out, m.qy_max);
}

inline bool GetBlockMeta(const uint8_t** pos, const uint8_t* end,
                         BlockMeta* m) {
  uint64_t device = 0;
  if (!varint::GetU64(pos, end, &device)) return false;
  m->device = device;
  if (!varint::GetU64(pos, end, &m->first_seq)) return false;
  if (!varint::GetU64(pos, end, &m->last_seq)) return false;
  if (!varint::GetU64(pos, end, &m->checkpoint_count)) return false;
  if (!varint::GetU64(pos, end, &m->point_count)) return false;
  if (!varint::GetI64(pos, end, &m->qt_min)) return false;
  if (!varint::GetI64(pos, end, &m->qt_max)) return false;
  if (!varint::GetI64(pos, end, &m->qx_min)) return false;
  if (!varint::GetI64(pos, end, &m->qx_max)) return false;
  if (!varint::GetI64(pos, end, &m->qy_min)) return false;
  if (!varint::GetI64(pos, end, &m->qy_max)) return false;
  return true;
}

/// Computes the pruning metadata of a run of checkpoints (all from one
/// device, seq-ascending). Precondition: at least one checkpoint, every
/// checkpoint non-empty.
inline BlockMeta ComputeBlockMeta(
    std::span<const wal::WalCheckpoint> checkpoints) {
  BlockMeta m;
  m.device = checkpoints.front().device;
  m.first_seq = checkpoints.front().seq;
  m.last_seq = checkpoints.back().seq;
  m.checkpoint_count = checkpoints.size();
  bool first = true;
  for (const wal::WalCheckpoint& c : checkpoints) {
    m.point_count += c.points.size();
    for (const wal::WalPoint& p : c.points) {
      if (first) {
        m.qt_min = m.qt_max = p.qt;
        m.qx_min = m.qx_max = p.qx;
        m.qy_min = m.qy_max = p.qy;
        first = false;
        continue;
      }
      if (p.qt < m.qt_min) m.qt_min = p.qt;
      if (p.qt > m.qt_max) m.qt_max = p.qt;
      if (p.qx < m.qx_min) m.qx_min = p.qx;
      if (p.qx > m.qx_max) m.qx_max = p.qx;
      if (p.qy < m.qy_min) m.qy_min = p.qy;
      if (p.qy > m.qy_max) m.qy_max = p.qy;
    }
  }
  return m;
}

// --- block file header ----------------------------------------------------

inline void EncodeBlockFileHeader(const wal::WalQuantization& quant,
                                  uint32_t block_count, std::string* out) {
  const std::size_t at =
      wal::BeginHeader(kBlockMagic, kBlockFormatVersion, quant, out);
  wal::PutU32(out, block_count);
  wal::EndHeader(at, out);
}

struct BlockFileHeaderInfo : wal::HeaderStamp {
  uint32_t block_count = 0;
};

/// Validates and decodes a block file header (wal::CheckHeader's trust
/// rules).
inline bool DecodeBlockFileHeader(std::span<const uint8_t> bytes,
                                  BlockFileHeaderInfo* info) {
  if (!wal::CheckHeader(bytes, kBlockFileHeaderBytes, kBlockMagic,
                        kBlockFormatVersion, info)) {
    return false;
  }
  info->block_count = wal::GetU32(bytes.data() + wal::kHeaderStampBytes);
  return true;
}

// --- blocks ---------------------------------------------------------------

/// Appends the framed columnar encoding of one device's checkpoint run and
/// reports its pruning metadata. Precondition: `checkpoints` non-empty,
/// every checkpoint non-empty, one device, seq-ascending (the compactor's
/// grouping guarantees all three).
inline void EncodeBlock(std::span<const wal::WalCheckpoint> checkpoints,
                        std::string* out, BlockMeta* meta = nullptr) {
  const BlockMeta m = ComputeBlockMeta(checkpoints);
  if (meta != nullptr) *meta = m;

  const std::size_t frame = wal::BeginFrame(out);
  varint::PutU64(out, m.device);
  varint::PutU64(out, m.checkpoint_count);
  uint64_t prev_seq = 0;
  bool first = true;
  for (const wal::WalCheckpoint& c : checkpoints) {
    if (first) {
      varint::PutU64(out, c.seq);
      first = false;
    } else {
      varint::PutI64(out, static_cast<int64_t>(c.seq - prev_seq));
    }
    prev_seq = c.seq;
  }
  for (const wal::WalCheckpoint& c : checkpoints) {
    varint::PutU64(out, c.points.size());
  }
  varint::PutU64(out, m.point_count);
  varint::PutI64(out, m.qt_min);
  varint::PutI64(out, m.qt_max);
  varint::PutI64(out, m.qx_min);
  varint::PutI64(out, m.qx_max);
  varint::PutI64(out, m.qy_min);
  varint::PutI64(out, m.qy_max);

  // Column runs: delta-coded across the whole device run, wrap-safe like
  // the WAL record codec (hostile int64 patterns must round-trip).
  wal::WalPoint prev;
  bool first_point = true;
  for (int column = 0; column < 4; ++column) {
    prev = wal::WalPoint{};
    first_point = true;
    for (const wal::WalCheckpoint& c : checkpoints) {
      for (const wal::WalPoint& p : c.points) {
        if (first_point) {
          switch (column) {
            case 0: varint::PutU64(out, p.index); break;
            case 1: varint::PutI64(out, p.qt); break;
            case 2: varint::PutI64(out, p.qx); break;
            case 3: varint::PutI64(out, p.qy); break;
          }
          first_point = false;
        } else {
          switch (column) {
            case 0:
              varint::PutI64(out,
                             static_cast<int64_t>(p.index - prev.index));
              break;
            case 1:
              varint::PutI64(out, wal::WrapDiff(p.qt, prev.qt));
              break;
            case 2:
              varint::PutI64(out, wal::WrapDiff(p.qx, prev.qx));
              break;
            case 3:
              varint::PutI64(out, wal::WrapDiff(p.qy, prev.qy));
              break;
          }
        }
        prev = p;
      }
    }
  }
  wal::EndFrame(frame, out);
}

/// Decodes a block payload (a frame's payload) back into the exact
/// checkpoints it was encoded from. Total on arbitrary bytes; false on
/// truncation, malformed varints, count implausibility, or embedded
/// metadata that disagrees with the decoded points — a CRC-valid payload
/// that lies about its own bbox/counts is rejected, never trusted.
inline bool DecodeBlockPayload(std::span<const uint8_t> payload,
                               BlockMeta* meta,
                               std::vector<wal::WalCheckpoint>* out) {
  const uint8_t* p = payload.data();
  const uint8_t* end = p + payload.size();
  uint64_t device = 0, ckpt_count = 0;
  if (!varint::GetU64(&p, end, &device)) return false;
  if (!varint::GetU64(&p, end, &ckpt_count)) return false;
  // Each checkpoint costs >= 2 payload bytes (seq + count varints); each
  // point >= 4 bytes (one per column). Lying counts are rejected before
  // any reserve so they cannot balloon memory.
  if (ckpt_count == 0 || ckpt_count > payload.size() / 2 + 1) return false;

  std::vector<uint64_t> seqs;
  seqs.reserve(static_cast<std::size_t>(ckpt_count));
  uint64_t prev_seq = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    if (i == 0) {
      if (!varint::GetU64(&p, end, &prev_seq)) return false;
    } else {
      int64_t d = 0;
      if (!varint::GetI64(&p, end, &d)) return false;
      prev_seq += static_cast<uint64_t>(d);
    }
    seqs.push_back(prev_seq);
  }

  std::vector<uint64_t> counts;
  counts.reserve(static_cast<std::size_t>(ckpt_count));
  uint64_t total_from_counts = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    uint64_t c = 0;
    if (!varint::GetU64(&p, end, &c)) return false;
    if (c == 0 || c > payload.size() / 4 + 1) return false;
    total_from_counts += c;
    if (total_from_counts > payload.size() / 4 + 1) return false;
    counts.push_back(c);
  }

  uint64_t point_count = 0;
  if (!varint::GetU64(&p, end, &point_count)) return false;
  if (point_count != total_from_counts) return false;

  BlockMeta m;
  m.device = device;
  m.first_seq = seqs.front();
  m.last_seq = seqs.back();
  m.checkpoint_count = ckpt_count;
  m.point_count = point_count;
  if (!varint::GetI64(&p, end, &m.qt_min)) return false;
  if (!varint::GetI64(&p, end, &m.qt_max)) return false;
  if (!varint::GetI64(&p, end, &m.qx_min)) return false;
  if (!varint::GetI64(&p, end, &m.qx_max)) return false;
  if (!varint::GetI64(&p, end, &m.qy_min)) return false;
  if (!varint::GetI64(&p, end, &m.qy_max)) return false;

  std::vector<wal::WalPoint> points(static_cast<std::size_t>(point_count));
  for (int column = 0; column < 4; ++column) {
    wal::WalPoint prev;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i == 0) {
        switch (column) {
          case 0: {
            uint64_t index = 0;
            if (!varint::GetU64(&p, end, &index)) return false;
            points[i].index = index;
            break;
          }
          case 1:
            if (!varint::GetI64(&p, end, &points[i].qt)) return false;
            break;
          case 2:
            if (!varint::GetI64(&p, end, &points[i].qx)) return false;
            break;
          case 3:
            if (!varint::GetI64(&p, end, &points[i].qy)) return false;
            break;
        }
      } else {
        int64_t d = 0;
        if (!varint::GetI64(&p, end, &d)) return false;
        switch (column) {
          case 0:
            points[i].index = points[i - 1].index + static_cast<uint64_t>(d);
            break;
          case 1:
            points[i].qt = wal::WrapAdd(points[i - 1].qt, d);
            break;
          case 2:
            points[i].qx = wal::WrapAdd(points[i - 1].qx, d);
            break;
          case 3:
            points[i].qy = wal::WrapAdd(points[i - 1].qy, d);
            break;
        }
      }
    }
  }
  if (p != end) return false;  // trailing garbage inside a CRC-valid block

  std::vector<wal::WalCheckpoint> checkpoints;
  checkpoints.reserve(static_cast<std::size_t>(ckpt_count));
  std::size_t offset = 0;
  for (uint64_t i = 0; i < ckpt_count; ++i) {
    wal::WalCheckpoint c;
    c.device = device;
    c.seq = seqs[static_cast<std::size_t>(i)];
    const std::size_t n =
        static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]);
    c.points.assign(points.begin() + static_cast<std::ptrdiff_t>(offset),
                    points.begin() + static_cast<std::ptrdiff_t>(offset + n));
    offset += n;
    checkpoints.push_back(std::move(c));
  }

  // The embedded metadata must match what the points actually say; a
  // mismatch means an encoder bug or a crafted payload, and trusting a
  // lying bbox would make pruning silently wrong.
  if (ComputeBlockMeta(checkpoints) != m) return false;

  if (meta != nullptr) *meta = m;
  *out = std::move(checkpoints);
  return true;
}

}  // namespace blk
}  // namespace bqs

#endif  // BQS_STORAGE_BLOCK_FORMAT_H_
