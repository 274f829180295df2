// On-disk format of the key-point write-ahead log (storage/keypoint_wal.h),
// and the two pieces all three storage formats share: the frame and the
// header stamp (both described below, beside their code).
//
// A WAL directory holds numbered segment files ("wal-000001.log", ...).
// Each segment is:
//
//   SegmentHeader (36 bytes, fixed): a header stamp (magic 'BQWL',
//     kWalFormatVersion) whose one field is
//     first_seq     u64  LE   sequence of the first record appended here
//
//   Records, append-only: one frame per record, payload <=
//   kMaxRecordPayload bytes, holding one checkpoint (the WAL's ack unit: a
//   batch of key points one device session emitted):
//     device  varint
//     seq     varint   writer-assigned, monotone across segments
//     count   varint   number of points, >= 1
//     point0: index varint, then qt, qx, qy zigzag-varint (absolute)
//     pointK: dindex, dqt, dqx, dqy zigzag-varint (delta from point K-1)
//
// Why this shape:
//   * Coordinates and timestamps are *quantized* (llround(v / quantum))
//     before encoding, per the split-error-budget design: the compressor
//     guarantees eps_simplify, the log adds at most quantum/2 per axis,
//     and the combined bound eps_simplify + coord_quantum is what the
//     recovery tests assert end to end. Quantized integers also make
//     "bit-exact recovery" a well-defined property — the WalCheckpoint
//     *is* the acked unit, identical before write and after replay.
//   * Delta + zigzag + varint makes consecutive key points cheap: a key
//     point every few seconds and tens of metres encodes in 6-10 bytes
//     against 32 raw.
//
// Everything here is pure encode/decode over in-memory buffers — no file
// I/O — so the recovery fuzzer and the crash-point sweep drive the exact
// production codec without touching a filesystem.
#ifndef BQS_STORAGE_WAL_FORMAT_H_
#define BQS_STORAGE_WAL_FORMAT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/varint.h"
#include "trajectory/point.h"

namespace bqs {
namespace wal {

inline constexpr uint32_t kWalMagic = 0x4c575142u;  // 'BQWL' little-endian
inline constexpr uint16_t kWalFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 36;
/// Upper bound on one record payload; a decoded length above this is
/// corruption by definition, which bounds how far a corrupt length can
/// send the reader.
inline constexpr std::size_t kMaxRecordPayload = std::size_t{1} << 24;

/// The split error budget's quantization half: how coarsely the log stores
/// what the compressor kept. The defaults (1 mm, 1 ms) are effectively
/// lossless for GPS-scale data while still letting deltas encode short.
struct WalQuantization {
  double coord_quantum = 1e-3;  ///< Metres per coordinate step.
  double time_quantum = 1e-3;   ///< Seconds per timestamp step.

  constexpr bool operator==(const WalQuantization&) const = default;
};

/// One key point in quantized (on-disk) form.
struct WalPoint {
  uint64_t index = 0;  ///< Position in the device's original stream.
  int64_t qt = 0;      ///< Timestamp in time_quantum steps.
  int64_t qx = 0;      ///< Coordinates in coord_quantum steps.
  int64_t qy = 0;

  constexpr bool operator==(const WalPoint&) const = default;
};

/// The WAL's ack unit: a batch of key points from one device session.
/// What Append() persists and Recover() returns — comparing these for
/// equality is the "bit-exact recovery" the crash tests gate on.
struct WalCheckpoint {
  DeviceId device = 0;
  uint64_t seq = 0;  ///< Writer-assigned, monotone across segments.
  std::vector<WalPoint> points;

  bool operator==(const WalCheckpoint&) const = default;
};

/// One value in quantum steps, clamped to a range llround handles without
/// tripping the implementation-defined overflow path (non-finite or
/// astronomically scaled inputs saturate instead — the codec must stay
/// total even when a fuzzer invents the coordinates).
inline int64_t QuantizeValue(double v, double quantum) {
  const double scaled = v / quantum;
  constexpr double kLimit = 4.6e18;  // < 2^62, comfortably inside int64
  if (!(scaled > -kLimit)) return static_cast<int64_t>(-kLimit);
  if (!(scaled < kLimit)) return static_cast<int64_t>(kLimit);
  return std::llround(scaled);
}

/// Quantizes one emitted key point. Velocity is deliberately dropped: it
/// is derivable context, not paper-precious state.
inline WalPoint Quantize(const KeyPoint& key, const WalQuantization& q) {
  WalPoint p;
  p.index = key.index;
  p.qt = QuantizeValue(key.point.t, q.time_quantum);
  p.qx = QuantizeValue(key.point.pos.x, q.coord_quantum);
  p.qy = QuantizeValue(key.point.pos.y, q.coord_quantum);
  return p;
}

/// Reconstructs the key point a WalPoint stands for. Within quantum/2 of
/// the original on every axis, by construction.
inline KeyPoint Dequantize(const WalPoint& p, const WalQuantization& q) {
  KeyPoint key;
  key.index = p.index;
  key.point.t = static_cast<double>(p.qt) * q.time_quantum;
  key.point.pos.x = static_cast<double>(p.qx) * q.coord_quantum;
  key.point.pos.y = static_cast<double>(p.qy) * q.coord_quantum;
  return key;
}

// --- little-endian fixed-width primitives ---------------------------------

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Overwrites the 4 bytes at `out[at]` with `v`, little-endian.
inline void SetU32(std::string* out, std::size_t at, uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

inline double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

// --- frame ----------------------------------------------------------------
//
// A WAL record, a block of a block file (block_format.h) and an entry of
// the MANIFEST (manifest.h) are each one frame:
//
//   length  u32 LE   payload byte count (<= the format's maximum)
//   crc     u32 LE   masked CRC32C over (length bytes || payload)
//   payload
//
// The CRC covers the length prefix too, so a corrupted length cannot
// silently reframe the stream; CRCs are stored masked (common/crc32c.h) so
// CRC-bearing payloads never checksum to themselves. The format's maximum
// payload bounds how far a corrupt length can send a reader. CheckFrame
// sorts a damaged frame into one failure class; what a class means is the
// reader's policy: the WAL truncates a torn tail or skips a record
// (keypoint_wal.h), a block read is Corruption (compaction.h), and the
// MANIFEST is rejected whole (manifest.h).

inline constexpr std::size_t kFrameHeaderBytes = 8;  // length + crc

/// Opens a frame at the end of `out` by reserving its header; returns the
/// frame's offset for EndFrame. The caller appends the payload in between.
inline std::size_t BeginFrame(std::string* out) {
  const std::size_t at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return at;
}

/// Closes the frame opened at `at`: backfills the length and CRC of the
/// payload appended since BeginFrame.
inline void EndFrame(std::size_t at, std::string* out) {
  const std::size_t len = out->size() - at - kFrameHeaderBytes;
  SetU32(out, at, static_cast<uint32_t>(len));
  const char* const p = out->data() + at;
  const uint32_t crc = crc32c::Extend(crc32c::Value(p, 4),
                                      p + kFrameHeaderBytes, len);
  SetU32(out, at + 4, crc32c::Mask(crc));
}

enum class FrameStatus : uint8_t {
  kOk,
  kShortHeader,  ///< Fewer than kFrameHeaderBytes bytes left.
  kBadLength,    ///< Length above the maximum or past the end of the bytes.
  kBadCrc,       ///< Framing intact, CRC mismatch.
};

struct Frame {
  FrameStatus status = FrameStatus::kOk;
  std::span<const uint8_t> payload;  ///< Set for kOk and kBadCrc.

  /// Bytes the frame spans, header included (kOk and kBadCrc).
  std::size_t size() const { return kFrameHeaderBytes + payload.size(); }
};

/// Checks the frame at the start of `bytes`, whose payload may be at most
/// `max_payload` bytes. Total on arbitrary bytes.
inline Frame CheckFrame(std::span<const uint8_t> bytes,
                        std::size_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    return {FrameStatus::kShortHeader, {}};
  }
  const std::size_t len = GetU32(bytes.data());
  if (len > max_payload || len > bytes.size() - kFrameHeaderBytes) {
    return {FrameStatus::kBadLength, {}};
  }
  Frame frame{FrameStatus::kOk, bytes.subspan(kFrameHeaderBytes, len)};
  const uint32_t crc = crc32c::Extend(crc32c::Value(bytes.data(), 4),
                                      frame.payload.data(), len);
  if (crc != crc32c::Unmask(GetU32(bytes.data() + 4))) {
    frame.status = FrameStatus::kBadCrc;
  }
  return frame;
}

// --- header stamp ---------------------------------------------------------
//
// A WAL segment, a block file and the MANIFEST each open with a header
// stamp:
//
//   magic         u32  LE   per format
//   version       u16  LE   per format
//   flags         u16  LE   reserved, 0
//   time_quantum  f64  LE   seconds per timestamp quantum
//   coord_quantum f64  LE   metres per coordinate quantum
//   ...                     the format's own fixed-width fields
//   crc           u32  LE   masked CRC32C over every header byte above
//
// A reader trusts a header only whole: long enough, right magic, CRC
// match, a version it knows (1..current) and finite positive quanta.

inline constexpr std::size_t kHeaderStampBytes = 24;  ///< magic..coord_quantum

/// What every header stamp carries.
struct HeaderStamp {
  uint16_t version = 0;
  WalQuantization quant;
};

/// Appends the stamp's leading fields; returns the header's offset for
/// EndHeader. The caller appends the format's own fields in between.
inline std::size_t BeginHeader(uint32_t magic, uint16_t version,
                               const WalQuantization& quant,
                               std::string* out) {
  const std::size_t at = out->size();
  PutU32(out, magic);
  PutU16(out, version);
  PutU16(out, 0);  // flags
  PutF64(out, quant.time_quantum);
  PutF64(out, quant.coord_quantum);
  return at;
}

/// Appends the CRC over the header begun at `at`.
inline void EndHeader(std::size_t at, std::string* out) {
  PutU32(out, crc32c::Mask(crc32c::Value(out->data() + at, out->size() - at)));
}

/// Checks the `header_bytes`-byte header at the start of `bytes` against
/// `magic` and `max_version`. On success fills `*stamp` (and nothing past
/// its HeaderStamp part); the format's own fields start at offset
/// kHeaderStampBytes.
inline bool CheckHeader(std::span<const uint8_t> bytes,
                        std::size_t header_bytes, uint32_t magic,
                        uint16_t max_version, HeaderStamp* stamp) {
  if (bytes.size() < header_bytes) return false;
  const uint8_t* p = bytes.data();
  if (GetU32(p) != magic) return false;
  const uint32_t stored = crc32c::Unmask(GetU32(p + header_bytes - 4));
  if (crc32c::Value(p, header_bytes - 4) != stored) return false;
  HeaderStamp out;
  out.version = GetU16(p + 4);
  out.quant.time_quantum = GetF64(p + 8);
  out.quant.coord_quantum = GetF64(p + 16);
  if (out.version == 0 || out.version > max_version) return false;
  if (!(std::isfinite(out.quant.time_quantum) &&
        out.quant.time_quantum > 0.0 &&
        std::isfinite(out.quant.coord_quantum) &&
        out.quant.coord_quantum > 0.0)) {
    return false;
  }
  *stamp = out;
  return true;
}

// --- segment header -------------------------------------------------------

/// Appends a segment header for a segment whose first record will carry
/// sequence `first_seq`.
inline void EncodeSegmentHeader(const WalQuantization& quant,
                                uint64_t first_seq, std::string* out) {
  const std::size_t at = BeginHeader(kWalMagic, kWalFormatVersion, quant, out);
  PutU64(out, first_seq);
  EndHeader(at, out);
}

struct SegmentHeaderInfo : HeaderStamp {
  uint64_t first_seq = 0;
};

/// Validates and decodes a segment header (CheckHeader's trust rules).
inline bool DecodeSegmentHeader(std::span<const uint8_t> bytes,
                                SegmentHeaderInfo* info) {
  if (!CheckHeader(bytes, kSegmentHeaderBytes, kWalMagic, kWalFormatVersion,
                   info)) {
    return false;
  }
  info->first_seq = GetU64(bytes.data() + kHeaderStampBytes);
  return true;
}

// --- records --------------------------------------------------------------

/// a - b and a + b in wrapping (unsigned) arithmetic, so arbitrary int64
/// patterns — which the recovery fuzzer synthesizes on purpose — round-trip
/// without signed overflow.
inline int64_t WrapDiff(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Appends the framed encoding of one checkpoint given as its parts (the
/// writer's no-copy path). Precondition: `points` is non-empty.
inline void EncodeRecord(DeviceId device, uint64_t seq,
                         std::span<const WalPoint> points, std::string* out) {
  const std::size_t frame = BeginFrame(out);
  varint::PutU64(out, device);
  varint::PutU64(out, seq);
  varint::PutU64(out, points.size());
  WalPoint prev;
  bool first = true;
  for (const WalPoint& p : points) {
    if (first) {
      varint::PutU64(out, p.index);
      varint::PutI64(out, p.qt);
      varint::PutI64(out, p.qx);
      varint::PutI64(out, p.qy);
      first = false;
    } else {
      // Index deltas are encoded zigzag too: stream indices are monotone
      // in practice, but the codec must not rely on it. Deltas are
      // computed in unsigned arithmetic so adversarial WalPoint values
      // (the round-trip fuzzer feeds raw int64 patterns) wrap instead of
      // overflowing; decode reverses with the same wrapping adds.
      varint::PutI64(out, static_cast<int64_t>(p.index - prev.index));
      varint::PutI64(out, WrapDiff(p.qt, prev.qt));
      varint::PutI64(out, WrapDiff(p.qx, prev.qx));
      varint::PutI64(out, WrapDiff(p.qy, prev.qy));
    }
    prev = p;
  }
  EndFrame(frame, out);
}

/// Appends the framed encoding of one checkpoint. Precondition:
/// checkpoint.points is non-empty.
inline void EncodeRecord(const WalCheckpoint& checkpoint, std::string* out) {
  EncodeRecord(checkpoint.device, checkpoint.seq, checkpoint.points, out);
}

/// Decodes a record payload (a frame's payload). False when the varint
/// stream is truncated, malformed, or disagrees with its own point count —
/// the payload passed its CRC, so a decode failure here means an encoder
/// bug or a deliberately crafted record; either way the reader must reject
/// it cleanly, never trust it.
inline bool DecodeRecordPayload(std::span<const uint8_t> payload,
                                WalCheckpoint* out) {
  const uint8_t* p = payload.data();
  const uint8_t* end = p + payload.size();
  uint64_t device = 0, seq = 0, count = 0;
  if (!varint::GetU64(&p, end, &device)) return false;
  if (!varint::GetU64(&p, end, &seq)) return false;
  if (!varint::GetU64(&p, end, &count)) return false;
  // Each point needs >= 4 payload bytes; anything claiming more points
  // than could fit is malformed without further reads (this also caps the
  // reserve below, so a lying count cannot balloon memory).
  if (count == 0 || count > payload.size() / 4 + 1) return false;
  WalCheckpoint checkpoint;
  checkpoint.device = device;
  checkpoint.seq = seq;
  checkpoint.points.reserve(static_cast<std::size_t>(count));
  WalPoint prev;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t dindex = 0, dqt = 0, dqx = 0, dqy = 0;
    WalPoint point;
    if (i == 0) {
      uint64_t index = 0;
      if (!varint::GetU64(&p, end, &index)) return false;
      if (!varint::GetI64(&p, end, &point.qt)) return false;
      if (!varint::GetI64(&p, end, &point.qx)) return false;
      if (!varint::GetI64(&p, end, &point.qy)) return false;
      point.index = index;
    } else {
      if (!varint::GetI64(&p, end, &dindex)) return false;
      if (!varint::GetI64(&p, end, &dqt)) return false;
      if (!varint::GetI64(&p, end, &dqx)) return false;
      if (!varint::GetI64(&p, end, &dqy)) return false;
      point.index = prev.index + static_cast<uint64_t>(dindex);
      point.qt = WrapAdd(prev.qt, dqt);
      point.qx = WrapAdd(prev.qx, dqx);
      point.qy = WrapAdd(prev.qy, dqy);
    }
    checkpoint.points.push_back(point);
    prev = point;
  }
  if (p != end) return false;  // trailing garbage inside a CRC-valid record
  *out = std::move(checkpoint);
  return true;
}

}  // namespace wal
}  // namespace bqs

#endif  // BQS_STORAGE_WAL_FORMAT_H_
