// Recovery fuzzer for the key-point WAL (storage/keypoint_wal.h).
//
// Two modes, selected by the first input byte:
//
//   * Arbitrary-bytes mode: the remaining input IS a segment image, fed
//     straight to WalReader::RecoverSegment for both is_last values. The
//     reader's contract is totality — arbitrary bytes must never crash,
//     hang, or produce a report that disagrees with itself — plus codec
//     involution on whatever it recovers.
//
//   * Round-trip mode: the input bytes *synthesize* checkpoints (hostile
//     int64 patterns included), which the harness encodes with the
//     production codec and then damages deliberately — truncation at any
//     offset or a single byte flip — before recovering. Because the
//     harness knows exactly what was written and where every record ends,
//     it can assert the strong oracles: intact images replay bit-exact
//     and clean; truncated images replay the exact record prefix with the
//     byte-accounting identity; a flipped byte never resurrects data from
//     before the damage incorrectly.
//
// Both modes run the recovery twice and require identical results:
// recovery is a pure function of the bytes, and any nondeterminism would
// make the crash tests unreproducible.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fuzz_input.h"
#include "storage/keypoint_wal.h"
#include "storage/wal_format.h"

namespace {

using bqs_fuzz::FuzzInput;

#define FUZZ_CHECK(cond, ...)                                       \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "FUZZ_CHECK failed: %s\n  ", #cond);     \
      std::fprintf(stderr, __VA_ARGS__);                            \
      std::fprintf(stderr, "\n");                                   \
      std::abort();                                                 \
    }                                                               \
  } while (0)

std::span<const uint8_t> AsSpan(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

/// Two recovery reports agree on every counter.
bool SameReport(const bqs::WalRecoveryReport& a,
                const bqs::WalRecoveryReport& b) {
  return a.segments_scanned == b.segments_scanned &&
         a.segments_bad_header == b.segments_bad_header &&
         a.records_recovered == b.records_recovered &&
         a.torn_tail == b.torn_tail && a.bad_crc == b.bad_crc &&
         a.bad_varint == b.bad_varint && a.short_header == b.short_header &&
         a.bytes_dropped == b.bytes_dropped;
}

/// Invariants every recovery must satisfy regardless of input: the report
/// agrees with the output vector, never claims more dropped bytes than
/// exist, and clean() means what it says.
void CheckReportConsistency(std::span<const uint8_t> image,
                            const std::vector<bqs::wal::WalCheckpoint>& out,
                            const bqs::WalRecoveryReport& report) {
  FUZZ_CHECK(report.records_recovered == out.size(),
             "recovered=%llu out=%zu",
             static_cast<unsigned long long>(report.records_recovered),
             out.size());
  FUZZ_CHECK(report.bytes_dropped <= image.size(), "dropped=%llu size=%zu",
             static_cast<unsigned long long>(report.bytes_dropped),
             image.size());
  FUZZ_CHECK(report.segments_scanned == 1, "scanned=%llu",
             static_cast<unsigned long long>(report.segments_scanned));
  if (report.clean()) {
    FUZZ_CHECK(report.bytes_dropped == 0 && report.loss_events() == 0,
               "clean report with losses");
  }
  if (report.segments_bad_header != 0) {
    // An untrusted header drops the whole segment: nothing recovered and
    // every byte accounted as lost.
    FUZZ_CHECK(out.empty() && report.bytes_dropped == image.size(),
               "bad header but out=%zu dropped=%llu size=%zu", out.size(),
               static_cast<unsigned long long>(report.bytes_dropped),
               image.size());
  }
  for (const bqs::wal::WalCheckpoint& cp : out) {
    // Codec involution: anything recovery vouches for must survive its
    // own encode/decode cycle bit-exact (points are never empty; decode
    // rejects empty-count payloads before they get here).
    FUZZ_CHECK(!cp.points.empty(), "recovered checkpoint with no points");
    std::string encoded;
    bqs::wal::EncodeRecord(cp, &encoded);
    bqs::wal::WalCheckpoint round;
    const bool ok = bqs::wal::DecodeRecordPayload(
        AsSpan(encoded).subspan(bqs::wal::kFrameHeaderBytes), &round);
    FUZZ_CHECK(ok && round == cp, "recovered checkpoint fails involution");
  }
}

/// Recovers `image` twice and checks determinism + self-consistency.
/// Returns the first run's results through the out-params.
void RecoverChecked(std::span<const uint8_t> image, bool is_last,
                    std::vector<bqs::wal::WalCheckpoint>* out,
                    bqs::WalRecoveryReport* report) {
  bqs::WalReader::RecoverSegment(image, is_last, out, report);
  CheckReportConsistency(image, *out, *report);

  std::vector<bqs::wal::WalCheckpoint> again;
  bqs::WalRecoveryReport again_report;
  bqs::WalReader::RecoverSegment(image, is_last, &again, &again_report);
  FUZZ_CHECK(again == *out && SameReport(again_report, *report),
             "recovery is nondeterministic (is_last=%d size=%zu)", is_last,
             image.size());
}

void FuzzArbitraryBytes(FuzzInput& in, const uint8_t* data,
                        std::size_t size) {
  // Everything after the mode byte is the segment image, verbatim — so a
  // corpus file can hold a real on-disk segment with one byte prepended.
  const std::span<const uint8_t> image(data + (size - in.remaining()),
                                       in.remaining());
  for (const bool is_last : {false, true}) {
    std::vector<bqs::wal::WalCheckpoint> out;
    bqs::WalRecoveryReport report;
    RecoverChecked(image, is_last, &out, &report);
    if (image.empty()) {
      FUZZ_CHECK(report.clean() && out.empty(), "empty image not clean");
    }
  }
}

/// One hostile-but-deterministic int64 from the input: mixes the extreme
/// patterns overflow bugs live at with fuzzer-chosen bit soup.
int64_t HostileI64(FuzzInput& in) {
  switch (in.U8() % 8) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    case 3: return std::numeric_limits<int64_t>::min();
    case 4: return std::numeric_limits<int64_t>::max();
    case 5: return static_cast<int64_t>(in.U32());
    case 6: return -static_cast<int64_t>(in.U32());
    default:
      return static_cast<int64_t>(
          (static_cast<uint64_t>(in.U32()) << 32) | in.U32());
  }
}

struct WrittenImage {
  std::string bytes;
  std::vector<bqs::wal::WalCheckpoint> checkpoints;
  /// record_ends[i] = image offset one past checkpoint i's record.
  std::vector<std::size_t> record_ends;
};

WrittenImage SynthesizeImage(FuzzInput& in) {
  WrittenImage image;
  bqs::wal::WalQuantization quant;  // defaults; recovery never dequantizes
  bqs::wal::EncodeSegmentHeader(quant, /*first_seq=*/1, &image.bytes);
  const int records = in.IntIn(1, 6);
  for (int r = 0; r < records; ++r) {
    bqs::wal::WalCheckpoint cp;
    cp.device = static_cast<uint64_t>(HostileI64(in));
    cp.seq = static_cast<uint64_t>(r) + 1;
    const int points = in.IntIn(1, 5);
    for (int i = 0; i < points; ++i) {
      bqs::wal::WalPoint p;
      p.index = static_cast<uint64_t>(HostileI64(in));
      p.qt = HostileI64(in);
      p.qx = HostileI64(in);
      p.qy = HostileI64(in);
      cp.points.push_back(p);
    }
    bqs::wal::EncodeRecord(cp, &image.bytes);
    image.checkpoints.push_back(std::move(cp));
    image.record_ends.push_back(image.bytes.size());
  }
  return image;
}

/// Oracle for a synthesized image truncated at `cut` and recovered as the
/// last segment: the exact record prefix survives, every lost byte is
/// accounted, and the loss reason matches where the cut landed. This is
/// the crash-point sweep's oracle, driven here at fuzzer-chosen offsets
/// over fuzzer-chosen (hostile) contents.
void CheckTruncatedRecovery(const WrittenImage& image, std::size_t cut) {
  const std::span<const uint8_t> prefix = AsSpan(image.bytes).first(cut);
  std::vector<bqs::wal::WalCheckpoint> out;
  bqs::WalRecoveryReport report;
  RecoverChecked(prefix, /*is_last=*/true, &out, &report);

  if (cut == 0) {
    FUZZ_CHECK(report.clean() && out.empty(), "cut=0 not clean");
    return;
  }
  if (cut < bqs::wal::kSegmentHeaderBytes) {
    FUZZ_CHECK(report.segments_bad_header == 1 &&
                   report.bytes_dropped == cut && out.empty(),
               "cut=%zu inside header: bad_header=%llu dropped=%llu", cut,
               static_cast<unsigned long long>(report.segments_bad_header),
               static_cast<unsigned long long>(report.bytes_dropped));
    return;
  }

  std::size_t expected = 0;
  std::size_t edge = bqs::wal::kSegmentHeaderBytes;
  for (const std::size_t end : image.record_ends) {
    if (end <= cut) {
      ++expected;
      edge = end;
    }
  }
  FUZZ_CHECK(out.size() == expected, "cut=%zu out=%zu expected=%zu", cut,
             out.size(), expected);
  for (std::size_t i = 0; i < expected; ++i) {
    FUZZ_CHECK(out[i] == image.checkpoints[i],
               "cut=%zu record %zu not bit-exact", cut, i);
  }
  const std::size_t rem = cut - edge;
  if (rem == 0) {
    FUZZ_CHECK(report.clean(), "cut=%zu on a record edge but not clean",
               cut);
  } else if (rem < bqs::wal::kFrameHeaderBytes) {
    FUZZ_CHECK(report.short_header == 1 && report.bytes_dropped == rem,
               "cut=%zu rem=%zu: short_header=%llu dropped=%llu", cut, rem,
               static_cast<unsigned long long>(report.short_header),
               static_cast<unsigned long long>(report.bytes_dropped));
  } else {
    FUZZ_CHECK(report.torn_tail == 1 && report.bytes_dropped == rem,
               "cut=%zu rem=%zu: torn_tail=%llu dropped=%llu", cut, rem,
               static_cast<unsigned long long>(report.torn_tail),
               static_cast<unsigned long long>(report.bytes_dropped));
  }
}

/// Oracle for a single flipped byte: records wholly before the damaged
/// one are untouchable — they must come back bit-exact, as a prefix —
/// and damage inside the header voids the whole segment. (What happens
/// *after* the flip depends on which byte it hit — length field vs
/// payload — so only the is-a-prefix-before-the-damage property is
/// asserted, for both is_last policies.)
void CheckFlippedRecovery(const WrittenImage& image, std::size_t flip_at,
                          uint8_t flip_mask) {
  std::string damaged = image.bytes;
  damaged[flip_at] = static_cast<char>(
      static_cast<uint8_t>(damaged[flip_at]) ^ flip_mask);

  // Number of records entirely before the flipped byte.
  std::size_t intact = 0;
  for (const std::size_t end : image.record_ends) {
    if (end <= flip_at) ++intact;
  }

  for (const bool is_last : {false, true}) {
    std::vector<bqs::wal::WalCheckpoint> out;
    bqs::WalRecoveryReport report;
    RecoverChecked(AsSpan(damaged), is_last, &out, &report);
    if (flip_at < bqs::wal::kSegmentHeaderBytes) {
      FUZZ_CHECK(report.segments_bad_header == 1 && out.empty(),
                 "flip@%zu in header: bad_header=%llu out=%zu", flip_at,
                 static_cast<unsigned long long>(report.segments_bad_header),
                 out.size());
      continue;
    }
    FUZZ_CHECK(!report.clean(), "flip@%zu mask=%u undetected", flip_at,
               flip_mask);
    FUZZ_CHECK(out.size() >= intact, "flip@%zu lost intact records: %zu<%zu",
               flip_at, out.size(), intact);
    for (std::size_t i = 0; i < intact; ++i) {
      FUZZ_CHECK(out[i] == image.checkpoints[i],
                 "flip@%zu intact record %zu not bit-exact", flip_at, i);
    }
  }
}

void FuzzRoundTrip(FuzzInput& in) {
  const WrittenImage image = SynthesizeImage(in);

  switch (in.U8() % 3) {
    case 0: {  // intact: bit-exact, clean, under both is_last policies
      for (const bool is_last : {false, true}) {
        std::vector<bqs::wal::WalCheckpoint> out;
        bqs::WalRecoveryReport report;
        RecoverChecked(AsSpan(image.bytes), is_last, &out, &report);
        FUZZ_CHECK(report.clean(), "intact image not clean (is_last=%d)",
                   is_last);
        FUZZ_CHECK(out == image.checkpoints,
                   "intact image not bit-exact (is_last=%d)", is_last);
      }
      break;
    }
    case 1: {  // truncate at a fuzzer-chosen offset
      const std::size_t cut = in.U32() % (image.bytes.size() + 1);
      CheckTruncatedRecovery(image, cut);
      break;
    }
    default: {  // flip one byte
      const std::size_t flip_at = in.U32() % image.bytes.size();
      const uint8_t flip_mask =
          static_cast<uint8_t>(in.U8() % 255 + 1);  // never zero
      CheckFlippedRecovery(image, flip_at, flip_mask);
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  if ((in.U8() & 1) != 0) {
    FuzzRoundTrip(in);
  } else {
    FuzzArbitraryBytes(in, data, size);
  }
  return 0;
}
