// Recovery fuzzer for the compaction store's durable images: the MANIFEST
// codec (storage/manifest.h) and the columnar block codec
// (storage/block_format.h). These are the bytes RecoverStore trusts after
// a crash, so their decoders' contract is totality — arbitrary bytes must
// never crash, hang, or mis-decode — plus the round-trip oracles the
// crash sweep relies on.
//
// Three modes, selected by the first input byte:
//
//   * Arbitrary-bytes mode: the remaining input is fed verbatim to
//     DecodeManifest, DecodeBlockFileHeader and DecodeBlockPayload. Each
//     must be deterministic, and an accepting DecodeManifest must be
//     canonical: re-encoding its output reproduces the input bytes
//     exactly (the whole image is CRC-framed, so there is exactly one
//     encoding per manifest).
//
//   * Manifest round-trip mode: a manifest is synthesized from the input
//     (hostile counts and extremes included), encoded, then damaged —
//     truncated at any offset or a single byte flip. Intact images decode
//     bit-exact; EVERY truncation and EVERY flip must reject. There is no
//     partial-prefix recovery for a manifest: that is what the
//     scan-all-blocks fallback is for.
//
//   * Block round-trip mode: a checkpoint run is synthesized (hostile
//     int64 patterns, wrap-adjacent indices), encoded, decoded back
//     bit-exact; truncations must reject; a flipped payload byte may
//     decode (framing CRC lives a layer above) but whatever the decoder
//     vouches for must be self-consistent: the re-measured BlockMeta of
//     the returned checkpoints equals the meta it returned.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fuzz_input.h"
#include "storage/block_format.h"
#include "storage/manifest.h"

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

void FuzzArbitraryBytes(FuzzInput& in, const uint8_t* data,
                        std::size_t size) {
  const std::span<const uint8_t> image(data + (size - in.remaining()),
                                       in.remaining());
  // Manifest: total + deterministic + canonical on acceptance.
  bqs::Manifest manifest;
  const bool ok = bqs::DecodeManifest(image, &manifest);
  bqs::Manifest again;
  FUZZ_CHECK(bqs::DecodeManifest(image, &again) == ok,
             "DecodeManifest nondeterministic (size=%zu)", image.size());
  if (ok) {
    FUZZ_CHECK(again == manifest, "DecodeManifest output differs on rerun");
    std::string reencoded;
    bqs::EncodeManifest(manifest, &reencoded);
    FUZZ_CHECK(reencoded.size() == image.size() &&
                   std::equal(reencoded.begin(), reencoded.end(),
                              reinterpret_cast<const char*>(image.data())),
               "accepted manifest image is not canonical (size=%zu)",
               image.size());
  }

  // Block file header: total + deterministic.
  bqs::blk::BlockFileHeaderInfo info;
  const bool header_ok = bqs::blk::DecodeBlockFileHeader(image, &info);
  FUZZ_CHECK(bqs::blk::DecodeBlockFileHeader(image, &info) == header_ok,
             "DecodeBlockFileHeader nondeterministic");

  // Block payload: total + self-consistent on acceptance.
  bqs::blk::BlockMeta meta;
  std::vector<bqs::wal::WalCheckpoint> out;
  if (bqs::blk::DecodeBlockPayload(image, &meta, &out)) {
    FUZZ_CHECK(bqs::blk::ComputeBlockMeta(out) == meta,
               "decoded block meta disagrees with its checkpoints");
    std::vector<bqs::wal::WalCheckpoint> rerun;
    bqs::blk::BlockMeta rerun_meta;
    FUZZ_CHECK(bqs::blk::DecodeBlockPayload(image, &rerun_meta, &rerun) &&
                   rerun == out,
               "DecodeBlockPayload nondeterministic");
  }
}

bqs::Manifest SynthesizeManifest(FuzzInput& in) {
  bqs::Manifest m;
  // Quanta stay on a coarse positive grid: codec equality is bitwise on
  // the double, and recovery never trusts NaN-shaped quanta anyway.
  m.quant.time_quantum = 0.001 * in.IntIn(1, 1000);
  m.quant.coord_quantum = 0.001 * in.IntIn(1, 1000);
  m.last_applied_seq = static_cast<uint64_t>(HostileI64(in));
  const int files = in.IntIn(0, 4);
  for (int f = 0; f < files; ++f) {
    bqs::ManifestBlockFile file;
    file.file_id = static_cast<uint64_t>(in.U32());
    file.file_bytes = static_cast<uint64_t>(in.U32());
    const int blocks = in.IntIn(0, 4);
    for (int b = 0; b < blocks; ++b) {
      bqs::ManifestBlockEntry entry;
      entry.offset = static_cast<uint64_t>(in.U32());
      entry.meta.device = static_cast<uint64_t>(HostileI64(in));
      entry.meta.first_seq = static_cast<uint64_t>(HostileI64(in));
      entry.meta.last_seq = static_cast<uint64_t>(HostileI64(in));
      entry.meta.checkpoint_count = static_cast<uint64_t>(in.U16());
      entry.meta.point_count = static_cast<uint64_t>(in.U32());
      entry.meta.qt_min = HostileI64(in);
      entry.meta.qt_max = HostileI64(in);
      entry.meta.qx_min = HostileI64(in);
      entry.meta.qx_max = HostileI64(in);
      entry.meta.qy_min = HostileI64(in);
      entry.meta.qy_max = HostileI64(in);
      file.blocks.push_back(entry);
    }
    m.files.push_back(std::move(file));
  }
  return m;
}

void FuzzManifestRoundTrip(FuzzInput& in) {
  const bqs::Manifest m = SynthesizeManifest(in);
  std::string bytes;
  bqs::EncodeManifest(m, &bytes);

  bqs::Manifest decoded;
  switch (in.U8() % 3) {
    case 0: {  // intact: bit-exact
      FUZZ_CHECK(bqs::DecodeManifest(AsSpan(bytes), &decoded),
                 "intact manifest rejected (size=%zu)", bytes.size());
      FUZZ_CHECK(decoded == m, "intact manifest not bit-exact");
      break;
    }
    case 1: {  // truncate anywhere: all-or-nothing, so always reject
      const std::size_t cut = in.U32() % bytes.size();
      FUZZ_CHECK(!bqs::DecodeManifest(AsSpan(bytes).first(cut), &decoded),
                 "manifest truncated to %zu of %zu bytes decoded", cut,
                 bytes.size());
      break;
    }
    default: {  // flip one byte: the image CRC must catch it
      const std::size_t flip_at = in.U32() % bytes.size();
      const uint8_t mask = static_cast<uint8_t>(in.U8() % 255 + 1);
      std::string damaged = bytes;
      damaged[flip_at] =
          static_cast<char>(static_cast<uint8_t>(damaged[flip_at]) ^ mask);
      FUZZ_CHECK(!bqs::DecodeManifest(AsSpan(damaged), &decoded),
                 "manifest flip@%zu mask=%u undetected", flip_at, mask);
      break;
    }
  }
}

std::vector<bqs::wal::WalCheckpoint> SynthesizeRun(FuzzInput& in) {
  std::vector<bqs::wal::WalCheckpoint> run;
  const uint64_t device = static_cast<uint64_t>(HostileI64(in));
  uint64_t seq = static_cast<uint64_t>(in.U32()) + 1;
  const int checkpoints = in.IntIn(1, 5);
  for (int c = 0; c < checkpoints; ++c) {
    bqs::wal::WalCheckpoint cp;
    cp.device = device;  // one block holds one device's run
    cp.seq = seq;
    seq += 1u + in.U8() % 7u;  // gaps are legal, order is required
    const int points = in.IntIn(1, 5);
    for (int i = 0; i < points; ++i) {
      bqs::wal::WalPoint p;
      p.index = static_cast<uint64_t>(HostileI64(in));
      p.qt = HostileI64(in);
      p.qx = HostileI64(in);
      p.qy = HostileI64(in);
      cp.points.push_back(p);
    }
    run.push_back(std::move(cp));
  }
  return run;
}

void FuzzBlockRoundTrip(FuzzInput& in) {
  const std::vector<bqs::wal::WalCheckpoint> run = SynthesizeRun(in);
  std::string framed;
  bqs::blk::BlockMeta encoded_meta;
  bqs::blk::EncodeBlock(run, &framed, &encoded_meta);
  const std::span<const uint8_t> payload =
      AsSpan(framed).subspan(bqs::wal::kFrameHeaderBytes);

  bqs::blk::BlockMeta meta;
  std::vector<bqs::wal::WalCheckpoint> out;
  switch (in.U8() % 3) {
    case 0: {  // intact: bit-exact, meta agrees with the encoder's
      FUZZ_CHECK(bqs::blk::DecodeBlockPayload(payload, &meta, &out),
                 "intact block rejected (payload=%zu bytes)",
                 payload.size());
      FUZZ_CHECK(meta == encoded_meta, "decoded meta != encoded meta");
      FUZZ_CHECK(out == run, "intact block not bit-exact");
      break;
    }
    case 1: {  // truncate anywhere: always reject
      const std::size_t cut = in.U32() % payload.size();
      FUZZ_CHECK(
          !bqs::blk::DecodeBlockPayload(payload.first(cut), &meta, &out),
          "block truncated to %zu of %zu bytes decoded", cut,
          payload.size());
      break;
    }
    default: {  // flip one payload byte: accept only self-consistent data
      const std::size_t flip_at = in.U32() % payload.size();
      const uint8_t mask = static_cast<uint8_t>(in.U8() % 255 + 1);
      std::string damaged(payload.begin(), payload.end());
      damaged[flip_at] =
          static_cast<char>(static_cast<uint8_t>(damaged[flip_at]) ^ mask);
      if (bqs::blk::DecodeBlockPayload(AsSpan(damaged), &meta, &out)) {
        // The framing CRC (checked by the block reader, a layer above)
        // is what rejects flips outright; the payload decoder's duty is
        // merely to never vouch for data that disagrees with its meta.
        FUZZ_CHECK(bqs::blk::ComputeBlockMeta(out) == meta,
                   "flip@%zu mask=%u decoded inconsistent block", flip_at,
                   mask);
      }
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  switch (in.U8() % 3) {
    case 0:
      FuzzArbitraryBytes(in, data, size);
      break;
    case 1:
      FuzzManifestRoundTrip(in);
      break;
    default:
      FuzzBlockRoundTrip(in);
      break;
  }
  return 0;
}
