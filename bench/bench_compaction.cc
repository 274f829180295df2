// Compaction bench + machine-readable baseline (BENCH_compaction.json).
//
// Measures the WAL -> columnar-block pipeline end to end:
//
//   compact   points/sec through Compactor::CompactOnce, run each time a
//             WAL segment seals while the workload is written and once
//             more after the WAL closes, so the store ends up with one
//             block file per run and the queries below exercise
//             BlockStore's file screen; plus the storage density of the
//             published blocks in bytes per key point (the columnar
//             delta codec's figure of merit, deterministic for the
//             seeded workload) and the compression vs the WAL's own
//             record encoding.
//   recover   RecoverStore over the compacted directory pair: the gate
//             is bit-exactness against what the WAL acked — a compactor
//             that benches fast but perturbs data is worthless.
//   query     range-query latency off BlockStore (file, block and chunk
//             pruned; decode only matching blocks) vs a full scan of
//             every point held in memory, plus the fraction of blocks
//             decoded and the points scanned per query — the pruning
//             power, both deterministic for the seeded workload. Each
//             query runs twice on a freshly opened store:
//             cold (its blocks are read, verified and decoded) and warm
//             (the same query again, served from the store's
//             decoded-block cache). Only the warm figure compares like
//             with like against the in-memory scan.
//
// The run FAILS (exit 1) if recovery is not bit-exact, any block query
// returns a different point set than the brute-force reference, or the
// compaction runs published fewer than 3 block files. Latency
// is reported for trend-watching; check_perf gates the
// machine-independent fields (exactness, density, decoded fraction,
// points scanned, workload identity) and one same-run latency ratio
// (warm block query at least 5x faster than the full scan).
//
// Usage: bench_compaction [scale | --scale S] [--out PATH] [--dir PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/manifest.h"
#include "trajectory/point.h"

namespace bqs {
namespace {

struct Workload {
  /// checkpoints[c] is one Append() call: (device, keys).
  std::vector<std::pair<DeviceId, std::vector<KeyPoint>>> checkpoints;
  std::size_t total_points = 0;
  std::vector<Vec2> centers;  ///< per-device cluster center (query targets)
};

/// Spatially clustered fleet: each device random-walks around its own
/// far-apart center, so block bboxes separate and pruning has something
/// real to prune.
Workload MakeWorkload(double scale) {
  Workload w;
  const std::size_t devices = 12;
  const auto checkpoints_per_device =
      static_cast<std::size_t>(150.0 * scale) + 4;
  Rng rng(0xb10c5u);  // fixed seed: the workload is part of the baseline
  std::vector<double> t(devices, 0.0);
  std::vector<Vec2> pos(devices);
  std::vector<uint64_t> index(devices, 0);
  for (DeviceId d = 0; d < devices; ++d) {
    const double angle = 2.0 * M_PI * static_cast<double>(d) / devices;
    w.centers.push_back(
        Vec2{30000.0 * std::cos(angle), 30000.0 * std::sin(angle)});
    pos[d] = w.centers.back();
  }
  for (std::size_t c = 0; c < checkpoints_per_device; ++c) {
    for (DeviceId d = 0; d < devices; ++d) {
      const auto batch = static_cast<std::size_t>(rng.UniformInt(8, 48));
      std::vector<KeyPoint> keys;
      keys.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        t[d] += rng.Uniform(0.5, 8.0);
        pos[d].x += rng.Uniform(-40.0, 40.0);
        pos[d].y += rng.Uniform(-40.0, 40.0);
        index[d] += static_cast<uint64_t>(rng.UniformInt(1, 30));
        KeyPoint key;
        key.index = index[d];
        key.point.t = t[d];
        key.point.pos = pos[d];
        keys.push_back(key);
      }
      w.total_points += keys.size();
      w.checkpoints.emplace_back(d, std::move(keys));
    }
  }
  return w;
}

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

uint64_t ChecksumCheckpoints(const std::vector<wal::WalCheckpoint>& cps) {
  uint64_t h = bench::kFnvOffset;
  for (const wal::WalCheckpoint& cp : cps) {
    h = bench::Fnv1aMix(h, &cp.device, sizeof(cp.device));
    h = bench::Fnv1aMix(h, &cp.seq, sizeof(cp.seq));
    for (const wal::WalPoint& p : cp.points) {
      h = bench::Fnv1aMix(h, &p.index, sizeof(p.index));
      h = bench::Fnv1aMix(h, &p.qt, sizeof(p.qt));
      h = bench::Fnv1aMix(h, &p.qx, sizeof(p.qx));
      h = bench::Fnv1aMix(h, &p.qy, sizeof(p.qy));
    }
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += static_cast<uint64_t>(entry.file_size());
    }
  }
  return total;
}

/// Strict weak order that lets query results compare as sorted point sets.
bool KeyLess(const KeyPoint& a, const KeyPoint& b) {
  return std::tie(a.point.t, a.point.pos.x, a.point.pos.y, a.index) <
         std::tie(b.point.t, b.point.pos.x, b.point.pos.y, b.index);
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_compaction: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(2);
}

}  // namespace
}  // namespace bqs

int main(int argc, char** argv) {
  using namespace bqs;

  const double scale = bench::ScaleFromArgs(argc, argv, 0.35);
  const std::string out_path =
      bench::StringFlag(argc, argv, "--out", "BENCH_compaction.json");
  const std::string base_dir = bench::StringFlag(
      argc, argv, "--dir",
      (std::filesystem::temp_directory_path() / "bqs_bench_compaction")
          .string());
  const std::string wal_dir = base_dir + "/wal";
  const std::string block_dir = base_dir + "/blocks";
  std::filesystem::remove_all(base_dir);

  bench::Banner("Compaction: drain throughput, density, range queries",
                "columnar block store (not a paper figure)", scale);

  const Workload workload = MakeWorkload(scale);
  std::printf("workload: %zu checkpoints, %zu points, %zu devices\n\n",
              workload.checkpoints.size(), workload.total_points,
              workload.centers.size());

  // --- write the WAL, compacting as segments seal (compaction measured) --
  KeyPointWalOptions wal_options;
  wal_options.dir = wal_dir;
  wal_options.segment_bytes = std::size_t{64} << 10;
  CompactionOptions copts;
  copts.wal_dir = wal_dir;
  copts.block_dir = block_dir;
  Compactor compactor(copts);
  double compact_s = 0.0;
  const auto compact = [&](uint64_t max_segment_exclusive) {
    const auto begin = std::chrono::steady_clock::now();
    if (Status st = compactor.CompactOnce(max_segment_exclusive); !st.ok()) {
      Die("compact", st);
    }
    compact_s += Seconds(begin, std::chrono::steady_clock::now());
  };
  std::vector<wal::WalCheckpoint> acked;
  acked.reserve(workload.checkpoints.size());
  uint64_t wal_bytes = 0;
  {
    KeyPointWal walog(wal_options);
    if (Status st = walog.Open(); !st.ok()) Die("wal open", st);
    uint64_t active = walog.current_segment_index();
    for (const auto& [device, keys] : workload.checkpoints) {
      const Result<WalAppendAck> ack = walog.Append(device, keys);
      if (!ack.ok()) Die("wal append", ack.status());
      wal::WalCheckpoint cp;
      cp.device = device;
      cp.seq = ack.value().seq;
      cp.points.reserve(keys.size());
      for (const KeyPoint& key : keys) {
        cp.points.push_back(wal::Quantize(key, wal_options.quant));
      }
      acked.push_back(std::move(cp));
      if (walog.current_segment_index() != active) {  // a segment sealed
        active = walog.current_segment_index();
        compact(active);
      }
    }
    if (Status st = walog.Close(); !st.ok()) Die("wal close", st);
    // Segment headers plus record bytes: what the WAL held on disk.
    const KeyPointWalStats wstats = walog.stats();
    wal_bytes = wstats.bytes_appended +
                wstats.segments_opened * wal::kSegmentHeaderBytes;
  }
  compact(UINT64_MAX);  // the last segment, now closed
  const CompactionStats cstats = compactor.stats();
  const uint64_t block_bytes = DirBytes(block_dir);
  const double compact_pps =
      compact_s > 0 ? static_cast<double>(cstats.points_compacted) / compact_s
                    : 0.0;
  const double bytes_per_point =
      cstats.points_compacted > 0
          ? static_cast<double>(block_bytes) /
                static_cast<double>(cstats.points_compacted)
          : 0.0;
  const double wal_bytes_per_point =
      workload.total_points > 0
          ? static_cast<double>(wal_bytes) /
                static_cast<double>(workload.total_points)
          : 0.0;
  std::printf("compact: %7.2f M pts/s   %5.2f B/pt (wal was %5.2f B/pt)   "
              "%llu blocks in %llu file(s)\n",
              compact_pps / 1e6, bytes_per_point, wal_bytes_per_point,
              static_cast<unsigned long long>(cstats.blocks_written),
              static_cast<unsigned long long>(cstats.block_files_written));

  // --- recovery exactness (measured, gates) ------------------------------
  const auto recover_begin = std::chrono::steady_clock::now();
  const Result<StoreRecovery> recovered = RecoverStore(wal_dir, block_dir);
  const auto recover_end = std::chrono::steady_clock::now();
  if (!recovered.ok()) Die("recover", recovered.status());
  const double recover_s = Seconds(recover_begin, recover_end);
  const double recover_pps =
      recover_s > 0
          ? static_cast<double>(workload.total_points) / recover_s
          : 0.0;
  const bool recovery_exact =
      recovered.value().wal.checkpoints.size() == acked.size() &&
      ChecksumCheckpoints(recovered.value().wal.checkpoints) ==
          ChecksumCheckpoints(acked);
  const bool recovery_clean = recovered.value().report.clean();
  std::printf("recover: %7.2f M pts/s   exact %s   clean %s\n",
              recover_pps / 1e6, recovery_exact ? "yes" : "NO",
              recovery_clean ? "yes" : "NO");

  // --- range queries (measured, gates on exactness + pruning) ------------
  Result<BlockStore> opened = BlockStore::Open(block_dir);
  if (!opened.ok()) Die("block store open", opened.status());
  const wal::WalQuantization quant = opened.value().manifest().quant;

  // The brute-force reference: every point, dequantized, in memory.
  std::vector<KeyPoint> all_points;
  all_points.reserve(workload.total_points);
  for (const wal::WalCheckpoint& cp : recovered.value().wal.checkpoints) {
    for (const wal::WalPoint& p : cp.points) {
      all_points.push_back(wal::Dequantize(p, quant));
    }
  }

  Rng qrng(0x9e3779b9u);
  const auto query_count = static_cast<std::size_t>(64.0 * scale) + 8;
  double cold_query_s = 0.0, warm_query_s = 0.0, scan_query_s = 0.0;
  double decoded_fraction_sum = 0.0;
  uint64_t points_scanned_sum = 0;
  bool queries_match = true;
  std::size_t total_hits = 0;
  for (std::size_t q = 0; q < query_count; ++q) {
    const Vec2 base =
        workload.centers[q % workload.centers.size()];
    const Vec2 center{base.x + qrng.Uniform(-500.0, 500.0),
                      base.y + qrng.Uniform(-500.0, 500.0)};
    const double radius = qrng.Uniform(100.0, 1200.0);
    const double t_lo = qrng.Uniform(0.0, 300.0);
    const double t_hi = t_lo + qrng.Uniform(50.0, 600.0);

    // A fresh open per query keeps every cold run cold.
    opened = BlockStore::Open(block_dir);
    if (!opened.ok()) Die("block store open", opened.status());
    const BlockStore& store = opened.value();
    std::vector<KeyPoint> from_blocks, from_cache;
    RangeQueryStats qstats;
    const auto cold_begin = std::chrono::steady_clock::now();
    if (Status st = store.Query(center, radius, t_lo, t_hi, &from_blocks,
                                &qstats);
        !st.ok()) {
      Die("block query", st);
    }
    const auto warm_begin = std::chrono::steady_clock::now();
    if (Status st = store.Query(center, radius, t_lo, t_hi, &from_cache);
        !st.ok()) {
      Die("block query", st);
    }
    const auto warm_end = std::chrono::steady_clock::now();
    cold_query_s += Seconds(cold_begin, warm_begin);
    warm_query_s += Seconds(warm_begin, warm_end);
    if (from_cache != from_blocks) queries_match = false;
    decoded_fraction_sum +=
        qstats.blocks_total > 0
            ? static_cast<double>(qstats.blocks_decoded) /
                  static_cast<double>(qstats.blocks_total)
            : 0.0;
    points_scanned_sum += qstats.points_scanned;

    const auto in_range = [&](const KeyPoint& k) {
      return k.point.t >= t_lo && k.point.t <= t_hi &&
             DistanceSq(k.point.pos, center) <= radius * radius;
    };
    const auto fs_begin = std::chrono::steady_clock::now();
    std::size_t expected = 0;
    for (const KeyPoint& k : all_points) {
      if (in_range(k)) ++expected;
    }
    scan_query_s += Seconds(fs_begin, std::chrono::steady_clock::now());
    total_hits += expected;

    // Content parity, untimed: the block query must return exactly the
    // scan's points, compared as sorted point sets.
    std::vector<KeyPoint> from_scan;
    from_scan.reserve(expected);
    for (const KeyPoint& k : all_points) {
      if (in_range(k)) from_scan.push_back(k);
    }
    std::sort(from_scan.begin(), from_scan.end(), KeyLess);
    std::sort(from_blocks.begin(), from_blocks.end(), KeyLess);
    if (from_blocks != from_scan) queries_match = false;
  }
  const double avg_decoded_fraction =
      decoded_fraction_sum / static_cast<double>(query_count);
  const double avg_points_scanned =
      static_cast<double>(points_scanned_sum) /
      static_cast<double>(query_count);
  const double cold_query_us =
      1e6 * cold_query_s / static_cast<double>(query_count);
  const double warm_query_us =
      1e6 * warm_query_s / static_cast<double>(query_count);
  const double scan_query_us =
      1e6 * scan_query_s / static_cast<double>(query_count);
  std::printf("queries: %zu queries, %zu hits   block cold %8.1f us/q   "
              "warm %8.1f us/q   full-scan %8.1f us/q   decoded %5.3f of "
              "blocks   scanned %.1f pts/q   match %s\n",
              query_count, total_hits, cold_query_us, warm_query_us,
              scan_query_us, avg_decoded_fraction, avg_points_scanned,
              queries_match ? "yes" : "NO");

  bench::JsonReport json;
  json.BeginObject();
  json.Key("schema"), json.Value("bqs-bench-compaction-v1");
  json.Key("scale"), json.Value(scale);
  json.Key("points"), json.Value(static_cast<uint64_t>(workload.total_points));
  json.Key("checkpoints"),
      json.Value(static_cast<uint64_t>(workload.checkpoints.size()));
  json.Key("compact_points_per_sec"), json.Value(compact_pps);
  json.Key("recover_points_per_sec"), json.Value(recover_pps);
  json.Key("blocks_written"), json.Value(cstats.blocks_written);
  json.Key("block_files_written"), json.Value(cstats.block_files_written);
  json.Key("wal_bytes"), json.Value(wal_bytes);
  json.Key("block_bytes"), json.Value(block_bytes);
  json.Key("bytes_per_point"), json.Value(bytes_per_point);
  json.Key("wal_bytes_per_point"), json.Value(wal_bytes_per_point);
  json.Key("recovery_exact"), json.Value(recovery_exact);
  json.Key("recovery_clean"), json.Value(recovery_clean);
  json.Key("queries"), json.Value(static_cast<uint64_t>(query_count));
  json.Key("query_hits"), json.Value(static_cast<uint64_t>(total_hits));
  json.Key("queries_match"), json.Value(queries_match);
  json.Key("block_query_cold_us"), json.Value(cold_query_us);
  json.Key("block_query_warm_us"), json.Value(warm_query_us);
  json.Key("full_scan_query_us"), json.Value(scan_query_us);
  json.Key("avg_decoded_block_fraction"), json.Value(avg_decoded_fraction);
  json.Key("avg_points_scanned"), json.Value(avg_points_scanned);
  json.EndObject();
  json.WriteFile(out_path);
  std::printf("\nwrote %s\n", out_path.c_str());

  std::filesystem::remove_all(base_dir);
  if (!recovery_exact || !recovery_clean || !queries_match) {
    std::fprintf(stderr,
                 "bench_compaction: FAILED — recovery or query results "
                 "diverged from the acked reference\n");
    return 1;
  }
  if (cstats.block_files_written < 3) {
    std::fprintf(stderr,
                 "bench_compaction: FAILED — %llu block file(s) written, "
                 "fewer than the 3 the file screen needs to be exercised\n",
                 static_cast<unsigned long long>(cstats.block_files_written));
    return 1;
  }
  return 0;
}
