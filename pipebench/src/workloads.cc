#include "workloads.h"

#include <algorithm>

#include "common/rng.h"

namespace pipebench {
namespace {

// Why each workload exists is recorded in pipebench/README.md. Barrier
// cadences and query counts are assumed values, listed there as such.
// fleet_sparse is a correctness case of the sharded engine for selftest.py;
// BENCHMARK.json does not measure it.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "fleet_dense", .num_shards = 1, .final_queries = 1000},
    {.name = "fleet_sparse", .num_shards = 2, .final_queries = 100},
    {.name = "query_mixed", .num_shards = 1, .barrier_batches = 32,
     .queries_per_batch = 4},
};

constexpr std::size_t kPrebuiltGrid = 16;  // devices per grid side
constexpr std::size_t kPrebuiltDevices = kPrebuiltGrid * kPrebuiltGrid;
constexpr double kPrebuiltSpacing = 3000.0;  // metres between grid centres
/// Centre of the fleet feed's area: BuildFleetDataset's walks stay in
/// squares of side 8-9.5 km with a corner at the origin.
constexpr bqs::Vec2 kFeedCentre{4750.0, 4750.0};
constexpr std::size_t kPrebuiltTargetPoints = 1'500'000;
/// Prebuilt device ids sit far above BuildFleetDataset's (1000 + 7919 d),
/// so the two populations never share a stream.
constexpr bqs::DeviceId kPrebuiltDeviceBase = bqs::DeviceId{1} << 40;

/// Spatially clustered devices: each random-walks around its own centre on
/// an 8 x 8 grid, so block bounding boxes separate and pruning has real
/// work to do. The grid is centred on the fleet feed's area, so the feed's
/// new data lands among old blocks: a query near it reads both.
void MakePrebuilt(uint64_t seed, Inputs* in) {
  bqs::Rng rng(seed ^ 0x9b1c5e7d2f3a4b6cULL);
  std::vector<double> t(kPrebuiltDevices, 0.0);
  std::vector<uint64_t> index(kPrebuiltDevices, 0);
  std::vector<bqs::Vec2> pos(kPrebuiltDevices);
  for (std::size_t d = 0; d < kPrebuiltDevices; ++d) {
    const auto offset = [](std::size_t cell) {
      return kPrebuiltSpacing *
             (static_cast<double>(cell) -
              0.5 * static_cast<double>(kPrebuiltGrid - 1));
    };
    pos[d] = kFeedCentre + bqs::Vec2{offset(d % kPrebuiltGrid),
                                     offset(d / kPrebuiltGrid)};
    t[d] = rng.Uniform(0.0, 600.0);
  }
  while (in->prebuilt_points < kPrebuiltTargetPoints) {
    for (std::size_t d = 0; d < kPrebuiltDevices; ++d) {
      Checkpoint cp;
      cp.device = kPrebuiltDeviceBase + d;
      const auto n = static_cast<std::size_t>(rng.UniformInt(8, 48));
      cp.keys.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        t[d] += rng.Uniform(0.5, 8.0);
        pos[d] += {rng.Uniform(-40.0, 40.0), rng.Uniform(-40.0, 40.0)};
        index[d] += static_cast<uint64_t>(rng.UniformInt(1, 30));
        bqs::KeyPoint key;
        key.index = index[d];
        key.point.t = t[d];
        key.point.pos = pos[d];
        cp.keys.push_back(key);
      }
      in->prebuilt_points += n;
      in->prebuilt.push_back(std::move(cp));
    }
  }
}

/// A query around `target`: centre within 200 m of it, radius 100-1200 m,
/// time window 10 min - 2 h centred on its time. These ranges are assumed
/// (city-block to district scale, minutes to hours), not measured.
QuerySpec QueryAround(const bqs::TrackPoint& target, bqs::Rng& rng) {
  const double window = rng.Uniform(600.0, 7200.0);
  QuerySpec spec;
  spec.center = target.pos +
                bqs::Vec2{rng.Uniform(-200.0, 200.0), rng.Uniform(-200.0, 200.0)};
  spec.radius = rng.Uniform(100.0, 1200.0);
  spec.t_min = target.t - 0.5 * window;
  spec.t_max = target.t + 0.5 * window;
  return spec;
}

std::size_t Pick(bqs::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

/// query_mixed's in-loop queries. The loop itself writes the newest data in
/// the store, so a hot query targets a fix of the feed that has already
/// been ingested when the query runs; whether its key points are in blocks
/// yet depends on the barriers, and the store's watermark says which are.
/// The rest target a prebuilt point, uniformly.
std::vector<std::vector<QuerySpec>> MakeLoopQuerySets(const WorkloadSpec& spec,
                                                      const Inputs& in,
                                                      uint64_t seed) {
  const auto& feed = in.fleet.feed;
  const std::size_t batches = (feed.size() + kBatchRecords - 1) / kBatchRecords;
  // Prebuilt points before each checkpoint, to pick one point uniformly.
  std::vector<std::size_t> before(in.prebuilt.size());
  for (std::size_t i = 1; i < in.prebuilt.size(); ++i) {
    before[i] = before[i - 1] + in.prebuilt[i - 1].keys.size();
  }
  bqs::Rng rng(seed);
  std::vector<std::vector<QuerySpec>> sets(kQuerySets);
  for (std::vector<QuerySpec>& out : sets) {
    out.reserve(batches * spec.queries_per_batch);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t ingested =
          std::min(feed.size(), (b + 1) * kBatchRecords);
      for (std::size_t q = 0; q < spec.queries_per_batch; ++q) {
        if (rng.Uniform(0.0, 1.0) < kHotShare) {
          out.push_back(QueryAround(feed[Pick(rng, ingested)].point, rng));
        } else {
          const std::size_t i = Pick(rng, in.prebuilt_points);
          const std::size_t c = static_cast<std::size_t>(
              std::upper_bound(before.begin(), before.end(), i) -
              before.begin() - 1);
          out.push_back(
              QueryAround(in.prebuilt[c].keys[i - before[c]].point, rng));
        }
      }
    }
  }
  return sets;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  if (spec.name == "fleet_dense") {
    // 24 devices x 72,000 fixes.
    in.fleet = bqs::BuildFleetDataset(24, 12.0, seed);
  } else if (spec.name == "fleet_sparse") {
    // 10^4 devices x 200 fixes (BuildFleetDataset's per-device minimum).
    in.fleet = bqs::BuildFleetDataset(10000, 0.0, seed);
  } else {
    // A small fleet feed (8 x 48,000 fixes) ingested while queries run:
    // large enough that its key points fill several 64 KiB WAL segments,
    // so the barriers compact new blocks that the reopened store serves.
    in.fleet = bqs::BuildFleetDataset(8, 8.0, seed);
    MakePrebuilt(seed, &in);
    in.query_sets = MakeLoopQuerySets(spec, in, seed ^ 0x51u);
  }
  return in;
}

std::vector<std::vector<QuerySpec>> MakeQuerySets(
    std::span<const bqs::KeyPoint> stored, std::size_t count, uint64_t seed) {
  std::vector<std::vector<QuerySpec>> sets(kQuerySets);
  if (stored.empty()) return sets;
  std::vector<double> times;
  times.reserve(stored.size());
  for (const bqs::KeyPoint& k : stored) times.push_back(k.point.t);
  const std::size_t cut = times.size() - (times.size() + 7) / 8;
  std::nth_element(times.begin(), times.begin() + static_cast<long>(cut),
                   times.end());
  const double hot_from = times[cut];
  std::vector<std::size_t> hot;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (stored[i].point.t >= hot_from) hot.push_back(i);
  }

  bqs::Rng rng(seed);
  for (std::vector<QuerySpec>& out : sets) {
    out.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
      const std::size_t i = rng.Uniform(0.0, 1.0) < kHotShare
                                ? hot[Pick(rng, hot.size())]
                                : Pick(rng, stored.size());
      out.push_back(QueryAround(stored[i].point, rng));
    }
  }
  return sets;
}

}  // namespace pipebench
