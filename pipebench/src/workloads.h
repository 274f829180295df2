// Workload definitions and seeded input generation for the pipeline
// benchmark. Everything the engine sees is produced here from the workload
// seed; the timed code only consumes the finished inputs.
#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/vec2.h"
#include "simulation/datasets.h"
#include "trajectory/point.h"

namespace pipebench {

/// Records per IngestBatch call, on every workload.
inline constexpr std::size_t kBatchRecords = 1024;

/// The fixed shape of one workload. The barrier and query schedule is by
/// record count, so every run of a seed does identical work.
struct WorkloadSpec {
  std::string_view name;
  std::size_t num_shards = 1;         ///< FleetEngine shards; 1 = inline.
  std::size_t barrier_batches = 256;  ///< CheckpointWal + Stats cadence.
  /// Range queries after each batch; with them, every barrier also reopens
  /// the BlockStore so the queries see what compaction published.
  std::size_t queries_per_batch = 0;
  std::size_t final_queries = 0;  ///< Queries on the recovered store.
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One spatio-temporal range query.
struct QuerySpec {
  bqs::Vec2 center;
  double radius = 0.0;
  double t_min = 0.0;
  double t_max = 0.0;
};

/// One WAL checkpoint of the prebuilt store (query_mixed).
struct Checkpoint {
  bqs::DeviceId device = 0;
  std::vector<bqs::KeyPoint> keys;
};

struct Inputs {
  bqs::FleetDataset fleet;  ///< Interleaved feed + per-device streams.
  /// query_mixed: the store's prior contents in append order, written in
  /// kPrebuiltChunks compaction rounds.
  std::vector<Checkpoint> prebuilt;
  std::size_t prebuilt_points = 0;
  /// query_mixed: kQuerySets in-loop query sets, each in issue order;
  /// query q runs after batch q / queries_per_batch.
  std::vector<std::vector<QuerySpec>> query_sets;
};

inline constexpr std::size_t kPrebuiltChunks = 8;

/// Query sets drawn per seed. Measured passes take them in turn, so a
/// run's pooled query latencies rest on kQuerySets times as many distinct
/// queries as one pass runs, and their median no longer depends on which
/// few hundred queries one set happens to hold.
inline constexpr std::size_t kQuerySets = 16;

/// Share of queries aimed at the newest data. "Most queries target the
/// newest data" is the workload's premise; 0.8 is an assumed value, not one
/// taken from a measured trace.
inline constexpr double kHotShare = 0.8;

/// Builds every input of `spec` from `seed`.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// kQuerySets sets of `count` queries aimed at stored points: a share
/// kHotShare targets the newest eighth of the points by time, the rest are
/// uniform over all of them. Used after the restart, when the store no
/// longer changes.
std::vector<std::vector<QuerySpec>> MakeQuerySets(
    std::span<const bqs::KeyPoint> stored, std::size_t count, uint64_t seed);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
