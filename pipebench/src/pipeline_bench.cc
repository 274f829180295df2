// End-to-end benchmark of the composed BQS fleet pipeline:
//
//   interleaved feed -> FleetEngine (router, BQS kernel, sessions, sink)
//     -> KeyPointWal append -> CheckpointWal barrier -> Compactor
//     -> RecoverStore + BlockStore::Open (restart) -> BlockStore::Query
//
// Measurement is from outside only: every number comes from timing calls
// into the layers' public functions and from the counters those layers
// already expose. One run prints either the end-to-end metrics (--trace 0)
// or the per-layer attribution (--trace 1); both finish with one JSON line
// and exit non-zero when any content check fails. pipebench/README.md
// documents the workloads, metrics and how to run it.
//
// Usage: pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                       --dir DATA_DIR [--trace-out SPANS.json]
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/decision_stats.h"
#include "eval/algorithms.h"
#include "service/fleet_engine.h"
#include "storage/compaction.h"
#include "storage/keypoint_wal.h"
#include "storage/wal_format.h"
#include "trajectory/compressor.h"
#include "workloads.h"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using bqs::DeviceId;
using bqs::KeyPoint;

constexpr double kEpsilon = 10.0;
constexpr std::size_t kWalSegmentBytes = std::size_t{64} << 10;
constexpr int kSetupReps = 4;  // one per CPU of a 4-vCPU machine
/// Queries timed against the in-memory scan reference, per pass.
constexpr std::size_t kScanRefQueries = 64;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of every thread of the process.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` of `v`, lowered to the highest percentile
/// that still has ten samples beyond it. `*used` receives that percentile.
double TailPercentile(std::vector<double> v, double p, double* used) {
  *used = 0.0;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  if (n * (1.0 - p) < 10.0) p = std::max(0.5, 1.0 - 10.0 / n);
  *used = p;
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "pipeline_bench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const bqs::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

/// The CPUs the process may use, as found at start-up.
const std::vector<int>& Cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pins the calling thread to one CPU, chosen round-robin by `turn`; a
/// negative turn releases it to every CPU again. The vCPUs of a shared VM
/// run at different speeds over minutes, so rotating the producer thread
/// across them pass by pass keeps a run's median from depending on which
/// vCPU the scheduler happened to favour.
void PinCallingThread(int turn) {
  const std::vector<int>& cpus = Cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (turn < 0) {
    for (const int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

bqs::AlgorithmConfig Algorithm() {
  bqs::AlgorithmConfig config;
  config.id = bqs::AlgorithmId::kBqs;
  config.epsilon = kEpsilon;
  return config;
}

// --- spans -----------------------------------------------------------------

/// In-memory span log, written out once at exit. A span is one call into
/// a layer's public function, or a root interval that parents such calls.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  void set_round(int round) { round_ = round; }

  /// Opens a span now and returns its id (-1 when tracing is off).
  int Open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, WallNs(), 0, parent, round_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = WallNs();
  }
  void Add(const char* name, int64_t start, int64_t end, int parent) {
    if (on_) spans_.push_back({name, start, end, parent, round_});
  }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name, s.round,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int round;
  };
  bool on_;
  int round_ = 0;
  std::vector<Span> spans_;
};

/// Runs `fn`, records it as a span under `parent`, returns its seconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, int parent, Fn&& fn) {
  const int64_t start = WallNs();
  fn();
  const int64_t end = WallNs();
  tracer.Add(name, start, end, parent);
  return static_cast<double>(end - start) / 1e9;
}

// --- the sink --------------------------------------------------------------

/// Keeps every key point per device. Each device's vector is touched only
/// by the thread that owns the device's session, and the device-to-slot
/// map is read-only while the engine runs.
class RecordingSink final : public bqs::FleetSink {
 public:
  explicit RecordingSink(const std::unordered_map<DeviceId, std::size_t>& slot)
      : slot_(slot), keys_(slot.size()) {}

  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    const auto it = slot_.find(device);
    if (it == slot_.end()) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    keys_[it->second].push_back(key);
  }

  void Clear() {
    for (std::vector<KeyPoint>& k : keys_) k.clear();
    unknown_.store(0, std::memory_order_relaxed);
  }
  const std::vector<KeyPoint>& keys(std::size_t slot) const {
    return keys_[slot];
  }
  uint64_t unknown() const { return unknown_.load(std::memory_order_relaxed); }
  uint64_t total() const {
    uint64_t n = 0;
    for (const std::vector<KeyPoint>& k : keys_) n += k.size();
    return n;
  }

 private:
  const std::unordered_map<DeviceId, std::size_t>& slot_;
  std::vector<std::vector<KeyPoint>> keys_;
  std::atomic<uint64_t> unknown_{0};
};

bool SameBits(const std::vector<KeyPoint>& a, const std::vector<KeyPoint>& b) {
  static_assert(sizeof(KeyPoint) == 6 * sizeof(double),
                "KeyPoint must stay padding-free for a bitwise compare");
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(KeyPoint)) == 0);
}

// --- one run's fixed state -------------------------------------------------

struct Context {
  const WorkloadSpec* spec = nullptr;
  Inputs inputs;
  std::string dir;       ///< This run's data directory.
  std::string base_dir;  ///< Prebuilt store copied into every pass.
  uint64_t first_seq = 1;
  std::unordered_map<DeviceId, std::size_t> slot_of;  ///< fleet device slot
  /// CompressAll output per fleet device slot: the sink must match it.
  std::vector<std::vector<KeyPoint>> reference;
  /// Quantized prebuilt content per device (query_mixed).
  std::unordered_map<DeviceId, std::vector<bqs::wal::WalPoint>> prebuilt_q;
  /// kQuerySets in-loop or post-restart query sets.
  std::vector<std::vector<QuerySpec>> query_sets;
};

std::string WalDir(const std::string& pass) { return pass + "/wal"; }
std::string BlockDir(const std::string& pass) { return pass + "/blocks"; }

/// Writes the prebuilt checkpoints into a fresh WAL and compacts them in
/// kPrebuiltChunks rounds, so blocks split by time as well as by device.
/// Returns the sequence the next WAL append must carry.
uint64_t PrebuildStore(const Inputs& in, const std::string& dir) {
  fs::remove_all(dir);
  bqs::KeyPointWalOptions wopts;
  wopts.dir = WalDir(dir);
  wopts.durability = bqs::WalDurability::kFlushEveryBatch;
  wopts.segment_bytes = kWalSegmentBytes;
  bqs::CompactionOptions copts;
  copts.wal_dir = WalDir(dir);
  copts.block_dir = BlockDir(dir);
  bqs::Compactor compactor(copts);
  uint64_t next_seq = 1;
  {
    bqs::KeyPointWal wal(wopts);
    CheckOk(wal.Open(), "prebuild wal open");
    const std::size_t per_chunk =
        (in.prebuilt.size() + kPrebuiltChunks - 1) / kPrebuiltChunks;
    for (std::size_t i = 0; i < in.prebuilt.size(); ++i) {
      const Checkpoint& cp = in.prebuilt[i];
      const auto ack = wal.Append(cp.device, cp.keys);
      CheckOk(ack.status(), "prebuild wal append");
      if ((i + 1) % per_chunk == 0) {
        CheckOk(compactor.CompactOnce(wal.current_segment_index()),
                "prebuild compaction");
      }
    }
    next_seq = wal.next_seq();
    CheckOk(wal.Close(), "prebuild wal close");
  }
  CheckOk(compactor.CompactOnce(), "prebuild final compaction");
  return next_seq;
}

// --- one pass --------------------------------------------------------------

enum class PassKind {
  kMeasured,  ///< Engine with WAL + attached Compactor; tracing off.
  kTraced,    ///< Engine with WAL; the pass calls CompactOnce itself.
  kWalless,   ///< Engine without WAL: the service + core replay.
};

struct QueryRecord {
  std::size_t spec = 0;         ///< Index into the pass's query set.
  uint64_t watermark = 0;       ///< Store's last_applied_seq when queried.
  std::vector<KeyPoint> found;  ///< What BlockStore::Query returned.
};

struct PassResult {
  std::size_t query_set = 0;  ///< Index into Context::query_sets.
  // Timed interval: first IngestBatch .. final FinishAll + CheckpointWal.
  double interval_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> batch_ms;    ///< IngestBatch durations.
  std::vector<double> barrier_ms;  ///< Barrier durations (see RunPass).
  std::vector<double> query_us;    ///< BlockStore::Query durations.
  // Summed call durations inside the interval (the attribution inputs).
  double ingest_side_s = 0.0;  ///< IngestBatch + Flush + FinishAll.
  double checkpoint_s = 0.0;   ///< CheckpointWal.
  double compact_s = 0.0;      ///< CompactOnce (traced pass only).
  double stats_s = 0.0;        ///< Stats scrapes.
  double query_s = 0.0;        ///< In-loop queries.
  double open_s = 0.0;         ///< In-loop reopens.
  std::size_t checkpoints = 0, compactions = 0, scrapes = 0, opens = 0;
  // Restart and post-restart reads.
  double recover_s = 0.0;         ///< RecoverStore + BlockStore::Open.
  double recover_only_s = 0.0;    ///< RecoverStore alone.
  double restart_open_s = 0.0;    ///< BlockStore::Open after recovery.
  double scan_ref_s = 0.0;        ///< In-memory scans of kScanRefQueries.
  std::size_t scan_ref_queries = 0;
  std::size_t scan_ref_hits = 0;
  bqs::RangeQueryStats query_totals;  ///< Summed over the query set.
  // Counters.
  bqs::FleetStats fleet;
  bqs::KeyPointWalStats wal;
  bqs::CompactionStats compaction;
  bqs::StoreRecoveryReport recovery;
  bqs::WalRecoveryReport wal_recovery;
  uint64_t disk_bytes = 0;
  uint64_t durable_points = 0;
  uint64_t key_points = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  ///< First failed content check; empty when correct.
};

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<uint64_t>(e.file_size());
  }
  return total;
}

/// Dequantized durable points, sorted by x, for the brute-force filter.
struct RefPoint {
  KeyPoint key;
  uint64_t seq = 0;
};

bool KeyLess(const KeyPoint& a, const KeyPoint& b) {
  return std::tie(a.point.t, a.point.pos.x, a.point.pos.y, a.index) <
         std::tie(b.point.t, b.point.pos.x, b.point.pos.y, b.index);
}

/// Every durable point within the query, among checkpoints with
/// seq <= watermark: a plain filter over the recovered points. `*fresh`
/// counts the points among them with seq >= first_fresh.
std::vector<KeyPoint> BruteForce(const std::vector<RefPoint>& by_x,
                                 const QuerySpec& q, uint64_t watermark,
                                 uint64_t first_fresh, std::size_t* fresh) {
  std::vector<KeyPoint> out;
  const double r2 = q.radius * q.radius;
  auto it = std::lower_bound(
      by_x.begin(), by_x.end(), q.center.x - q.radius,
      [](const RefPoint& p, double x) { return p.key.point.pos.x < x; });
  for (; it != by_x.end() && it->key.point.pos.x <= q.center.x + q.radius;
       ++it) {
    const KeyPoint& k = it->key;
    if (it->seq > watermark) continue;
    if (k.point.t < q.t_min || k.point.t > q.t_max) continue;
    if (bqs::DistanceSq(k.point.pos, q.center) > r2) continue;
    if (it->seq >= first_fresh) ++*fresh;
    out.push_back(k);
  }
  return out;
}

/// The content checks. Returns the first failure, or "" when all pass.
std::string Verify(const Context& ctx, const PassResult& r,
                   const RecordingSink& sink,
                   const bqs::StoreRecovery* recovered,
                   const std::vector<QueryRecord>& queries) {
  const auto& feed = ctx.inputs.fleet.feed;
  const bqs::FleetStats& f = r.fleet;
  if (f.records_ingested + f.records_shed + f.records_dropped != feed.size()) {
    return "ingested + shed + dropped != fed";
  }
  if (!f.storage_healthy) return "storage_healthy is false";
  if (sink.unknown() != 0) return "sink saw a device not in the feed";
  const auto& devices = ctx.inputs.fleet.devices;
  for (std::size_t s = 0; s < devices.size(); ++s) {
    if (!SameBits(sink.keys(s), ctx.reference[s])) {
      return "device " + std::to_string(devices[s].first) +
             ": sink output differs from its CompressAll reference";
    }
  }
  if (recovered == nullptr) return "";

  if (!recovered->report.clean() || !recovered->wal.report.clean()) {
    return "store recovery is not clean";
  }
  const bqs::wal::WalQuantization quant = recovered->wal.quant;
  std::unordered_map<DeviceId, std::vector<bqs::wal::WalPoint>> got;
  for (const bqs::wal::WalCheckpoint& cp : recovered->wal.checkpoints) {
    auto& pts = got[cp.device];
    pts.insert(pts.end(), cp.points.begin(), cp.points.end());
  }
  std::size_t expected_devices = ctx.prebuilt_q.size();
  for (const auto& [device, pts] : ctx.prebuilt_q) {
    const auto it = got.find(device);
    if (it == got.end() || it->second != pts) {
      return "device " + std::to_string(device) +
             ": recovered store differs from the prebuilt content";
    }
  }
  std::vector<bqs::wal::WalPoint> want;
  for (std::size_t s = 0; s < devices.size(); ++s) {
    const std::vector<KeyPoint>& keys = sink.keys(s);
    if (keys.empty()) continue;
    ++expected_devices;
    want.clear();
    for (const KeyPoint& k : keys) want.push_back(bqs::wal::Quantize(k, quant));
    const auto it = got.find(devices[s].first);
    if (it == got.end() || it->second != want) {
      return "device " + std::to_string(devices[s].first) +
             ": recovered store differs from what the sink received";
    }
  }
  if (got.size() != expected_devices) return "recovered an unknown device";

  if (queries.empty()) return "";
  std::vector<RefPoint> by_x;
  for (const bqs::wal::WalCheckpoint& cp : recovered->wal.checkpoints) {
    for (const bqs::wal::WalPoint& p : cp.points) {
      by_x.push_back({bqs::wal::Dequantize(p, quant), cp.seq});
    }
  }
  std::sort(by_x.begin(), by_x.end(), [](const RefPoint& a, const RefPoint& b) {
    return a.key.point.pos.x < b.key.point.pos.x;
  });
  // Queries that returned a point the pass itself wrote (seq >= first_seq).
  std::size_t fresh_queries = 0;
  const std::vector<QuerySpec>& specs = ctx.query_sets[r.query_set];
  for (const QueryRecord& q : queries) {
    std::size_t fresh = 0;
    std::vector<KeyPoint> expected = BruteForce(
        by_x, specs[q.spec], q.watermark, ctx.first_seq, &fresh);
    if (fresh > 0) ++fresh_queries;
    std::vector<KeyPoint> found = q.found;
    std::sort(expected.begin(), expected.end(), KeyLess);
    std::sort(found.begin(), found.end(), KeyLess);
    if (!SameBits(expected, found)) {
      return "query " + std::to_string(q.spec) + " returned " +
             std::to_string(found.size()) + " points, brute force " +
             std::to_string(expected.size());
    }
  }
  // On query_mixed the in-loop queries must read blocks the loop compacted,
  // or a reopen that missed them would go unnoticed.
  if (ctx.spec->queries_per_batch > 0 && fresh_queries == 0) {
    return "no in-loop query returned a point the pass ingested";
  }
  return "";
}

/// Runs the whole feed through a fresh engine (and, with a WAL, a fresh
/// store), restarts, queries, and checks every output.
///
/// Barrier samples: kMeasured times CheckpointWal (which runs compaction
/// inside the engine); kTraced times Flush + CheckpointWal + CompactOnce,
/// the same work split into three spans.
///
/// Shard workers start with every CPU; the calling (producer) thread then
/// runs the pass pinned to the CPU that `turn` selects. The pass runs the
/// queries of Context::query_sets[query_set].
PassResult RunPass(const Context& ctx, PassKind kind, std::size_t query_set,
                   int turn, RecordingSink& sink, Tracer& tracer) {
  const WorkloadSpec& spec = *ctx.spec;
  const bool with_wal = kind != PassKind::kWalless;
  const bool traced = kind == PassKind::kTraced;
  const std::string pass_dir = ctx.dir + "/pass";
  fs::remove_all(pass_dir);
  if (with_wal && !ctx.base_dir.empty()) {
    fs::copy(ctx.base_dir, pass_dir, fs::copy_options::recursive);
  }
  sink.Clear();
  PassResult r;
  r.query_set = query_set;
  const std::vector<QuerySpec>& queries = ctx.query_sets[query_set];
  std::vector<QueryRecord> query_log;

  bqs::KeyPointWalOptions wopts;
  wopts.dir = WalDir(pass_dir);
  wopts.durability = bqs::WalDurability::kFlushEveryBatch;
  wopts.segment_bytes = kWalSegmentBytes;
  bqs::CompactionOptions copts;
  copts.wal_dir = WalDir(pass_dir);
  copts.block_dir = BlockDir(pass_dir);
  std::optional<bqs::KeyPointWal> wal;
  std::optional<bqs::Compactor> compactor;
  if (with_wal) {
    wal.emplace(wopts);
    CheckOk(wal->Open(ctx.first_seq), "wal open");
    compactor.emplace(copts);
  }

  bqs::FleetEngineOptions eopts;
  eopts.algorithm = Algorithm();
  eopts.num_shards = spec.num_shards;
  eopts.wal = with_wal ? &*wal : nullptr;
  eopts.compactor = kind == PassKind::kMeasured ? &*compactor : nullptr;

  const auto& feed = ctx.inputs.fleet.feed;
  const bool in_loop_queries = spec.queries_per_batch > 0 && with_wal;
  std::optional<bqs::BlockStore> store;
  uint64_t compact_failures = 0;
  uint64_t query_failures = 0;
  // Runs query `qi` on the open store; returns its seconds.
  const auto query = [&](std::size_t qi, int parent) {
    const QuerySpec& q = queries[qi];
    QueryRecord rec{qi, store->last_applied_seq(), {}};
    bqs::RangeQueryStats qs;
    bqs::Status st;
    const double s = Timed(tracer, "BlockStore::Query", parent, [&] {
      st = store->Query(q.center, q.radius, q.t_min, q.t_max, &rec.found, &qs);
    });
    r.query_us.push_back(s * 1e6);
    if (!st.ok()) ++query_failures;
    r.query_totals.blocks_total += qs.blocks_total;
    r.query_totals.grid_candidates += qs.grid_candidates;
    r.query_totals.blocks_decoded += qs.blocks_decoded;
    r.query_totals.points_scanned += qs.points_scanned;
    r.query_totals.points_returned += qs.points_returned;
    query_log.push_back(std::move(rec));
    return s;
  };
  PinCallingThread(-1);
  {
    bqs::FleetEngine engine(eopts, sink);
    PinCallingThread(turn);
    const int root = tracer.Open("ingest", -1);
    const int64_t cpu0 = CpuNs();
    const int64_t wall0 = WallNs();

    const auto open_store = [&] {
      r.open_s += Timed(tracer, "BlockStore::Open", root, [&] {
        auto opened = bqs::BlockStore::Open(BlockDir(pass_dir));
        CheckOk(opened.status(), "block store open");
        store.emplace(std::move(opened).value());
      });
      ++r.opens;
    };
    const auto barrier = [&](bool scrape) {
      const int64_t b0 = WallNs();
      if (traced || !with_wal) {
        r.ingest_side_s +=
            Timed(tracer, "FleetEngine::Flush", root, [&] { engine.Flush(); });
      }
      if (with_wal) {
        r.checkpoint_s += Timed(tracer, "FleetEngine::CheckpointWal", root,
                                [&] { engine.CheckpointWal(); });
        ++r.checkpoints;
      }
      if (traced) {
        bqs::Status st;
        r.compact_s += Timed(tracer, "Compactor::CompactOnce", root, [&] {
          st = compactor->CompactOnce(wal->current_segment_index());
        });
        ++r.compactions;
        if (!st.ok()) ++compact_failures;
      }
      if (with_wal) {
        r.barrier_ms.push_back(static_cast<double>(WallNs() - b0) / 1e6);
      }
      if (scrape) {
        r.stats_s += Timed(tracer, "FleetEngine::Stats", root,
                           [&] { (void)engine.Stats(); });
        ++r.scrapes;
      }
      if (in_loop_queries && scrape) open_store();
    };

    if (in_loop_queries) open_store();
    std::size_t batch = 0, next_query = 0;
    for (std::size_t at = 0; at < feed.size(); at += kBatchRecords) {
      const std::size_t n = std::min(kBatchRecords, feed.size() - at);
      const double s = Timed(tracer, "FleetEngine::IngestBatch", root, [&] {
        engine.IngestBatch(std::span(feed).subspan(at, n));
      });
      r.ingest_side_s += s;
      r.batch_ms.push_back(s * 1e3);
      for (std::size_t i = 0; in_loop_queries && i < spec.queries_per_batch;
           ++i) {
        r.query_s += query(next_query++, root);
      }
      if (++batch % spec.barrier_batches == 0) barrier(/*scrape=*/true);
    }
    r.ingest_side_s += Timed(tracer, "FleetEngine::FinishAll", root,
                             [&] { engine.FinishAll(); });
    if (with_wal) barrier(/*scrape=*/false);
    r.interval_s = static_cast<double>(WallNs() - wall0) / 1e9;
    r.cpu_s = static_cast<double>(CpuNs() - cpu0) / 1e9;
    tracer.Close(root);
    r.fleet = engine.Stats();
  }
  r.key_points = sink.total();
  r.attempted = feed.size();
  r.failed = r.fleet.records_shed + r.fleet.records_dropped;
  if (!with_wal) {
    r.error = Verify(ctx, r, sink, nullptr, query_log);
    return r;
  }

  r.wal = wal->stats();
  CheckOk(wal->Close(), "wal close");
  wal.reset();
  r.compaction = compactor->stats();
  const uint64_t runs =
      kind == PassKind::kMeasured
          ? r.fleet.compaction_runs + r.fleet.compaction_failures
          : r.compactions;
  const uint64_t run_failures = kind == PassKind::kMeasured
                                    ? r.fleet.compaction_failures
                                    : compact_failures;

  // Restart: recover the store, then open it for the first query.
  const int restart = tracer.Open("restart", -1);
  std::optional<bqs::StoreRecovery> recovered;
  r.recover_only_s = Timed(tracer, "RecoverStore", restart, [&] {
    auto rec = bqs::RecoverStore(WalDir(pass_dir), BlockDir(pass_dir));
    CheckOk(rec.status(), "recover store");
    recovered.emplace(std::move(rec).value());
  });
  r.restart_open_s = Timed(tracer, "BlockStore::Open", restart, [&] {
    auto opened = bqs::BlockStore::Open(BlockDir(pass_dir));
    CheckOk(opened.status(), "block store open after recovery");
    store.emplace(std::move(opened).value());
  });
  tracer.Close(restart);
  r.recover_s = r.recover_only_s + r.restart_open_s;
  r.recovery = recovered->report;
  r.wal_recovery = recovered->wal.report;
  for (const bqs::wal::WalCheckpoint& cp : recovered->wal.checkpoints) {
    r.durable_points += cp.points.size();
  }
  r.disk_bytes = TreeBytes(pass_dir);

  if (!in_loop_queries) {
    const int reads = tracer.Open("reads", -1);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) query(qi, reads);
    tracer.Close(reads);
  }
  r.attempted += r.wal.checkpoints_appended + r.fleet.wal_append_failures +
                 runs + r.query_us.size();
  r.failed += r.fleet.wal_append_failures + run_failures + query_failures;

  if (traced) {
    // The scan reference: the same queries over every durable point,
    // decoded in memory in advance (a warm scan of the same representation).
    std::vector<KeyPoint> all;
    all.reserve(r.durable_points);
    for (const bqs::wal::WalCheckpoint& cp : recovered->wal.checkpoints) {
      for (const bqs::wal::WalPoint& p : cp.points) {
        all.push_back(bqs::wal::Dequantize(p, recovered->wal.quant));
      }
    }
    std::size_t hits = 0;  // kept in the result so the scan is not elided
    r.scan_ref_queries = std::min(kScanRefQueries, queries.size());
    for (std::size_t qi = 0; qi < r.scan_ref_queries; ++qi) {
      const QuerySpec& q = queries[qi];
      const double r2 = q.radius * q.radius;
      r.scan_ref_s += Timed(tracer, "scan_reference", -1, [&] {
        for (const KeyPoint& k : all) {
          if (k.point.t >= q.t_min && k.point.t <= q.t_max &&
              bqs::DistanceSq(k.point.pos, q.center) <= r2) {
            ++hits;
          }
        }
      });
    }
    r.scan_ref_hits = hits;
  }

  r.error = Verify(ctx, r, sink, &*recovered, query_log);
  return r;
}

// --- the core-only replay ---------------------------------------------------

struct CoreReplay {
  double seconds = 0.0;
  bqs::DecisionStats decisions;
};

CoreReplay RunCore(const Context& ctx, Tracer& tracer) {
  CoreReplay out;
  const int root = tracer.Open("core_replay", -1);
  for (const auto& [device, stream] : ctx.inputs.fleet.devices) {
    auto compressor = bqs::MakeStreamCompressor(Algorithm());
    out.seconds += Timed(tracer, "CompressAll", root, [&] {
      (void)bqs::CompressAll(*compressor, stream);
    });
    if (const bqs::DecisionStats* d = compressor->decision_stats()) {
      bqs::AccumulateDecisionStats(out.decisions, *d);
    }
  }
  tracer.Close(root);
  return out;
}

/// Fixed work, independent of the program and the seed: machine drift
/// shows here beside any regression.
double CalibrationMs() {
  std::vector<double> buf(1 << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<double>(i) * 0.5;
  }
  std::vector<double> ms;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = WallNs();
    double acc = 0.0;
    for (int pass = 0; pass < 8; ++pass) {
      for (const double v : buf) acc += std::sqrt(v + acc * 1e-9);
    }
    sink = sink + acc;
    ms.push_back(static_cast<double>(WallNs() - t0) / 1e6);
  }
  return Median(ms);
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count or basis, printed for humans only.
  /// False for a metric printed in the table but left out of the JSON
  /// result, because its spread across runs on a shared VM exceeds any
  /// usable bound (see README.md).
  bool in_result = true;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

std::string Samples(std::size_t n) { return "n=" + std::to_string(n); }

std::string Percent(double share) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", share * 100.0);
  return buf;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename T>
double D(T v) {
  return static_cast<double>(v);
}

std::vector<double> Concat(const std::vector<PassResult>& passes,
                           std::vector<double> PassResult::*field) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    out.insert(out.end(), (p.*field).begin(), (p.*field).end());
  }
  return out;
}

std::vector<double> PerPass(const std::vector<PassResult>& passes,
                            double (*fn)(const PassResult&)) {
  std::vector<double> out;
  for (const PassResult& p : passes) out.push_back(fn(p));
  return out;
}

/// Counters that repeat exactly for a seed: a change to them is a change in
/// work done, not noise. The rest (scheduling, timing) are not exact.
std::vector<std::string> ExactCounters(const WorkloadSpec& spec) {
  std::vector<std::string> names = {
      "core.segments",
      "core.exact_computations",
      "core.exact_points_scanned",
      "core.kernel_fallbacks",
      "service.coalesced_runs",
      "service.blocks_dispatched",
      "service.sessions_opened",
      "storage.wal.checkpoints",
      "storage.wal.bytes_per_point",
      "storage.compaction.runs",
      "storage.recovery.duplicates_dropped",
      "storage.recovery.bytes_dropped",
  };
  if (spec.num_shards <= 1) {
    // With worker threads the order of the final WAL appends, and so the
    // segment cut and what the last compaction drains, depends on
    // scheduling; inline, all of it repeats.
    for (const char* n :
         {"storage.wal.segments_opened",
          "storage.wal.flushes", "storage.compaction.blocks_written",
          "storage.compaction.segments_consumed",
          "storage.compaction.block_bytes_per_point",
          "storage.recovery.blocks_decoded",
          "storage.recovery.checkpoints_from_wal",
          "storage.block_store.grid_candidates",
          "storage.block_store.blocks_decoded",
          "storage.block_store.points_scanned"}) {
      names.emplace_back(n);
    }
  }
  return names;
}

std::vector<Metric> EndToEnd(const Context& ctx,
                             const std::vector<PassResult>& passes,
                             double setup_s) {
  const double fixes = D(ctx.inputs.fleet.feed.size());
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s",
               "median of " + std::to_string(kSetupReps) + " set-ups"});
  m.push_back({"ingest_pts_per_s",
               Median(PerPass(passes,
                              [](const PassResult& p) {
                                return D(p.fleet.records_ingested) /
                                       p.interval_s;
                              })),
               "1/s", "median of " + Samples(passes.size()) + " passes"});
  m.push_back({"ingest_cpu_ns_per_pt",
               Median(PerPass(passes,
                              [](const PassResult& p) {
                                return 1e9 * p.cpu_s /
                                       D(p.fleet.records_ingested);
                              })),
               "ns/pt", "median of " + Samples(passes.size()) + " passes"});
  double used = 0.0;
  const std::vector<double> batch = Concat(passes, &PassResult::batch_ms);
  m.push_back({"batch_p50_ms", Median(batch), "ms", Samples(batch.size())});
  m.push_back({"batch_p99_ms", TailPercentile(batch, 0.99, &used), "ms",
               Samples(batch.size()) + " p" + Percent(used) + ", not gated",
               false});
  const std::vector<double> barrier = Concat(passes, &PassResult::barrier_ms);
  m.push_back({"barrier_p50_ms", Median(barrier), "ms",
               Samples(barrier.size()) + ", not gated", false});
  m.push_back({"recover_s",
               Median(PerPass(passes,
                              [](const PassResult& p) { return p.recover_s; })),
               "s", "median of " + Samples(passes.size()) + " restarts"});
  const std::vector<double> query = Concat(passes, &PassResult::query_us);
  m.push_back({"query_p50_us", Median(query), "us", Samples(query.size())});
  m.push_back({"query_p99_us", TailPercentile(query, 0.99, &used), "us",
               Samples(query.size()) + " p" + Percent(used) + ", not gated",
               false});
  const PassResult& last = passes.back();
  m.push_back({"bytes_per_point",
               Ratio(D(last.disk_bytes), D(last.durable_points)), "B/pt",
               std::to_string(last.durable_points) + " durable points"});
  m.push_back({"compression_rate", Ratio(D(last.key_points), fixes), "ratio",
               std::to_string(last.key_points) + " key points"});
  return m;
}

struct Round {
  PassResult untraced;
  CoreReplay core;
  PassResult walless;
  PassResult traced;
};

double MeanUs(const std::vector<double>& us) {
  double sum = 0.0;
  for (const double v : us) sum += v;
  return Ratio(sum, D(us.size()));
}

std::vector<Metric> PerLayer(const Context& ctx,
                             const std::vector<Round>& rounds, double feed_s,
                             double calibration_ms) {
  // Every time below is a median over rounds; each round replays the same
  // feed four ways, so the differences between replays are the self times
  // of the layers they add.
  const auto med = [&](auto fn) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(fn(r));
    return Median(std::move(v));
  };
  const PassResult& t = rounds.back().traced;  // counters repeat per round
  const double fixes = D(ctx.inputs.fleet.feed.size());
  const bqs::DecisionStats& dec = rounds.back().core.decisions;

  const double core_s = med([](const Round& r) { return r.core.seconds; });
  const double walless_s =
      med([](const Round& r) { return r.walless.ingest_side_s; });
  const double ingest_s =
      med([](const Round& r) { return r.traced.ingest_side_s; });
  const double checkpoint_s =
      med([](const Round& r) { return r.traced.checkpoint_s; });
  const double compact_s =
      med([](const Round& r) { return r.traced.compact_s; });
  const double stats_s = med([](const Round& r) { return r.traced.stats_s; });
  const double query_s = med([](const Round& r) { return r.traced.query_s; });
  const double open_s = med([](const Round& r) { return r.traced.open_s; });
  const double traced_wall =
      med([](const Round& r) { return r.traced.interval_s; });
  const double untraced_wall =
      med([](const Round& r) { return r.untraced.interval_s; });
  const double service_s = walless_s - core_s;
  const double append_s = ingest_s - walless_s;
  // core + service + append telescopes to the traced ingest spans, so the
  // sum equals the traced pass's own span total by construction: what is
  // left of the wall time is only the gaps between spans. It cannot catch
  // a wrong core / service / WAL split, which rests on separate replays.
  const double self_sum = core_s + service_s + append_s + checkpoint_s +
                          compact_s + stats_s + query_s + open_s;

  const auto overhead = [&](std::vector<double> PassResult::*field) {
    std::vector<double> traced, untraced;
    for (const Round& r : rounds) {
      traced.insert(traced.end(), (r.traced.*field).begin(),
                    (r.traced.*field).end());
      untraced.insert(untraced.end(), (r.untraced.*field).begin(),
                      (r.untraced.*field).end());
    }
    return Ratio(Median(traced), Median(untraced)) - 1.0;
  };

  const bqs::FleetStats& fs = t.fleet;
  const bqs::CompactionStats& cs = t.compaction;
  const bqs::RangeQueryStats& qs = t.query_totals;
  const double open_us =
      1e6 * (t.opens > 0 ? open_s / D(t.opens)
                         : med([](const Round& r) {
                             return r.traced.restart_open_s;
                           }));
  const std::string rounds_note =
      "median of " + std::to_string(rounds.size()) + " rounds";

  std::vector<Metric> m = {
      {"simulation.feed_s", feed_s, "s", "median feed generation"},
      {"core.compress_ns_per_pt", 1e9 * core_s / fixes, "ns/pt",
       "CompressAll per device, " + rounds_note},
      {"core.segments", D(dec.segments), "count", ""},
      {"core.exact_computations", D(dec.exact_computations), "count", ""},
      {"core.exact_points_scanned", D(dec.exact_points_scanned), "count", ""},
      {"core.kernel_fallbacks", D(dec.kernel_fallbacks), "count", ""},
      {"core.pruning_power", dec.PruningPower(), "ratio", ""},
      {"service.ingest_self_ns_per_pt", 1e9 * service_s / fixes, "ns/pt",
       "WAL-less replay minus core"},
      {"service.records_per_dispatch",
       Ratio(D(fs.records_ingested), D(fs.coalesced_runs)), "records", ""},
      {"service.coalesced_runs", D(fs.coalesced_runs), "count", ""},
      {"service.blocks_dispatched", D(fs.blocks_dispatched), "count", ""},
      {"service.worker_wakes", D(fs.worker_wakes), "count", "not exact"},
      {"service.backpressure_waits", D(fs.backpressure_waits), "count",
       "not exact"},
      {"service.peak_queue_depth", D(fs.peak_queue_depth), "blocks",
       "not exact"},
      {"service.sessions_opened", D(fs.sessions_opened), "count", ""},
      {"service.peak_state_bytes", D(fs.peak_state_bytes), "B", ""},
      {"service.stats_us", 1e6 * Ratio(stats_s, D(t.scrapes)), "us",
       Samples(t.scrapes) + " per round"},
      {"storage.wal.append_self_ns_per_pt", 1e9 * append_s / fixes, "ns/pt",
       "full replay minus WAL-less replay"},
      {"storage.wal.barrier_ms", 1e3 * Ratio(checkpoint_s, D(t.checkpoints)),
       "ms", Samples(t.checkpoints) + " CheckpointWal after Flush, per round"},
      {"storage.wal.checkpoints", D(t.wal.checkpoints_appended), "count", ""},
      {"storage.wal.bytes_per_point",
       Ratio(D(t.wal.bytes_appended), D(t.wal.points_appended)), "B/pt", ""},
      {"storage.wal.flushes", D(t.wal.flushes), "count", ""},
      {"storage.wal.syncs", D(t.wal.syncs), "count", "fsyncs, counted"},
      {"storage.wal.segments_opened", D(t.wal.segments_opened), "count", ""},
      {"storage.wal.append_failures", D(fs.wal_append_failures), "count", ""},
      {"storage.compaction.run_ms", 1e3 * Ratio(compact_s, D(t.compactions)),
       "ms", Samples(t.compactions) + " per round"},
      {"storage.compaction.runs", D(cs.runs_completed), "count", ""},
      {"storage.compaction.blocks_written", D(cs.blocks_written), "count", ""},
      {"storage.compaction.points_per_block",
       Ratio(D(cs.points_compacted), D(cs.blocks_written)), "pt", ""},
      {"storage.compaction.block_bytes_per_point",
       Ratio(D(cs.block_bytes_written), D(cs.points_compacted)), "B/pt", ""},
      {"storage.compaction.segments_consumed", D(cs.segments_consumed),
       "count", ""},
      {"storage.compaction.io_retries", D(cs.io_retries), "count", ""},
      {"storage.compaction.runs_failed", D(cs.runs_failed), "count", ""},
      {"storage.recovery.ms",
       1e3 * med([](const Round& r) { return r.traced.recover_only_s; }), "ms",
       rounds_note},
      {"storage.recovery.blocks_decoded", D(t.recovery.blocks_decoded),
       "count", ""},
      {"storage.recovery.checkpoints_from_wal",
       D(t.recovery.checkpoints_from_wal), "count", ""},
      {"storage.recovery.duplicates_dropped", D(t.recovery.duplicates_dropped),
       "count", ""},
      {"storage.recovery.bytes_dropped", D(t.wal_recovery.bytes_dropped), "B",
       ""},
      {"storage.block_store.open_us", open_us, "us",
       t.opens > 0 ? Samples(t.opens) + " in-loop reopens per round"
                   : "after restart"},
      {"storage.block_store.query_self_us",
       med([](const Round& r) { return MeanUs(r.traced.query_us); }), "us",
       Samples(t.query_us.size()) + " per round"},
      {"storage.block_store.grid_candidates", D(qs.grid_candidates), "count",
       "summed over the query set"},
      {"storage.block_store.blocks_decoded", D(qs.blocks_decoded), "count",
       "summed over the query set"},
      {"storage.block_store.decoded_fraction",
       Ratio(D(qs.blocks_decoded), D(qs.blocks_total)), "ratio", ""},
      {"storage.block_store.points_scanned", D(qs.points_scanned), "count",
       "summed over the query set"},
      {"storage.block_store.hit_ratio",
       Ratio(D(qs.points_returned), D(qs.points_scanned)), "ratio", ""},
      {"storage.block_store.scan_ref_us",
       med([](const Round& r) {
         return 1e6 * Ratio(r.traced.scan_ref_s, D(r.traced.scan_ref_queries));
       }),
       "us", Samples(t.scan_ref_queries) + " in-memory scans per round"},
      {"calibration.fixed_work_ms", calibration_ms, "ms", "median of 5"},
      {"trace.ingest_wall_ms", 1e3 * traced_wall, "ms", rounds_note},
      {"trace.self_sum_ms", 1e3 * self_sum, "ms", "sum of the self times"},
      {"trace.unattributed_share", 1.0 - Ratio(self_sum, traced_wall),
       "ratio", "gaps between spans (the add-up is exact by construction)"},
      {"trace.overhead.ingest_wall", Ratio(traced_wall, untraced_wall) - 1.0,
       "ratio", "traced / untraced - 1, medians"},
      {"trace.overhead.batch_p50_ms", overhead(&PassResult::batch_ms), "ratio",
       "traced / untraced - 1"},
      {"trace.overhead.barrier_p50_ms", overhead(&PassResult::barrier_ms),
       "ratio", "traced / untraced - 1"},
  };
  return m;
}

// --- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--dir") {
      a.dir = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.dir.empty() || !have_seed || !have_seconds ||
      !have_trace || !(a.seconds > 0.0)) {
    Die("usage: pipeline_bench --workload NAME --seed N --seconds S "
        "--trace 0|1 --dir DATA_DIR [--trace-out FILE]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Context ctx;
  ctx.spec = FindWorkload(args.workload);
  if (ctx.spec == nullptr) Die("unknown workload " + args.workload);
  const WorkloadSpec& spec = *ctx.spec;
  ctx.dir = args.dir;
  fs::remove_all(ctx.dir);
  fs::create_directories(ctx.dir);
  Tracer tracer(args.trace);

  // Set-up, repeated so its median is steady: feed generation, plus the
  // prebuilt store for query_mixed.
  std::vector<double> setup_s, feed_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    PinCallingThread(rep);
    ctx.inputs = Inputs{};
    const int64_t t0 = WallNs();
    ctx.inputs = MakeInputs(spec, args.seed);
    const int64_t t1 = WallNs();
    if (!ctx.inputs.prebuilt.empty()) {
      ctx.base_dir = ctx.dir + "/base";
      ctx.first_seq = PrebuildStore(ctx.inputs, ctx.base_dir);
    }
    const int64_t t2 = WallNs();
    feed_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }

  // Check references, outside any timing.
  const auto& devices = ctx.inputs.fleet.devices;
  ctx.reference.resize(devices.size());
  std::vector<KeyPoint> stored;
  for (std::size_t s = 0; s < devices.size(); ++s) {
    ctx.slot_of.emplace(devices[s].first, s);
    auto compressor = bqs::MakeStreamCompressor(Algorithm());
    ctx.reference[s] = bqs::CompressAll(*compressor, devices[s].second).keys;
    stored.insert(stored.end(), ctx.reference[s].begin(),
                  ctx.reference[s].end());
  }
  if (ctx.inputs.query_sets.empty()) {
    ctx.query_sets =
        MakeQuerySets(stored, spec.final_queries, args.seed ^ 0x71u);
  } else {
    ctx.query_sets = std::move(ctx.inputs.query_sets);
  }
  bqs::wal::WalQuantization quant;
  for (const Checkpoint& cp : ctx.inputs.prebuilt) {
    auto& pts = ctx.prebuilt_q[cp.device];
    for (const KeyPoint& k : cp.keys) {
      pts.push_back(bqs::wal::Quantize(k, quant));
    }
  }
  ctx.inputs.prebuilt.clear();
  ctx.inputs.prebuilt.shrink_to_fit();

  RecordingSink sink(ctx.slot_of);
  std::string error;
  uint64_t attempted = 0, failed = 0;
  const auto account = [&](const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (error.empty() && !p.error.empty()) error = p.error;
  };

  std::printf("workload %s seed %llu: %zu fixes, %zu devices, %zu shard(s)\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              ctx.inputs.fleet.feed.size(), devices.size(), spec.num_shards);

  // One warm-up pass fills allocator pools and the page cache; checked,
  // not counted.
  Tracer off(false);
  int turn = 0;
  account(RunPass(ctx, PassKind::kMeasured, 0, turn++, sink, off));

  std::vector<Metric> metrics;
  const int64_t deadline =
      WallNs() + static_cast<int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    std::vector<PassResult> passes;
    do {
      passes.push_back(RunPass(ctx, PassKind::kMeasured,
                               passes.size() % kQuerySets, turn++, sink, off));
      account(passes.back());
      const PassResult& p = passes.back();
      std::fprintf(stderr,
                   "pass %zu: ingest %.4f s, cpu %.4f s, batch p50 %.4f ms, "
                   "barrier p50 %.3f ms, query p50 %.1f us, recover %.4f s\n",
                   passes.size(), p.interval_s, p.cpu_s, Median(p.batch_ms),
                   Median(p.barrier_ms), Median(p.query_us), p.recover_s);
    } while (WallNs() < deadline || passes.size() < 2);
    metrics = EndToEnd(ctx, passes, Median(setup_s));
  } else {
    const double calibration_ms = CalibrationMs();
    std::vector<Round> rounds;
    do {
      Round r;
      tracer.set_round(static_cast<int>(rounds.size()) + 1);
      // Every replay of every round runs query set 0, so the traced and
      // untraced passes compare like with like and the block-store
      // counters repeat exactly.
      r.untraced = RunPass(ctx, PassKind::kMeasured, 0, turn++, sink, off);
      PinCallingThread(turn++);
      r.core = RunCore(ctx, tracer);
      r.walless = RunPass(ctx, PassKind::kWalless, 0, turn++, sink, tracer);
      r.traced = RunPass(ctx, PassKind::kTraced, 0, turn++, sink, tracer);
      ++turn;  // shifts which CPU each replay gets, round by round
      for (const PassResult* p : {&r.untraced, &r.walless, &r.traced}) {
        account(*p);
      }
      rounds.push_back(std::move(r));
    } while (WallNs() < deadline);
    metrics = PerLayer(ctx, rounds, Median(feed_s), calibration_ms);
    std::printf("exact counters:");
    for (const std::string& n : ExactCounters(spec)) {
      std::printf(" %s", n.c_str());
    }
    std::printf("\n");
    tracer.Write(args.trace_out);
  }
  fs::remove_all(ctx.dir);

  const bool correct = error.empty();
  if (!correct) {
    std::fprintf(stderr, "pipeline_bench: CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("op_failure_rate %.6g (%llu failed of %llu attempted)\n",
              Ratio(D(failed), D(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintResult(metrics, correct, attempted, failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
