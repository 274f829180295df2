// FleetEngine ingest-pipeline stress: randomized chunk sizes, tiny blocks
// and rings (forcing wrap, slot reuse and backpressure), and mid-stream
// FinishDevice commands racing the feed — all while the per-device output
// must stay byte-identical to the sequential CompressAll reference. This
// suite runs under the TSan CI job; a clean pass there is the actual
// race-freedom assertion for the SPSC ring's in-place slot handoff.
#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "service/fleet_engine.h"
#include "simulation/datasets.h"
#include "trajectory/compressor.h"

namespace bqs {
namespace {

class CollectingSink final : public FleetSink {
 public:
  void OnKeyPoint(DeviceId device, const KeyPoint& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    keys_[device].push_back(key);
  }
  void OnSessionEnd(DeviceId device, SessionEndReason reason) override {
    std::lock_guard<std::mutex> lock(mu_);
    ends_[device].push_back(reason);
  }
  std::map<DeviceId, std::vector<KeyPoint>> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }
  std::map<DeviceId, std::vector<SessionEndReason>> ends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ends_;
  }

 private:
  mutable std::mutex mu_;
  std::map<DeviceId, std::vector<KeyPoint>> keys_;
  std::map<DeviceId, std::vector<SessionEndReason>> ends_;
};

std::map<DeviceId, std::vector<KeyPoint>> SequentialReference(
    const FleetDataset& fleet, const AlgorithmConfig& config) {
  std::map<DeviceId, std::vector<KeyPoint>> out;
  for (const auto& [device, stream] : fleet.devices) {
    auto compressor = MakeStreamCompressor(config);
    out[device] = CompressAll(*compressor, stream).keys;
  }
  return out;
}

TEST(FleetStressTest, RandomChunksTinyBlocksAndMidFeedFinishes) {
  // Tiny blocks + a 2-deep ring force block wrap, slot reuse and real
  // producer backpressure; random chunk sizes exercise partial-block
  // sealing from every phase. FinishDevice fires the moment a device's
  // feed is exhausted — i.e. mid-feed from the engine's point of view,
  // racing blocks still queued for other devices — which must not disturb
  // any output (the finish lands after that device's last record by ring
  // order, so per-device output still matches the sequential reference).
  const FleetDataset fleet = BuildFleetDataset(10, 0.05, 9101);

  // Last feed index per device, to trigger FinishDevice mid-feed.
  std::map<DeviceId, std::size_t> last_index;
  for (std::size_t i = 0; i < fleet.feed.size(); ++i) {
    last_index[fleet.feed[i].device] = i;
  }

  for (const AlgorithmId id : {AlgorithmId::kBqs, AlgorithmId::kFbqs}) {
    AlgorithmConfig config;
    config.id = id;
    config.epsilon = 8.0;
    const auto reference = SequentialReference(fleet, config);

    for (const std::size_t shards : {std::size_t{2}, std::size_t{5}}) {
      for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
        Rng rng(seed * 7919);
        CollectingSink sink;
        FleetEngineOptions options;
        options.algorithm = config;
        options.num_shards = shards;
        options.block_capacity = 16;    // clamp floor: maximal wrap churn
        options.max_pending_blocks = 2; // force backpressure
        FleetEngine engine(options, sink);

        std::size_t i = 0;
        while (i < fleet.feed.size()) {
          const std::size_t chunk = static_cast<std::size_t>(
              rng.UniformInt(1, 257));
          const std::size_t n = std::min(chunk, fleet.feed.size() - i);
          engine.IngestBatch(
              std::span<const FleetRecord>(fleet.feed.data() + i, n));
          for (std::size_t k = i; k < i + n; ++k) {
            const auto it = last_index.find(fleet.feed[k].device);
            if (it != last_index.end() && it->second == k) {
              engine.FinishDevice(fleet.feed[k].device);
            }
          }
          i += n;
        }
        engine.FinishAll();

        EXPECT_EQ(sink.keys(), reference)
            << AlgorithmName(id) << " shards=" << shards
            << " seed=" << seed;

        const FleetStats stats = engine.Stats();
        EXPECT_EQ(stats.records_ingested, fleet.feed.size());
        EXPECT_EQ(stats.sessions_finished, fleet.devices.size());
        EXPECT_EQ(stats.live_sessions, 0u);
        // 16-record blocks over this feed vastly outnumber the ring's
        // slots: slot reuse must carry almost all of them.
        EXPECT_GT(stats.blocks_dispatched,
                  4 * shards * (options.max_pending_blocks + 2));
        EXPECT_LE(stats.peak_queue_depth, options.max_pending_blocks);
        EXPECT_GT(stats.coalesced_runs, 0u);
        EXPECT_GE(stats.records_ingested, stats.coalesced_runs);

        // Exactly one finish per device, every one explicit.
        for (const auto& [device, reasons] : sink.ends()) {
          (void)device;
          ASSERT_EQ(reasons.size(), 1u);
          EXPECT_EQ(reasons[0], SessionEndReason::kFinished);
        }
      }
    }
  }
}

TEST(FleetStressTest, ShallowRingBackpressurePipelineStaysIdentical) {
  // Two shards with a tiny ring is the tightest producer/worker coupling
  // (one shard would take the inline shortcut): the producer repeatedly
  // outruns the 2-block rings and must block, and every resume has to
  // continue exactly where routing stopped.
  const FleetDataset fleet = BuildFleetDataset(6, 0.05, 9102);
  AlgorithmConfig config;
  config.id = AlgorithmId::kBqs;
  config.epsilon = 8.0;
  const auto reference = SequentialReference(fleet, config);

  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 2;
  options.block_capacity = 16;
  options.max_pending_blocks = 2;
  {
    FleetEngine engine(options, sink);
    ASSERT_FALSE(engine.inline_mode());
    engine.IngestBatch(fleet.feed);  // one giant batch: sustained pressure
    engine.FinishAll();
    const FleetStats stats = engine.Stats();
    EXPECT_EQ(stats.records_ingested, fleet.feed.size());
    // More blocks than ring slots: the slots' blocks were reused.
    EXPECT_GT(stats.blocks_dispatched,
              options.num_shards * (options.max_pending_blocks + 2));
  }
  EXPECT_EQ(sink.keys(), reference);
}

TEST(FleetStressTest, DestructorMidStreamDrainsWithoutFinalizing) {
  // Tear the engine down while blocks are still queued on tiny rings: the
  // workers must drain and exit without emitting session ends, and
  // without leaking or double-freeing any slot's block (ASan/TSan-backed).
  const FleetDataset fleet = BuildFleetDataset(8, 0.05, 9103);
  AlgorithmConfig config;
  config.id = AlgorithmId::kFbqs;
  config.epsilon = 8.0;
  CollectingSink sink;
  FleetEngineOptions options;
  options.algorithm = config;
  options.num_shards = 3;
  options.block_capacity = 16;
  options.max_pending_blocks = 2;
  {
    FleetEngine engine(options, sink);
    engine.IngestBatch(std::span<const FleetRecord>(
        fleet.feed.data(), fleet.feed.size() / 2));
    // No Flush, no Finish: destructor seals + drains.
  }
  for (const auto& [device, reasons] : sink.ends()) {
    (void)device;
    EXPECT_TRUE(reasons.empty());
  }
}

}  // namespace
}  // namespace bqs
