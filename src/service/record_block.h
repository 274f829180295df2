// Routing blocks: the unit of work a FleetEngine producer hands a shard
// worker.
//
// The first pipeline staged every IngestBatch into fresh std::vector<
// FleetRecord> commands (one allocation — typically a fresh mmap — per
// shard per batch) and the worker then re-copied each device run into a
// scratch vector before dispatching. A RecordBlock removes both costs:
//
//  - The router performs the single unavoidable copy for a cross-thread
//    handoff, writing each record's TrackPoint directly into the block and
//    coalescing consecutive same-device records into a DeviceRun as it
//    goes. The worker dispatches each run's contiguous points straight
//    into StreamCompressor::PushBatchTo — no second copy, no per-record
//    replay.
//  - Blocks live in the shard ring's slots (service/spsc_ring.h): the
//    producer fills the unpublished tail slot's block in place, the worker
//    dispatches the head slot's block in place and clears it, and the slot
//    comes round again with its heap capacity (and warm pages) intact.
//    Steady-state ingest allocates nothing.
//
// A block is owned by exactly one side at a time — the producer while it
// is the ring's tail slot, the worker from Pop until its next Pop — with
// the ring's cursors providing the happens-before edges.
#ifndef BQS_SERVICE_RECORD_BLOCK_H_
#define BQS_SERVICE_RECORD_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trajectory/point.h"

namespace bqs {

/// A maximal stretch of consecutive same-device records, coalesced by the
/// router so the worker dispatches it with one PushBatch instead of
/// `count` single pushes.
struct DeviceRun {
  DeviceId device = 0;
  uint32_t count = 0;
};

/// One chunk of routed records: the points of all runs back to back, plus
/// the run directory that says which device owns which stretch.
struct RecordBlock {
  std::vector<TrackPoint> points;
  std::vector<DeviceRun> runs;

  std::size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }

  /// Drops contents, keeps capacity (that is the point of slot reuse).
  void Clear() {
    points.clear();
    runs.clear();
  }

  /// Appends one record, extending the trailing run when the device
  /// matches (run coalescing happens here, once, on the router pass).
  void Append(DeviceId device, const TrackPoint& pt) {
    if (runs.empty() || runs.back().device != device) {
      runs.push_back(DeviceRun{device, 0});
    }
    ++runs.back().count;
    points.push_back(pt);
  }
};

/// One device's accumulation group inside a routing window: the grouped
/// dispatch stage (inline router, or a worker regrouping a block) gathers
/// all of a device's runs here so the compressor sees one PushBatch per
/// window instead of one per burst. Pooled slot-indexed; capacity reused.
struct RouteGroup {
  DeviceId device = 0;
  std::vector<TrackPoint> points;
};

}  // namespace bqs

#endif  // BQS_SERVICE_RECORD_BLOCK_H_
