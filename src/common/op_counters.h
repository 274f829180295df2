// Global operation counters for the expensive per-point primitives on the
// bound-decision path (transcendentals, square roots, significant-point
// rebuilds). They exist so the micro bench can *prove* — not eyeball — that
// the fast bound kernel never touches a transcendental on the conclusive
// decision path (ISSUE 4 acceptance criterion), and so regressions that
// quietly reintroduce one are caught by the perf-smoke gate.
//
// The counters are relaxed atomics: they are only ever read for reporting
// (never for synchronization), and the increment sites sit next to calls
// that cost 1-2 orders of magnitude more than the increment (atan2, hypot,
// a full significant-point rebuild), so the counted reference paths keep an
// honest cost profile. Fleet shards may increment concurrently; relaxed
// atomics keep that TSan-clean.
#ifndef BQS_COMMON_OP_COUNTERS_H_
#define BQS_COMMON_OP_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bqs {
namespace ops {

struct Counters {
  /// std::atan2 evaluations on the decision path (classification, angular
  /// extreme tracking, the reference in-quadrant test). Excludes the
  /// once-per-segment rotation estimation, which is not a per-point cost.
  std::atomic<uint64_t> atan2_calls{0};
  /// Square-root-bearing distance evaluations (hypot/sqrt) performed while
  /// composing deviation bounds. Exact resolves are not counted: under the
  /// fast kernel they compare squared deviations and re-scan with real
  /// distances only on a guard-band hit (DecisionStats::kernel_fallbacks
  /// counts those); kBruteForce and kReference keep the sqrt scan as the
  /// reference cost profile.
  std::atomic<uint64_t> sqrt_calls{0};
  /// Full QuadrantBound significant-point recomputations.
  std::atomic<uint64_t> significant_rebuilds{0};
  /// Batch-kernel points decided by the 4-wide (AVX2) conclusive screen.
  std::atomic<uint64_t> batch_lanes4_points{0};
  /// Batch-kernel points decided by the 2-wide (SSE2) conclusive screen.
  std::atomic<uint64_t> batch_lanes2_points{0};
  /// Batch-kernel points decided on the per-point scalar path (warm-up,
  /// inconclusive/fallback lanes, scalar tails, and the scalar tier).
  std::atomic<uint64_t> batch_scalar_points{0};
};

inline Counters& Global() {
  static Counters counters;
  return counters;
}

inline void CountAtan2() {
  Global().atan2_calls.fetch_add(1, std::memory_order_relaxed);
}
inline void CountSqrt(uint64_t n = 1) {
  Global().sqrt_calls.fetch_add(n, std::memory_order_relaxed);
}
inline void CountSignificantRebuild() {
  Global().significant_rebuilds.fetch_add(1, std::memory_order_relaxed);
}
/// Bulk-flushed once per batch (not per point) so the vector fast path
/// never pays a per-point atomic.
inline void CountBatchLanePoints(std::size_t lanes, uint64_t n) {
  if (n == 0) return;
  Counters& c = Global();
  if (lanes >= 4) {
    c.batch_lanes4_points.fetch_add(n, std::memory_order_relaxed);
  } else {
    c.batch_lanes2_points.fetch_add(n, std::memory_order_relaxed);
  }
}
inline void CountBatchScalarPoints(uint64_t n) {
  if (n == 0) return;
  Global().batch_scalar_points.fetch_add(n, std::memory_order_relaxed);
}

/// Plain-value snapshot for before/after deltas in benches and tests.
struct Snapshot {
  uint64_t atan2_calls = 0;
  uint64_t sqrt_calls = 0;
  uint64_t significant_rebuilds = 0;
  uint64_t batch_lanes4_points = 0;
  uint64_t batch_lanes2_points = 0;
  uint64_t batch_scalar_points = 0;

  Snapshot Delta(const Snapshot& earlier) const {
    return {atan2_calls - earlier.atan2_calls,
            sqrt_calls - earlier.sqrt_calls,
            significant_rebuilds - earlier.significant_rebuilds,
            batch_lanes4_points - earlier.batch_lanes4_points,
            batch_lanes2_points - earlier.batch_lanes2_points,
            batch_scalar_points - earlier.batch_scalar_points};
  }
};

inline Snapshot Read() {
  const Counters& c = Global();
  return {c.atan2_calls.load(std::memory_order_relaxed),
          c.sqrt_calls.load(std::memory_order_relaxed),
          c.significant_rebuilds.load(std::memory_order_relaxed),
          c.batch_lanes4_points.load(std::memory_order_relaxed),
          c.batch_lanes2_points.load(std::memory_order_relaxed),
          c.batch_scalar_points.load(std::memory_order_relaxed)};
}

}  // namespace ops
}  // namespace bqs

#endif  // BQS_COMMON_OP_COUNTERS_H_
