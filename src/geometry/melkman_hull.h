// Online convex hull of a streamed point sequence, built on Melkman's
// deque algorithm. This is the structure that turns the BQS exact-deviation
// resolve from an O(n) buffer rescan into an O(h) hull-vertex scan: both
// point-to-line and point-to-segment distances are convex functions of the
// point, so their maximum over any point set is attained at a vertex of the
// set's convex hull.
//
// Melkman's algorithm is O(1) amortized per point but is only correct for
// *simple* polylines, and trajectory segments self-intersect freely. This
// implementation keeps the Melkman deque and its O(1) outside fast path
// (valid for arbitrary input, because a point that fails a wedge test at the
// anchor vertex always sees the anchor), and replaces the unsound O(1)
// "inside" conclusion with an exact O(log h) convex-polygon containment
// check; the rare point that is outside the hull yet invisible from the
// anchor falls back to a full O(h log h) rebuild.
#ifndef BQS_GEOMETRY_MELKMAN_HULL_H_
#define BQS_GEOMETRY_MELKMAN_HULL_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "geometry/line2.h"
#include "geometry/vec2.h"

namespace bqs {

/// Incremental convex hull of a point stream. Not thread-safe.
class MelkmanHull {
 public:
  MelkmanHull() = default;

  /// Removes every point; keeps the allocated arena so per-segment reuse
  /// (StartSegment in the BQS engine) does not reallocate.
  void Clear();

  /// Folds the next stream point into the hull. O(1) amortized when the
  /// point lands outside the current hull, O(log h) when inside.
  void Add(Vec2 p);

  /// Points ever Add()ed since the last Clear().
  std::size_t points_added() const { return points_added_; }
  bool empty() const { return points_added_ == 0; }

  /// Number of distinct hull vertices (0, 1 or 2 while the input is
  /// degenerate: empty, a single repeated point, or all collinear).
  std::size_t size() const {
    if (degenerate_) {
      if (points_added_ == 0) return 0;
      return line_[0] == line_[1] ? 1 : 2;
    }
    return top_ - bot_;
  }

  /// Every distinct hull vertex, contiguous in CCW order (the starting
  /// vertex is arbitrary). Collinear input yields the two chain extremes.
  /// Valid until the next Add() or Clear(); the 16-byte Vec2 stride is
  /// what lets the SIMD deviation kernels scan the hull in place.
  std::span<const Vec2> VertexSpan() const {
    if (degenerate_) return {line_.data(), size()};
    return {ring_.data() + bot_, top_ - bot_};
  }

  /// Hull vertices in CCW order (copy; for tests and diagnostics).
  std::vector<Vec2> Vertices() const;

  /// Heap bytes currently held (arena + staging); memory accounting only.
  std::size_t StateBytes() const {
    return (ring_.capacity() + scratch_.capacity()) * sizeof(Vec2);
  }

  /// max over the hull's vertices of PointDeviation(v, a, b, metric),
  /// which equals the max over every point ever added (convexity of both
  /// metrics in the point argument). O(h).
  double MaxDeviation(Vec2 a, Vec2 b, DistanceMetric metric) const;

 private:
  void AddDegenerate(Vec2 p);
  /// Error band for a computed Turn(a, b, c): 0 when |cross| clears the
  /// coarse band (sign trusted with one compare), else the detailed bound.
  double Band(double cross, Vec2 a, Vec2 b, Vec2 c) const;
  /// Exact non-strict containment in the current hull, O(log h) via a fan
  /// binary search from the anchor vertex. Precondition: !degenerate_.
  bool Contains(Vec2 p) const;
  /// Re-anchors the deque as `verts[0..m-1]` + duplicated verts[0], leaving
  /// growth slack on both sides. `verts` must not alias ring_.
  void Place(const Vec2* verts, std::size_t m);
  /// Moves the chain to the arena centre when a deque end runs out of room.
  void Recenter();
  /// Fallback for the cases the deque cannot handle locally: rebuilds from
  /// the current vertices plus p via the batch hull. O(h log h), rare.
  void Rebuild(Vec2 p);
  /// Rebuild tail shared with the degenerate-edge case: scratch_ already
  /// holds the base points; p is appended before the batch hull runs.
  void RebuildWith(Vec2 p);

  // ring_[bot_..top_] holds the hull CCW with ring_[bot_] == ring_[top_]
  // (the classic Melkman deque layout in a flat arena).
  std::vector<Vec2> ring_;
  std::vector<Vec2> scratch_;  ///< Recenter/Rebuild staging, reused.
  std::size_t bot_ = 0;
  std::size_t top_ = 0;

  // Degenerate phase (fewer than 3 non-collinear points): the hull is the
  // chain of collinear points, represented by its two extremes (adjacent,
  // so VertexSpan can hand them out as a run like the ring's).
  bool degenerate_ = true;
  std::array<Vec2, 2> line_{};
  std::size_t points_added_ = 0;

  /// Largest |x|+|y| over all added points; coarse_band_ derived from it
  /// dominates every TurnErrorBound, so a cross outside the band has a
  /// trusted sign with a single compare (the hot-path fast gate).
  double scale_ = 0.0;
  double coarse_band_ = 0.0;
};

}  // namespace bqs

#endif  // BQS_GEOMETRY_MELKMAN_HULL_H_
