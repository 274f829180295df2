// MelkmanHull: incremental hull equals the batch hull on arbitrary
// (self-intersecting) streams, and hull-based max deviation equals the
// brute-force scan over every added point — the property the BQS exact
// path relies on.
#include "geometry/melkman_hull.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "geometry/convex_hull2.h"
#include "test_util.h"
#include "trajectory/deviation.h"

namespace bqs {
namespace {

using testing_util::JaggedWalk;
using testing_util::SmoothWalk;
using testing_util::VonMisesWalk;

std::vector<Vec2> Positions(const Trajectory& t) {
  std::vector<Vec2> out;
  out.reserve(t.size());
  for (const TrackPoint& p : t) out.push_back(p.pos);
  return out;
}

double BruteDeviation(const std::vector<Vec2>& points, Vec2 a, Vec2 b,
                      DistanceMetric metric) {
  double dev = 0.0;
  for (Vec2 p : points) dev = std::max(dev, PointDeviation(p, a, b, metric));
  return dev;
}

/// The incremental hull may keep extra exactly-collinear boundary vertices
/// the batch hull drops; equivalence means (a) every batch vertex appears
/// verbatim, (b) every incremental vertex is on the batch hull, (c) the
/// areas agree.
void ExpectHullsEquivalent(const MelkmanHull& hull,
                           const std::vector<Vec2>& points) {
  const std::vector<Vec2> reference = ConvexHull(points);
  const std::vector<Vec2> vertices = hull.Vertices();
  if (reference.size() < 3) {
    // Degenerate input: both sides hold the chain extremes.
    ASSERT_EQ(vertices.size(), reference.size());
    for (Vec2 v : reference) {
      EXPECT_NE(std::find(vertices.begin(), vertices.end(), v),
                vertices.end())
          << "missing extreme (" << v.x << ", " << v.y << ")";
    }
    return;
  }
  for (Vec2 v : reference) {
    EXPECT_NE(std::find(vertices.begin(), vertices.end(), v), vertices.end())
        << "batch hull vertex (" << v.x << ", " << v.y
        << ") lost by the incremental hull";
  }
  for (Vec2 v : vertices) {
    EXPECT_TRUE(ConvexPolygonContains(reference, v, 1e-7))
        << "incremental vertex (" << v.x << ", " << v.y
        << ") outside the batch hull";
  }
  const double ref_area = PolygonSignedArea2(reference);
  const double inc_area = PolygonSignedArea2(vertices);
  EXPECT_NEAR(inc_area, ref_area, 1e-9 * (1.0 + std::fabs(ref_area)));
}

TEST(MelkmanHullTest, EmptyAndSinglePoint) {
  MelkmanHull hull;
  EXPECT_TRUE(hull.empty());
  EXPECT_EQ(hull.size(), 0u);
  EXPECT_EQ(hull.MaxDeviation({0, 0}, {1, 0}, DistanceMetric::kPointToLine),
            0.0);
  hull.Add({3.0, 4.0});
  EXPECT_EQ(hull.size(), 1u);
  EXPECT_DOUBLE_EQ(
      hull.MaxDeviation({0, 0}, {0, 0}, DistanceMetric::kPointToLine), 5.0);
}

TEST(MelkmanHullTest, DuplicatesCollapseToOneVertex) {
  MelkmanHull hull;
  for (int i = 0; i < 50; ++i) hull.Add({7.0, -2.0});
  EXPECT_EQ(hull.size(), 1u);
  EXPECT_EQ(hull.points_added(), 50u);
}

TEST(MelkmanHullTest, CollinearStreamKeepsChainExtremes) {
  // Out-of-order collinear points, with duplicates.
  MelkmanHull hull;
  for (double t : {3.0, -1.0, 0.5, 7.0, 7.0, 2.0, -4.0, 5.0}) {
    hull.Add({2.0 * t, -t});
  }
  ASSERT_EQ(hull.size(), 2u);
  const std::vector<Vec2> v = hull.Vertices();
  const Vec2 lo{2.0 * -4.0, 4.0};
  const Vec2 hi{2.0 * 7.0, -7.0};
  EXPECT_TRUE((v[0] == lo && v[1] == hi) || (v[0] == hi && v[1] == lo));
  // Deviation against an arbitrary chord still sees the extremes only.
  EXPECT_DOUBLE_EQ(
      hull.MaxDeviation({0, 0}, {1, 0}, DistanceMetric::kPointToLine), 7.0);
}

TEST(MelkmanHullTest, VertexSpanIsTheContiguousVertexRunInEveryPhase) {
  // The engine's SIMD resolve scans VertexSpan() in place at a 16-byte
  // stride, so the span must hold exactly the distinct vertices — through
  // the degenerate phase (0, 1, 2 points) and the Melkman ring alike.
  MelkmanHull hull;
  const auto expect_run = [&hull](std::size_t n) {
    const std::span<const Vec2> run = hull.VertexSpan();
    ASSERT_EQ(run.size(), n);
    ASSERT_EQ(run.size(), hull.size());
    const std::vector<Vec2> copy = hull.Vertices();
    EXPECT_TRUE(std::equal(run.begin(), run.end(), copy.begin()));
  };
  expect_run(0);
  hull.Add({1.0, 1.0});
  expect_run(1);
  hull.Add({1.0, 1.0});  // duplicate: still one vertex
  expect_run(1);
  hull.Add({4.0, 1.0});
  expect_run(2);
  hull.Add({2.5, 1.0});  // collinear interior: chain extremes only
  expect_run(2);
  hull.Add({2.0, 5.0});
  expect_run(3);
  for (const Vec2 p : Positions(JaggedWalk(61, 300))) hull.Add(p);
  expect_run(hull.size());
  hull.Clear();
  expect_run(0);
}

TEST(MelkmanHullTest, CollinearThenOffLinePointFormsTriangle) {
  MelkmanHull hull;
  for (int i = 0; i <= 10; ++i) hull.Add({static_cast<double>(i), 0.0});
  ASSERT_EQ(hull.size(), 2u);
  hull.Add({5.0, 3.0});
  ASSERT_EQ(hull.size(), 3u);
  ExpectHullsEquivalent(hull, {{0, 0}, {10, 0}, {5, 3}});
}

TEST(MelkmanHullTest, EscapeThroughFarSideIsCaught) {
  // The classic Melkman counterexample for non-simple input: the anchor
  // (last hull-modifying point) is the top-left corner; the next point
  // leaves the hull through the bottom edge while staying inside the
  // anchor's wedge, so the plain O(1) test would wrongly discard it.
  MelkmanHull hull;
  std::vector<Vec2> points{{0, 0}, {10, 0}, {10, 10}, {0, 10},
                           {5, 5},  {4, 6},  {5, -50}};
  for (Vec2 p : points) hull.Add(p);
  const std::vector<Vec2> vertices = hull.Vertices();
  EXPECT_NE(std::find(vertices.begin(), vertices.end(), Vec2{5, -50}),
            vertices.end())
      << "escaping point was wrongly classified as interior";
  ExpectHullsEquivalent(hull, points);
  EXPECT_DOUBLE_EQ(
      hull.MaxDeviation({0, 0}, {10, 0}, DistanceMetric::kPointToLine),
      50.0);
}

TEST(MelkmanHullTest, NearCollinearSliverKeepsChainExtent) {
  // Regression: a straight run whose accumulated coordinates are collinear
  // only to within floating-point noise forms a sliver hull. Exact-sign
  // Melkman tests misclassify the extension points and silently lose
  // macroscopic extent (metres of deviation); the error-band predicates
  // must keep the far extreme. Points taken from the JaggedWalk(71) stream
  // that exposed the bug.
  const std::vector<Vec2> points{
      {47.864170871436322, 19.448298857810467},
      {59.864170871436322, 24.448298857810467},
      {71.864170871436329, 29.448298857810467},
      {83.864170871436329, 34.448298857810471},
      {95.864170871436329, 39.448298857810471},
      {107.86417087143633, 44.448298857810471},
      {119.86417087143633, 49.448298857810471},
      {131.86417087143633, 54.448298857810471},
      {1.6797119105315181, -3.1597135970240839},
  };
  MelkmanHull hull;
  std::vector<Vec2> seen;
  for (Vec2 p : points) {
    hull.Add(p);
    seen.push_back(p);
    for (DistanceMetric metric : {DistanceMetric::kPointToLine,
                                  DistanceMetric::kPointToSegment}) {
      const double brute =
          BruteDeviation(seen, {0.0, 0.0}, {64.0, 10.0}, metric);
      const double via_hull =
          hull.MaxDeviation({0.0, 0.0}, {64.0, 10.0}, metric);
      EXPECT_NEAR(via_hull, brute, 1e-9 * (1.0 + brute));
    }
  }
  const std::vector<Vec2> vertices = hull.Vertices();
  EXPECT_NE(std::find(vertices.begin(), vertices.end(),
                      Vec2{131.86417087143633, 54.448298857810471}),
            vertices.end())
      << "far chain extreme lost on the near-collinear sliver";
}

TEST(MelkmanHullTest, MatchesBatchHullOnRandomStreams) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const Trajectory walks[] = {SmoothWalk(seed, 1500),
                                JaggedWalk(seed, 1500),
                                VonMisesWalk(seed, 1500)};
    for (const Trajectory& walk : walks) {
      const std::vector<Vec2> points = Positions(walk);
      MelkmanHull hull;
      for (Vec2 p : points) hull.Add(p);
      ExpectHullsEquivalent(hull, points);
    }
  }
}

TEST(MelkmanHullTest, MaxDeviationEqualsBruteForceWhileStreaming) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Trajectory walks[] = {SmoothWalk(seed, 1200),
                                JaggedWalk(seed, 1200),
                                VonMisesWalk(seed, 1200, 1.5)};
    for (const Trajectory& walk : walks) {
      const std::vector<Vec2> points = Positions(walk);
      MelkmanHull hull;
      std::vector<Vec2> seen;
      for (std::size_t i = 0; i < points.size(); ++i) {
        hull.Add(points[i]);
        seen.push_back(points[i]);
        if (i % 37 != 0) continue;
        // The chord the BQS engine queries: segment start to current point.
        const Vec2 a = points.front();
        const Vec2 b = points[i];
        for (DistanceMetric metric : {DistanceMetric::kPointToLine,
                                      DistanceMetric::kPointToSegment}) {
          const double brute = BruteDeviation(seen, a, b, metric);
          const double via_hull = hull.MaxDeviation(a, b, metric);
          EXPECT_NEAR(via_hull, brute, 1e-9 * (1.0 + brute))
              << "seed=" << seed << " i=" << i
              << " metric=" << static_cast<int>(metric);
        }
      }
    }
  }
}

TEST(MelkmanHullTest, ClearReusesArenaCorrectly) {
  MelkmanHull hull;
  const std::vector<Vec2> first = Positions(JaggedWalk(21, 800));
  for (Vec2 p : first) hull.Add(p);
  ExpectHullsEquivalent(hull, first);
  hull.Clear();
  EXPECT_TRUE(hull.empty());
  EXPECT_EQ(hull.size(), 0u);
  const std::vector<Vec2> second = Positions(SmoothWalk(22, 800));
  for (Vec2 p : second) hull.Add(p);
  ExpectHullsEquivalent(hull, second);
}

}  // namespace
}  // namespace bqs
