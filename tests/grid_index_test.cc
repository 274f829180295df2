// Uniform grid spatial index, validated against brute force.
#include "storage/grid_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bqs {
namespace {

TEST(GridIndexTest, InsertAndQueryBasics) {
  GridIndex index(10.0);
  index.Insert(1, {0, 0});
  index.Insert(2, {5, 5});
  index.Insert(3, {100, 100});
  EXPECT_EQ(index.size(), 3u);

  auto hits = index.Query({0, 0}, 8.0);
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(GridIndexTest, RemoveWorksAndReportsAbsence) {
  GridIndex index(10.0);
  index.Insert(1, {3, 3});
  EXPECT_TRUE(index.Remove(1, {3, 3}));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Remove(1, {3, 3}));
  EXPECT_FALSE(index.Remove(99, {50, 50}));
  EXPECT_TRUE(index.Query({3, 3}, 5.0).empty());
}

TEST(GridIndexTest, NegativeCoordinates) {
  GridIndex index(25.0);
  index.Insert(1, {-100, -100});
  index.Insert(2, {-101, -99});
  const auto hits = index.Query({-100, -100}, 3.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(GridIndexTest, MatchesBruteForce) {
  Rng rng(55);
  GridIndex index(50.0);
  std::vector<std::pair<uint64_t, Vec2>> all;
  for (uint64_t id = 0; id < 500; ++id) {
    const Vec2 pos{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
    index.Insert(id, pos);
    all.emplace_back(id, pos);
  }
  for (int q = 0; q < 100; ++q) {
    const Vec2 center{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
    const double radius = rng.Uniform(1.0, 300.0);
    auto hits = index.Query(center, radius);
    std::sort(hits.begin(), hits.end());
    std::vector<uint64_t> expected;
    for (const auto& [id, pos] : all) {
      if (DistanceSq(pos, center) <= radius * radius) expected.push_back(id);
    }
    EXPECT_EQ(hits, expected);
  }
}

TEST(GridIndexTest, RemovalKeepsQueriesConsistent) {
  Rng rng(56);
  GridIndex index(20.0);
  std::vector<std::pair<uint64_t, Vec2>> alive;
  for (uint64_t id = 0; id < 200; ++id) {
    const Vec2 pos{rng.Uniform(0, 500), rng.Uniform(0, 500)};
    index.Insert(id, pos);
    alive.emplace_back(id, pos);
  }
  // Remove every third entry.
  for (std::size_t i = alive.size(); i-- > 0;) {
    if (i % 3 == 0) {
      EXPECT_TRUE(index.Remove(alive[i].first, alive[i].second));
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  EXPECT_EQ(index.size(), alive.size());
  auto hits = index.Query({250, 250}, 400.0);
  std::sort(hits.begin(), hits.end());
  std::vector<uint64_t> expected;
  for (const auto& [id, pos] : alive) {
    if (DistanceSq(pos, {250, 250}) <= 400.0 * 400.0) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(hits, expected);
}

// Millimetre cells and a kilometre radius: sweeping ~10^12 cells would
// never finish, so the query walks the few occupied buckets instead. The
// second origin is UTM-scale (northing 5,000 km), where the y cell index
// (5e9) no longer fits in the 32 bits a cell key keeps of it. Small radii
// take the sweep path over the same index.
TEST(GridIndexTest, TinyCellsLargeRadiusMatchBruteForce) {
  for (const Vec2 origin : {Vec2{0, 0}, Vec2{500000, 5000000}}) {
    SCOPED_TRACE(testing::Message() << "origin y " << origin.y);
    Rng rng(57);
    GridIndex index(1e-3);
    std::vector<std::pair<uint64_t, Vec2>> all;
    for (uint64_t id = 0; id < 300; ++id) {
      const Vec2 pos{origin.x + rng.Uniform(-2000, 2000),
                     origin.y + rng.Uniform(-2000, 2000)};
      index.Insert(id, pos);
      all.emplace_back(id, pos);
    }
    for (int q = 0; q < 24; ++q) {
      // Every fourth query is centred on a stored point with a tiny
      // radius, so it sweeps a handful of cells and finds that point.
      const bool tiny = q % 4 == 0;
      const Vec2 center =
          tiny ? all[static_cast<std::size_t>(q)].second
               : Vec2{origin.x + rng.Uniform(-2000, 2000),
                      origin.y + rng.Uniform(-2000, 2000)};
      const double radius = tiny ? 1e-3 : rng.Uniform(500.0, 1500.0);
      auto hits = index.Query(center, radius);
      std::sort(hits.begin(), hits.end());
      std::vector<uint64_t> expected;
      for (const auto& [id, pos] : all) {
        if (DistanceSq(pos, center) <= radius * radius) expected.push_back(id);
      }
      EXPECT_EQ(hits, expected) << "query " << q;
      if (tiny) {
        EXPECT_FALSE(hits.empty());
      }
    }
  }
}

// The occupied-bucket walk emits cells in the same order as the sweep.
TEST(GridIndexTest, BucketWalkKeepsSweepOrder) {
  GridIndex index(10.0);
  index.Insert(1, {25, 5});   // cell (2, 0)
  index.Insert(2, {5, 25});   // cell (0, 2)
  index.Insert(3, {5, 5});    // cell (0, 0)
  index.Insert(4, {-5, 15});  // cell (-1, 1)
  // 4x4 swept cells > 4 occupied: the walk path.
  EXPECT_EQ(index.Query({12, 12}, 17.5),
            (std::vector<uint64_t>{4, 3, 2, 1}));
}

TEST(GridIndexTest, ClearEmptiesEverything) {
  GridIndex index(10.0);
  index.Insert(1, {1, 1});
  index.Insert(2, {2, 2});
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Query({1, 1}, 100.0).empty());
}

}  // namespace
}  // namespace bqs
