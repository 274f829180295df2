// RecordBlock: the routing chunk of the fleet ingest pipeline. Run
// coalescing on append, and Clear() keeping the heap capacity that lets a
// shard ring slot reuse its block on every wrap (spsc_ring_test covers the
// slot side).
#include "service/record_block.h"

#include "gtest/gtest.h"

namespace bqs {
namespace {

TrackPoint Pt(double x) { return TrackPoint{{x, 0.0}, x}; }

TEST(RecordBlockTest, AppendCoalescesConsecutiveSameDeviceRecords) {
  RecordBlock block;
  for (int i = 0; i < 3; ++i) block.Append(7, Pt(i));
  block.Append(9, Pt(10));
  block.Append(7, Pt(11));  // device 7 again, but not consecutive: new run
  block.Append(7, Pt(12));

  ASSERT_EQ(block.runs.size(), 3u);
  EXPECT_EQ(block.runs[0].device, 7u);
  EXPECT_EQ(block.runs[0].count, 3u);
  EXPECT_EQ(block.runs[1].device, 9u);
  EXPECT_EQ(block.runs[1].count, 1u);
  EXPECT_EQ(block.runs[2].device, 7u);
  EXPECT_EQ(block.runs[2].count, 2u);
  EXPECT_EQ(block.size(), 6u);

  // The run directory partitions the point array exactly.
  std::size_t covered = 0;
  for (const DeviceRun& run : block.runs) covered += run.count;
  EXPECT_EQ(covered, block.points.size());
}

TEST(RecordBlockTest, ClearKeepsCapacity) {
  RecordBlock block;
  for (int i = 0; i < 100; ++i) block.Append(1, Pt(i));
  const std::size_t point_cap = block.points.capacity();
  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.runs.size(), 0u);
  EXPECT_EQ(block.points.capacity(), point_cap);
}

}  // namespace
}  // namespace bqs
