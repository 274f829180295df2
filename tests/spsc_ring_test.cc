// SpscRing: the lock-light bounded ring behind FleetEngine's shard
// handoff, whose slots own their items. Single-threaded FIFO/wrap
// behaviour and in-place slot reuse, then the two-thread contracts the
// engine leans on: backpressure blocking with wakeup, the publish
// deadline, stop-while-full releasing a blocked producer, drain-after-stop,
// and the edge-triggered wake counters.
#include "service/spsc_ring.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "trajectory/point.h"

namespace bqs {
namespace {

using Clock = std::chrono::steady_clock;

/// A deadline that has already passed: Publish becomes a non-blocking try.
constexpr Clock::time_point kExpired = Clock::time_point::min();

/// Polls one of `ring`'s wait counters until it is non-zero. Past a 30 s
/// deadline it records a failure and stops the ring, which releases a
/// thread blocked on either side, so a protocol bug fails the test instead
/// of hanging it. False on timeout; the caller then joins and returns.
template <typename T>
bool AwaitFirstWait(SpscRing<T>& ring, uint64_t (SpscRing<T>::*waits)() const) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while ((ring.*waits)() == 0) {
    if (Clock::now() >= deadline) {
      ADD_FAILURE() << "the ring registered no wait within 30 s";
      ring.Stop();
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

template <typename T>
bool Offer(SpscRing<T>& ring, T value) {
  AssumeRole(ring.producer_role);
  ring.back() = value;
  return ring.Publish(kExpired);
}

template <typename T>
bool Put(SpscRing<T>& ring, T value) {
  AssumeRole(ring.producer_role);
  ring.back() = value;
  return ring.Publish();
}

/// Pops one item; false when the ring is stopped and drained.
template <typename T>
bool Take(SpscRing<T>& ring, T& out) {
  AssumeRole(ring.consumer_role);
  const T* item = ring.Pop();
  if (item == nullptr) return false;
  out = *item;
  return true;
}

TEST(SpscRingTest, FifoThroughManyWraps) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  // Interleave publishes and pops so the cursors wrap the slot array many
  // times; order must survive every wrap.
  int next_push = 0;
  int next_pop = 0;
  while (next_pop < 1000) {
    while (next_push < 1000 && next_push - next_pop < 3 &&
           Offer(ring, next_push)) {
      ++next_push;
    }
    ASSERT_TRUE(Take(ring, out));
    EXPECT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(ring.size(), 0u);  // drained
}

TEST(SpscRingTest, PublishFailsOnlyWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(Offer(ring, 1));
  EXPECT_TRUE(Offer(ring, 2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_FALSE(Offer(ring, 3));  // full
  // A refused publish leaves the tail slot with the producer, untouched.
  AssumeRole(ring.producer_role);
  EXPECT_EQ(ring.back(), 3);
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.Publish(kExpired));  // space again: the same slot goes
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 3);
  // Non-blocking attempts never count as backpressure waits.
  EXPECT_EQ(ring.producer_waits(), 0u);
}

TEST(SpscRingTest, CapacityClampedToAtLeastOne) {
  SpscRing<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_TRUE(Offer(ring, 7));
  EXPECT_FALSE(Offer(ring, 8));
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 7);
}

TEST(SpscRingTest, SlotBlocksKeepTheirHeapAcrossWraps) {
  // The engine's ownership model: each slot owns a block of records that
  // the producer fills in place and the consumer clears in place, so after
  // the first lap every slot serves every later lap from the same heap.
  SpscRing<std::vector<FleetRecord>> ring(2);
  AssumeRole(ring.producer_role);
  AssumeRole(ring.consumer_role);
  constexpr int kRecords = 64;
  std::vector<const FleetRecord*> first_lap;
  for (int lap = 0; lap < 200; ++lap) {
    std::vector<FleetRecord>& block = ring.back();
    ASSERT_TRUE(block.empty()) << "lap " << lap;
    for (int i = 0; i < kRecords; ++i) {
      block.push_back(FleetRecord{static_cast<DeviceId>(i % 3),
                                  TrackPoint{{static_cast<double>(i), 0.0},
                                             static_cast<double>(lap)}});
    }
    const FleetRecord* data = block.data();
    ASSERT_TRUE(ring.Publish());
    std::vector<FleetRecord>* popped = ring.Pop();
    ASSERT_NE(popped, nullptr);
    EXPECT_EQ(popped->data(), data);  // consumed where it was filled
    ASSERT_EQ(popped->size(), static_cast<std::size_t>(kRecords));
    EXPECT_EQ(popped->front().point.t, static_cast<double>(lap));
    EXPECT_EQ(popped->back().device, static_cast<DeviceId>((kRecords - 1) % 3));
    const std::size_t capacity = popped->capacity();
    popped->clear();
    EXPECT_EQ(popped->capacity(), capacity);
    // capacity + 2 slots: after one lap every later lap reuses a slot.
    if (first_lap.size() < 4) {
      first_lap.push_back(data);
    } else {
      EXPECT_EQ(data, first_lap[static_cast<std::size_t>(lap) % 4])
          << "lap " << lap;
    }
  }
}

TEST(SpscRingTest, PoppedSlotStaysWithConsumerUntilNextPop) {
  // A slot being processed holds its place: with capacity 1 the producer
  // can publish one more item behind it, and the popped item is untouched
  // while the producer fills the slot after that.
  SpscRing<int> ring(1);
  AssumeRole(ring.producer_role);
  AssumeRole(ring.consumer_role);
  ASSERT_TRUE(Offer(ring, 10));
  const int* held = ring.Pop();
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(Offer(ring, 11));
  EXPECT_FALSE(Offer(ring, 12));  // full: one waiting behind the held one
  EXPECT_EQ(*held, 10);
  EXPECT_NE(&ring.back(), held);
  const int* next = ring.Pop();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(*next, 11);
  EXPECT_TRUE(ring.Publish(kExpired));  // 12 goes now
}

TEST(SpscRingTest, BackpressureBlocksProducerUntilConsumerPops) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(Offer(ring, 0));
  ASSERT_TRUE(Offer(ring, 1));

  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 2; i < 6; ++i) {
      ASSERT_TRUE(Put(ring, i));  // blocks while full
      pushed.fetch_add(1);
    }
  });

  // The producer must block: it cannot make progress past the full ring.
  if (!AwaitFirstWait(ring, &SpscRing<int>::producer_waits)) {
    producer.join();
    return;
  }
  EXPECT_EQ(pushed.load(), 0);

  // Draining releases it; everything arrives in order.
  for (int expect = 0; expect < 6; ++expect) {
    int out = -1;
    ASSERT_TRUE(Take(ring, out));
    EXPECT_EQ(out, expect);
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 4);
  EXPECT_GE(ring.producer_waits(), 1u);
}

TEST(SpscRingTest, StopWhileFullReleasesBlockedProducerWithFalse) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(Offer(ring, 42));

  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread producer([&] {
    result.store(Put(ring, 43));  // blocks: ring is full
    returned.store(true);
  });
  if (!AwaitFirstWait(ring, &SpscRing<int>::producer_waits)) {
    producer.join();
    return;
  }
  EXPECT_FALSE(returned.load());

  ring.Stop();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(result.load());  // the blocked publish was refused

  // The item published before the stop still drains...
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 42);
  // ...then Pop reports stopped-and-empty, and publishes are refused.
  EXPECT_FALSE(Take(ring, out));
  EXPECT_FALSE(Put(ring, 44));
  EXPECT_FALSE(Offer(ring, 44));
}

TEST(SpscRingTest, StopWakesConsumerBlockedOnEmpty) {
  SpscRing<int> ring(4);
  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread consumer([&] {
    int out = 0;
    result.store(Take(ring, out));  // blocks: ring is empty
    returned.store(true);
  });
  if (!AwaitFirstWait(ring, &SpscRing<int>::consumer_waits)) {
    consumer.join();
    return;
  }
  EXPECT_FALSE(returned.load());
  ring.Stop();
  consumer.join();
  EXPECT_FALSE(result.load());
}

TEST(SpscRingTest, BlockedConsumerWakesOnPublish) {
  SpscRing<int> ring(4);
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    int out = 0;
    ASSERT_TRUE(Take(ring, out));
    got.store(out);
  });
  if (!AwaitFirstWait(ring, &SpscRing<int>::consumer_waits)) {
    consumer.join();
    return;
  }
  ASSERT_TRUE(Put(ring, 99));
  consumer.join();
  EXPECT_EQ(got.load(), 99);
  EXPECT_GE(ring.consumer_waits(), 1u);
}

TEST(SpscRingTest, WakesAreEdgeTriggeredNotPerEnqueue) {
  // A consumer that never observes an empty ring never sleeps, so a
  // stream of publishes costs zero consumer waits — the property that
  // makes the ring cheaper than the notify-per-enqueue queue it replaced.
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(Offer(ring, i));
  int out = 0;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(Take(ring, out));
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(Put(ring, round));
    ASSERT_TRUE(Take(ring, out));
    EXPECT_EQ(out, round);
  }
  EXPECT_EQ(ring.consumer_waits(), 0u);
  EXPECT_EQ(ring.producer_waits(), 0u);
}

TEST(SpscRingTest, PublishWithDeadlineSucceedsImmediatelyWithSpace) {
  SpscRing<int> ring(2);
  // An already-expired deadline is irrelevant when a slot is free: the
  // fast path never consults the clock.
  EXPECT_TRUE(Offer(ring, 1));
  EXPECT_EQ(ring.producer_waits(), 0u);
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 1);
}

TEST(SpscRingTest, PublishHonoursItsDeadlineOnFullRing) {
  SpscRing<int> ring(1);
  AssumeRole(ring.producer_role);
  ASSERT_TRUE(Offer(ring, 7));
  ring.back() = 8;
  const auto deadline = Clock::now() + std::chrono::milliseconds(5);
  // No consumer: the bounded wait must give up at the deadline, not
  // before — this is the latency-budget edge the engine's shed path is
  // built on.
  EXPECT_FALSE(ring.Publish(deadline));
  EXPECT_GE(Clock::now(), deadline);
  EXPECT_EQ(ring.producer_waits(), 1u);
  // The refused item stayed unpublished; the ring still drains cleanly.
  EXPECT_EQ(ring.size(), 1u);
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 7);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRingTest, PublishWithDeadlineSucceedsWhenConsumerPopsInTime) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(Offer(ring, 1));
  std::thread consumer([&] {
    // Wait until the producer is actually parked, then free the slot.
    if (!AwaitFirstWait(ring, &SpscRing<int>::producer_waits)) return;
    int out = 0;
    ASSERT_TRUE(Take(ring, out));
  });
  AssumeRole(ring.producer_role);
  ring.back() = 2;
  // Woken well before the deadline.
  EXPECT_TRUE(ring.Publish(Clock::now() + std::chrono::seconds(30)));
  consumer.join();
  int out = 0;
  ASSERT_TRUE(Take(ring, out));
  EXPECT_EQ(out, 2);
}

TEST(SpscRingTest, PublishWithDeadlineRefusedAfterStop) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(Offer(ring, 1));
  ring.Stop();
  AssumeRole(ring.producer_role);
  // Stop beats the deadline: the publish returns false immediately.
  EXPECT_FALSE(ring.Publish(Clock::now() + std::chrono::seconds(30)));
}

TEST(SpscRingTest, TwoThreadStress) {
  // 100k items through a tiny ring from a real producer thread: exercises
  // wrap, both sleep paths and both wake paths under scheduler noise.
  // (This suite runs under the TSan CI job, which is the real assertion.)
  SpscRing<uint64_t> ring(3);
  constexpr uint64_t kItems = 100000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(Put(ring, i));
  });
  uint64_t out = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(Take(ring, out));
    ASSERT_EQ(out, i);
  }
  producer.join();
  EXPECT_EQ(ring.size(), 0u);
}

}  // namespace
}  // namespace bqs
