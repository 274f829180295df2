// Bounded single-producer/single-consumer ring whose slots own their
// items — the shard ingest queue behind FleetEngine.
//
// The first fleet engine queued commands in a std::deque under a mutex with
// a condition_variable signalled on every enqueue. Once the fast kernel
// made compressing a point cheaper than a contended lock, that handoff
// became the fleet bottleneck. This ring replaces it:
//
//  - Items are filled and consumed in place. The producer writes the
//    unpublished tail slot (back()) and publishes it; the consumer reads
//    the head slot (Pop()) where it lies. A slot's heap — a routing
//    block's vectors — therefore survives every wrap, and steady state
//    allocates nothing.
//  - head/tail are atomics; publishing into free space and popping an
//    available item touch no mutex.
//  - Edge-triggered condvar wakes: the consumer advertises that it is
//    about to sleep (`consumer_asleep_`), and the producer only takes the
//    mutex to notify when that flag is set — a stream of publishes into an
//    awake consumer costs zero notifications. Backpressure mirrors it on
//    the producer side.
//  - The sleep/wake handshake is the classic Dekker pattern: the sleeper
//    stores its flag then re-reads the opposing cursor inside the wait
//    predicate; the waker publishes its cursor then reads the flag. Both
//    flag and cursor accesses on that path are seq_cst, so one of the two
//    sides always observes the other; the notify itself happens under the
//    mutex, closing the remaining predicate-to-block window.
//
// Slot ownership: `capacity` published items, plus the slot the consumer
// is still working on (the one its last Pop returned; its next Pop
// releases it), plus the producer's unpublished tail slot. The ring holds
// capacity + 2 slots, so those three sets never overlap and neither side
// ever waits on the other's slot.
//
// Threading contract: exactly one producer thread may call back/Publish
// and exactly one consumer thread may call Pop. The contract is encoded for
// Clang Thread Safety Analysis: producer entry points REQUIRE the
// `producer_role` capability and Pop the `consumer_role`; the owning
// threads assert their role once (AssumeRole) and the analysis rejects any
// call path that crosses sides. Stop() may be called from any thread
// (FleetEngine calls it from the destructor). size() is an approximation
// when read from other threads.
#ifndef BQS_SERVICE_SPSC_RING_H_
#define BQS_SERVICE_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"

namespace bqs {

template <typename T>
class SpscRing {
 public:
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// Capacity (published items) is clamped to >= 1 and is exact (not
  /// rounded to a power of two): Pop indexes with a modulo, trading a
  /// division per item for predictable memory use at the caller's depth.
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity), slots_(capacity_ + 2) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Published items the consumer has not popped yet. Exact when called by
  /// the producer between its own publishes (the consumer can only shrink
  /// it concurrently).
  std::size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Producer: the unpublished tail slot, to fill in place. It holds
  /// whatever the consumer left in it when it last came round. Cheap
  /// enough to call per record: no atomic, no division.
  T& back() REQUIRES(producer_role) { return slots_[back_slot_]; }

  /// Producer: publishes back() once the ring has space, waiting while it
  /// is full (backpressure) — until `deadline` when one is given. An
  /// already-expired deadline makes this a non-blocking attempt. Returns
  /// false, leaving back() unpublished and untouched, on timeout or stop.
  /// A full ring that is actually waited on counts as a producer_wait.
  bool Publish(Deadline deadline = std::nullopt) REQUIRES(producer_role) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) >= capacity_) {
      if (deadline && *deadline <= std::chrono::steady_clock::now()) {
        return false;
      }
      producer_waits_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(mu_);
      producer_asleep_.store(true, std::memory_order_seq_cst);
      const auto has_space = [&] {
        return stop_.load(std::memory_order_relaxed) ||
               tail - head_.load(std::memory_order_seq_cst) < capacity_;
      };
      if (deadline) {
        cv_producer_.wait_until(lock.native(), *deadline, has_space);
      } else {
        cv_producer_.wait(lock.native(), has_space);
      }
      producer_asleep_.store(false, std::memory_order_relaxed);
      if (tail - head_.load(std::memory_order_acquire) >= capacity_) {
        return false;  // deadline passed (or stopped) while still full
      }
    }
    if (stop_.load(std::memory_order_relaxed)) return false;
    tail_.store(tail + 1, std::memory_order_seq_cst);
    back_slot_ = back_slot_ + 1 == slots_.size() ? 0 : back_slot_ + 1;
    if (consumer_asleep_.load(std::memory_order_seq_cst)) {
      MutexLock lock(mu_);
      cv_consumer_.notify_one();
    }
    return true;
  }

  /// Consumer: the next published item, in place, waiting while the ring
  /// is empty. The slot stays the consumer's until its next Pop, which
  /// releases it back to the producer. After Stop() the remaining items
  /// still drain in order; returns nullptr once stopped AND empty (the
  /// worker-thread exit condition).
  T* Pop() REQUIRES(consumer_role) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) {
      consumer_waits_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(mu_);
      consumer_asleep_.store(true, std::memory_order_seq_cst);
      cv_consumer_.wait(lock.native(), [&] {
        return stop_.load(std::memory_order_relaxed) ||
               head != tail_.load(std::memory_order_seq_cst);
      });
      consumer_asleep_.store(false, std::memory_order_relaxed);
      if (head == tail_.load(std::memory_order_acquire)) {
        return nullptr;  // stopped and drained
      }
    }
    head_.store(head + 1, std::memory_order_seq_cst);
    if (producer_asleep_.load(std::memory_order_seq_cst)) {
      MutexLock lock(mu_);
      cv_producer_.notify_one();
    }
    return &slots_[static_cast<std::size_t>(head % slots_.size())];
  }

  /// Wakes both sides. A blocked Publish returns false; Pop keeps returning
  /// queued items until the ring is drained.
  void Stop() {
    MutexLock lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
    cv_consumer_.notify_all();
    cv_producer_.notify_all();
  }

  /// Times the consumer found the ring empty and entered the slow path
  /// (i.e. worker sleeps). Edge-triggered wakes make this the number of
  /// producer->consumer notifications that actually mattered.
  uint64_t consumer_waits() const {
    return consumer_waits_.load(std::memory_order_relaxed);
  }

  /// Times the producer found the ring full and waited (backpressure).
  uint64_t producer_waits() const {
    return producer_waits_.load(std::memory_order_relaxed);
  }

  /// Capability held by the single thread allowed to back/Publish. Held by
  /// protocol (being that thread), asserted via AssumeRole at the owner's
  /// trust point, never locked.
  ThreadRole producer_role;
  /// Capability held by the single thread allowed to Pop.
  ThreadRole consumer_role;

 private:
  const std::size_t capacity_;
  /// The tail slot is written by the producer before the tail_ store that
  /// publishes it and read by the consumer after the matching load; the
  /// consumer is done with a slot before the head_ store of its next Pop,
  /// which releases it, and the producer reads head_ before it reuses
  /// one. That per-slot
  /// handoff is the SPSC invariant itself, finer-grained than a capability
  /// can express, so slots_ carries no GUARDED_BY.
  std::vector<T> slots_;
  std::atomic<uint64_t> head_{0};  ///< Next slot to pop (consumer-owned).
  std::atomic<uint64_t> tail_{0};  ///< Next slot to publish (producer's).
  /// slots_ index of tail_, kept by the producer alongside it.
  std::size_t back_slot_ GUARDED_BY(producer_role) = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> consumer_asleep_{false};
  std::atomic<bool> producer_asleep_{false};
  std::atomic<uint64_t> consumer_waits_{0};
  std::atomic<uint64_t> producer_waits_{0};
  /// Serializes only the sleep/wake handshake; every shared field is an
  /// atomic, so nothing is GUARDED_BY it.
  Mutex mu_;
  std::condition_variable cv_consumer_;
  std::condition_variable cv_producer_;
};

}  // namespace bqs

#endif  // BQS_SERVICE_SPSC_RING_H_
