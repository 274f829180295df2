// Protocol fuzzer for SpscRing, the shard ingest ring whose slots own
// their routing blocks.
//
// The input bytes drive an op sequence against a ring of record blocks on
// one thread — legal, since SPSC only bounds each side to at most one
// thread — and every observable result is checked against a trivial
// reference model (a deque of published block signatures, plus the
// producer's staged records). The point is memory-safety and protocol
// coverage under ASan/UBSan: in-place fills and clears across wraparound,
// refused publishes keeping their slot, Stop() in every phase, and the
// slot-ownership invariant — the producer's tail slot is never a published
// slot nor the one the consumer still holds.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "fuzz_input.h"
#include "service/spsc_ring.h"
#include "trajectory/point.h"

namespace {

using bqs_fuzz::FuzzInput;
using Block = std::vector<bqs::FleetRecord>;

#define FUZZ_CHECK(cond, ...)                                       \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "FUZZ_CHECK failed: %s\n  ", #cond);     \
      std::fprintf(stderr, __VA_ARGS__);                            \
      std::fprintf(stderr, "\n");                                   \
      std::abort();                                                 \
    }                                                               \
  } while (0)

constexpr int kMaxOps = 2048;

/// What the model remembers about a block: enough to tell any two fills
/// apart and to check the records' devices survived the handoff.
struct Signature {
  std::size_t records = 0;
  bqs::DeviceId last_device = 0;
  double first_t = 0.0;
};

Signature Sign(const Block& block) {
  if (block.empty()) return Signature{};
  return Signature{block.size(), block.back().device,
                   block.front().point.t};
}

bool Same(const Signature& a, const Signature& b) {
  return a.records == b.records && a.last_device == b.last_device &&
         a.first_t == b.first_t;
}

void FuzzRing(FuzzInput& in) {
  const std::size_t capacity = static_cast<std::size_t>(in.IntIn(1, 8));
  bqs::SpscRing<Block> ring(capacity);
  // One thread plays both sides; assert both role capabilities once.
  bqs::AssumeRole(ring.producer_role);
  bqs::AssumeRole(ring.consumer_role);
  const auto expired = std::chrono::steady_clock::time_point::min();

  std::deque<Signature> model;  ///< Published, not yet popped.
  std::size_t staged = 0;       ///< Records sitting in the tail slot.
  Block* held = nullptr;        ///< The consumer's last popped slot.
  Signature held_sign;
  bool stopped = false;
  double next_t = 0.0;

  FUZZ_CHECK(ring.capacity() == capacity, "capacity=%zu", capacity);

  for (int op = 0; op < kMaxOps && !in.empty(); ++op) {
    switch (in.IntIn(0, 9)) {
      case 0:
      case 1:
      case 2: {  // fill the tail slot in place
        Block& block = ring.back();
        FUZZ_CHECK(&block != held, "op=%d tail slot is the held slot", op);
        FUZZ_CHECK(block.size() == staged, "op=%d tail has %zu, staged %zu",
                   op, block.size(), staged);
        const int appends = in.IntIn(1, 8);
        bqs::DeviceId device = static_cast<bqs::DeviceId>(in.U8() % 3);
        for (int i = 0; i < appends; ++i) {
          if (in.Bool()) device = static_cast<bqs::DeviceId>(in.U8() % 3);
          bqs::TrackPoint pt;
          pt.pos = {in.Step(100.0), in.Step(100.0)};
          pt.t = next_t;
          next_t += 1.0;
          block.push_back(bqs::FleetRecord{device, pt});
        }
        staged = block.size();
        break;
      }
      case 3:
      case 4: {  // publish: blocking only when it cannot block forever
        const Signature sign = Sign(ring.back());
        const bool can_block = stopped || model.size() < capacity;
        const bool published =
            can_block && in.Bool() ? ring.Publish() : ring.Publish(expired);
        const bool expect = !stopped && model.size() < capacity;
        FUZZ_CHECK(published == expect,
                   "Publish op=%d published=%d expect=%d size=%zu stopped=%d",
                   op, published, expect, model.size(), stopped);
        if (published) {
          model.push_back(sign);
          staged = 0;
          // The fresh tail slot was cleared by the consumer when it
          // popped it, or never used: anything else is a slot overlap.
          FUZZ_CHECK(ring.back().empty(), "op=%d fresh tail holds %zu", op,
                     ring.back().size());
        }
        break;
      }
      case 5:
      case 6:
      case 7: {  // pop: blocking only when an item is there or stopped
        if (model.empty() && !stopped) break;
        if (held != nullptr) held->clear();  // done with the previous one
        held = ring.Pop();
        if (model.empty()) {
          FUZZ_CHECK(held == nullptr, "op=%d stopped+empty Pop returned item",
                     op);
          break;
        }
        FUZZ_CHECK(held != nullptr, "op=%d Pop returned null, model has %zu",
                   op, model.size());
        held_sign = Sign(*held);
        FUZZ_CHECK(Same(held_sign, model.front()),
                   "Pop op=%d got (%zu records, device %llu, t=%g) want (%zu, "
                   "%llu, %g)",
                   op, held_sign.records,
                   static_cast<unsigned long long>(held_sign.last_device),
                   held_sign.first_t, model.front().records,
                   static_cast<unsigned long long>(model.front().last_device),
                   model.front().first_t);
        model.pop_front();
        break;
      }
      case 8: {  // size/stopped exact single-threaded; held slot intact
        FUZZ_CHECK(ring.size() == model.size(), "size op=%d got=%zu want=%zu",
                   op, ring.size(), model.size());
        FUZZ_CHECK(ring.stopped() == stopped, "stopped op=%d", op);
        if (held != nullptr) {
          FUZZ_CHECK(Same(Sign(*held), held_sign),
                     "op=%d held slot changed under the consumer", op);
        }
        break;
      }
      default: {  // Stop — items already published must still drain
        ring.Stop();
        stopped = true;
        break;
      }
    }
  }

  // Drain: everything the model holds must still come out in order.
  ring.Stop();
  while (!model.empty()) {
    if (held != nullptr) held->clear();
    held = ring.Pop();
    FUZZ_CHECK(held != nullptr, "drain: ring empty, model has %zu",
               model.size());
    FUZZ_CHECK(Same(Sign(*held), model.front()), "drain: signature mismatch");
    model.pop_front();
  }
  FUZZ_CHECK(ring.Pop() == nullptr, "ring should be empty after drain");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  FuzzRing(in);
  return 0;
}
