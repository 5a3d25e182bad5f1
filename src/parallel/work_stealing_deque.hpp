// A Chase-Lev work-stealing deque (Chase & Lev, SPAA 2005), with the
// C11-memory-model corrections of Lê et al. (PPoPP 2013).
//
// The owner pushes and pops at the bottom (LIFO); thieves steal from the top
// (FIFO). Only `job*` values are stored; job lifetime is managed by the
// fork-join frames in scheduler.hpp (jobs live on the forking thread's stack
// until joined, so a pointer in the deque is always valid).
//
// The orderings live on the atomic operations themselves, not on
// standalone fences: push publishes with a release store of bottom_, and
// the two store-load races (pop's bottom_ store against its top_ load,
// steal's top_ load against its bottom_ load) are seq_cst operations.
// That is what Lê et al.'s fences provide, and unlike
// std::atomic_thread_fence it is visible to ThreadSanitizer, so the
// sanitizer build checks the same orderings production runs.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace bdc::internal {

class job;

/// Fixed-capacity Chase-Lev deque. Capacity bounds the number of
/// not-yet-joined forks outstanding on one worker, which is bounded by the
/// fork-join nesting depth (logarithmic for all library algorithms), so a
/// generous fixed capacity is safe; overflow is a programming error.
class work_stealing_deque {
 public:
  static constexpr int64_t kCapacity = 1 << 13;

  work_stealing_deque() : buffer_(new std::atomic<job*>[kCapacity]) {
    for (int64_t i = 0; i < kCapacity; ++i)
      buffer_[i].store(nullptr, std::memory_order_relaxed);
  }

  work_stealing_deque(const work_stealing_deque&) = delete;
  work_stealing_deque& operator=(const work_stealing_deque&) = delete;

  /// Owner only.
  void push(job* j) {
    int64_t b = bottom_.load(std::memory_order_relaxed);
    [[maybe_unused]] int64_t t = top_.load(std::memory_order_acquire);
    assert(b - t < kCapacity && "work_stealing_deque overflow");
    buffer_[b & kMask].store(j, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns nullptr if the deque is empty or the last element
  /// was lost to a concurrent thief.
  job* pop() {
    int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    job* result = nullptr;
    if (t <= b) {
      result = buffer_[b & kMask].load(std::memory_order_relaxed);
      if (t == b) {
        // Single element left: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          result = nullptr;  // lost the race
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return result;
  }

  /// Any thread. Returns nullptr if empty or the steal raced.
  job* steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t < b) {
      job* result = buffer_[t & kMask].load(std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;
      }
      return result;
    }
    return nullptr;
  }

  /// Approximate emptiness (for idle heuristics only).
  [[nodiscard]] bool empty_approx() const {
    return bottom_.load(std::memory_order_relaxed) <=
           top_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int64_t kMask = kCapacity - 1;
  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  std::unique_ptr<std::atomic<job*>[]> buffer_;
};

}  // namespace bdc::internal
