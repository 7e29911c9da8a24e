// Bounded MPSC-ish handoff between socket threads and the drive thread.
//
// Backpressure policy is chosen by the caller: try_push drops when the
// queue is full (the caller counts the drop), the blocking push waits for
// space — TCP intake uses it, so a slow consumer stalls the peer's send
// window instead (lossless replay).  A closed queue rejects producers and
// lets the consumer drain what's left.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace dnsbs::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Non-blocking: false when full or closed (caller counts the drop).
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking: waits for space; false only when the queue closes.
  bool push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Moves up to `max_items` into `out` (appended), waiting up to
  /// `timeout_ms` for the first one.  Returns the number appended; 0 on
  /// timeout or on a closed-and-drained queue.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) {
      not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          [this] { return closed_ || !items_.empty(); });
    }
    std::size_t moved = 0;
    while (moved < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++moved;
    }
    if (moved > 0) not_full_.notify_all();
    return moved;
  }

  /// Rejects future producers and wakes everyone; consumers can still
  /// drain queued items.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace dnsbs::serve
