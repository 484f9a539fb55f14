#include "net/event_loop.h"

#include <utility>

namespace orp::net {

void EventLoop::schedule_at(SimTime at, Action action) {
  if (at < now_) at = now_;  // no scheduling into the past
  std::uint32_t wait_us = 0;
  if (metrics_ != nullptr) {  // only the telemetry path reads it
    const std::uint64_t wait = (at - now_).as_nanos() / 1'000;
    wait_us = static_cast<std::uint32_t>(
        wait > 0xFFFFFFFFu ? 0xFFFFFFFFu : wait);
  }
  heap_.push_back(Event{at, next_seq_++, wait_us, std::move(action)});
  sift_up(heap_.size() - 1);
  if (metrics_ != nullptr) metrics_->set_max(queue_peak_h_, heap_.size());
}

void EventLoop::sift_up(std::size_t i) noexcept {
  // Early exit before touching the element: an in-order insert (the common
  // case — schedules overwhelmingly carry later deadlines) costs one
  // comparison and zero Event moves, where the classic move-out/move-back
  // shape pays two full-record moves even for elements that stay put.
  if (i == 0 || !earlier(heap_[i], heap_[(i - 1) / 2])) return;
  Event item = std::move(heap_[i]);
  do {
    const std::size_t parent = (i - 1) / 2;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  } while (i > 0 && earlier(item, heap_[(i - 1) / 2]));
  heap_[i] = std::move(item);
}

void EventLoop::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  Event item = std::move(heap_[i]);
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], item)) break;
    heap_[i] = std::move(heap_[child]);
    i = child;
  }
  heap_[i] = std::move(item);
}

EventLoop::Event EventLoop::pop_top() noexcept {
  Event top = std::move(heap_.front());
  const std::size_t last = heap_.size() - 1;  // index of the displaced event
  if (last > 0) {
    // Floyd's leaf-path removal: walk the hole down the min-child path with
    // one comparison per level (no comparison against the displaced event),
    // then drop the last element into the leaf hole and sift it up. The
    // displaced element came from the bottom of the heap, so the sift-up
    // almost always terminates immediately — roughly halving the comparison
    // count of the classic sift-down pop on deep heaps.
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child < last) {
      if (child + 1 < last && earlier(heap_[child + 1], heap_[child]))
        ++child;
      heap_[hole] = std::move(heap_[child]);
      hole = child;
      child = 2 * hole + 1;
    }
    if (hole != last) {
      heap_[hole] = std::move(heap_[last]);
      sift_up(hole);
    }
  }
  heap_.pop_back();
  return top;
}

void EventLoop::fire_next() {
  Event ev = pop_top();
  now_ = ev.at;
  if (metrics_ != nullptr) {
    metrics_->add(events_run_h_);
    metrics_->observe(time_in_queue_h_, ev.wait_us);
  }
  ev.action();
  ++executed_;
  if (progress_ != nullptr && (executed_ & 0xFF) == 0)
    progress_->store(executed_, std::memory_order_relaxed);
}

std::uint64_t EventLoop::run() {
  const std::uint64_t before = executed_;
  while (!heap_.empty()) fire_next();
  return executed_ - before;
}

std::uint64_t EventLoop::run_until(SimTime deadline) {
  const std::uint64_t before = executed_;
  while (!heap_.empty() && heap_.front().at <= deadline) fire_next();
  if (now_ < deadline) now_ = deadline;
  return executed_ - before;
}

}  // namespace orp::net
