// The scanner's outstanding probes, in send order.
//
// response_timeout is one constant, so probes expire in the order they
// were sent: the reap sweep pops expired entries off the head of a FIFO
// ring instead of walking a table. The order matters beyond cost — the
// sweep releases unanswered subdomains into the LIFO reuse pool, and
// reused ids become later probe qnames, so release order is wire-visible
// and pinned by the capture digest. Send order makes it a property of the
// campaign, not of a container's internals: the reuse pool hands back the
// newest unanswered names first.
//
// A matched response does not touch the ring; it only drops its id from
// the flat set of live ids, and the sweep skips entries whose id is gone.
// Invariant: an id sits in the ring at most once — answered ids are never
// reused, and unanswered ids are popped before they are released.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/sim_time.h"
#include "util/u64_set.h"

namespace orp::prober {

class OutstandingRing {
 public:
  /// Record a probe for packed id `id` sent at `sent` (non-decreasing
  /// across calls — the send path stamps the loop's clock).
  void push(std::uint64_t id, net::SimTime sent) {
    if (count_ == entries_.size()) grow();
    entries_[(head_ + count_) & (entries_.size() - 1)] = Entry{id, sent};
    ++count_;
    live_.insert(id);
  }

  /// A response matched `id`: true if its probe was still unanswered (it
  /// is answered now); false for unknown or already-answered ids.
  bool answer(std::uint64_t id) noexcept { return live_.erase(id); }

  /// Pop every entry sent at or before `cutoff`, passing each id that is
  /// still unanswered to `on_expired` in send order.
  template <typename F>
  void reap(net::SimTime cutoff, F&& on_expired) {
    const std::size_t mask = entries_.size() - 1;
    while (count_ > 0 && entries_[head_].sent <= cutoff) {
      const std::uint64_t id = entries_[head_].id;
      head_ = (head_ + 1) & mask;
      --count_;
      if (live_.erase(id)) on_expired(id);
    }
  }

  /// Unanswered probes (the in-flight window).
  std::size_t size() const noexcept { return live_.size(); }
  /// No entries left, answered ones included.
  bool empty() const noexcept { return count_ == 0; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    net::SimTime sent;
  };

  /// Double the power-of-two capacity, unwrapping the live span to the
  /// front of the new array.
  void grow() {
    std::vector<Entry> bigger(std::max<std::size_t>(16, entries_.size() * 2));
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = entries_[(head_ + i) & (entries_.size() - 1)];
    entries_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Entry> entries_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  util::U64Set live_;
};

}  // namespace orp::prober
