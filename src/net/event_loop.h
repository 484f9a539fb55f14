// A deterministic discrete-event scheduler.
//
// All simulated activity (packet delivery, resolver timeouts, zone loads,
// prober pacing) is expressed as events on one queue. Ties in timestamp are
// broken by insertion sequence so runs are bit-reproducible regardless of
// heap internals.
//
// Two allocation properties are load-bearing for campaign throughput:
//   * Action is a fixed-budget inline callable, not std::function — storing a
//     delivery closure never touches the heap, and a capture that outgrows
//     the budget is a compile error rather than a silent allocation.
//   * The queue is an explicit binary heap over a std::vector, so the top
//     event is moved out legally (std::priority_queue::top() is const and
//     forced a const_cast) and the backing storage stays warm across events.
//
// Every piece of state — clock, tie-break sequence counter, executed count —
// is an instance member (never static), so each shard of a sharded campaign
// owns a fully isolated loop and S loops can run on S threads untouched by
// one another. test_net.cpp pins the tie-break ordering.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/sim_time.h"
#include "obs/metrics.h"

namespace orp::net {

/// Move-only callable with a fixed inline buffer and no heap fallback. The
/// budget covers every closure the simulation schedules (delivery events
/// carry a Datagram: two endpoints plus a pooled payload handle); anything
/// larger fails to compile, which is the point — a bigger capture belongs in
/// shared state, not in the per-event hot path.
class InlineAction {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  InlineAction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineAction(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "event closure exceeds the inline budget; capture less");
    static_assert(alignof(Fn) <= alignof(void*),
                  "event closure is over-aligned for the inline buffer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event closures must be nothrow-movable (heap sift moves)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOpsFor<Fn>;
  }

  InlineAction(InlineAction&& o) noexcept { take(o); }
  InlineAction& operator=(InlineAction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Null for trivially-copyable, trivially-destructible closures: a move
    // is then a raw copy of the inline buffer and destruction is a no-op —
    // the same bit-blast libstdc++'s std::function move does, minus the
    // indirect call per heap sift that made it the hot path's top cost.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static void invoke_fn(void* s) {
    (*static_cast<Fn*>(s))();
  }
  template <typename Fn>
  static void relocate_fn(void* dst, void* src) noexcept {
    ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
    static_cast<Fn*>(src)->~Fn();
  }
  template <typename Fn>
  static void destroy_fn(void* s) noexcept {
    static_cast<Fn*>(s)->~Fn();
  }

  template <typename Fn>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kOpsFor{
      &invoke_fn<Fn>, kTrivial<Fn> ? nullptr : &relocate_fn<Fn>,
      kTrivial<Fn> ? nullptr : &destroy_fn<Fn>};

  void take(InlineAction& o) noexcept {
    if (o.ops_ != nullptr) {
      if (o.ops_->relocate != nullptr)
        o.ops_->relocate(storage_, o.storage_);
      else
        __builtin_memcpy(storage_, o.storage_, kInlineBytes);
      ops_ = std::exchange(o.ops_, nullptr);
    }
  }

  // Pointer alignment, not max_align_t: the static_assert above rejects any
  // over-aligned closure, and the looser alignment keeps Event at 72 bytes
  // (heap sifts move whole Events, so every byte of padding is paid log n
  // times per pop).
  alignas(void*) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using Action = InlineAction;

  SimTime now() const noexcept { return now_; }

  /// Schedule `action` at absolute simulated time `at` (clamped to now).
  void schedule_at(SimTime at, Action action);

  /// Schedule `action` `delay` after the current simulated time.
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Run until the queue drains, popping one event and firing it at a
  /// time. An action that schedules work at the current deadline gets a
  /// larger seq than every event already queued there, so it fires after
  /// them. Returns the number of events executed.
  std::uint64_t run();

  /// Run until the queue drains or simulated time would pass `deadline`
  /// (an event exactly at the deadline still executes).
  std::uint64_t run_until(SimTime deadline);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Attach an obs::Metrics instance: the loop then counts events run,
  /// tracks the peak queue depth, and records a time-in-queue histogram.
  /// Purely passive — it consumes no RNG, schedules nothing, and allocates
  /// nothing, so an instrumented run is event-for-event identical to an
  /// uninstrumented one. Handles are cached here so the per-event path never
  /// re-resolves obs::builtin().
  void set_metrics(obs::Metrics* m) noexcept {
    metrics_ = m;
    if (m != nullptr) {
      const obs::Builtin& b = obs::builtin();
      events_run_h_ = b.loop_events_run;
      queue_peak_h_ = b.loop_queue_peak;
      time_in_queue_h_ = b.loop_time_in_queue_us;
    }
  }

  /// Publish `executed_` into `beacon` (relaxed) every 256 events — the
  /// shard-side half of the live campaign progress reporter.
  void set_progress_beacon(std::atomic<std::uint64_t>* beacon) noexcept {
    progress_ = beacon;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    // Time-in-queue telemetry, precomputed at schedule time (at - now, in
    // microseconds, saturated). A u32 instead of the enqueue SimTime keeps
    // the Event two cache lines, not three.
    std::uint32_t wait_us;
    Action action;
  };

  static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  /// Remove and return the minimum event. The caller owns the action, so it
  /// may legally schedule more events (growing the heap) while running.
  /// Uses Floyd's leaf-path removal: the root hole walks the min-child path
  /// to a leaf (one comparison per level), the displaced last element drops
  /// into the hole and sifts *up* the few steps it actually needs — versus
  /// the classic move-last-to-root sift-down, whose two-comparison levels
  /// made pop the most expensive step of the schedule/fire cycle.
  Event pop_top() noexcept;

  /// Pop the minimum event and execute it.
  void fire_next();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;  // min-heap on (at, seq)
  obs::Metrics* metrics_ = nullptr;
  std::atomic<std::uint64_t>* progress_ = nullptr;
  obs::CounterHandle events_run_h_;
  obs::GaugeHandle queue_peak_h_;
  obs::HistogramHandle time_in_queue_h_;
};

}  // namespace orp::net
