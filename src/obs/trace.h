// Per-flow span tracing for the measurement path of Fig. 2.
//
// The Transparent Forwarders line of work showed that *per-flow path
// evidence* — which hops a probe actually traversed, and when — is what
// separates resolver classes; aggregate counters cannot. A FlowTracer
// records the four span points of one probe's journey:
//
//   kQ1Sent       probe leaves the scanner
//   kQ2Auth       the query surfaces at our authoritative server
//   kR1Sent       the auth server answers
//   kR2Received   the scanner receives and classifies the response
//
// keyed by the FNV-1a hash of the probe qname's canonical key (the same
// flow key §III-B groups by — the DNS ID field is too narrow at 100k pps).
//
// Tracing every flow of a 3.7B-probe campaign is out of the question, so
// flows are sampled 1-in-N *by global permutation index*: the index is a
// property of the campaign plan, not of the shard layout, so every shard
// count samples exactly the same flows (the sampling analogue of the
// byte-identical-merge discipline). Records live in one append-only arena
// of fixed-size PODs per shard — reserve() once and the steady-state record
// path never allocates; merge() concatenates and sort_canonical() imposes a
// shard-count-independent order.
//
// Subdomain reuse caveat: a qname released by the reaper can be re-acquired
// for a later target, so one flow key may carry several Q1 records (each
// with its own permutation index). The timeline is still well-ordered —
// reuse only happens after the previous probe's response window closed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/sim_time.h"
#include "util/u64_set.h"

namespace orp::obs {

enum class SpanPoint : std::uint8_t {
  kQ1Sent = 0,
  kQ2Auth = 1,
  kR1Sent = 2,
  kR2Received = 3,
  /// DoTCP fallback (tcp_fallback campaigns only): the scanner opens a TCP
  /// retry after a TC=1 answer ("T1"), and the answer arrives over the
  /// connection ("T2"). A failed retry records T1 without a T2.
  kTcpRetry = 4,
  kTcpAnswer = 5,
};

const char* span_point_name(SpanPoint p) noexcept;

/// One span record. `perm_index` is known only at Q1 (the scanner owns the
/// permutation walk); kNoIndex elsewhere.
struct TraceRecord {
  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

  std::uint64_t flow = 0;        // fnv1a64 of the canonical qname key
  std::uint64_t perm_index = kNoIndex;
  std::int64_t time_ns = 0;      // simulated time
  std::uint32_t peer = 0;        // IPv4 of the other end of this hop
  SpanPoint point = SpanPoint::kQ1Sent;
};

class FlowTracer {
 public:
  /// Disabled tracer: sample() rejects everything, record() is never called.
  FlowTracer() noexcept = default;
  /// Trace one flow in `sample_every` (1 = every flow).
  explicit FlowTracer(std::uint64_t sample_every)
      : sample_every_(sample_every) {}

  bool enabled() const noexcept { return sample_every_ > 0; }
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// Deterministic sampling decision by global permutation index.
  bool sample(std::uint64_t perm_index) const noexcept {
    return sample_every_ > 0 && perm_index % sample_every_ == 0;
  }

  /// Mark a sampled flow and record its Q1 span. Marking is what downstream
  /// vantages (auth server, scanner receive path) key on.
  void begin_flow(std::uint64_t flow, std::uint64_t perm_index, net::SimTime t,
                  std::uint32_t peer) {
    marked_.insert(flow);
    records_.push_back(
        TraceRecord{flow, perm_index, t.as_nanos(), peer, SpanPoint::kQ1Sent});
  }

  /// Allocation-free membership probe — the per-packet fast path at every
  /// downstream vantage is one flat-table probe.
  bool marked(std::uint64_t flow) const noexcept {
    return marked_.contains(flow);
  }

  void record(std::uint64_t flow, SpanPoint p, net::SimTime t,
              std::uint32_t peer) {
    records_.push_back(
        TraceRecord{flow, TraceRecord::kNoIndex, t.as_nanos(), peer, p});
  }

  /// Pre-size the record arena and the sampled-flow set (pin an allocation
  /// budget, as CaptureStore::reserve does).
  void reserve(std::size_t flows, std::size_t records) {
    marked_.reserve(flows);
    records_.reserve(records);
  }

  /// Fold another shard's tracer in: records concatenate, marks union.
  void merge(FlowTracer&& o) {
    if (sample_every_ == 0) sample_every_ = o.sample_every_;
    records_.insert(records_.end(), o.records_.begin(), o.records_.end());
    marked_.reserve(marked_.size() + o.marked_.size());
    o.marked_.for_each([this](std::uint64_t flow) { marked_.insert(flow); });
    o.records_.clear();
    o.marked_.clear();
  }

  /// Shard-count-independent record order: (flow, time, point, peer,
  /// perm_index). Apply after merging, before export.
  void sort_canonical() {
    std::sort(records_.begin(), records_.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                if (a.flow != b.flow) return a.flow < b.flow;
                if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
                if (a.point != b.point) return a.point < b.point;
                if (a.peer != b.peer) return a.peer < b.peer;
                return a.perm_index < b.perm_index;
              });
  }

  std::span<const TraceRecord> records() const noexcept { return records_; }
  std::size_t flow_count() const noexcept { return marked_.size(); }

  void clear() {
    records_.clear();
    marked_.clear();
  }

 private:
  std::uint64_t sample_every_ = 0;
  std::vector<TraceRecord> records_;
  util::U64Set marked_;
};

}  // namespace orp::obs
