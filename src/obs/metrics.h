// orp::obs — zero-allocation runtime metrics for the sharded pipeline.
//
// The paper's closing argument (§V) is that the open-resolver ecosystem needs
// "systematic and constant follow-up", i.e. a standing observatory rather
// than one-off scans — and an observatory needs runtime telemetry, not just
// end-of-run tables. This registry is the measurement side of that: every
// subsystem of the campaign (event loop, network, prober, resolvers, auth
// server) records into per-shard metric instances that merge exactly like
// ScanStats does.
//
// Three properties are load-bearing:
//
//   * Zero-allocation steady state. Metrics are registered up front into a
//     Schema; a handle is an index into a flat pre-sized slot array, so the
//     record path is an array increment (plus a short edge scan for
//     histograms). Nothing on the increment path can touch the allocator —
//     test_alloc_budget pins the instrumented packet path at 0 allocations.
//
//   * Per-shard, lock-free by construction. Each shard owns a private
//     Metrics instance (same shared immutable Schema), mirroring how shards
//     own their EventLoop/Network. No atomics, no contention.
//
//   * Deterministic merge. operator+= folds another shard's values with the
//     per-metric merge op (counters and histogram slots sum; gauges take
//     max/min/sum as registered), so the merged snapshot is identical for
//     any shard landing order — the same discipline as ScanStats/AuthStats.
//
// Metrics whose merged value is also identical for every *shard count* are
// tagged kThreadInvariant at registration (scan/auth/capture counters — the
// same set PipelineSharding pins); per-shard-structure values (queue peaks,
// pool occupancy, replica-dependent resolver engine traffic) are tagged
// kThreadVariant and excluded from cross-thread-count byte comparisons.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace orp::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// How two shards' values of one gauge fold together (counters and
/// histograms always sum).
enum class MergeOp : std::uint8_t { kSum, kMax, kMin };

/// Whether the merged value is byte-identical for every shard count of the
/// same campaign (threads 1/2/4/... — the PipelineSharding discipline).
enum class Invariance : std::uint8_t { kThreadInvariant, kThreadVariant };

struct CounterHandle {
  std::uint32_t slot = 0;
};
struct GaugeHandle {
  std::uint32_t slot = 0;
};
struct HistogramHandle {
  std::uint32_t first_slot = 0;   // bucket counts, then one value-sum slot
  std::uint32_t edge_offset = 0;  // into Schema's flat edge array
  std::uint32_t edge_count = 0;   // buckets = edge_count + 1 (last = +Inf)
};

/// One registered metric, as the exporters see it.
struct MetricDef {
  MetricKind kind = MetricKind::kCounter;
  MergeOp merge = MergeOp::kSum;
  Invariance invariance = Invariance::kThreadInvariant;
  std::string name;  // prometheus-style, e.g. "orp_scan_q1_sent"
  std::string help;
  std::uint32_t first_slot = 0;
  std::uint32_t slot_count = 1;
  std::uint32_t edge_offset = 0;  // histograms only
  std::uint32_t edge_count = 0;
};

/// The immutable registry every shard's Metrics instance is laid out by.
/// Register everything up front (before any Metrics is constructed), then
/// treat the schema as frozen — instances index into it by slot.
class Schema {
 public:
  CounterHandle counter(std::string_view name, std::string_view help,
                        Invariance inv = Invariance::kThreadInvariant);
  GaugeHandle gauge(std::string_view name, std::string_view help,
                    MergeOp merge = MergeOp::kMax,
                    Invariance inv = Invariance::kThreadVariant);
  /// `edges` are inclusive upper bounds (prometheus `le`), strictly
  /// increasing; one +Inf overflow bucket is appended implicitly.
  HistogramHandle histogram(std::string_view name, std::string_view help,
                            std::span<const std::uint64_t> edges,
                            Invariance inv = Invariance::kThreadVariant);

  std::size_t slot_count() const noexcept { return slots_; }
  const std::vector<MetricDef>& defs() const noexcept { return defs_; }
  const std::uint64_t* edge_data() const noexcept { return edges_.data(); }
  std::span<const std::uint64_t> edges(const MetricDef& d) const noexcept {
    return {edges_.data() + d.edge_offset, d.edge_count};
  }

 private:
  std::vector<MetricDef> defs_;
  std::vector<std::uint64_t> edges_;  // all histogram edges, concatenated
  std::uint32_t slots_ = 0;
};

/// One shard's metric values: a flat slot array laid out by a Schema. The
/// default-constructed instance is inert (no schema, no slots) so disabled
/// runs can carry one by value at zero cost.
class Metrics {
 public:
  Metrics() noexcept = default;
  explicit Metrics(const Schema& schema)
      : schema_(&schema), values_(schema.slot_count(), 0) {}

  bool enabled() const noexcept { return schema_ != nullptr; }
  const Schema* schema() const noexcept { return schema_; }

  void add(CounterHandle h, std::uint64_t n = 1) noexcept {
    values_[h.slot] += n;
  }
  void set(GaugeHandle h, std::uint64_t v) noexcept { values_[h.slot] = v; }
  void set_max(GaugeHandle h, std::uint64_t v) noexcept {
    if (v > values_[h.slot]) values_[h.slot] = v;
  }

  /// Record one observation. Bucket search is a forward scan over the edge
  /// array (histograms here have ~10 buckets; a branchy binary search loses
  /// at that size), then two slot increments. No allocation, ever.
  void observe(HistogramHandle h, std::uint64_t v) noexcept {
    const std::uint64_t* e = schema_->edge_data() + h.edge_offset;
    std::uint32_t b = h.edge_count;  // +Inf overflow bucket
    for (std::uint32_t i = 0; i < h.edge_count; ++i) {
      if (v <= e[i]) {
        b = i;
        break;
      }
    }
    ++values_[h.first_slot + b];
    values_[h.first_slot + h.edge_count + 1] += v;  // value-sum slot
  }

  std::uint64_t counter(CounterHandle h) const noexcept {
    return values_[h.slot];
  }
  std::uint64_t gauge(GaugeHandle h) const noexcept { return values_[h.slot]; }
  std::uint64_t bucket(HistogramHandle h, std::uint32_t i) const noexcept {
    return values_[h.first_slot + i];
  }
  std::uint64_t histogram_sum(HistogramHandle h) const noexcept {
    return values_[h.first_slot + h.edge_count + 1];
  }
  std::uint64_t histogram_count(HistogramHandle h) const noexcept {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i <= h.edge_count; ++i)
      n += values_[h.first_slot + i];
    return n;
  }

  std::span<const std::uint64_t> raw() const noexcept { return values_; }

  /// Fold another shard's values into this one (deterministic: the result
  /// depends only on the multiset of operands, per the merge-op table). A
  /// default-constructed (disabled) operand is a no-op; merging into a
  /// disabled instance adopts the operand wholesale.
  Metrics& operator+=(const Metrics& o);

 private:
  const Schema* schema_ = nullptr;
  std::vector<std::uint64_t> values_;
};

/// The pipeline's pre-registered metric set: one shared immutable schema plus
/// the handles every instrumented subsystem records through. Built once on
/// first use (before shards spawn — SimulatedInternet construction touches
/// it), read-only afterwards.
struct Builtin {
  Schema schema;

  // net::EventLoop
  CounterHandle loop_events_run;
  GaugeHandle loop_queue_peak;
  HistogramHandle loop_time_in_queue_us;
  /// Retired (always empty): the loop fires one event at a time. Kept
  /// registered because perfbench's census_bench still reads it.
  HistogramHandle loop_batch_size;

  // net::Network + net::BufferPool
  CounterHandle net_sent;
  CounterHandle net_delivered;
  CounterHandle net_dropped_loss;
  CounterHandle net_dropped_unbound;
  /// Retired (always empty / 0): every datagram is its own delivery event,
  /// so there are no grouped deliveries and no per-item fallback. Kept
  /// registered because perfbench's census_bench still reads both.
  HistogramHandle net_delivery_batch_size;
  CounterHandle net_batch_fallback_singles;
  GaugeHandle pool_slabs;
  GaugeHandle pool_slabs_free;
  CounterHandle pool_recycled;

  // net::CaptureStore (prober vantage)
  CounterHandle capture_packets;

  // prober::Scanner + prober::RateLimiter
  CounterHandle scan_q1_sent;
  CounterHandle scan_r2_received;
  CounterHandle scan_r2_matched;
  CounterHandle scan_r2_empty_question;
  CounterHandle scan_r2_unmatched;
  CounterHandle scan_timeouts_reaped;
  CounterHandle scan_skipped_reserved;
  CounterHandle scan_skipped_overflow;
  GaugeHandle scan_outstanding_peak;
  CounterHandle scan_template_stamped;
  CounterHandle scan_template_fallback;
  /// DoTCP fallback (prober::Scanner with tcp_fallback on; all zero
  /// otherwise). Per-flow properties, so thread-invariant at loss=0 like
  /// the scan counters above.
  CounterHandle tcp_tc_seen;
  CounterHandle tcp_retries;
  CounterHandle tcp_answers;
  CounterHandle tcp_failures;
  CounterHandle tcp_duplicate_r2;
  CounterHandle rate_tokens_granted;
  CounterHandle rate_deferred;

  // resolver hosts (summed over planted hosts + upstream replicas)
  CounterHandle resolver_queries;
  CounterHandle resolver_responses;
  CounterHandle resolver_recursions;
  CounterHandle resolver_forwarded;
  CounterHandle resolver_truncated;
  CounterHandle resolver_rrl_dropped;
  CounterHandle resolver_rrl_slipped;
  CounterHandle resolver_cache_bypass;
  CounterHandle resolver_upstream_queries;
  CounterHandle resolver_template_stamped;
  CounterHandle resolver_template_fallback;

  // authns::AuthServer (Q2/R1 vantage)
  CounterHandle auth_q2_received;
  CounterHandle auth_r1_sent;
  CounterHandle auth_answered;
  CounterHandle auth_nxdomain;
  CounterHandle auth_refused;
  CounterHandle auth_formerr;
  CounterHandle auth_truncated;
  CounterHandle auth_edns_queries;
  CounterHandle auth_dnssec_do_queries;
  CounterHandle auth_cluster_loads;
  CounterHandle auth_template_stamped;
  CounterHandle auth_template_fallback;

  // obs::FlowTracer
  CounterHandle trace_flows_sampled;
  CounterHandle trace_records;

  // analysis::StreamingAnalyzer (capture-time classification)
  CounterHandle analysis_r2_classified;
  CounterHandle analysis_r2_incorrect;
  CounterHandle analysis_r2_malicious;
  CounterHandle analysis_exemplar_updates;
  GaugeHandle analysis_table_bytes;
};

const Builtin& builtin();

}  // namespace orp::obs
