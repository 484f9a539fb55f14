#include "obs/metrics.h"

namespace orp::obs {

CounterHandle Schema::counter(std::string_view name, std::string_view help,
                              Invariance inv) {
  MetricDef d;
  d.kind = MetricKind::kCounter;
  d.merge = MergeOp::kSum;
  d.invariance = inv;
  d.name = std::string(name);
  d.help = std::string(help);
  d.first_slot = slots_;
  d.slot_count = 1;
  defs_.push_back(std::move(d));
  return CounterHandle{slots_++};
}

GaugeHandle Schema::gauge(std::string_view name, std::string_view help,
                          MergeOp merge, Invariance inv) {
  MetricDef d;
  d.kind = MetricKind::kGauge;
  d.merge = merge;
  d.invariance = inv;
  d.name = std::string(name);
  d.help = std::string(help);
  d.first_slot = slots_;
  d.slot_count = 1;
  defs_.push_back(std::move(d));
  return GaugeHandle{slots_++};
}

HistogramHandle Schema::histogram(std::string_view name, std::string_view help,
                                  std::span<const std::uint64_t> edges,
                                  Invariance inv) {
  MetricDef d;
  d.kind = MetricKind::kHistogram;
  d.merge = MergeOp::kSum;
  d.invariance = inv;
  d.name = std::string(name);
  d.help = std::string(help);
  d.first_slot = slots_;
  d.edge_offset = static_cast<std::uint32_t>(edges_.size());
  d.edge_count = static_cast<std::uint32_t>(edges.size());
  // One count slot per bucket (edges + overflow) plus the value-sum slot.
  d.slot_count = d.edge_count + 2;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    assert(i == 0 || edges[i] > edges[i - 1]);
    edges_.push_back(edges[i]);
  }
  defs_.push_back(d);
  const HistogramHandle h{slots_, d.edge_offset, d.edge_count};
  slots_ += d.slot_count;
  return h;
}

Metrics& Metrics::operator+=(const Metrics& o) {
  if (!o.enabled()) return *this;
  if (!enabled()) {
    *this = o;
    return *this;
  }
  assert(schema_ == o.schema_ && "merge requires one shared schema");
  for (const MetricDef& d : schema_->defs()) {
    for (std::uint32_t s = d.first_slot; s < d.first_slot + d.slot_count;
         ++s) {
      switch (d.kind == MetricKind::kGauge ? d.merge : MergeOp::kSum) {
        case MergeOp::kSum:
          values_[s] += o.values_[s];
          break;
        case MergeOp::kMax:
          if (o.values_[s] > values_[s]) values_[s] = o.values_[s];
          break;
        case MergeOp::kMin:
          if (o.values_[s] < values_[s]) values_[s] = o.values_[s];
          break;
      }
    }
  }
  return *this;
}

const Builtin& builtin() {
  static const Builtin instance = [] {
    Builtin b;
    Schema& s = b.schema;
    using I = Invariance;

    // Queue-delay buckets in microseconds: immediate dispatches (0), the
    // latency-model range (20–50 ms), pacing gaps, and the reap/timeout
    // band (10–30 s) each land in distinct buckets.
    static constexpr std::uint64_t kQueueUs[] = {
        0,         1,          10,          100,         1'000,
        10'000,    100'000,    1'000'000,   10'000'000,  100'000'000};

    b.loop_events_run =
        s.counter("orp_loop_events_run",
                  "events executed by the shard event loop",
                  I::kThreadVariant);
    b.loop_queue_peak = s.gauge("orp_loop_queue_peak",
                                "peak pending events in the shard loop",
                                MergeOp::kMax, I::kThreadVariant);
    b.loop_time_in_queue_us = s.histogram(
        "orp_loop_time_in_queue_us",
        "microseconds between scheduling an event and running it", kQueueUs,
        I::kThreadVariant);

    // Retired batch-dispatch metrics (loop drains, grouped deliveries, the
    // per-item fallback): nothing records them since the loop fires one
    // event at a time and each datagram is its own delivery event. They
    // stay registered, reading 0, because perfbench's census_bench reads
    // them by handle.
    static constexpr std::uint64_t kBatchSizes[] = {1};
    b.loop_batch_size = s.histogram(
        "orp_loop_batch_size",
        "retired: same-deadline loop drains (always empty)", kBatchSizes,
        I::kThreadVariant);

    b.net_sent = s.counter("orp_net_sent",
                           "datagrams accepted into the simulated network",
                           I::kThreadVariant);
    b.net_delivered = s.counter("orp_net_delivered",
                                "datagrams delivered to a bound endpoint",
                                I::kThreadVariant);
    b.net_dropped_loss =
        s.counter("orp_net_dropped_loss",
                  "datagrams dropped by the injected loss model",
                  I::kThreadVariant);
    b.net_dropped_unbound =
        s.counter("orp_net_dropped_unbound",
                  "datagrams to unbound endpoints (non-resolver targets)",
                  I::kThreadVariant);
    b.net_delivery_batch_size = s.histogram(
        "orp_net_delivery_batch_size",
        "retired: grouped datagram deliveries (always empty)", kBatchSizes,
        I::kThreadVariant);
    b.net_batch_fallback_singles = s.counter(
        "orp_net_batch_fallback_singles",
        "retired: grouped datagrams dispatched per item (always 0)",
        I::kThreadVariant);
    b.pool_slabs = s.gauge("orp_pool_slabs",
                           "payload slabs created (in-flight high-water mark)",
                           MergeOp::kSum, I::kThreadVariant);
    b.pool_slabs_free =
        s.gauge("orp_pool_slabs_free", "payload slabs on the free list",
                MergeOp::kSum, I::kThreadVariant);
    b.pool_recycled =
        s.counter("orp_pool_recycled",
                  "payload slabs returned to a pool free list",
                  I::kThreadVariant);

    b.capture_packets =
        s.counter("orp_capture_packets",
                  "packets observed at the prober capture vantage");

    b.scan_q1_sent = s.counter("orp_scan_q1_sent",
                               "probes sent (Table II Q1)");
    b.scan_r2_received =
        s.counter("orp_scan_r2_received", "responses received (Table II R2)");
    b.scan_r2_matched =
        s.counter("orp_scan_r2_matched", "responses grouped to a probe");
    b.scan_r2_empty_question = s.counter(
        "orp_scan_r2_empty_question", "responses with no question section");
    b.scan_r2_unmatched =
        s.counter("orp_scan_r2_unmatched", "responses matching no probe");
    b.scan_timeouts_reaped =
        s.counter("orp_scan_timeouts_reaped", "probes reaped unanswered");
    b.scan_skipped_reserved = s.counter(
        "orp_scan_skipped_reserved", "addresses skipped by the exclusion list");
    b.scan_skipped_overflow = s.counter(
        "orp_scan_skipped_overflow", "permutation values above 2^32");
    b.scan_outstanding_peak =
        s.gauge("orp_scan_outstanding_peak",
                "peak probes awaiting response in one shard", MergeOp::kMax,
                I::kThreadVariant);
    b.scan_template_stamped =
        s.counter("orp_scan_template_stamped",
                  "probes stamped from the pre-encoded wire template");
    b.scan_template_fallback =
        s.counter("orp_scan_template_fallback",
                  "probes built through the full encoder");
    b.tcp_tc_seen = s.counter("orp_tcp_tc_seen",
                              "matched UDP answers carrying TC=1");
    b.tcp_retries = s.counter("orp_tcp_retries",
                              "TCP retry connections opened after TC=1");
    b.tcp_answers =
        s.counter("orp_tcp_answers", "answers received over a TCP retry");
    b.tcp_failures =
        s.counter("orp_tcp_failures",
                  "TCP retries that timed out, were refused, or reset");
    b.tcp_duplicate_r2 =
        s.counter("orp_tcp_duplicate_r2",
                  "duplicate UDP answers racing a pending TCP retry");
    b.rate_tokens_granted =
        s.counter("orp_rate_tokens_granted",
                  "send tokens granted by the pacing bucket",
                  I::kThreadVariant);
    b.rate_deferred =
        s.counter("orp_rate_deferred",
                  "batch sends deferred until tokens refill",
                  I::kThreadVariant);

    b.resolver_queries = s.counter("orp_resolver_queries",
                                   "queries received by planted resolvers");
    b.resolver_responses = s.counter("orp_resolver_responses",
                                     "responses sent by planted resolvers");
    b.resolver_recursions =
        s.counter("orp_resolver_recursions", "genuine recursive resolutions");
    b.resolver_forwarded =
        s.counter("orp_resolver_forwarded", "queries forwarded upstream");
    b.resolver_truncated =
        s.counter("orp_resolver_truncated",
                  "responses cut to the client's UDP budget");
    b.resolver_rrl_dropped = s.counter(
        "orp_resolver_rrl_dropped", "responses suppressed by RRL");
    b.resolver_rrl_slipped = s.counter(
        "orp_resolver_rrl_slipped", "RRL slip responses (minimal TC=1)");
    b.resolver_cache_bypass = s.counter(
        "orp_resolver_cache_bypass",
        "resolutions that bypassed the final-answer cache (unique probe "
        "names confirming cache-free measurements)");
    b.resolver_upstream_queries =
        s.counter("orp_resolver_upstream_queries",
                  "upstream queries issued by resolver engines",
                  I::kThreadVariant);
    b.resolver_template_stamped =
        s.counter("orp_resolver_template_stamped",
                  "resolver responses stamped from a shared wire template");
    b.resolver_template_fallback =
        s.counter("orp_resolver_template_fallback",
                  "resolver queries through the full decode/encode path");

    b.auth_q2_received =
        s.counter("orp_auth_q2_received", "queries at the auth vantage (Q2)");
    b.auth_r1_sent =
        s.counter("orp_auth_r1_sent", "responses from the auth vantage (R1)");
    b.auth_answered = s.counter("orp_auth_answered",
                                "auth responses with a positive answer");
    b.auth_nxdomain = s.counter("orp_auth_nxdomain", "auth NXDomain responses");
    b.auth_refused = s.counter("orp_auth_refused",
                               "auth REFUSED/SERVFAIL responses");
    b.auth_formerr = s.counter("orp_auth_formerr", "undecodable auth queries");
    b.auth_truncated =
        s.counter("orp_auth_truncated", "auth responses truncated (TC=1)");
    b.auth_edns_queries =
        s.counter("orp_auth_edns_queries", "auth queries carrying EDNS OPT");
    b.auth_dnssec_do_queries = s.counter(
        "orp_auth_dnssec_do_queries", "auth queries with the DO bit set");
    b.auth_cluster_loads =
        s.counter("orp_auth_cluster_loads",
                  "zone cluster loads (counts per shard instance)",
                  I::kThreadVariant);
    // Layout-invariant even with tracing on: marked flows stay on the
    // stamped fast path (their span points are recorded around the stamp),
    // so which queries stamp depends only on the wire shape and the reload
    // windows, not on the shard layout's marked-qname set.
    b.auth_template_stamped = s.counter(
        "orp_auth_template_stamped",
        "auth responses stamped from a wire template");
    b.auth_template_fallback = s.counter(
        "orp_auth_template_fallback",
        "auth queries through the full decode/encode path");

    // The *set of sampled permutation indices* is shard-count-invariant (the
    // sampler keys on the global index — pinned by ObsPipeline), but these
    // totals are not: flow keys hash per-shard qnames, so the distinct-flow
    // count and the reuse-driven extra records depend on the shard layout.
    b.trace_flows_sampled =
        s.counter("orp_trace_flows_sampled", "flows selected by the sampler",
                  I::kThreadVariant);
    b.trace_records =
        s.counter("orp_trace_records", "span records appended to the tracer",
                  I::kThreadVariant);

    // Streaming analysis. The classification totals are per-R2 properties
    // (invariant across shard layouts); exemplar churn and the accumulator
    // footprint depend on arrival order and shard count.
    b.analysis_r2_classified = s.counter(
        "orp_analysis_r2_classified", "R2 responses classified at capture");
    b.analysis_r2_incorrect =
        s.counter("orp_analysis_r2_incorrect",
                  "questioned R2s judged incorrect (Table III)");
    b.analysis_r2_malicious = s.counter(
        "orp_analysis_r2_malicious", "incorrect answers in a threat category");
    b.analysis_exemplar_updates =
        s.counter("orp_analysis_exemplar_updates",
                  "canonical-exemplar replacements (arrival-order dependent)",
                  I::kThreadVariant);
    b.analysis_table_bytes =
        s.gauge("orp_analysis_table_bytes",
                "approximate live bytes in a shard's partial tables",
                MergeOp::kMax, I::kThreadVariant);
    return b;
  }();
  return instance;
}

}  // namespace orp::obs
