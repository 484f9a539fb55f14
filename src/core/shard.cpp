#include "core/shard.h"

#include <stdexcept>

namespace orp::core {

namespace {

prober::ScanConfig slice_config(const prober::ScanConfig& campaign,
                                std::uint64_t total_raw,
                                std::uint32_t shard_id,
                                std::uint32_t shard_count) {
  prober::ScanConfig cfg = campaign;
  const ShardSlice slice = shard_slice(total_raw, shard_id, shard_count);
  cfg.first_index = slice.begin;
  cfg.raw_steps = slice.size();
  // Splitting the send rate keeps each shard's slice spanning the same
  // simulated campaign duration as the unsharded scan.
  cfg.rate_pps = campaign.rate_pps / shard_count;
  return cfg;
}

}  // namespace

ShardContext::ShardContext(const PopulationSpec& spec,
                           const InternetConfig& net_config,
                           const InternetPlan& plan, std::uint32_t shard_id,
                           std::uint32_t shard_count,
                           const prober::ScanConfig& scan_config,
                           const obs::ObsConfig& obs_config,
                           obs::ShardBeacon* beacon, bool streaming,
                           bool retain_r2)
    : internet_(spec, net_config, plan, shard_id, shard_count),
      scanner_(internet_.network(), internet_.prober_address(),
               slice_config(scan_config, spec.raw_steps, shard_id,
                            shard_count),
               internet_.scheme(), &internet_.codec_scratch()),
      obs_(obs_config),
      analyzer_(internet_.scheme(), internet_.threats(), internet_.geo(),
                internet_.orgs()) {
  // Both flags stay for positional callers; only (true, false) still runs.
  if (!streaming || retain_r2)
    throw std::invalid_argument("ShardContext: only streaming=true, "
                                "retain_r2=false is supported");
  capture_.attach(internet_.network(), internet_.prober_address());
  scanner_.set_rotate_callback([this](std::uint32_t cluster) {
    internet_.auth().load_cluster(cluster);
  });
  // Just-in-time hosts: each send batch builds the hosts its probes target,
  // and each reap tick retires the ones whose window has passed and that
  // nothing can call into any more.
  scanner_.set_advance_callback([this](std::uint64_t end_index) {
    internet_.build_hosts_below(end_index);
  });
  scanner_.set_reap_callback([this](net::SimTime probed_by) {
    internet_.retire_quiescent(probed_by);
  });
  // Capture-time classification: the shard's IntelBundle is built from
  // campaign-global inputs only (see internet_builder.cpp), so per-shard
  // lookups agree with the campaign-level finalize.
  scanner_.set_r2_callback([this](net::SimTime t, net::IPv4Addr from,
                                  std::span<const std::uint8_t> payload) {
    analyzer_.on_r2(t, from, payload);
  });

  const ShardSlice slice = shard_slice(spec.raw_steps, shard_id, shard_count);

  obs_.beacon = beacon;
  if (obs_.metrics.enabled()) internet_.loop().set_metrics(&obs_.metrics);
  if (beacon != nullptr) internet_.loop().set_progress_beacon(&beacon->events);
  obs::FlowTracer* tracer = obs_.tracer.enabled() ? &obs_.tracer : nullptr;
  if (tracer != nullptr) {
    // Pin the trace arena's allocation budget up front: this shard samples
    // at most slice/sample_every flows, each contributing <= 4 span points
    // (Q1 reuse can add more; the vector doubles gracefully if so).
    const std::size_t flows =
        static_cast<std::size_t>(slice.size() / obs_.tracer.sample_every() + 1);
    tracer->reserve(flows, flows * 4);
  }
  scanner_.set_obs(tracer, beacon);
  internet_.auth().set_obs(tracer);
}

ShardResult ShardContext::run() {
  scanner_.start({});
  internet_.loop().run();

  ShardResult result;
  result.scan = scanner_.stats();
  result.auth = internet_.auth().stats();
  result.clusters = scanner_.clusters().stats();
  result.events_executed = internet_.loop().executed();
  if (obs_.metrics.enabled()) collect_metrics();
  result.tables = std::move(analyzer_.tables());
  result.capture = std::move(capture_);
  result.metrics = std::move(obs_.metrics);
  result.traces = std::move(obs_.tracer);
  return result;
}

void ShardContext::collect_metrics() {
  const obs::Builtin& b = obs::builtin();
  obs::Metrics& m = obs_.metrics;

  const net::Network& net = internet_.network();
  m.add(b.net_sent, net.sent());
  m.add(b.net_delivered, net.delivered());
  m.add(b.net_dropped_loss, net.dropped_loss());
  m.add(b.net_dropped_unbound, net.dropped_unbound());

  const net::BufferPool& pool = internet_.network().pool();
  m.set_max(b.pool_slabs, pool.slab_count());
  m.set_max(b.pool_slabs_free, pool.free_count());
  m.add(b.pool_recycled, pool.recycled_count());

  m.add(b.capture_packets, capture_.packet_count());

  const prober::ScanStats& s = scanner_.stats();
  m.add(b.scan_q1_sent, s.q1_sent);
  m.add(b.scan_r2_received, s.r2_received);
  m.add(b.scan_r2_matched, s.r2_matched);
  m.add(b.scan_r2_empty_question, s.r2_empty_question);
  m.add(b.scan_r2_unmatched, s.r2_unmatched);
  m.add(b.scan_timeouts_reaped, s.timeouts_reaped);
  m.add(b.scan_skipped_reserved, s.skipped_reserved);
  m.add(b.scan_skipped_overflow, s.skipped_overflow);
  m.set_max(b.scan_outstanding_peak, scanner_.peak_outstanding());
  m.add(b.scan_template_stamped, s.template_stamped);
  m.add(b.scan_template_fallback, s.template_fallback);
  m.add(b.tcp_tc_seen, s.tc_seen);
  m.add(b.tcp_retries, s.tcp_retries);
  m.add(b.tcp_answers, s.tcp_answers);
  m.add(b.tcp_failures, s.tcp_failures);
  m.add(b.tcp_duplicate_r2, s.tcp_duplicate_r2);
  m.add(b.rate_tokens_granted, scanner_.limiter().granted());
  m.add(b.rate_deferred, scanner_.limiter().deferred());

  // Live and retired hosts alike: a retired host's counters were banked.
  const SimulatedInternet::ResolverTotals r = internet_.resolver_totals();
  m.add(b.resolver_queries, r.stats.queries);
  m.add(b.resolver_responses, r.stats.responses);
  m.add(b.resolver_recursions, r.stats.recursions);
  m.add(b.resolver_forwarded, r.stats.forwarded);
  m.add(b.resolver_truncated, r.stats.truncated);
  m.add(b.resolver_rrl_dropped, r.stats.rrl_dropped);
  m.add(b.resolver_rrl_slipped, r.stats.rrl_slipped);
  m.add(b.resolver_template_stamped, r.stats.template_stamped);
  m.add(b.resolver_template_fallback, r.stats.template_fallback);
  m.add(b.resolver_cache_bypass, r.cache_bypasses);
  m.add(b.resolver_upstream_queries, r.upstream_queries);

  const authns::AuthStats& a = internet_.auth().stats();
  m.add(b.auth_q2_received, a.queries_received);
  m.add(b.auth_r1_sent, a.responses_sent);
  m.add(b.auth_answered, a.answered);
  m.add(b.auth_nxdomain, a.nxdomain);
  m.add(b.auth_refused, a.refused);
  m.add(b.auth_formerr, a.formerr);
  m.add(b.auth_truncated, a.truncated);
  m.add(b.auth_edns_queries, a.edns_queries);
  m.add(b.auth_dnssec_do_queries, a.dnssec_do_queries);
  m.add(b.auth_cluster_loads, a.cluster_loads);
  m.add(b.auth_template_stamped, a.template_stamped);
  m.add(b.auth_template_fallback, a.template_fallback);

  m.add(b.trace_flows_sampled, obs_.tracer.flow_count());
  m.add(b.trace_records, obs_.tracer.records().size());

  const analysis::PartialTables& t = analyzer_.tables();
  m.add(b.analysis_r2_classified, t.r2_total);
  m.add(b.analysis_r2_incorrect, t.answers.incorrect);
  m.add(b.analysis_r2_malicious, t.mal_r2);
  m.add(b.analysis_exemplar_updates, t.exemplar_updates);
  m.set_max(b.analysis_table_bytes, t.footprint_bytes());
}

}  // namespace orp::core
