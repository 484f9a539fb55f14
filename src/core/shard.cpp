#include "core/shard.h"

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
      retain_r2_(retain_r2) {
  capture_.attach(internet_.network(), internet_.prober_address());
  capture_.set_retain_payloads(retain_r2_);
  scanner_.set_retain_responses(retain_r2_);
  scanner_.set_rotate_callback([this](std::uint32_t cluster) {
    internet_.auth().load_cluster(cluster);
  });

  // Capture-time classification: the shard's IntelBundle is built from
  // campaign-global inputs only (see internet_builder.cpp), so per-shard
  // lookups are identical to the post-hoc pass over the merged views.
  if (streaming) {
    analyzer_ = std::make_unique<analysis::StreamingAnalyzer>(
        internet_.scheme(), internet_.threats(), internet_.geo(),
        internet_.orgs());
    scanner_.set_r2_sink(analyzer_.get());
  }

  const ShardSlice slice = shard_slice(spec.raw_steps, shard_id, shard_count);
  if (retain_r2_) {
    // Pin steady-state storage from the campaign plan: the hosts planted in
    // this shard's permutation slice bound how many R2 responses the
    // scanner and capture vantage can retain, so the record vectors and
    // payload arena never reallocate mid-scan. The streaming path retains
    // nothing, so it skips the reservations entirely.
    std::size_t planted = 0;
    for (const PlannedHost& h : plan.hosts)
      if (slice.contains(h.perm_index)) ++planted;
    // Responders answer roughly once each; x2 covers retries/truncation
    // retransmits, and ~256 wire bytes covers a typical R2.
    capture_.reserve(planted * 2, planted * 256);
    scanner_.reserve_responses(planted * 2);
  }

  obs_.beacon = beacon;
  if (obs_.metrics.enabled()) {
    internet_.loop().set_metrics(&obs_.metrics);
    internet_.network().set_metrics(&obs_.metrics);
  }
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
  if (retain_r2_)
    result.views =
        analysis::classify_all(scanner_.responses(), internet_.scheme());
  if (obs_.metrics.enabled()) collect_metrics();
  if (analyzer_ != nullptr) result.tables = std::move(analyzer_->tables());
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
  m.add(b.net_batch_fallback_singles, net.batch_fallback_singles());

  const net::BufferPool& pool = internet_.network().pool();
  m.set_max(b.pool_slabs, pool.slab_count());
  m.set_max(b.pool_slabs_free, pool.free_count());
  m.add(b.pool_recycled, pool.recycled_count());

  m.add(b.capture_packets, capture_.packet_count());
  m.add(b.capture_retained, capture_.retained_count());
  m.add(b.capture_arena_bytes, capture_.arena_bytes());

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

  for (const auto& host : internet_.hosts()) {
    const resolver::HostStats& hs = host->stats();
    m.add(b.resolver_queries, hs.queries);
    m.add(b.resolver_responses, hs.responses);
    m.add(b.resolver_recursions, hs.recursions);
    m.add(b.resolver_forwarded, hs.forwarded);
    m.add(b.resolver_truncated, hs.truncated);
    m.add(b.resolver_rrl_dropped, hs.rrl_dropped);
    m.add(b.resolver_rrl_slipped, hs.rrl_slipped);
    m.add(b.resolver_template_stamped, hs.template_stamped);
    m.add(b.resolver_template_fallback, hs.template_fallback);
    if (const resolver::IterativeEngine* eng = host->engine()) {
      m.add(b.resolver_cache_bypass, eng->cache_bypasses());
      m.add(b.resolver_upstream_queries, eng->upstream_queries());
    }
  }

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

  if (analyzer_ != nullptr) {
    const analysis::PartialTables& t = analyzer_->tables();
    m.add(b.analysis_r2_classified, t.r2_total);
    m.add(b.analysis_r2_incorrect, t.answers.incorrect);
    m.add(b.analysis_r2_malicious, t.mal_r2);
    m.add(b.analysis_exemplar_updates, t.exemplar_updates);
    m.set_max(b.analysis_table_bytes, t.footprint_bytes());
  }
}

}  // namespace orp::core
