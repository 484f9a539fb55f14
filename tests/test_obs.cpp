// orp::obs — metrics registry, flow tracer, exporters, campaign telemetry.
//
// Two layers of test: unit tests for the registry/tracer/exporter mechanics
// (bucket-edge semantics, merge determinism, export formats), and pipeline
// integration tests holding the subsystem to the same discipline as
// PipelineSharding — the invariant-tagged metric snapshot and the sampled
// flow set must be byte-identical for every shard count, and turning the
// whole layer on must not move a single bit of the campaign's output.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/report.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "wire_oracle.h"

namespace orp::obs {
namespace {

// ---- metrics registry -------------------------------------------------------

TEST(ObsMetrics, HistogramEdgesAreInclusiveUpperBounds) {
  Schema s;
  const std::uint64_t edges[] = {10, 20};
  const HistogramHandle h = s.histogram("orp_test_hist", "help", edges);
  Metrics m(s);

  m.observe(h, 0);    // <= 10 -> bucket 0
  m.observe(h, 10);   // boundary lands in its own bucket (prometheus `le`)
  m.observe(h, 11);   // bucket 1
  m.observe(h, 20);   // boundary again
  m.observe(h, 21);   // +Inf overflow bucket

  EXPECT_EQ(m.bucket(h, 0), 2u);
  EXPECT_EQ(m.bucket(h, 1), 2u);
  EXPECT_EQ(m.bucket(h, 2), 1u);  // +Inf
  EXPECT_EQ(m.histogram_count(h), 5u);
  EXPECT_EQ(m.histogram_sum(h), 0u + 10 + 11 + 20 + 21);
}

TEST(ObsMetrics, MergeFoldsByRegisteredOpAndIsCommutative) {
  Schema s;
  const CounterHandle c = s.counter("orp_test_counter", "sums");
  const GaugeHandle peak = s.gauge("orp_test_peak", "max", MergeOp::kMax);
  const GaugeHandle low = s.gauge("orp_test_low", "min", MergeOp::kMin);
  const std::uint64_t edges[] = {5};
  const HistogramHandle h = s.histogram("orp_test_hist", "sums", edges);

  Metrics a(s), b(s);
  a.add(c, 3);
  b.add(c, 4);
  a.set(peak, 10);
  b.set(peak, 7);
  a.set(low, 10);
  b.set(low, 7);
  a.observe(h, 1);
  b.observe(h, 9);

  Metrics ab = a;
  ab += b;
  Metrics ba = b;
  ba += a;

  EXPECT_EQ(ab.counter(c), 7u);
  EXPECT_EQ(ab.gauge(peak), 10u);
  EXPECT_EQ(ab.gauge(low), 7u);
  EXPECT_EQ(ab.histogram_count(h), 2u);
  EXPECT_EQ(ab.histogram_sum(h), 10u);
  // Merge result depends only on the operand multiset, not the fold order.
  const auto raw_ab = ab.raw();
  const auto raw_ba = ba.raw();
  ASSERT_EQ(raw_ab.size(), raw_ba.size());
  for (std::size_t i = 0; i < raw_ab.size(); ++i)
    EXPECT_EQ(raw_ab[i], raw_ba[i]) << "slot " << i;
}

TEST(ObsMetrics, DisabledInstanceMergesAsIdentity) {
  Schema s;
  const CounterHandle c = s.counter("orp_test_counter", "help");
  Metrics enabled(s);
  enabled.add(c, 5);

  Metrics inert;  // default-constructed: no schema
  EXPECT_FALSE(inert.enabled());
  enabled += inert;  // no-op
  EXPECT_EQ(enabled.counter(c), 5u);

  inert += enabled;  // adopts the operand wholesale
  EXPECT_TRUE(inert.enabled());
  EXPECT_EQ(inert.counter(c), 5u);
}

TEST(ObsMetrics, BuiltinSchemaRegistersEverySubsystemOnce) {
  const Builtin& b = builtin();
  std::set<std::string> names;
  for (const MetricDef& d : b.schema.defs()) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    EXPECT_EQ(d.name.rfind("orp_", 0), 0u) << d.name;
    EXPECT_FALSE(d.help.empty()) << d.name;
  }
  // One handle per subsystem family must be present.
  EXPECT_EQ(names.count("orp_loop_events_run"), 1u);
  EXPECT_EQ(names.count("orp_loop_batch_size"), 1u);
  EXPECT_EQ(names.count("orp_net_sent"), 1u);
  EXPECT_EQ(names.count("orp_net_delivery_batch_size"), 1u);
  EXPECT_EQ(names.count("orp_net_batch_fallback_singles"), 1u);
  EXPECT_EQ(names.count("orp_scan_q1_sent"), 1u);
  EXPECT_EQ(names.count("orp_resolver_cache_bypass"), 1u);
  EXPECT_EQ(names.count("orp_auth_q2_received"), 1u);
  EXPECT_EQ(names.count("orp_trace_flows_sampled"), 1u);
}

// ---- exporters --------------------------------------------------------------

TEST(ObsExport, PrometheusRendersCumulativeBuckets) {
  Schema s;
  const CounterHandle c = s.counter("orp_test_counter", "a counter");
  const std::uint64_t edges[] = {10, 20};
  const HistogramHandle h = s.histogram("orp_test_hist", "a histogram", edges);
  Metrics m(s);
  m.add(c, 42);
  m.observe(h, 5);
  m.observe(h, 15);
  m.observe(h, 99);

  const std::string text = to_prometheus(m);
  EXPECT_NE(text.find("# HELP orp_test_counter a counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE orp_test_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("orp_test_counter 42\n"), std::string::npos);
  EXPECT_NE(text.find("orp_test_hist_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("orp_test_hist_bucket{le=\"20\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("orp_test_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("orp_test_hist_sum 119\n"), std::string::npos);
  EXPECT_NE(text.find("orp_test_hist_count 3\n"), std::string::npos);
}

TEST(ObsExport, JsonlEmitsOneObjectPerMetric) {
  Schema s;
  s.counter("orp_test_a", "first");
  s.counter("orp_test_b", "second");
  Metrics m(s);
  const std::string jsonl = to_jsonl(m);
  std::size_t lines = 0;
  for (const char ch : jsonl)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("{\"name\":\"orp_test_a\",\"kind\":\"counter\","
                       "\"value\":0}\n"),
            std::string::npos);
}

TEST(ObsExport, InvariantOnlyFiltersVariantMetrics) {
  Schema s;
  s.counter("orp_test_stable", "same for every shard count",
            Invariance::kThreadInvariant);
  s.counter("orp_test_wobbly", "per-shard structure",
            Invariance::kThreadVariant);
  Metrics m(s);
  const std::string all = to_prometheus(m);
  const std::string invariant = to_prometheus(m, /*invariant_only=*/true);
  EXPECT_NE(all.find("orp_test_wobbly"), std::string::npos);
  EXPECT_NE(invariant.find("orp_test_stable"), std::string::npos);
  EXPECT_EQ(invariant.find("orp_test_wobbly"), std::string::npos);
}

TEST(ObsExport, DisabledMetricsExportEmpty) {
  Metrics inert;
  EXPECT_TRUE(to_prometheus(inert).empty());
  EXPECT_TRUE(to_jsonl(inert).empty());
}

// ---- flow tracer ------------------------------------------------------------

TEST(ObsTrace, SamplingIsByGlobalPermutationIndex) {
  const FlowTracer t(/*sample_every=*/8);
  EXPECT_TRUE(t.sample(0));
  EXPECT_FALSE(t.sample(1));
  EXPECT_FALSE(t.sample(7));
  EXPECT_TRUE(t.sample(8));
  EXPECT_TRUE(t.sample(800));
  const FlowTracer off;  // disabled tracer samples nothing
  EXPECT_FALSE(off.sample(0));
}

TEST(ObsTrace, MarkedGatesDownstreamRecords) {
  FlowTracer t(1);
  EXPECT_FALSE(t.marked(0xAA));
  t.begin_flow(0xAA, 16, net::SimTime::seconds(1), 0x01010101);
  EXPECT_TRUE(t.marked(0xAA));
  EXPECT_FALSE(t.marked(0xBB));
  t.record(0xAA, SpanPoint::kR2Received, net::SimTime::seconds(2), 0x01010101);
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].point, SpanPoint::kQ1Sent);
  EXPECT_EQ(t.records()[0].perm_index, 16u);
  EXPECT_EQ(t.records()[1].point, SpanPoint::kR2Received);
  EXPECT_EQ(t.records()[1].perm_index, TraceRecord::kNoIndex);
}

TEST(ObsTrace, MergeThenCanonicalSortIsShardOrderIndependent) {
  const auto build = [](bool reversed) {
    FlowTracer shard_a(4), shard_b(4);
    shard_a.begin_flow(0x2, 4, net::SimTime::seconds(1), 1);
    shard_a.record(0x2, SpanPoint::kR2Received, net::SimTime::seconds(3), 1);
    shard_b.begin_flow(0x1, 8, net::SimTime::seconds(2), 2);
    FlowTracer merged(4);
    if (reversed) {
      merged.merge(std::move(shard_b));
      merged.merge(std::move(shard_a));
    } else {
      merged.merge(std::move(shard_a));
      merged.merge(std::move(shard_b));
    }
    merged.sort_canonical();
    return traces_to_jsonl(merged);
  };
  const std::string forward = build(false);
  EXPECT_EQ(forward, build(true));
  // Canonical order groups by flow, then time.
  EXPECT_LT(forward.find("\"flow\":\"0000000000000001\""),
            forward.find("\"flow\":\"0000000000000002\""));
}

TEST(ObsTrace, TracesJsonlCarriesAllSpanFields) {
  FlowTracer t(1);
  t.begin_flow(0xDEADBEEF, 64, net::SimTime::seconds(1),
               net::IPv4Addr(192, 0, 2, 7).value());
  const std::string line = traces_to_jsonl(t);
  EXPECT_NE(line.find("\"flow\":\"00000000deadbeef\""), std::string::npos);
  EXPECT_NE(line.find("\"perm_index\":64"), std::string::npos);
  EXPECT_NE(line.find("\"point\":\"Q1\""), std::string::npos);
  EXPECT_NE(line.find("\"t_ns\":1000000000"), std::string::npos);
  EXPECT_NE(line.find("\"peer\":\"192.0.2.7\""), std::string::npos);
}

// ---- campaign progress ------------------------------------------------------

TEST(ObsProgress, SnapshotSumsAllBeacons) {
  CampaignProgress progress(3);
  progress.shard(0).probes_sent.store(100, std::memory_order_relaxed);
  progress.shard(1).probes_sent.store(50, std::memory_order_relaxed);
  progress.shard(2).responses.store(7, std::memory_order_relaxed);
  progress.shard(1).events.store(1000, std::memory_order_relaxed);
  progress.shard(2).done.store(1, std::memory_order_relaxed);

  const CampaignProgress::Snapshot s = progress.snapshot();
  EXPECT_EQ(s.probes_sent, 150u);
  EXPECT_EQ(s.responses, 7u);
  EXPECT_EQ(s.events, 1000u);
  EXPECT_EQ(s.shards_done, 1u);
  EXPECT_EQ(s.shards, 3u);

  const std::string line =
      CampaignProgress::render(s, /*probes_expected=*/300, 2.5);
  EXPECT_NE(line.find("150"), std::string::npos);
  EXPECT_NE(line.find("1/3"), std::string::npos);
}

// ---- pipeline integration ---------------------------------------------------

core::PipelineConfig obs_config(unsigned threads) {
  core::PipelineConfig cfg;
  cfg.scale = 16384;
  cfg.seed = 42;
  cfg.threads = threads;
  cfg.obs.metrics = true;
  cfg.obs.trace_sample_every = 64;
  // Exercise the beacon/reporter concurrency too (a couple of [obs] lines
  // on stderr; the TSan preset runs these cases to make a missed
  // happens-before edge loud).
  cfg.obs.progress_interval_s = 0.05;
  return cfg;
}

/// Shared instrumented outcomes so the expensive campaigns run once.
const core::ScanOutcome& instrumented(unsigned threads) {
  static const core::ScanOutcome t1 =
      core::run_measurement(core::paper_2018(), obs_config(1));
  static const core::ScanOutcome t2 =
      core::run_measurement(core::paper_2018(), obs_config(2));
  static const core::ScanOutcome t4 =
      core::run_measurement(core::paper_2018(), obs_config(4));
  return threads == 1 ? t1 : (threads == 2 ? t2 : t4);
}

TEST(ObsPipeline, InstrumentationDoesNotPerturbTheCampaign) {
  core::PipelineConfig plain = obs_config(2);
  plain.obs = obs::ObsConfig{};  // everything off
  const auto [off, off_wire] = core::run_tapped(core::paper_2018(), plain);
  EXPECT_FALSE(off.metrics.enabled());

  // At the matching shard count, the equality is total: the wire digest of
  // every prober-vantage packet (full Q1 and R2 bytes, tests/wire_oracle.h)
  // and the event count match the uninstrumented run bit for bit — the
  // instrumented shard executed the exact same event stream.
  const auto [on2, on2_wire] =
      core::run_tapped(core::paper_2018(), obs_config(2));
  EXPECT_EQ(on2_wire, off_wire);
  EXPECT_EQ(on2.events_executed, off.events_executed);

  // Across shard counts, the thread-invariant surface (behavior digest,
  // scan/auth totals, rendered analysis tables — the PipelineSharding set)
  // matches the one off reference.
  const std::string off_tables =
      analysis::render_answer_table({{"2018", off.analysis.answers}}) +
      analysis::render_flag_table({{"2018", off.analysis.ra}}, "RA") +
      analysis::render_rcode_table({{"2018", off.analysis.rcodes}}) +
      analysis::render_incorrect_table({{"2018", off.analysis.incorrect}});
  for (const unsigned threads : {1u, 2u, 4u}) {
    const core::ScanOutcome& on = instrumented(threads);
    EXPECT_TRUE(on.metrics.enabled());
    EXPECT_EQ(on.capture_digest, off.capture_digest) << threads;
    EXPECT_EQ(on.scan.q1_sent, off.scan.q1_sent) << threads;
    EXPECT_EQ(on.auth.queries_received, off.auth.queries_received) << threads;
    const std::string on_tables =
        analysis::render_answer_table({{"2018", on.analysis.answers}}) +
        analysis::render_flag_table({{"2018", on.analysis.ra}}, "RA") +
        analysis::render_rcode_table({{"2018", on.analysis.rcodes}}) +
        analysis::render_incorrect_table({{"2018", on.analysis.incorrect}});
    EXPECT_EQ(on_tables, off_tables) << threads;
  }
}

TEST(ObsPipeline, MergedMetricsMirrorTheMergedStats) {
  const core::ScanOutcome& o = instrumented(2);
  const Builtin& b = builtin();
  const Metrics& m = o.metrics;
  EXPECT_EQ(m.counter(b.scan_q1_sent), o.scan.q1_sent);
  EXPECT_EQ(m.counter(b.scan_r2_received), o.scan.r2_received);
  EXPECT_EQ(m.counter(b.scan_timeouts_reaped), o.scan.timeouts_reaped);
  EXPECT_EQ(m.counter(b.auth_q2_received), o.auth.queries_received);
  EXPECT_EQ(m.counter(b.auth_r1_sent), o.auth.responses_sent);
  EXPECT_EQ(m.counter(b.auth_cluster_loads), o.auth.cluster_loads);
  EXPECT_EQ(m.counter(b.capture_packets), o.capture.packet_count());
  EXPECT_EQ(m.counter(b.loop_events_run), o.events_executed);
  // Live loop instrumentation agrees with the end-of-run sweep.
  EXPECT_EQ(m.histogram_count(b.loop_time_in_queue_us), o.events_executed);
  EXPECT_GT(m.counter(b.net_delivered), 0u);
  EXPECT_GT(m.counter(b.rate_tokens_granted), 0u);
  // Every probe qname is unique, so the planted recursives never hit their
  // final-answer cache during the campaign — §III-B, now measurable.
  EXPECT_GT(m.counter(b.resolver_cache_bypass), 0u);
}

TEST(ObsPipeline, InvariantMetricSnapshotIdenticalForEveryThreadCount) {
  const std::string ref =
      to_prometheus(instrumented(1).metrics, /*invariant_only=*/true);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(to_prometheus(instrumented(2).metrics, true), ref);
  EXPECT_EQ(to_prometheus(instrumented(4).metrics, true), ref);
  // The JSONL rendering of the same subset is equally stable.
  const std::string ref_jsonl =
      to_jsonl(instrumented(1).metrics, /*invariant_only=*/true);
  EXPECT_EQ(to_jsonl(instrumented(4).metrics, true), ref_jsonl);
}

TEST(ObsPipeline, TraceSamplerPicksTheSameFlowsAtAnyShardCount) {
  // Sampling is keyed to the global permutation index, so the *set* of
  // sampled probe indices is a property of the campaign, not the layout.
  const auto q1_indices = [](const core::ScanOutcome& o) {
    std::set<std::uint64_t> s;
    for (const TraceRecord& r : o.traces.records())
      if (r.point == SpanPoint::kQ1Sent) s.insert(r.perm_index);
    return s;
  };
  const auto ref = q1_indices(instrumented(1));
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(q1_indices(instrumented(2)), ref);
  EXPECT_EQ(q1_indices(instrumented(4)), ref);
}

TEST(ObsPipeline, TracedFlowsTellACoherentStory) {
  const core::ScanOutcome& o = instrumented(2);
  std::uint64_t q1 = 0, q2 = 0, r1 = 0, r2 = 0, tcp = 0;
  for (const TraceRecord& r : o.traces.records()) {
    switch (r.point) {
      case SpanPoint::kQ1Sent: ++q1; break;
      case SpanPoint::kQ2Auth: ++q2; break;
      case SpanPoint::kR1Sent: ++r1; break;
      case SpanPoint::kR2Received: ++r2; break;
      case SpanPoint::kTcpRetry:
      case SpanPoint::kTcpAnswer: ++tcp; break;
    }
  }
  EXPECT_GT(q1, 0u);
  EXPECT_GT(r2, 0u);
  EXPECT_EQ(q2, r1);  // the auth server answers everything it traces
  // The instrumented campaign runs without DoTCP fallback, so no flow may
  // carry a TCP span point.
  EXPECT_EQ(tcp, 0u);
  // Within one flow, spans are time-ordered after the canonical sort: a
  // response can never precede the probe that caused it.
  const auto records = o.traces.records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].flow != records[i - 1].flow) continue;
    EXPECT_LE(records[i - 1].time_ns, records[i].time_ns) << "record " << i;
  }
}

}  // namespace
}  // namespace orp::obs
