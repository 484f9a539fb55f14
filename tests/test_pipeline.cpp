// End-to-end integration tests: population -> simulated Internet -> scan ->
// analysis, checked against the paper's (scaled) numbers. These are the
// tests that certify the repository actually reproduces the study's shapes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "analysis/flow.h"
#include "core/contrast.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "util/rng.h"
#include "wire_oracle.h"

namespace orp::core {
namespace {

constexpr std::uint64_t kScale = 2048;

/// Shared outcome per year so the expensive scans run once per binary.
const ScanOutcome& outcome_2018() {
  static const ScanOutcome o = [] {
    PipelineConfig cfg;
    cfg.scale = kScale;
    cfg.seed = 42;
    return run_measurement(paper_2018(), cfg);
  }();
  return o;
}

const ScanOutcome& outcome_2013() {
  static const ScanOutcome o = [] {
    PipelineConfig cfg;
    cfg.scale = kScale;
    cfg.seed = 42;
    return run_measurement(paper_2013(), cfg);
  }();
  return o;
}

double rel_err(std::uint64_t measured, std::uint64_t expected) {
  if (expected == 0) return measured == 0 ? 0.0 : 1.0;
  return std::abs(static_cast<double>(measured) -
                  static_cast<double>(expected)) /
         static_cast<double>(expected);
}

TEST(Pipeline2018, Q1WithinHalfPercentOfScaledPaper) {
  const auto& o = outcome_2018();
  EXPECT_LT(rel_err(o.scan.q1_sent, o.expect(paper_2018().q1)), 0.005);
}

TEST(Pipeline2018, EveryPlantedHostAnsweredExactlyOnce) {
  const auto& o = outcome_2018();
  // Responders = population spec entries minus the never-respond ones (none
  // in the calibrated spec) — every planted host is probed exactly once.
  EXPECT_EQ(o.scan.r2_received, o.spec.hosts.size());
  EXPECT_EQ(o.scan.r2_matched + o.scan.r2_empty_question, o.scan.r2_received);
}

TEST(Pipeline2018, Q2TracksTableTwoRatio) {
  const auto& o = outcome_2018();
  EXPECT_LT(rel_err(o.auth.queries_received, o.expect(paper_2018().q2_r1)),
            0.05);
  // R1 mirrors Q2 at the auth server.
  EXPECT_EQ(o.auth.queries_received, o.auth.responses_sent);
}

TEST(Pipeline2018, AnswerBreakdownMatchesScaledTableThree) {
  const auto& a = outcome_2018().analysis.answers;
  const auto& o = outcome_2018();
  EXPECT_LT(rel_err(a.correct, o.expect(paper_2018().answers.correct)), 0.02);
  EXPECT_LT(rel_err(a.incorrect, o.expect(paper_2018().answers.incorrect)),
            0.10);
  EXPECT_LT(
      rel_err(a.without_answer, o.expect(paper_2018().answers.without_answer)),
      0.02);
  EXPECT_NEAR(a.err_percent(), paper_2018().answers.err_percent(), 0.8);
}

TEST(Pipeline2018, RaAsymmetryReproduced) {
  const auto& ra = outcome_2018().analysis.ra;
  // Table IV's 2018 signature: answers under RA=0 are overwhelmingly wrong;
  // answers under RA=1 are overwhelmingly right.
  EXPECT_GT(ra.bit0.err_percent(), 75.0);
  EXPECT_LT(ra.bit1.err_percent(), 5.0);
  EXPECT_GT(ra.bit1.correct, ra.bit0.correct * 100);
}

TEST(Pipeline2018, AaAsymmetryReproduced) {
  const auto& aa = outcome_2018().analysis.aa;
  // Table V's 2018 signature: AA=1 answers are ~79% wrong, AA=0 ~0.6%.
  EXPECT_GT(aa.bit1.err_percent(), 60.0);
  EXPECT_LT(aa.bit0.err_percent(), 2.0);
}

TEST(Pipeline2018, RcodeAbnormalCombinationsPresent) {
  const auto& rc = outcome_2018().analysis.rcodes;
  // Refused dominates the no-answer population, per Table VI.
  EXPECT_GT(rc.row(dns::Rcode::kRefused).without_answer,
            rc.row(dns::Rcode::kServFail).without_answer);
  // The paper's anomaly: answers carried by error rcodes.
  EXPECT_GT(rc.error_rcode_with_answer(), 0u);
  // And NoError responses with no answer at all.
  EXPECT_GT(rc.noerror_without_answer(), 0u);
}

TEST(Pipeline2018, IncorrectFormsShapedLikeTableSeven) {
  const auto& inc = outcome_2018().analysis.incorrect;
  EXPECT_GT(inc.ip.r2, inc.url.r2);
  EXPECT_GT(inc.ip.r2, 40u);  // ~54 expected at 1/2048
  EXPECT_EQ(inc.na.r2, 0u);   // undecodable answers are a 2013 phenomenon
}

TEST(Pipeline2018, PaperHeadAddressRanksHighWithAttribution) {
  const auto& top = outcome_2018().analysis.top10;
  ASSERT_FALSE(top.empty());
  // 216.194.64.193 heads Table VIII with ~21% of incorrect answers. In a
  // 1/N subsample the rank-1 slot can be contested by tail noise, but the
  // head must stay in the top ranks with its org/intel attribution intact.
  bool found = false;
  for (std::size_t i = 0; i < top.size() && i < 4; ++i) {
    if (top[i].addr.to_string() != "216.194.64.193") continue;
    found = true;
    EXPECT_EQ(top[i].org, "Tera-byte Dot Com");
    EXPECT_EQ(top[i].reported, 'N');
  }
  EXPECT_TRUE(found);
  // Private-network answers appear among the top entries (Table VIII has 4).
  bool private_seen = false;
  for (const auto& e : top) private_seen |= e.reported == '-';
  EXPECT_TRUE(private_seen);
}

TEST(Pipeline2018, MaliciousAnalysisTracksTablesNineAndTen) {
  const auto& mal = outcome_2018().analysis.malicious;
  const auto& o = outcome_2018();
  EXPECT_LT(rel_err(mal.total_r2, o.expect(paper_2018().malicious_r2)), 0.35);
  // Malware dominates the category mix (86% of malicious R2 in Table IX).
  EXPECT_GE(mal.categories[0].r2, mal.total_r2 / 2);
  // Table X: malicious responses skew RA=0 and AA=1, all NoError.
  EXPECT_GT(mal.ra0, mal.ra1);
  EXPECT_GT(mal.aa1, mal.aa0);
  EXPECT_EQ(mal.rcode_noerror, mal.total_r2);
}

TEST(Pipeline2018, GeoDistributionUsDominant) {
  const auto& geo = outcome_2018().analysis.geo;
  ASSERT_FALSE(geo.countries.empty());
  EXPECT_EQ(geo.countries[0].country, "US");
  EXPECT_GE(geo.countries[0].share(geo.total), 60.0);
}

TEST(Pipeline2018, EmptyQuestionPopulationObserved) {
  const auto& eq = outcome_2018().analysis.empty_question;
  EXPECT_GE(eq.total, 1u);  // 494/4096 floors to the guaranteed representative
  EXPECT_EQ(eq.correct, 0u);
}

TEST(Pipeline2018, ClusterReuseKeepsZoneLoadsSmall) {
  const auto& o = outcome_2018();
  // Theoretical clusters without reuse: raw_steps/cluster_size ~ 860.
  EXPECT_GT(o.spec.raw_steps / o.spec.cluster_size, 500u);
  EXPECT_LT(o.cluster_loads, 12u);
  EXPECT_GT(o.clusters.subdomains_reused, o.scan.q1_sent / 2);
}

TEST(Pipeline2018, SimulatedDurationNearPaperDuration) {
  // 3.7B/scale probes at 100k/scale pps ~ 10.3h + drain window.
  const double hours = outcome_2018().sim_duration_seconds / 3600.0;
  EXPECT_GT(hours, 9.5);
  EXPECT_LT(hours, 11.5);
}

TEST(Pipeline2013, HeadlinesMatchScaledPaper) {
  const auto& o = outcome_2013();
  EXPECT_LT(rel_err(o.scan.q1_sent, o.expect(paper_2013().q1)), 0.005);
  EXPECT_LT(rel_err(o.scan.r2_received, o.expect(paper_2013().r2)), 0.01);
  EXPECT_LT(rel_err(o.auth.queries_received, o.expect(paper_2013().q2_r1)),
            0.05);
  EXPECT_NEAR(o.analysis.answers.err_percent(),
              paper_2013().answers.err_percent(), 0.4);
}

TEST(Pipeline2013, UndecodableAnswersAppearOnlyIn2013) {
  EXPECT_GT(outcome_2013().analysis.incorrect.na.r2, 0u);
}

TEST(Pipeline2013, DurationScalesToTheWeekLongScan) {
  const double days = outcome_2013().sim_duration_seconds / 86400.0;
  EXPECT_GT(days, 6.5);
  EXPECT_LT(days, 8.0);
}

TEST(Contrast, MeasuredScansReproduceTheHeadlineClaims) {
  const TemporalContrast c =
      contrast(outcome_2013().analysis, outcome_2018().analysis);
  EXPECT_TRUE(c.open_resolvers_decreased());
  EXPECT_TRUE(c.error_rate_increased());
  EXPECT_TRUE(c.malicious_increased());
  EXPECT_TRUE(c.incorrect_roughly_stable(0.30));
}

TEST(Pipeline, DeterministicForSameSeed) {
  PipelineConfig cfg;
  cfg.scale = 65536;
  cfg.seed = 7;
  const ScanOutcome a = run_measurement(paper_2018(), cfg);
  const ScanOutcome b = run_measurement(paper_2018(), cfg);
  EXPECT_EQ(a.scan.q1_sent, b.scan.q1_sent);
  EXPECT_EQ(a.scan.r2_received, b.scan.r2_received);
  EXPECT_EQ(a.auth.queries_received, b.auth.queries_received);
  EXPECT_EQ(a.analysis.answers.correct, b.analysis.answers.correct);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Pipeline, ZeroScaleIsRejected) {
  // Scale 0 would silently run the full 3.7B-probe campaign and leave
  // ScanOutcome::expect dividing by zero; it is refused before any work.
  PipelineConfig cfg;
  cfg.scale = 0;
  EXPECT_THROW(run_measurement(paper_2018(), cfg), std::invalid_argument);
}

TEST(Pipeline, SeedChangesAddressesNotAggregates) {
  PipelineConfig cfg;
  cfg.scale = 65536;
  cfg.seed = 7;
  const ScanOutcome a = run_measurement(paper_2018(), cfg);
  cfg.seed = 8;
  const ScanOutcome b = run_measurement(paper_2018(), cfg);
  // The population is calibrated, not sampled: aggregates are seed-invariant
  // up to zone-rotation boundary races (a subdomain reused from the previous
  // cluster can draw NXDomain if a second rotation lands mid-recursion —
  // ~1 packet per scan, a noise floor the real pipeline shares).
  EXPECT_EQ(a.scan.r2_received, b.scan.r2_received);
  EXPECT_NEAR(static_cast<double>(a.analysis.answers.correct),
              static_cast<double>(b.analysis.answers.correct), 2.0);
  EXPECT_NEAR(static_cast<double>(a.analysis.answers.incorrect),
              static_cast<double>(b.analysis.answers.incorrect), 2.0);
  // But the scan order / planted addresses differ.
  EXPECT_NE(a.scan.q1_sent, b.scan.q1_sent);
}

// ---- Sharding ---------------------------------------------------------------

/// Every paper table rendered into one comparable string.
std::string rendered_tables(const ScanOutcome& o) {
  std::string s;
  s += analysis::render_answer_table({{"measured", o.analysis.answers}});
  s += analysis::render_flag_table({{"measured", o.analysis.ra}}, "RA");
  s += analysis::render_flag_table({{"measured", o.analysis.aa}}, "AA");
  s += analysis::render_rcode_table({{"measured", o.analysis.rcodes}});
  s += analysis::render_incorrect_table({{"measured", o.analysis.incorrect}});
  s += analysis::render_top10_table(o.analysis.top10);
  s += analysis::render_malicious_table({{"measured", o.analysis.malicious}});
  s += analysis::render_malicious_flags_table(
      {{"measured", o.analysis.malicious}});
  s += analysis::render_geo_summary(o.analysis.geo);
  s += analysis::render_empty_question_summary(o.analysis.empty_question);
  return s;
}

TEST(PipelineSharding, MergedReportIdenticalForEveryThreadCount) {
  PipelineConfig base;
  base.scale = 16384;
  base.seed = 42;
  base.threads = 1;
  const ScanOutcome ref = run_measurement(paper_2018(), base);
  const std::string ref_tables = rendered_tables(ref);
  ASSERT_GT(ref.scan.r2_received, 100u);
  ASSERT_NE(ref.capture_digest, 0u);

  for (const unsigned threads : {2u, 4u, 8u}) {
    PipelineConfig cfg = base;
    cfg.threads = threads;
    const ScanOutcome o = run_measurement(paper_2018(), cfg);
    EXPECT_EQ(o.threads_used, threads);

    // Scan-side counters partition exactly across shard slices.
    EXPECT_EQ(o.scan.q1_sent, ref.scan.q1_sent) << threads;
    EXPECT_EQ(o.scan.skipped_reserved, ref.scan.skipped_reserved) << threads;
    EXPECT_EQ(o.scan.skipped_overflow, ref.scan.skipped_overflow) << threads;
    EXPECT_EQ(o.scan.r2_received, ref.scan.r2_received) << threads;
    EXPECT_EQ(o.scan.r2_matched, ref.scan.r2_matched) << threads;
    EXPECT_EQ(o.scan.r2_empty_question, ref.scan.r2_empty_question) << threads;
    EXPECT_EQ(o.scan.r2_unmatched, ref.scan.r2_unmatched) << threads;
    EXPECT_EQ(o.scan.timeouts_reaped, ref.scan.timeouts_reaped) << threads;

    // Auth-vantage counters: one AuthServer instance per shard, summed
    // (cluster_loads is deliberately excluded: each instance performs its
    // own initial load, so it counts S, not 1 — see DESIGN.md §3).
    EXPECT_EQ(o.auth.queries_received, ref.auth.queries_received) << threads;
    EXPECT_EQ(o.auth.responses_sent, ref.auth.responses_sent) << threads;
    EXPECT_EQ(o.auth.answered, ref.auth.answered) << threads;
    EXPECT_EQ(o.auth.nxdomain, ref.auth.nxdomain) << threads;
    EXPECT_EQ(o.auth.refused, ref.auth.refused) << threads;
    EXPECT_EQ(o.auth.edns_queries, ref.auth.edns_queries) << threads;
    EXPECT_EQ(o.auth.dnssec_do_queries, ref.auth.dnssec_do_queries) << threads;

    // Identical behavior, whatever shard each response landed in.
    EXPECT_EQ(o.capture_digest, ref.capture_digest) << threads;
    EXPECT_EQ(o.capture.packet_count(), ref.capture.packet_count()) << threads;

    // The headline requirement: byte-identical rendered tables.
    EXPECT_EQ(rendered_tables(o), ref_tables) << "threads=" << threads;
    // The §V private-redirect summary is not rendered into any table.
    const analysis::PrivateRedirectSummary& p = o.analysis.private_redirects;
    const analysis::PrivateRedirectSummary& q = ref.analysis.private_redirects;
    EXPECT_EQ(p.r2, q.r2) << threads;
    EXPECT_EQ(p.unique_ips, q.unique_ips) << threads;
    EXPECT_EQ(p.rfc1918, q.rfc1918) << threads;
    EXPECT_EQ(p.cgn, q.cgn) << threads;
  }
}

TEST(PipelineSharding, WireTemplatesAreBehaviorInvisible) {
  // The template-stamped wire path is a pure encoding shortcut: with the
  // knob on or off, under packet loss (which exercises reap + reuse, whose
  // order feeds future qnames) and across thread counts, the wire digest of
  // every prober-vantage packet (this is the test that pins the stamped Q1
  // bytes to the full encoder's, tests/wire_oracle.h), the behavioral
  // digest, and the rendered tables must be bit-identical. Only the
  // template_* counters may move.
  PipelineConfig base;
  base.scale = 16384;
  base.seed = 42;
  base.loss_rate = 0.02;  // loss + the latency model's jitter
  base.wire_templates = false;  // reference: the full encode path

  for (const unsigned threads : {1u, 4u}) {
    // Each thread count gets its own reference run: loss draws come from
    // per-shard RNG streams, so a lossy campaign is only reproducible at a
    // fixed shard layout (the loss-free invariance across thread counts is
    // MergedReportIdenticalForEveryThreadCount's job).
    PipelineConfig thr = base;
    thr.threads = threads;
    const auto [ref, wire_ref] = run_tapped(paper_2018(), thr);
    const std::string ref_tables = rendered_tables(ref);
    ASSERT_GT(ref.scan.r2_received, 100u) << threads;
    ASSERT_GT(ref.scan.timeouts_reaped, 0u) << threads;  // loss bites
    ASSERT_NE(ref.capture_digest, 0u) << threads;
    EXPECT_EQ(ref.scan.template_stamped, 0u) << threads;
    EXPECT_EQ(ref.auth.template_stamped, 0u) << threads;
    PipelineConfig cfg = thr;
    cfg.wire_templates = true;
    const auto [o, wire] = run_tapped(paper_2018(), cfg);
    EXPECT_EQ(o.scan.q1_sent, ref.scan.q1_sent) << threads;
    EXPECT_EQ(o.scan.r2_received, ref.scan.r2_received) << threads;
    EXPECT_EQ(o.scan.timeouts_reaped, ref.scan.timeouts_reaped) << threads;
    EXPECT_EQ(o.auth.queries_received, ref.auth.queries_received) << threads;
    EXPECT_EQ(wire, wire_ref) << threads;
    EXPECT_EQ(o.capture_digest, ref.capture_digest) << threads;
    EXPECT_EQ(rendered_tables(o), ref_tables) << threads;
    // The fast paths must actually engage — otherwise this test proves
    // nothing about them.
    EXPECT_GT(o.scan.template_stamped, 0u) << threads;
    EXPECT_GT(o.auth.template_stamped, 0u) << threads;
    EXPECT_EQ(o.scan.template_stamped + o.scan.template_fallback,
              o.scan.q1_sent)
        << threads;
  }
}

TEST(PipelineSharding, TcpFallbackSweepIsPinned) {
  // The stream transport rides the same sharded event loops as the datagram
  // path: with a truncating UDP budget and DoTCP fallback enabled, every
  // thread count must produce byte-identical rendered tables, the same
  // behavioral digest, and the same fallback counters — and the fallback
  // must actually engage, or the sweep proves nothing.
  PipelineConfig base;
  base.scale = 16384;
  base.seed = 42;
  base.threads = 1;
  base.udp_limit = 64;
  base.tcp_fallback = true;
  const ScanOutcome ref = run_measurement(paper_2018(), base);
  const std::string ref_tables = rendered_tables(ref);
  ASSERT_GT(ref.scan.r2_received, 100u);
  ASSERT_GT(ref.scan.tc_seen, 0u);
  ASSERT_GT(ref.scan.tcp_retries, 0u);
  ASSERT_GT(ref.scan.tcp_answers, 0u);
  ASSERT_NE(ref.capture_digest, 0u);

  for (const unsigned threads : {1u, 4u}) {
    PipelineConfig cfg = base;
    cfg.threads = threads;
    const ScanOutcome o = run_measurement(paper_2018(), cfg);
    EXPECT_EQ(o.scan.q1_sent, ref.scan.q1_sent) << "threads=" << threads;
    EXPECT_EQ(o.scan.r2_received, ref.scan.r2_received)
        << "threads=" << threads;
    EXPECT_EQ(o.scan.tc_seen, ref.scan.tc_seen) << "threads=" << threads;
    EXPECT_EQ(o.scan.tcp_retries, ref.scan.tcp_retries)
        << "threads=" << threads;
    EXPECT_EQ(o.scan.tcp_answers, ref.scan.tcp_answers)
        << "threads=" << threads;
    EXPECT_EQ(o.scan.tcp_failures, ref.scan.tcp_failures)
        << "threads=" << threads;
    EXPECT_EQ(o.capture_digest, ref.capture_digest) << "threads=" << threads;
    EXPECT_EQ(rendered_tables(o), ref_tables) << "threads=" << threads;
  }

  // Differential control: the same truncating budget without the fallback
  // classifies the TC=1 stubs themselves — a genuinely different campaign.
  PipelineConfig off = base;
  off.tcp_fallback = false;
  const ScanOutcome o_off = run_measurement(paper_2018(), off);
  EXPECT_EQ(o_off.scan.tc_seen, 0u);
  EXPECT_EQ(o_off.scan.tcp_retries, 0u);
  EXPECT_NE(o_off.capture_digest, ref.capture_digest);
}

TEST(PipelineSharding, StreamingAnalysisIsExact) {
  // The one analysis path (classify at capture, merge partial tables,
  // retain nothing) against goldens frozen from the retired whole-campaign
  // pass: before that pass was deleted it was run at seed 42, scale
  // 1/32768 for each campaign below, and the streaming path gave the same
  // capture digest and rendered-table hash in every configuration swept
  // here. Loss-free 2018 campaigns are invariant across thread counts;
  // lossy ones draw loss from per-shard streams, so each thread count has
  // its own golden. 2013 is pinned at threads=1 only: its 1- and 4-shard
  // outputs still differ (an open cross-shard divergence).
  struct Golden {
    int year;
    double loss;
    unsigned threads;
    std::uint64_t digest;  // ScanOutcome::capture_digest
    std::uint64_t tables;  // fnv1a64(rendered_tables)
    std::uint64_t r2;      // ScanStats::r2_received
    // The §V private-redirect summary (rendered into no table).
    std::uint64_t priv;        // private_redirects.r2
    std::uint64_t priv_ips;    // private_redirects.unique_ips
    std::uint64_t priv_1918;   // private_redirects.rfc1918
    std::uint64_t priv_cgn;    // private_redirects.cgn
  };
  constexpr Golden kGoldens[] = {
      {2018, 0.0, 1, 0x928519a14b2a9fcbULL, 0xf5bb42479d66a6dbULL, 200, 4, 4,
       4, 0},
      {2018, 0.0, 4, 0x928519a14b2a9fcbULL, 0xf5bb42479d66a6dbULL, 200, 4, 4,
       4, 0},
      {2018, 0.02, 1, 0x96e96b3dc795a0b3ULL, 0x86d28deddfc3a56cULL, 192, 4, 4,
       4, 0},
      {2018, 0.02, 4, 0x380d3d41aa23b2fdULL, 0x60a3d7d53aa83227ULL, 191, 4, 4,
       4, 0},
      {2013, 0.0, 1, 0x0fd2ba116cd1d721ULL, 0xe0df423af359ac6aULL, 508, 2, 2,
       2, 0},
  };
  for (const Golden& g : kGoldens) {
    for (const bool templates : {true, false}) {
      PipelineConfig cfg;
      cfg.scale = 32768;
      cfg.seed = 42;
      cfg.loss_rate = g.loss;
      cfg.threads = g.threads;
      cfg.wire_templates = templates;
      const ScanOutcome o = run_measurement(
          g.year == 2013 ? paper_2013() : paper_2018(), cfg);
      const auto tag = [&]() {
        return std::to_string(g.year) + " loss=" + std::to_string(g.loss) +
               " threads=" + std::to_string(g.threads) +
               " tpl=" + std::to_string(templates);
      };
      EXPECT_EQ(o.capture_digest, g.digest) << tag();
      EXPECT_EQ(util::fnv1a64(rendered_tables(o)), g.tables) << tag();
      EXPECT_EQ(o.scan.r2_received, g.r2) << tag();
      const analysis::PrivateRedirectSummary& p = o.analysis.private_redirects;
      EXPECT_EQ(p.r2, g.priv) << tag();
      EXPECT_EQ(p.unique_ips, g.priv_ips) << tag();
      EXPECT_EQ(p.rfc1918, g.priv_1918) << tag();
      EXPECT_EQ(p.cgn, g.priv_cgn) << tag();
      // With the DoTCP fallback off, the scanner classifies each received
      // R2 exactly once, so the tables count every one of them.
      EXPECT_EQ(o.analysis.r2_total, o.scan.r2_received) << tag();
      // The prober vantage sees each Q1 leave and each R2 arrive. Taps run
      // before loss, so a lossy campaign also sees R2s that never arrive.
      if (g.loss == 0.0) {
        EXPECT_EQ(o.capture.packet_count(),
                  o.scan.q1_sent + o.scan.r2_received)
            << tag();
      } else {
        EXPECT_GE(o.capture.packet_count(),
                  o.scan.q1_sent + o.scan.r2_received)
            << tag();
      }
    }
  }
}

TEST(PipelineSharding, ShardedRunIsDeterministic) {
  PipelineConfig cfg;
  cfg.scale = 65536;
  cfg.seed = 7;
  cfg.threads = 4;
  const auto [a, a_wire] = run_tapped(paper_2018(), cfg);
  const auto [b, b_wire] = run_tapped(paper_2018(), cfg);
  // Same thread count, same seed: identical down to the wire digest (which,
  // unlike capture_digest, folds the full bytes of every Q1 and R2).
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a_wire, b_wire);
  EXPECT_EQ(a.capture_digest, b.capture_digest);
  EXPECT_EQ(a.scan.q1_sent, b.scan.q1_sent);
}

TEST(PipelineSharding, ShardContextOnlyStreams) {
  // The two mode flags survive for positional callers; any combination
  // other than streaming without retention is refused.
  const PopulationSpec spec = build_population(paper_2018(), 65536, 7);
  InternetConfig net_config;
  net_config.seed = 7;
  const InternetPlan plan = plan_internet(spec, net_config);
  const prober::ScanConfig sc;
  for (const auto& [streaming, retain] :
       {std::pair{false, false}, std::pair{true, true},
        std::pair{false, true}}) {
    EXPECT_THROW(ShardContext(spec, net_config, plan, 0, 1, sc, {}, nullptr,
                              streaming, retain),
                 std::invalid_argument)
        << streaming << retain;
  }
}

TEST(PipelineSharding, RetiredBatchCapsAreRejected) {
  // The loop fires one event at a time and every datagram is its own
  // delivery event, so a nonzero batch-dispatch cap has nothing to apply to.
  // It is refused rather than silently ignored, from the internet
  // constructor and through run_measurement alike.
  const PopulationSpec spec = build_population(paper_2018(), 65536, 7);
  for (const auto& [loop_cap, group_cap] :
       {std::pair{std::size_t{1}, std::size_t{0}},
        std::pair{std::size_t{0}, std::size_t{64}}}) {
    InternetConfig net_config;
    net_config.seed = 7;
    net_config.loop_batch_cap = loop_cap;
    net_config.delivery_group_cap = group_cap;
    EXPECT_THROW(SimulatedInternet(spec, net_config), std::invalid_argument)
        << loop_cap << "/" << group_cap;
    PipelineConfig cfg;
    cfg.scale = 65536;
    cfg.seed = 7;
    cfg.loop_batch_cap = loop_cap;
    cfg.delivery_group_cap = group_cap;
    EXPECT_THROW(run_measurement(paper_2018(), cfg), std::invalid_argument)
        << loop_cap << "/" << group_cap;
  }
}

TEST(PipelineSharding, ThreadCountCappedByRawSteps) {
  PipelineConfig cfg;
  cfg.scale = 65536;
  cfg.seed = 7;
  cfg.threads = 0;  // normalized up to 1
  const ScanOutcome o = run_measurement(paper_2018(), cfg);
  EXPECT_EQ(o.threads_used, 1u);
}

}  // namespace
}  // namespace orp::core
