// Census benchmark runner: runs ZMap-style census campaigns through the
// public pipeline API and prints one JSON object per line on stdout. The
// Python harness (run.py) aggregates, checks and reports them.
//
//   census_bench --mode campaigns --year Y --scale N --seed S --threads T
//                --seconds X [--setup-share F] [--min-campaigns M]
//     Untraced core::run_measurement campaigns (obs off) until X seconds
//     have been spent, at least M of them. Before each campaign it times
//     set-ups (population + plan + shard construction, obs off, timed from
//     outside) for F times the previous campaign's wall time, at least one.
//     Ends with the process peak RSS.
//
//   census_bench --mode trace --year Y --scale N --seed S --threads T
//                --seconds X
//     Interleaved pairs of an untraced run_measurement campaign (obs off)
//     and a traced replica (obs.metrics on) that makes the same public calls
//     as run_measurement one at a time, with a span around each. The pair
//     order alternates so neither side always runs on a warmer heap.
//
// Every campaign record carries the counters the accounting identities
// need, the behavior digest and a hash of every rendered paper table, so
// the harness can check the outputs of each timed campaign.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "analysis/streaming.h"
#include "core/internet_builder.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "core/population.h"
#include "core/shard.h"
#include "obs/metrics.h"
#include "util/rng.h"

#ifndef ORP_BENCH_BUILD_TYPE
#define ORP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace orp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

struct Args {
  std::string mode;
  int year = 0;
  std::uint64_t scale = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  double seconds = -1;
  double setup_share = 0.15;
  unsigned min_campaigns = 2;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view val = argv[i + 1];
    std::uint64_t n = 0;
    if (key == "--mode") {
      a.mode = val;
    } else if (key == "--seconds" || key == "--setup-share") {
      try {
        (key == "--seconds" ? a.seconds : a.setup_share) =
            std::stod(std::string(val));
      } catch (const std::exception&) {
        return false;
      }
    } else if (!parse_u64(val, n)) {
      return false;
    } else if (key == "--year") {
      a.year = static_cast<int>(n);
    } else if (key == "--scale") {
      a.scale = n;
    } else if (key == "--seed") {
      a.seed = n;
    } else if (key == "--threads") {
      a.threads = static_cast<unsigned>(n);
    } else if (key == "--min-campaigns") {
      a.min_campaigns = static_cast<unsigned>(n);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (a.mode == "campaigns" || a.mode == "trace") &&
         (a.year == 2013 || a.year == 2018) && a.scale >= 1 &&
         a.threads >= 1 && a.seconds >= 0 && a.setup_share >= 0;
}

const core::PaperYear& paper_year(int year) {
  return year == 2013 ? core::paper_2013() : core::paper_2018();
}

/// Every paper table rendered into one comparable string.
std::string rendered_tables(const core::ScanOutcome& o) {
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

/// The parts of a campaign's output the harness checks: the counters of the
/// accounting identities, the behavior digest and the rendered tables.
void print_outputs(const core::ScanOutcome& o) {
  const prober::ScanStats& s = o.scan;
  std::printf(
      "\"q1_sent\": %llu, \"r2_received\": %llu, \"r2_matched\": %llu, "
      "\"r2_unmatched\": %llu, \"r2_empty_question\": %llu, "
      "\"timeouts_reaped\": %llu, \"template_stamped\": %llu, "
      "\"template_fallback\": %llu, \"analysis_r2_total\": %llu, "
      "\"events\": %llu, \"capture_digest\": \"%016llx\", "
      "\"tables_hash\": \"%016llx\"",
      static_cast<unsigned long long>(s.q1_sent),
      static_cast<unsigned long long>(s.r2_received),
      static_cast<unsigned long long>(s.r2_matched),
      static_cast<unsigned long long>(s.r2_unmatched),
      static_cast<unsigned long long>(s.r2_empty_question),
      static_cast<unsigned long long>(s.timeouts_reaped),
      static_cast<unsigned long long>(s.template_stamped),
      static_cast<unsigned long long>(s.template_fallback),
      static_cast<unsigned long long>(o.analysis.r2_total),
      static_cast<unsigned long long>(o.events_executed),
      static_cast<unsigned long long>(o.capture_digest),
      static_cast<unsigned long long>(util::fnv1a64(rendered_tables(o))));
}

core::PipelineConfig pipeline_config(const Args& a, bool metrics) {
  core::PipelineConfig cfg;
  cfg.scale = a.scale;
  cfg.seed = a.seed;
  cfg.threads = a.threads;
  cfg.obs.metrics = metrics;
  return cfg;
}

// ---- The campaign's set-up, as run_measurement performs it ----------------

core::InternetConfig internet_config(const core::PaperYear& year,
                                     const core::PipelineConfig& config) {
  core::InternetConfig net_config;
  net_config.seed = config.seed;
  net_config.scan_seed = util::mix64(config.seed + year.year);
  net_config.loss_rate = config.loss_rate;
  net_config.loop_batch_cap = config.loop_batch_cap;
  net_config.delivery_group_cap = config.delivery_group_cap;
  net_config.wire_templates = config.wire_templates;
  net_config.udp_limit = config.udp_limit;
  net_config.tcp = config.tcp_fallback;
  return net_config;
}

prober::ScanConfig scan_config(const core::PopulationSpec& spec,
                               const core::InternetConfig& net_config,
                               const core::PipelineConfig& config) {
  prober::ScanConfig sc;
  sc.seed = net_config.scan_seed;
  sc.rate_pps = spec.rate_pps;
  sc.raw_steps = spec.raw_steps;
  sc.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  sc.wire_templates = config.wire_templates;
  sc.tcp_fallback = config.tcp_fallback;
  return sc;
}

std::uint32_t shard_count(const core::PipelineConfig& config,
                          const core::PopulationSpec& spec) {
  std::uint32_t shards = config.threads == 0 ? 1 : config.threads;
  if (shards > spec.raw_steps)
    shards = static_cast<std::uint32_t>(spec.raw_steps);
  return shards;
}

/// Runs `body(shard_id)` for every shard: on the calling thread for one
/// shard, on one thread per shard otherwise (run_measurement's layout).
/// Exceptions are carried back and rethrown on the calling thread.
template <typename Body>
void for_each_shard(std::uint32_t shards, const Body& body) {
  if (shards == 1) {
    body(0u);
    return;
  }
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    workers.emplace_back([&, i]() {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// ---- Mode: campaigns -------------------------------------------------------

/// One outside-timed set-up: build_population + plan_internet + ShardContext
/// construction (concurrent on the sharded workload; the slowest shard
/// counts). Obs off. The contexts are destroyed outside the timed window.
void time_setup(const core::PaperYear& year, const core::PipelineConfig& cfg) {
  const auto t0 = Clock::now();
  const core::PopulationSpec spec =
      core::build_population(year, cfg.scale, cfg.seed);
  const auto t1 = Clock::now();
  const core::InternetConfig net_config = internet_config(year, cfg);
  const core::InternetPlan plan = core::plan_internet(spec, net_config);
  const auto t2 = Clock::now();
  const prober::ScanConfig sc = scan_config(spec, net_config, cfg);
  const std::uint32_t shards = shard_count(cfg, spec);
  std::vector<std::unique_ptr<core::ShardContext>> contexts(shards);
  std::vector<double> ctor_s(shards, 0.0);
  for_each_shard(shards, [&](std::uint32_t i) {
    const auto c0 = Clock::now();
    contexts[i] = std::make_unique<core::ShardContext>(
        spec, net_config, plan, i, shards, sc, cfg.obs, nullptr,
        /*streaming=*/true, /*retain_r2=*/false);
    ctor_s[i] = seconds_since(c0, Clock::now());
  });
  const double population_s = seconds_since(t0, t1);
  const double plan_s = seconds_since(t1, t2);
  const double instantiate_s = *std::max_element(ctor_s.begin(), ctor_s.end());
  std::printf(
      "{\"type\": \"setup\", \"population_s\": %.9f, \"plan_s\": %.9f, "
      "\"instantiate_s\": %.9f, \"setup_s\": %.9f}\n",
      population_s, plan_s, instantiate_s,
      population_s + plan_s + instantiate_s);
  std::fflush(stdout);
}

int run_campaigns(const Args& a) {
  const core::PaperYear& year = paper_year(a.year);
  const core::PipelineConfig cfg = pipeline_config(a, /*metrics=*/false);
  const auto start = Clock::now();
  double last_wall = 0;
  for (unsigned n = 0;; ++n) {
    // Start another round only while it is expected to end inside the
    // measuring window, so a run lasts about --seconds.
    const double spent = seconds_since(start, Clock::now());
    const double round = last_wall * (1 + a.setup_share);
    if (n >= a.min_campaigns && spent + round > a.seconds) break;
    // Set-ups interleave with the campaigns so that both sample the same
    // stretches of machine load.
    if (a.setup_share > 0) {
      const auto s0 = Clock::now();
      do {
        time_setup(year, cfg);
      } while (seconds_since(s0, Clock::now()) < a.setup_share * last_wall);
    }
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const core::ScanOutcome o = core::run_measurement(year, cfg);
    last_wall = seconds_since(t0, Clock::now());
    const double cpu = process_cpu_s() - cpu0;
    std::printf("{\"type\": \"campaign\", \"wall_s\": %.9f, \"cpu_s\": %.9f, ",
                last_wall, cpu);
    print_outputs(o);
    std::printf("}\n");
    std::fflush(stdout);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"type\": \"rss\", \"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
  return 0;
}

// ---- Mode: trace -----------------------------------------------------------

struct Span {
  const char* name;
  int parent;  // index into the span list, -1 for the root
  int shard;   // -1 outside the shard phase
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-shard timings, written only by that shard's thread.
struct ShardTimes {
  Clock::time_point ctor0, ctor1, run0, run1, teardown1;
  double run_cpu_s = 0;
};

struct TracedCampaign {
  core::ScanOutcome outcome;
  std::vector<Span> spans;
  std::vector<double> shard_cpu_s;
};

/// run_measurement's default (streaming, metrics-on) path, one public call
/// at a time with a span around each. It must stay a faithful copy: the
/// harness compares its digest and tables with run_measurement's, and a
/// mismatch marks the trace stale.
TracedCampaign traced_campaign(const core::PaperYear& year,
                               const core::PipelineConfig& config) {
  TracedCampaign tc;
  std::vector<Span>& spans = tc.spans;
  const auto open = [&](const char* name, int parent, int shard) {
    spans.push_back({name, parent, shard, Clock::now(), {}});
    return static_cast<int>(spans.size() - 1);
  };
  const auto close = [&](int id) { spans[id].end = Clock::now(); };

  core::ScanOutcome& outcome = tc.outcome;
  const int root = open("campaign", -1, -1);
  outcome.year = year.year;
  outcome.scale_factor = config.scale;

  int span = open("population", root, -1);
  outcome.spec = core::build_population(year, config.scale, config.seed);
  close(span);

  span = open("plan", root, -1);
  const core::InternetConfig net_config = internet_config(year, config);
  const core::InternetPlan plan = core::plan_internet(outcome.spec, net_config);
  close(span);

  const prober::ScanConfig sc = scan_config(outcome.spec, net_config, config);
  const std::uint32_t shards = shard_count(config, outcome.spec);
  outcome.threads_used = shards;

  const int shards_span = open("shards", root, -1);
  std::vector<core::ShardResult> results(shards);
  std::vector<ShardTimes> times(shards);
  for_each_shard(shards, [&](std::uint32_t i) {
    ShardTimes& t = times[i];
    {
      t.ctor0 = Clock::now();
      core::ShardContext ctx(outcome.spec, net_config, plan, i, shards, sc,
                             config.obs, nullptr, /*streaming=*/true,
                             /*retain_r2=*/false);
      t.ctor1 = t.run0 = Clock::now();
      const double cpu0 = thread_cpu_s();
      results[i] = ctx.run();
      t.run_cpu_s = thread_cpu_s() - cpu0;
      t.run1 = Clock::now();
    }
    t.teardown1 = Clock::now();
  });
  close(shards_span);
  for (std::uint32_t i = 0; i < shards; ++i) {
    const ShardTimes& t = times[i];
    const int shard = static_cast<int>(i);
    spans.push_back({"instantiate", shards_span, shard, t.ctor0, t.ctor1});
    spans.push_back({"scan", shards_span, shard, t.run0, t.run1});
    spans.push_back({"teardown", shards_span, shard, t.run1, t.teardown1});
    tc.shard_cpu_s.push_back(t.run_cpu_s);
  }

  span = open("merge", root, -1);
  outcome.scan = results[0].scan;
  outcome.auth = results[0].auth;
  outcome.clusters = results[0].clusters;
  outcome.events_executed = results[0].events_executed;
  outcome.capture = std::move(results[0].capture);
  outcome.metrics = std::move(results[0].metrics);
  outcome.traces = std::move(results[0].traces);
  analysis::PartialTables tables = std::move(results[0].tables);
  for (std::uint32_t i = 1; i < shards; ++i) {
    outcome.scan += results[i].scan;
    outcome.auth += results[i].auth;
    outcome.clusters += results[i].clusters;
    outcome.events_executed += results[i].events_executed;
    outcome.capture.merge(std::move(results[i].capture));
    outcome.metrics += results[i].metrics;
    outcome.traces.merge(std::move(results[i].traces));
    tables += results[i].tables;
  }
  outcome.capture.sort_canonical();
  outcome.traces.sort_canonical();
  outcome.cluster_loads = outcome.auth.cluster_loads;
  outcome.sim_duration_seconds = outcome.scan.duration().as_seconds();
  outcome.capture_digest = tables.digest;
  outcome.analysis_bytes = tables.footprint_bytes();
  close(span);

  span = open("intel", root, -1);
  const core::IntelBundle intel =
      core::build_intel(outcome.spec, plan, core::measurement_auth_address());
  close(span);

  span = open("finalize", root, -1);
  outcome.analysis = tables.finalize(intel.orgs, intel.threats);
  close(span);

  close(root);
  return tc;
}

void print_spans(const std::vector<Span>& spans) {
  const Clock::time_point origin = spans.front().start;
  std::printf("\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::printf(
        "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"shard\": %d, "
        "\"start_s\": %.9f, \"end_s\": %.9f}",
        i == 0 ? "" : ", ", i, s.name, s.parent, s.shard,
        seconds_since(origin, s.start), seconds_since(origin, s.end));
  }
  std::printf("]");
}

void print_layer_counters(const obs::Metrics& m) {
  const obs::Builtin& b = obs::builtin();
  const struct {
    const char* name;
    std::uint64_t value;
  } counters[] = {
      {"scan_q1_sent", m.counter(b.scan_q1_sent)},
      {"scan_r2_matched", m.counter(b.scan_r2_matched)},
      {"scan_timeouts_reaped", m.counter(b.scan_timeouts_reaped)},
      {"scan_outstanding_peak", m.gauge(b.scan_outstanding_peak)},
      {"scan_template_stamped", m.counter(b.scan_template_stamped)},
      {"rate_deferred", m.counter(b.rate_deferred)},
      {"loop_events_run", m.counter(b.loop_events_run)},
      {"net_sent", m.counter(b.net_sent)},
      {"net_dropped_unbound", m.counter(b.net_dropped_unbound)},
      {"loop_batch_sum", m.histogram_sum(b.loop_batch_size)},
      {"loop_batch_count", m.histogram_count(b.loop_batch_size)},
      {"delivery_batch_sum", m.histogram_sum(b.net_delivery_batch_size)},
      {"delivery_batch_count", m.histogram_count(b.net_delivery_batch_size)},
      {"net_batch_fallback_singles", m.counter(b.net_batch_fallback_singles)},
      {"loop_queue_peak", m.gauge(b.loop_queue_peak)},
      {"pool_slabs", m.gauge(b.pool_slabs)},
      {"capture_packets", m.counter(b.capture_packets)},
      {"resolver_template_stamped", m.counter(b.resolver_template_stamped)},
      {"resolver_template_fallback", m.counter(b.resolver_template_fallback)},
      {"auth_template_stamped", m.counter(b.auth_template_stamped)},
      {"auth_template_fallback", m.counter(b.auth_template_fallback)},
      {"resolver_queries", m.counter(b.resolver_queries)},
      {"resolver_recursions", m.counter(b.resolver_recursions)},
      {"resolver_forwarded", m.counter(b.resolver_forwarded)},
      {"resolver_upstream_queries", m.counter(b.resolver_upstream_queries)},
      {"resolver_cache_bypass", m.counter(b.resolver_cache_bypass)},
      {"auth_q2_received", m.counter(b.auth_q2_received)},
      {"auth_r1_sent", m.counter(b.auth_r1_sent)},
      {"auth_cluster_loads", m.counter(b.auth_cluster_loads)},
      {"analysis_r2_classified", m.counter(b.analysis_r2_classified)},
      {"analysis_exemplar_updates", m.counter(b.analysis_exemplar_updates)},
  };
  std::printf("\"counters\": {");
  bool first = true;
  for (const auto& c : counters) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", c.name,
                static_cast<unsigned long long>(c.value));
    first = false;
  }
  std::printf("}");
}

void print_untraced(const core::PaperYear& year, const Args& a) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const core::ScanOutcome o =
      core::run_measurement(year, pipeline_config(a, /*metrics=*/false));
  const double wall = seconds_since(t0, Clock::now());
  const double cpu = process_cpu_s() - cpu0;
  std::printf("{\"type\": \"untraced\", \"wall_s\": %.9f, \"cpu_s\": %.9f, ",
              wall, cpu);
  print_outputs(o);
  std::printf("}\n");
  std::fflush(stdout);
}

void print_traced(const core::PaperYear& year, const Args& a) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const TracedCampaign tc =
      traced_campaign(year, pipeline_config(a, /*metrics=*/true));
  const double wall = seconds_since(t0, Clock::now());
  const double cpu = process_cpu_s() - cpu0;
  std::printf("{\"type\": \"traced\", \"wall_s\": %.9f, \"cpu_s\": %.9f, ",
              wall, cpu);
  print_outputs(tc.outcome);
  std::printf(", \"table_bytes\": %zu, \"shard_cpu_s\": [",
              tc.outcome.analysis_bytes);
  for (std::size_t i = 0; i < tc.shard_cpu_s.size(); ++i)
    std::printf("%s%.9f", i == 0 ? "" : ", ", tc.shard_cpu_s[i]);
  std::printf("], ");
  print_layer_counters(tc.outcome.metrics);
  std::printf(", ");
  print_spans(tc.spans);
  std::printf("}\n");
  std::fflush(stdout);
}

int run_trace(const Args& a) {
  const core::PaperYear& year = paper_year(a.year);
  const auto start = Clock::now();
  double last_pair = 0;
  for (unsigned n = 0;; ++n) {
    const double spent = seconds_since(start, Clock::now());
    if (n >= 1 && spent + last_pair > a.seconds) break;
    const auto p0 = Clock::now();
    if (n % 2 == 0) {
      print_untraced(year, a);
      print_traced(year, a);
    } else {
      print_traced(year, a);
      print_untraced(year, a);
    }
    last_pair = seconds_since(p0, Clock::now());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: census_bench --mode campaigns|trace --year 2013|2018 "
                 "--scale N --seed S --threads T --seconds X "
                 "[--setup-share F] [--min-campaigns M]\n");
    return 2;
  }
  std::printf(
      "{\"type\": \"build\", \"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\"}\n",
#if defined(__clang__)
      "clang",
#else
      "gcc",
#endif
      __VERSION__, ORP_BENCH_BUILD_TYPE);
  return a.mode == "campaigns" ? run_campaigns(a) : run_trace(a);
}
