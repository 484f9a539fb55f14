// Microbenchmarks: scanning substrate — permutation stepping, exclusion
// checks, rate limiting, and the end-to-end event throughput of a scaled
// campaign. These bound how close to ZMap's "IPv4 in one hour" envelope the
// simulated prober can get.
//
// Besides the google-benchmark suite, the binary runs a threads-axis sweep
// of the full campaign (threads = 1/2/4/8 at the default 1/1024 scale) and
// writes BENCH_scan.json so future PRs have a machine-readable perf
// trajectory to compare against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_host.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "net/reserved.h"
#include "prober/permutation.h"
#include "prober/rate_limiter.h"
#include "resolver/cache.h"

namespace {

using namespace orp;

void BM_PermutationStep(benchmark::State& state) {
  prober::CyclicPermutation perm(42);
  for (auto _ : state) benchmark::DoNotOptimize(perm.next_raw());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PermutationStep);

void BM_PermutationRandomAccess(benchmark::State& state) {
  const prober::CyclicPermutation perm(42);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.raw_at(k));
    k = (k + 0x9E3779B9) & 0xFFFFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PermutationRandomAccess);

void BM_ReservedCheck(benchmark::State& state) {
  prober::CyclicPermutation perm(42);
  for (auto _ : state) {
    const auto addr = perm.next_address();
    benchmark::DoNotOptimize(net::is_reserved(*addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservedCheck);

void BM_RateLimiter(benchmark::State& state) {
  prober::RateLimiter limiter(1e9, 1024);
  net::SimTime now;
  net::SimTime ready;
  for (auto _ : state) {
    now += net::SimTime::micros(1);
    benchmark::DoNotOptimize(limiter.try_acquire(64, now, ready));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateLimiter);

void BM_DnsCacheHit(benchmark::State& state) {
  resolver::DnsCache cache(1024);
  const auto name = dns::DnsName::must_parse("www.example.net");
  cache.put(name, dns::RRType::kA,
            {dns::ResourceRecord{name, dns::RRType::kA, dns::RRClass::kIN,
                                 3600, dns::ARdata{net::IPv4Addr(1, 2, 3, 4)}}},
            net::SimTime::seconds(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.get(name, dns::RRType::kA, net::SimTime::seconds(1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnsCacheHit);

/// Full campaign at a coarse scale: measures simulated-packets per real
/// second across the entire pipeline (population, planting, scan, analysis).
void BM_FullCampaign2018(benchmark::State& state) {
  const auto scale = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t probes = 0;
  for (auto _ : state) {
    core::PipelineConfig cfg;
    cfg.scale = scale;
    cfg.seed = 42;
    const core::ScanOutcome o = core::run_measurement(core::paper_2018(), cfg);
    probes += o.scan.q1_sent;
    benchmark::DoNotOptimize(o.analysis.answers.correct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
  state.counters["probes_per_s"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullCampaign2018)->Arg(16384)->Arg(8192)->Unit(benchmark::kMillisecond);

/// Sharded campaign at the default scale, threads on the x-axis.
void BM_FullCampaignThreads(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::PipelineConfig cfg;
    cfg.scale = 8192;
    cfg.seed = 42;
    cfg.threads = threads;
    const core::ScanOutcome o = core::run_measurement(core::paper_2018(), cfg);
    events += o.events_executed;
    benchmark::DoNotOptimize(o.capture_digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullCampaignThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

struct CampaignRun {
  double wall = 0;          // seconds, population build to finalize
  std::uint64_t events = 0;
  std::uint64_t q1_sent = 0;

  double events_per_sec() const { return static_cast<double>(events) / wall; }
  double probes_per_sec() const { return static_cast<double>(q1_sent) / wall; }
};

/// One timed campaign run. `instrumented` turns the full observability layer
/// on (metrics + 1/64 flow tracing) — the delta against the plain run is the
/// instrumentation tax.
CampaignRun timed_campaign(unsigned threads, bool instrumented = false) {
  core::PipelineConfig cfg;
  cfg.scale = 1024;  // the default scale the acceptance target is set at
  cfg.seed = 42;
  cfg.threads = threads;
  if (instrumented) {
    cfg.obs.metrics = true;
    cfg.obs.trace_sample_every = 64;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const core::ScanOutcome o = core::run_measurement(core::paper_2018(), cfg);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), o.events_executed,
          o.scan.q1_sent};
}

/// Write `json` to `path`; false (and a message on stderr) on any emit
/// error, so CI can gate on the artifact actually landing.
bool emit_json(const char* path, const std::string& json) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_scan: cannot open %s for write\n", path);
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed)
    std::fprintf(stderr, "bench_micro_scan: short write to %s\n", path);
  return ok && closed;
}

/// CI smoke mode (--quick): one single-shard campaign, minimal JSON, no
/// google-benchmark sweep. Exists so the pre-merge gate exercises the whole
/// bench path (campaign + JSON emit) in seconds; scripts/check_all.sh gates
/// its probes_per_sec.
bool write_bench_scan_quick_json(const char* path) {
  const CampaignRun r = timed_campaign(1);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"scan_threads_quick\",\n  \"threads\": 1,\n"
                "  \"wall_seconds\": %.3f,\n  \"events\": %llu,\n"
                "  \"events_per_sec\": %.0f,\n  \"q1_sent\": %llu,\n"
                "  \"probes_per_sec\": %.0f\n}\n",
                r.wall, static_cast<unsigned long long>(r.events),
                r.events_per_sec(), static_cast<unsigned long long>(r.q1_sent),
                r.probes_per_sec());
  std::printf("quick: threads=1  wall=%.3fs  events/s=%.0f  probes/s=%.0f\n",
              r.wall, r.events_per_sec(), r.probes_per_sec());
  return emit_json(path, buf);
}

/// The machine-readable perf trajectory: threads -> wall-seconds, events/s,
/// probes/s.
/// hardware_concurrency is recorded because the speedup column is only
/// meaningful relative to the cores the run actually had — on a 1-vCPU
/// container every thread count serializes and the walls are near-flat.
bool write_bench_scan_json(const char* path) {
  // Best-of-N per thread count: on a shared container a single wall-clock
  // sample swings by 10%+ with neighbor load, which is larger than most of
  // the deltas this file exists to record. The minimum of N runs estimates
  // the unloaded cost; N is recorded so readers know what the numbers are.
  constexpr int kRuns = 5;
  std::string json = "{\n  \"bench\": \"scan_threads\",\n"
                     "  \"year\": 2018,\n  \"scale\": 1024,\n"
                     "  \"seed\": 42,\n  \"runs_per_point\": " +
                     std::to_string(kRuns) +
                     ",\n  \"wall_seconds_is\": \"best_of_runs\",\n  " +
                     bench::host_json_fields() + ",\n  \"results\": [\n";
  double wall_t1 = 0, wall_t4 = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    CampaignRun best;
    for (int run = 0; run < kRuns; ++run) {
      // Counts are deterministic for a fixed thread count; keep the fastest.
      const CampaignRun r = timed_campaign(threads);
      if (run == 0 || r.wall < best.wall) best = r;
    }
    if (threads == 1) wall_t1 = best.wall;
    if (threads == 4) wall_t4 = best.wall;
    char row[320];
    std::snprintf(row, sizeof(row),
                  "    {\"threads\": %u, \"wall_seconds\": %.3f, "
                  "\"events\": %llu, \"events_per_sec\": %.0f, "
                  "\"q1_sent\": %llu, \"probes_per_sec\": %.0f}%s\n",
                  threads, best.wall,
                  static_cast<unsigned long long>(best.events),
                  best.events_per_sec(),
                  static_cast<unsigned long long>(best.q1_sent),
                  best.probes_per_sec(), threads == 8 ? "" : ",");
    json += row;
    std::printf("threads=%u  best-of-%d wall=%.3fs  events/s=%.0f  "
                "probes/s=%.0f\n",
                threads, kRuns, best.wall, best.events_per_sec(),
                best.probes_per_sec());
  }
  // The instrumentation tax: the same campaign with the observability layer
  // fully on (metrics + 1/64 flow tracing), single-shard so the comparison
  // is not muddied by scheduling noise. Interleaved best-of-7 on both sides
  // — single runs on a shared container swing by 10%+, which would drown
  // the signal. Acceptance: ≤ 5%.
  double best_plain = wall_t1;
  CampaignRun obs;
  for (int i = 0; i < 7; ++i) {
    best_plain = std::min(best_plain, timed_campaign(1).wall);
    const CampaignRun r = timed_campaign(1, /*instrumented=*/true);
    if (i == 0 || r.wall < obs.wall) obs = r;
  }
  const double wall_obs = obs.wall;
  const double overhead_pct = (wall_obs - best_plain) / best_plain * 100.0;
  std::printf("threads=1 (obs on)  wall=%.3fs  events/s=%.0f  "
              "overhead=%.1f%%\n",
              wall_obs, obs.events_per_sec(), overhead_pct);
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"speedup_t4_vs_t1\": %.2f,\n"
                "  \"instrumented\": {\"threads\": 1, \"wall_seconds\": %.3f, "
                "\"overhead_pct\": %.1f}\n}\n",
                wall_t1 / wall_t4, wall_obs, overhead_pct);
  json += tail;
  if (!emit_json(path, json)) return false;
  std::printf("wrote %s (speedup t4 vs t1: %.2fx)\n", path,
              wall_t1 / wall_t4);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before benchmark::Initialize sees the argv —
  // ReportUnrecognizedArguments treats anything it doesn't know as fatal.
  bool quick = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick")
      quick = true;
    else
      argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
  if (quick) return write_bench_scan_quick_json("BENCH_scan.quick.json") ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_scan_json("BENCH_scan.json") ? 0 : 1;
}
