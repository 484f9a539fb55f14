#include "core/pipeline.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/streaming.h"
#include "core/shard.h"
#include "util/rng.h"

namespace orp::core {

std::uint64_t ScanOutcome::expect(std::uint64_t paper_count) const {
  return (paper_count + scale_factor / 2) / scale_factor;
}

ScanOutcome run_measurement(const PaperYear& year,
                            const PipelineConfig& config,
                            const ShardHook& on_shard) {
  // build_population would read 0 as the full campaign while
  // ScanOutcome::expect divides by scale_factor.
  if (config.scale == 0)
    throw std::invalid_argument("run_measurement: scale must be >= 1");
  ScanOutcome outcome;
  outcome.year = year.year;
  outcome.scale_factor = config.scale;

  // 1. Calibrated population.
  outcome.spec = build_population(year, config.scale, config.seed);

  // 2. The global planting plan: every random choice made once, before any
  // shard exists, so placement is independent of the shard count.
  InternetConfig net_config;
  net_config.seed = config.seed;
  net_config.scan_seed = util::mix64(config.seed + year.year);
  net_config.loss_rate = config.loss_rate;
  net_config.loop_batch_cap = config.loop_batch_cap;
  net_config.delivery_group_cap = config.delivery_group_cap;
  net_config.wire_templates = config.wire_templates;
  net_config.udp_limit = config.udp_limit;
  net_config.tcp = config.tcp_fallback;
  const InternetPlan plan = plan_internet(outcome.spec, net_config);

  // 3. The campaign-level scan parameters (Table II at this run's scale);
  // each shard derives its permutation slice and rate share from these.
  prober::ScanConfig scan_config;
  scan_config.seed = net_config.scan_seed;
  scan_config.rate_pps = outcome.spec.rate_pps;
  scan_config.raw_steps = outcome.spec.raw_steps;
  scan_config.rotate_pause =
      net::SimTime::seconds(outcome.spec.zone_load_seconds);
  scan_config.wire_templates = config.wire_templates;
  scan_config.tcp_fallback = config.tcp_fallback;

  // A shard needs a non-empty slice; more shards than raw steps would only
  // create idle loops.
  std::uint32_t shards = config.threads == 0 ? 1 : config.threads;
  if (shards > outcome.spec.raw_steps)
    shards = static_cast<std::uint32_t>(outcome.spec.raw_steps);
  outcome.threads_used = shards;

  // 4. Run the shards. Each worker touches only its own slot; exceptions
  // are carried back and rethrown on the calling thread.
  //
  // Live progress, when enabled, runs entirely outside the simulation:
  // shards publish into cache-line-private beacons with relaxed stores, and
  // a real-time reporter thread polls them on a wall-clock interval. Nothing
  // about the event streams, RNG draws, or merge order changes — progress
  // output is the one part of the pipeline keyed to real time, and it is
  // write-only (stderr).
  std::unique_ptr<obs::CampaignProgress> progress;
  if (config.obs.progress_interval_s > 0)
    progress = std::make_unique<obs::CampaignProgress>(shards);

  std::mutex reporter_mutex;
  std::condition_variable reporter_cv;
  bool reporter_stop = false;
  std::thread reporter;
  const auto campaign_start = std::chrono::steady_clock::now();
  const auto elapsed_s = [campaign_start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         campaign_start)
        .count();
  };
  if (progress != nullptr) {
    reporter = std::thread([&]() {
      const auto interval =
          std::chrono::duration<double>(config.obs.progress_interval_s);
      std::unique_lock<std::mutex> lock(reporter_mutex);
      while (!reporter_cv.wait_for(lock, interval,
                                   [&]() { return reporter_stop; })) {
        const std::string line = obs::CampaignProgress::render(
            progress->snapshot(), outcome.spec.raw_steps, elapsed_s());
        std::fprintf(stderr, "%s\n", line.c_str());
      }
    });
  }

  // Every shard classifies its R2s at capture time into partial tables (and
  // the behavior digest), so nothing per-response survives the scan.
  std::vector<ShardResult> results(shards);
  const auto run_shard = [&](std::uint32_t shard_id) {
    ShardContext ctx(outcome.spec, net_config, plan, shard_id, shards,
                     scan_config, config.obs,
                     progress != nullptr ? &progress->shard(shard_id)
                                         : nullptr);
    if (on_shard) on_shard(ctx);
    results[shard_id] = ctx.run();
  };
  if (shards == 1) {
    run_shard(0);
  } else {
    std::vector<std::exception_ptr> errors(shards);
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      workers.emplace_back([&, i]() {
        try {
          run_shard(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }
  if (reporter.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reporter_mutex);
      reporter_stop = true;
    }
    reporter_cv.notify_all();
    reporter.join();
    // A closing line so short campaigns leave a trace of the final state.
    const std::string line = obs::CampaignProgress::render(
        progress->snapshot(), outcome.spec.raw_steps, elapsed_s());
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  // 5. Deterministic merge, in shard order for the summed counters and the
  // partial tables.
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
  outcome.traces.sort_canonical();
  outcome.cluster_loads = outcome.auth.cluster_loads;
  outcome.sim_duration_seconds = outcome.scan.duration().as_seconds();

  outcome.capture_digest = tables.digest;
  outcome.analysis_bytes = tables.footprint_bytes();

  // 6. Finalize against the campaign-global intel databases (identical to
  // every shard's bundle — build_intel uses only global inputs).
  const IntelBundle intel =
      build_intel(outcome.spec, plan, measurement_auth_address());
  outcome.analysis = tables.finalize(intel.orgs, intel.threats);
  return outcome;
}

}  // namespace orp::core
