// End-to-end measurement pipeline: population -> simulated Internet ->
// ZMap-style scan -> capture -> behavioral analysis. One call reproduces one
// of the paper's two measurement campaigns at a chosen scale.
//
// The campaign runs as `threads` independent shards (see core/shard.h): one
// global planting plan, S isolated event loops scanning disjoint slices of
// the one ZMap permutation, merged deterministically. The merged tables and
// capture digest are byte-identical for every thread count.
//
// Analysis has one path: each shard classifies every R2 at capture time
// into its analysis::PartialTables (analysis/streaming.h), the pipeline
// merges the partials in shard order and finalizes once. No per-response
// state outlives the scan.
#pragma once

#include <cstdint>
#include <functional>

#include "analysis/report.h"
#include "core/internet_builder.h"
#include "core/population.h"
#include "net/capture_store.h"
#include "obs/obs.h"
#include "prober/scanner.h"

namespace orp::core {

struct PipelineConfig {
  /// 1/scale sample of the full campaign (must be >= 1). 1 = the paper's
  /// full 3.7B-probe scan — hours of CPU, but not tens of GB of RAM: each
  /// R2 is classified at capture time and only the partial tables are
  /// kept, so peak memory is O(shards x distinct values), not O(probes).
  std::uint64_t scale = 1024;
  std::uint64_t seed = 42;
  /// Uniform packet-loss probability injected into the simulated network
  /// (0 = the calibrated default; loss is for robustness experiments).
  double loss_rate = 0.0;
  /// Shards (worker threads) the scan is split across. Results are merged
  /// deterministically: for a fixed (year, scale, seed) the analysis tables
  /// and capture digest are identical for every value.
  unsigned threads = 1;
  /// Retired batch-dispatch caps. The event loop fires one event at a time
  /// and every datagram is its own delivery event, so there is nothing left
  /// to cap; the fields stay only because perfbench's census_bench still
  /// copies them, and they are forwarded to InternetConfig, where any
  /// nonzero value throws std::invalid_argument.
  std::size_t loop_batch_cap = 0;
  std::size_t delivery_group_cap = 0;
  /// Stamp hot-path packets (probe queries, auth answers, fabricated
  /// responses) from pre-encoded, differentially verified wire templates.
  /// Either setting produces byte-identical tables and digests — the
  /// determinism suite sweeps this knob.
  bool wire_templates = true;
  /// Observability: metrics registry, flow tracing, live progress. All off
  /// by default; enabling any of them changes no simulated behavior — the
  /// tables and digests stay byte-identical (instrumentation is passive).
  obs::ObsConfig obs;
  /// Stream-transport experiment (off by default): when `udp_limit` is
  /// non-zero, truncating resolver profiles cap UDP answers at that many
  /// bytes and set TC=1; when `tcp_fallback` is on, those hosts also listen
  /// on TCP and the prober retries matched TC=1 answers over a stream
  /// connection (RFC 7766 DoTCP). Both off reproduces the pinned UDP
  /// campaign byte-for-byte — no stream event is ever scheduled.
  bool tcp_fallback = false;
  std::uint16_t udp_limit = 0;
};

struct ScanOutcome {
  int year = 0;
  PopulationSpec spec;                // calibration artifacts
  prober::ScanStats scan;             // prober-side counters (Q1, R2)
  authns::AuthStats auth;             // authns-side counters (Q2, R1)
  zone::ClusterStats clusters;        // Fig. 3 lifecycle
  std::uint64_t cluster_loads = 0;    // zone loads at the auth server(s)
  analysis::ScanAnalysis analysis;
  /// Merged prober-vantage capture: packets seen in either direction and a
  /// digest of the inbound ones (per-response consumers use the scanner's R2
  /// hook).
  net::CaptureStore capture;
  /// Order-insensitive digest of the R2s' behavioral content
  /// (PartialTables::digest) — equal across thread counts (the
  /// shard-determinism check).
  std::uint64_t capture_digest = 0;
  /// Bytes retained to produce `analysis`: the merged partial-table
  /// footprint. The memory axis BENCH_analysis.json tracks (whole-process
  /// RSS is dominated by the simulated internet).
  std::size_t analysis_bytes = 0;
  std::uint64_t events_executed = 0;  // summed across shard loops
  double sim_duration_seconds = 0;    // simulated wall-clock of the campaign
  unsigned threads_used = 1;
  /// Merged observability output (inert/empty unless enabled in the config).
  obs::Metrics metrics;
  obs::FlowTracer traces;  // canonically sorted after merge

  /// Scale a paper-published count down to this run's scale for printing
  /// beside measured values.
  std::uint64_t expect(std::uint64_t paper_count) const;
  std::uint64_t scale_factor = 1;
};

class ShardContext;

/// Called on each shard's own thread with its freshly built context, before
/// the shard runs. The campaign needs none; tests hang extra taps on a
/// shard's network through it (see core/shard.h for what a context exposes).
using ShardHook = std::function<void(ShardContext&)>;

/// Run one campaign. `year` is normally paper_2013() or paper_2018().
/// Throws std::invalid_argument when `config.scale` is 0.
ScanOutcome run_measurement(const PaperYear& year, const PipelineConfig& config,
                            const ShardHook& on_shard = {});

}  // namespace orp::core
