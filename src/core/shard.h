// One shard of a sharded measurement campaign.
//
// A ShardContext owns a complete, isolated simulation stack — its own
// EventLoop, Network (splitmix substream of the campaign seed), hierarchy,
// authoritative server, planted population slice, scanner, and prober-side
// capture tap. Shards share no mutable state, so S of them run on S threads
// with zero synchronization; the pipeline merges their ShardResults
// deterministically afterwards.
//
// Each shard scans the slice [i*N/S, (i+1)*N/S) of the one global ZMap
// permutation at rate_pps/S, so every shard's slice spans the same simulated
// campaign wall-clock as the unsharded scan.
//
// The shard's StreamingAnalyzer hangs off the scanner's R2 callback, so every
// R2 is classified at capture time into the shard's PartialTables and no
// response payload is kept: O(1) shard memory instead of O(responses).
//
// The slice's resolver hosts live just in time: the scanner's advance hook
// builds each one before the send batch that probes it, and its reap hook
// retires every host whose response window has passed and that nothing can
// call into any more (SimulatedInternet::build_hosts_below /
// retire_quiescent). Only forwarder upstreams and TCP listeners stay for
// the whole run, so host memory follows the flows in flight, not the slice.
#pragma once

#include <cstdint>

#include "analysis/streaming.h"
#include "core/internet_builder.h"
#include "net/capture_store.h"
#include "obs/obs.h"
#include "prober/scanner.h"

namespace orp::core {

/// Everything a finished shard hands back to the merge step.
struct ShardResult {
  prober::ScanStats scan;
  authns::AuthStats auth;
  zone::ClusterStats clusters;
  std::uint64_t events_executed = 0;
  /// Streamed partial tables; the pipeline folds them in shard order with
  /// `operator+=`.
  analysis::PartialTables tables;
  net::CaptureStore capture;
  obs::Metrics metrics;     // inert unless the campaign enabled metrics
  obs::FlowTracer traces;   // empty unless the campaign enabled tracing
};

class ShardContext {
 public:
  /// `scan_config` carries the campaign-level scan parameters (seed, total
  /// rate and raw_steps, rotate pause); the context derives this shard's
  /// slice and per-shard rate from them.
  /// `obs_config` selects which instruments this shard carries (all off by
  /// default — instrumentation must be opt-in and must not perturb the event
  /// stream); `beacon`, when given, is the campaign-owned progress slot this
  /// shard publishes into.
  ///
  /// `streaming` and `retain_r2` only accept (true, false), the one mode
  /// left: existing positional callers still pass both; anything else
  /// throws std::invalid_argument.
  ShardContext(const PopulationSpec& spec, const InternetConfig& net_config,
               const InternetPlan& plan, std::uint32_t shard_id,
               std::uint32_t shard_count,
               const prober::ScanConfig& scan_config,
               const obs::ObsConfig& obs_config = {},
               obs::ShardBeacon* beacon = nullptr, bool streaming = true,
               bool retain_r2 = false);

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

  /// Run this shard's event loop to completion and collect its results.
  ShardResult run();

  SimulatedInternet& internet() noexcept { return internet_; }
  prober::Scanner& scanner() noexcept { return scanner_; }

 private:
  /// End-of-run sweep: fold the stack's passive counters (network totals,
  /// pool occupancy, capture counts, scan/auth/resolver stats) into the
  /// shard's Metrics instance through the builtin handles.
  void collect_metrics();

  SimulatedInternet internet_;
  prober::Scanner scanner_;
  net::CaptureStore capture_;
  obs::ShardObs obs_;
  /// Capture-time classifier behind the scanner's R2 callback.
  analysis::StreamingAnalyzer analyzer_;
};

}  // namespace orp::core
