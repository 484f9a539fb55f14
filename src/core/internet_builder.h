// Assembly of the simulated Internet: event loop, network, DNS hierarchy
// (roots, .net TLD), the measurement's authoritative server, the intel
// databases, and the calibrated resolver population — planted at addresses
// drawn from the *scanned slice* of the ZMap permutation so that a 1/scale
// scan meets exactly the population built for it.
//
// Construction is split in two so a campaign can run sharded:
//
//   plan_internet()      — every random choice (addresses, forwarder
//                          upstreams, per-host seeds) made once, globally,
//                          consuming the builder RNG in the legacy order.
//                          The plan is 32 B per host plus a table of the
//                          campaign's distinct behavior profiles;
//   SimulatedInternet    — a *shard instance*: its own EventLoop/Network/
//                          hierarchy/auth, populated with the planned hosts
//                          whose permutation index falls in its slice.
//
// Because the plan is global, a host's address, profile, and seed are
// independent of the shard count — shard (0, 1) reproduces the legacy
// single-loop construction bit for bit.
//
// Hosts live just in time. Each planted host is probed exactly once, at its
// permutation index, so a shard builds it when the scanner reaches that
// index (build_hosts_below, wired to Scanner::set_advance_callback) and
// destroys it once its response window has passed and nothing can call into
// it any more (retire_quiescent, wired to Scanner::set_reap_callback).
// What other hosts reach — forwarder upstreams — and what a scanner may
// contact again after the probe — TCP listeners — stay resident from
// construction to teardown. Building a host binds its endpoint and nothing
// else (no event, no RNG draw), so the campaign is bit-identical to one
// with every host built up front; DESIGN.md "Host lifecycle" gives the rule.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "authns/auth_server.h"
#include "core/population.h"
#include "intel/geo_db.h"
#include "intel/org_db.h"
#include "intel/threat_db.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "prober/permutation.h"
#include "resolver/root_tld.h"
#include "resolver/scripted_resolver.h"
#include "util/rng.h"
#include "zone/cluster.h"

namespace orp::core {

struct InternetConfig {
  std::uint64_t seed = 42;
  /// The scan seed: planting must use the same permutation the scanner will
  /// walk, and only indices below `raw_steps` are reachable by the scan.
  std::uint64_t scan_seed = 2018;
  net::LatencyModel latency;
  double loss_rate = 0.0;
  int root_count = 3;
  /// Retired batch-dispatch caps: nothing applies them (one event fires at
  /// a time, one delivery event per datagram). They stay only because
  /// perfbench's census_bench still copies them in; SimulatedInternet
  /// throws std::invalid_argument for a nonzero value rather than ignore it.
  std::size_t loop_batch_cap = 0;
  std::size_t delivery_group_cap = 0;
  /// Pre-encoded wire templates for the auth server and the fabricating
  /// resolver hosts (stamp instead of decode/build/encode per probe).
  /// Either setting yields a bit-identical simulation — templates are
  /// differentially verified against the full encoder at derive time — and
  /// the determinism suite sweeps this knob too.
  bool wire_templates = true;
  /// Stream-transport shaping, applied uniformly to every responding
  /// non-forwarder profile at plant time (forwarders keep their own knobs:
  /// CPE proxies rarely listen on TCP, so their truncated answers stay
  /// terminal). `udp_limit` caps UDP answers (TC=1 beyond it); `tcp` makes
  /// shaped hosts listen on a stream socket. Both defaults reproduce the
  /// pinned UDP-only campaign exactly.
  std::uint16_t udp_limit = 0;
  bool tcp = false;
};

/// One planted host, fully resolved: every random draw already made. Its
/// behavior is `InternetPlan::profiles[profile_id]` with `upstream` filled
/// in.
struct PlannedHost {
  std::uint64_t perm_index = 0;  // global permutation index of its address
  std::uint64_t engine_seed = 0;
  net::IPv4Addr addr;
  /// The forwarding target; 0 for every non-forwarder, including a
  /// forwarder demoted because the population has no upstream candidate.
  net::IPv4Addr upstream;
  std::uint32_t geo_asn = 0;     // 0 = no geo registration (no country)
  std::uint32_t profile_id = 0;  // into InternetPlan::profiles
};
static_assert(sizeof(PlannedHost) <= 32);

/// The global planting plan shared by every shard of one campaign.
struct InternetPlan {
  prober::PermutationParams scan_params;
  /// The campaign's distinct behavior profiles, interned once. None carries
  /// an upstream: that is per host (PlannedHost::upstream).
  std::vector<resolver::BehaviorProfile> profiles;
  /// hosts[h] plants PopulationSpec::hosts[h].
  std::vector<PlannedHost> hosts;
};

/// Make every random planting decision for the campaign. Consumes the
/// builder RNG in exactly the order the pre-shard constructor did, so the
/// plan (and therefore a single-shard run) matches legacy output.
InternetPlan plan_internet(const PopulationSpec& spec,
                           const InternetConfig& config);

/// The half-open global-permutation index range owned by one shard:
/// [shard*total/count, (shard+1)*total/count).
struct ShardSlice {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const noexcept { return end - begin; }
  bool contains(std::uint64_t i) const noexcept {
    return i >= begin && i < end;
  }
};
constexpr ShardSlice shard_slice(std::uint64_t total, std::uint32_t shard,
                                 std::uint32_t count) noexcept {
  return ShardSlice{total * shard / count, total * (shard + 1) / count};
}

/// Per-shard network RNG substream, splitmix-derived from seed x shard_id.
/// Shard 0 keeps the raw seed so a 1-shard run replays the legacy stream.
constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                   std::uint32_t shard_id) noexcept {
  if (shard_id == 0) return seed;
  std::uint64_t s = seed * shard_id;
  return util::splitmix64_next(s);
}

/// The campaign-global intel databases (threat reports, geolocation,
/// organization ranges), derived from spec + plan with no RNG.
struct IntelBundle {
  intel::ThreatDb threats;
  intel::GeoDb geo;
  intel::OrgDb orgs;
};
IntelBundle build_intel(const PopulationSpec& spec, const InternetPlan& plan,
                        net::IPv4Addr auth_addr);

/// The fixed infrastructure addresses of the measurement (paper §III-A):
/// every shard instance plants them identically.
net::IPv4Addr measurement_auth_address() noexcept;
net::IPv4Addr measurement_prober_address() noexcept;

class SimulatedInternet {
 public:
  /// Legacy single-shard construction: plan + instantiate shard (0, 1).
  SimulatedInternet(const PopulationSpec& spec, const InternetConfig& config);

  /// One shard of a sharded campaign: owns the planned hosts whose
  /// permutation index falls in shard_slice(spec.raw_steps, shard_id,
  /// shard_count), plus *replicas* of any forwarder upstreams planted in
  /// other shards (an upstream's behavior is a pure function of its profile
  /// and seed, so replicating it preserves every forwarder's observable
  /// behavior; replicas are never probed here — their permutation index
  /// belongs to their home shard). The instance copies what it needs of
  /// `spec` and `plan` and keeps no reference to either.
  SimulatedInternet(const PopulationSpec& spec, const InternetConfig& config,
                    const InternetPlan& plan, std::uint32_t shard_id,
                    std::uint32_t shard_count);

  SimulatedInternet(const SimulatedInternet&) = delete;
  SimulatedInternet& operator=(const SimulatedInternet&) = delete;

  net::EventLoop& loop() noexcept { return loop_; }
  net::Network& network() noexcept { return *network_; }
  authns::AuthServer& auth() noexcept { return *auth_; }
  const zone::SubdomainScheme& scheme() const noexcept { return *scheme_; }

  const intel::ThreatDb& threats() const noexcept { return intel_.threats; }
  const intel::GeoDb& geo() const noexcept { return intel_.geo; }
  const intel::OrgDb& orgs() const noexcept { return intel_.orgs; }

  net::IPv4Addr prober_address() const noexcept { return prober_addr_; }
  net::IPv4Addr auth_address() const noexcept { return auth_addr_; }

  std::uint32_t shard_id() const noexcept { return shard_id_; }
  std::uint32_t shard_count() const noexcept { return shard_count_; }

  /// The shard's shared codec scratch. Everything in this instance runs on
  /// one event loop (one thread), so the auth server, every resolver host,
  /// and the shard's scanner can encode through a single reusable buffer.
  dns::EncodeBuffer& codec_scratch() noexcept { return codec_scratch_; }

  /// Build every host of this shard's slice whose permutation index is
  /// below `end_index` and that is not built yet. The scanner calls it once
  /// per send batch, before the batch reaches the network, with the index
  /// one past the last raw step consumed (Scanner::set_advance_callback),
  /// so each host is bound before its probe is sent. A shard whose scanner
  /// is not wired to it has no probe-able hosts.
  void build_hosts_below(std::uint64_t end_index);

  /// Destroy every just-in-time host whose probe went out at or before
  /// `probed_by` and that is quiescent (ResolverHost::quiescent), banking
  /// its counters into resolver_totals(). A host that is due but still busy
  /// is checked again on the next call. ShardContext calls this at every
  /// reap tick with the scanner's expired-probe cutoff; a driver that sends
  /// to hosts again after their probe must not call it.
  void retire_quiescent(net::SimTime probed_by);

  /// Counters summed over every host this shard built, live or retired.
  struct ResolverTotals {
    resolver::HostStats stats;
    std::uint64_t cache_bypasses = 0;
    std::uint64_t upstream_queries = 0;
    void add(const resolver::ResolverHost& host);
  };
  ResolverTotals resolver_totals() const;

  /// Hosts built so far, resident ones included; each is built once.
  std::size_t hosts_built() const noexcept { return built_; }
  /// Hosts built at construction and kept to teardown: forwarder upstreams
  /// (planted here or replicated) and TCP listeners.
  std::size_t resident_host_count() const noexcept { return resident_.size(); }
  /// Just-in-time hosts built and not yet retired, now and at the peak.
  std::size_t live_host_count() const noexcept {
    return live_.size() + lingering_.size();
  }
  std::size_t peak_live_hosts() const noexcept { return peak_live_; }
  std::size_t hosts_retired() const noexcept { return retired_count_; }
  /// The built, not retired host at `addr`, or null. A linear scan, meant
  /// for tests and diagnostics.
  const resolver::ResolverHost* find_host(net::IPv4Addr addr) const;

  /// Distinct response-template sets derived for this shard's population
  /// (one per fabricating-profile shaping key, shared across its hosts).
  std::size_t response_template_count() const noexcept {
    return response_templates_.size();
  }

 private:
  std::unique_ptr<resolver::ResolverHost> make_host(const PlannedHost& ph);
  void retire(std::unique_ptr<resolver::ResolverHost> host);

  net::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  resolver::SimHierarchy hierarchy_;
  std::unique_ptr<zone::SubdomainScheme> scheme_;
  dns::EncodeBuffer codec_scratch_;  // before auth_/hosts: they hold a ref
  std::unique_ptr<authns::AuthServer> auth_;
  // Shared per-profile-shape template sets; before the hosts (they hold
  // non-owning pointers into these).
  std::vector<std::unique_ptr<resolver::ResponseTemplates>> response_templates_;
  // The campaign's profiles, shaped for this instance, and the template set
  // each one stamps from (null where the fast path does not apply). Every
  // template is derived at construction: deriving one mid-scan would
  // overwrite the shared codec scratch under a live encode.
  std::vector<resolver::BehaviorProfile> profiles_;
  std::vector<const resolver::ResponseTemplates*> profile_templates_;
  resolver::EngineConfig engine_config_;
  std::vector<std::unique_ptr<resolver::ResolverHost>> resident_;
  // This shard's just-in-time hosts, sorted by permutation index; the ones
  // from next_jit_ on are not built yet.
  std::vector<PlannedHost> jit_plan_;
  std::size_t next_jit_ = 0;
  // Built just-in-time hosts in probe order, each with its probe's send
  // time, and the ones past their window that were still busy.
  struct LiveHost {
    net::SimTime probed_at;
    std::unique_ptr<resolver::ResolverHost> host;
  };
  std::deque<LiveHost> live_;
  std::vector<std::unique_ptr<resolver::ResolverHost>> lingering_;
  ResolverTotals retired_totals_;
  std::size_t built_ = 0;
  std::size_t retired_count_ = 0;
  std::size_t peak_live_ = 0;
  IntelBundle intel_;
  net::IPv4Addr prober_addr_;
  net::IPv4Addr auth_addr_;
  std::uint32_t shard_id_ = 0;
  std::uint32_t shard_count_ = 1;
};

}  // namespace orp::core
