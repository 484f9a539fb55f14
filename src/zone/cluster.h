// The paper's two-tier subdomain scheme (Fig. 3) and cluster lifecycle.
//
// Probe qnames look like  or<CCC>.<NNNNNNN>.<sld>  — a 3-digit cluster
// number and a 7-digit per-subdomain number. One cluster holds the
// `cluster_size` (paper: 5,000,000) subdomains the authoritative server can
// reliably load at once; exhausting a cluster triggers a zone reload
// (~1 minute at full scale), so the prober's *subdomain reuse* strategy
// (only retire a subdomain once a response consumed it) cuts total loads
// from a theoretical ~800 to ~4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "dns/decode_view.h"
#include "dns/name.h"
#include "net/ipv4.h"
#include "net/sim_time.h"

namespace orp::zone {

/// Identifies one probe subdomain: (cluster number, index within cluster).
struct SubdomainId {
  std::uint32_t cluster = 0;
  std::uint32_t index = 0;

  friend constexpr auto operator<=>(const SubdomainId&,
                                    const SubdomainId&) noexcept = default;
};

/// Deterministic naming + ground-truth mapping for probe subdomains.
/// Both the authoritative server (to answer) and the analyzer (to judge
/// correctness) derive the expected A record from the qname alone, exactly
/// as the paper's pipeline matched flows by qname.
class SubdomainScheme {
 public:
  /// `sld` is the controlled second-level domain (paper:
  /// ucfsealresearch.net). `cluster_size` defaults to the paper's 5M but is
  /// scaled down alongside everything else in scaled runs.
  SubdomainScheme(dns::DnsName sld, std::uint32_t cluster_size,
                  std::uint64_t seed);

  const dns::DnsName& sld() const noexcept { return sld_; }
  std::uint32_t cluster_size() const noexcept { return cluster_size_; }

  /// "or012.0034567.<sld>"
  dns::DnsName qname(SubdomainId id) const;

  /// Storage canonical_key() renders into: two numeric labels at full
  /// 10-digit width plus the canonical sld.
  static constexpr std::size_t kKeyCapacity = dns::kMaxNameLength + 32;

  /// The canonical key of qname(id) ("or012.0034567.<sld>", lowercased, no
  /// trailing dot), byte-for-byte qname(id).canonical_key() without
  /// building the name. The scanner groups R2s by it (§III-B).
  std::string_view canonical_key(
      SubdomainId id, std::span<char, kKeyCapacity> buf) const noexcept;

  /// The probe's flow key: FNV-1a of canonical_key(id). The scanner marks
  /// sampled flows with it and the auth server's fast path looks them up.
  std::uint64_t flow_key(SubdomainId id) const noexcept;

  /// Strict inverse of canonical_key(): the id whose canonical key is
  /// exactly `key`, or nullopt. Anything that does not round-trip (wrong
  /// zero padding, overlong digits, another sld) is not a probe key.
  std::optional<SubdomainId> parse_key(std::string_view key) const;

  /// Parse a probe qname back to its id; nullopt if not one of ours.
  std::optional<SubdomainId> parse(const dns::DnsName& qname) const;

  /// Same, reading the qname straight out of a zero-copy DecodeView —
  /// the analyzer's hot path never materializes a DnsName.
  std::optional<SubdomainId> parse(const dns::NameView& qname) const;

  /// The correct (ground-truth) answer the authoritative server publishes
  /// for this subdomain: a deterministic pseudo-random public IPv4 address.
  net::IPv4Addr ground_truth(SubdomainId id) const;

 private:
  dns::DnsName sld_;
  std::string key_suffix_;  // canonical bytes after "or###.#######"
  std::uint32_t cluster_size_;
  std::uint64_t seed_;
};

/// Statistics of the cluster lifecycle — what Fig. 3 / §III-B quantify.
struct ClusterStats {
  std::uint32_t clusters_loaded = 0;
  std::uint64_t subdomains_issued = 0;
  std::uint64_t subdomains_reused = 0;
  net::SimTime load_time_total;

  /// Merge another shard's lifecycle counters (one ClusterManager per shard).
  ClusterStats& operator+=(const ClusterStats& o) noexcept {
    clusters_loaded += o.clusters_loaded;
    subdomains_issued += o.subdomains_issued;
    subdomains_reused += o.subdomains_reused;
    load_time_total += o.load_time_total;
    return *this;
  }
};

/// Allocates subdomains to probe targets and manages cluster rotation.
///
/// Allocation policy (paper §III-B "Subdomain Reuse"): hand out fresh
/// subdomains from the current cluster; when the cluster is exhausted,
/// prefer *reusing* subdomains whose earlier probe never produced an R2
/// (they are guaranteed uncached anywhere), and only rotate to a new
/// cluster when the reusable pool is empty too.
class ClusterManager {
 public:
  /// `load_latency` is the zone-load pause charged per rotation
  /// (paper: ~1 minute for 5M names).
  ClusterManager(SubdomainScheme scheme, net::SimTime load_latency);

  /// Get a subdomain for the next probe. May trigger a rotation.
  SubdomainId acquire();

  /// Report that subdomain `id` produced no R2 — it becomes reusable.
  void release_unanswered(SubdomainId id);

  /// Report that subdomain `id` was consumed by an R2 — never reused.
  void retire_answered(SubdomainId id);

  const SubdomainScheme& scheme() const noexcept { return scheme_; }
  const ClusterStats& stats() const noexcept { return stats_; }
  std::uint32_t current_cluster() const noexcept { return current_cluster_; }

 private:
  void rotate();

  SubdomainScheme scheme_;
  net::SimTime load_latency_;
  std::uint32_t current_cluster_ = 0;
  std::uint32_t next_index_ = 0;
  std::vector<SubdomainId> reusable_;
  ClusterStats stats_;
};

}  // namespace orp::zone
