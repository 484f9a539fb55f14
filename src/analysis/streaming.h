// Behavioral analysis: the one accumulator every §IV table comes from.
//
// Each shard classifies every R2 *as it is captured* (the scanner's R2
// callback) and folds it into a PartialTables owned by the shard; nothing
// per-response survives the scan. Shards stay share-nothing and the
// pipeline merges the partials with `operator+=` exactly like ScanStats, so
// peak memory is O(shards x distinct values + exemplars), not O(probes).
// `analyze_scan` (report.h) is the same fold over a span of views.
//
// Layout independence (pinned by PipelineSharding.StreamingAnalysisIsExact
// against goldens frozen from the retired whole-campaign pass): the
// finalized ScanAnalysis is byte-identical for every shard layout, batch
// cap and wire-template setting (under packet loss, for a fixed shard
// layout: loss draws come from per-shard streams). The two non-obvious
// pieces:
//
//  - Exemplars. An example string is the "first view in canonical order
//    with the property", where canonical order is a stable sort by resolver
//    address over shard-order concatenation. So the canonical first is
//    exactly: minimum resolver address, ties broken by (shard index,
//    arrival order). A per-shard exemplar that replaces only on a strictly
//    smaller resolver (keeping the first arrival on equal), merged
//    left-to-right in shard order with the same strict comparison,
//    reproduces it without retaining any view.
//
//  - Top-K / geo sketches. The wrong-IP table keeps the *full* count map
//    (bounded by distinct wrong addresses, not probes) and ranks at
//    finalize with a (count desc, addr asc) total order; the geo table
//    keeps an ordered per-country count map. Both merges are commutative
//    sums, so the ranking inputs — and therefore the rendered rows — are
//    independent of the shard layout.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "analysis/report.h"

namespace orp::analysis {

/// "First in canonical view order" for an IP-valued example: the minimum
/// resolver address wins; within one shard the first arrival at that
/// resolver wins (strict `<` on offer), across shards the earlier shard
/// wins (strict `<` on merge, applied in shard order).
struct IpExemplar {
  bool set = false;
  std::uint32_t resolver = 0;
  std::uint32_t ip = 0;

  /// Returns true when the exemplar changed (surfaced as a metric).
  bool offer(std::uint32_t resolver_addr, std::uint32_t ip_value) noexcept {
    if (set && resolver_addr >= resolver) return false;
    set = true;
    resolver = resolver_addr;
    ip = ip_value;
    return true;
  }
  void merge(const IpExemplar& o) {
    if (o.set && (!set || o.resolver < resolver)) *this = o;
  }
};

/// Same selection rule for a text-valued example (URL / garbage string),
/// with one quirk: an empty text (SOA/MX/AAAA answers classify as kString
/// with no text) never fills the example slot, so the canonical example is
/// the first *non-empty* value.
struct TextExemplar {
  bool set = false;
  std::uint32_t resolver = 0;
  std::string text;

  bool offer(std::uint32_t resolver_addr, const std::string& value) {
    if (value.empty()) return false;
    if (set && resolver_addr >= resolver) return false;
    set = true;
    resolver = resolver_addr;
    text = value;  // reuses capacity; replacements are rare and bounded
    return true;
  }
  void merge(const TextExemplar& o) {
    if (o.set && (!set || o.resolver < resolver)) {
      set = true;
      resolver = o.resolver;
      text = o.text;
    }
  }
};

/// One shard's worth of streamed table state. Everything is either a flat
/// counter, a distinct-value set/count-map (bounded by distinct values
/// observed, not by probe count), or a canonical-order exemplar; the merge
/// is a commutative fold except for exemplar ties, which `operator+=`
/// resolves in application (shard) order.
struct PartialTables {
  std::uint64_t r2_total = 0;  // every R2, undecodable headers included
  AnswerBreakdown answers;     // Table III
  FlagTable ra;                // Table IV
  FlagTable aa;                // Table V
  RcodeTable rcodes;           // Table VI

  // Table VII: per-form counts, distinct-value sets, canonical exemplars.
  std::uint64_t ip_r2 = 0, url_r2 = 0, str_r2 = 0, na_r2 = 0;
  std::unordered_set<std::string> unique_urls;
  std::unordered_set<std::string> unique_strings;
  IpExemplar ip_example;
  TextExemplar url_example, str_example;

  // Table VIII: the full wrong-IP count map (its key set is also Table
  // VII's distinct wrong-IP count); ranked + attributed at finalize.
  std::unordered_map<std::uint32_t, std::uint64_t> wrong_ip_counts;

  // Tables IX-X: per-category counts + distinct-IP sets, flag split.
  std::array<std::uint64_t, intel::kThreatCategoryCount> category_r2{};
  std::array<std::unordered_set<std::uint32_t>, intel::kThreatCategoryCount>
      category_ips;
  std::unordered_set<std::uint32_t> malicious_ips;
  std::uint64_t mal_r2 = 0;
  std::uint64_t mal_ra0 = 0, mal_ra1 = 0, mal_aa0 = 0, mal_aa1 = 0;
  std::uint64_t mal_rcode_noerror = 0;

  // §IV-C2: resolver country of each malicious R2.
  std::map<std::string, std::uint64_t> malicious_by_country;

  EmptyQuestionSummary empty_question;  // §IV-B4

  // §V private redirects.
  std::uint64_t priv_r2 = 0, priv_rfc1918 = 0, priv_cgn = 0;
  std::unordered_set<std::uint32_t> priv_unique;

  /// Order-insensitive digest over the behavioral content of the observed
  /// views: a wrapping sum of one hash per view, merged by addition. A
  /// resolver's R2 behavior (flags, rcode, answer form/correctness, rewrite
  /// target) is a pure function of its profile and seed; the probe qname,
  /// DNS txn id and arrival time are allocation-order artifacts, so only the
  /// former are folded and the digest is equal across thread counts — the
  /// pipeline's cross-shard determinism check (ScanOutcome::capture_digest).
  std::uint64_t digest = 0;

  /// Times an exemplar replacement fired (arrival-order dependent, so this
  /// is a thread-variant diagnostic, not table content).
  std::uint64_t exemplar_updates = 0;

  /// Fold one classified view in. Allocation-free once every distinct
  /// value has been seen (steady state — pinned by the alloc-budget suite).
  void observe(const R2View& v, const intel::ThreatDb& threats,
               const intel::GeoDb& geo, const intel::OrgDb& orgs);

  /// Deterministic shard merge: counters sum, sets union, count maps add,
  /// exemplars keep the canonical-order winner. Apply in shard order.
  PartialTables& operator+=(const PartialTables& o);

  /// Rank, attribute and package into the result type.
  ScanAnalysis finalize(const intel::OrgDb& orgs,
                        const intel::ThreatDb& threats) const;

  /// Rough live footprint of the accumulator (containers + strings), for
  /// the obs gauge; exact byte accounting is not worth hashing the heap.
  std::size_t footprint_bytes() const noexcept;
};

/// The per-shard R2 consumer behind the scanner's R2 callback: classifies
/// each captured response into a reused scratch view (zero allocations
/// steady-state) and folds it into the shard's PartialTables. Intel lookups
/// use the shard's IntelBundle, which is built from campaign-global inputs
/// only and therefore identical in every shard.
class StreamingAnalyzer {
 public:
  StreamingAnalyzer(const zone::SubdomainScheme& scheme,
                    const intel::ThreatDb& threats, const intel::GeoDb& geo,
                    const intel::OrgDb& orgs)
      : scheme_(scheme), threats_(threats), geo_(geo), orgs_(orgs) {}

  void on_r2(net::SimTime time, net::IPv4Addr resolver,
             std::span<const std::uint8_t> payload);

  PartialTables& tables() noexcept { return tables_; }
  const PartialTables& tables() const noexcept { return tables_; }

 private:
  const zone::SubdomainScheme& scheme_;
  const intel::ThreatDb& threats_;
  const intel::GeoDb& geo_;
  const intel::OrgDb& orgs_;
  R2View scratch_;
  PartialTables tables_;
};

}  // namespace orp::analysis
