// A genuine iterative/recursive DNS resolver (RFC 1034 §5.3.3), the honest
// half of the open-resolver population and the reference implementation of
// Fig. 1: client query -> root referral -> TLD referral -> authoritative
// answer -> cached, RA=1 response.
//
// Asynchronous by construction: every network exchange is event-driven, so a
// resolver host costs nothing while idle and millions can coexist in one
// simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "dns/builder.h"
#include "dns/codec.h"
#include "net/transport.h"
#include "resolver/cache.h"
#include "resolver/root_tld.h"
#include "util/rng.h"

namespace orp::resolver {

struct ResolutionOutcome {
  bool success = false;
  dns::Rcode rcode = dns::Rcode::kServFail;
  std::vector<dns::ResourceRecord> answers;
};

using ResolutionCallback = std::function<void(const ResolutionOutcome&)>;

struct EngineConfig {
  RootHints hints;
  int max_referrals = 16;        // chain-length guard
  int max_retries = 2;           // per-server retransmits
  net::SimTime query_timeout = net::SimTime::seconds(5.0);
  /// EDNS(0) UDP payload size advertised upstream; 0 disables EDNS and
  /// caps responses at the classic 512 bytes.
  std::uint16_t edns_payload_size = 4096;
  /// Set the DNSSEC-OK (DO) bit on upstream queries — the observable marker
  /// of a validation-capable resolver (Fukuda et al. / Yu et al., §VI).
  bool dnssec_ok = false;
  /// On a truncated (TC=1) response, retry the server once with the
  /// maximum buffer — the simulation's stand-in for TCP fallback.
  bool retry_truncated = true;
};

/// Performs iterative resolutions on behalf of one host. Shares a cache and
/// an ephemeral-port allocator across concurrent resolutions.
class IterativeEngine {
 public:
  IterativeEngine(net::Network& network, net::IPv4Addr host,
                  EngineConfig config, std::uint64_t seed);
  ~IterativeEngine();

  IterativeEngine(const IterativeEngine&) = delete;
  IterativeEngine& operator=(const IterativeEngine&) = delete;

  /// Resolve qname/qtype; the callback fires exactly once.
  void resolve(const dns::DnsName& qname, dns::RRType qtype,
               ResolutionCallback done);

  DnsCache& cache() noexcept { return cache_; }
  std::uint64_t upstream_queries() const noexcept { return upstream_queries_; }
  std::uint64_t truncated_seen() const noexcept { return truncated_seen_; }
  /// Resolutions answered straight from the final-answer cache.
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  /// Resolutions that missed the final-answer cache and went to the network
  /// — for probe qnames this *confirms* the §III-B design goal that every
  /// unique subdomain bypasses resolver caches.
  std::uint64_t cache_bypasses() const noexcept { return cache_bypasses_; }
  /// Ephemeral ports bound plus timeout events scheduled and not yet fired:
  /// everything that can still call into this engine. Zero means the engine
  /// can be destroyed without leaving a dangling callback behind.
  std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  struct Resolution;

  void step(std::shared_ptr<Resolution> res);
  void send_query(std::shared_ptr<Resolution> res, net::IPv4Addr server);
  void on_response(std::shared_ptr<Resolution> res, const net::Datagram& d);
  void on_timeout(std::shared_ptr<Resolution> res, std::uint64_t attempt_id);
  void finish(std::shared_ptr<Resolution> res, ResolutionOutcome outcome);

  net::Network& network_;
  net::IPv4Addr host_;
  EngineConfig config_;
  util::Rng rng_;
  DnsCache cache_;
  std::uint16_t next_port_ = 20000;
  std::uint64_t upstream_queries_ = 0;
  std::uint64_t truncated_seen_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_bypasses_ = 0;
  std::size_t in_flight_ = 0;
};

}  // namespace orp::resolver
