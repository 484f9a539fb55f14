// Behavior profiles for the open-resolver population.
//
// §IV of the paper is a taxonomy of how resolvers *actually* answer: honest
// recursion, recursion with mis-set RA/AA bits, refusals, server failures,
// fabricated ("manipulated") answers pointing at fixed/malicious/private
// addresses, URL and garbage-string answers, responses with no question
// section, and answers that do not decode at all. A BehaviorProfile is the
// machine-readable version of one taxon; the calibrated population is a
// multiset of profiles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dns/types.h"
#include "net/ipv4.h"
#include "net/sim_time.h"
#include "resolver/rrl.h"

namespace orp::resolver {

enum class AnswerMode : std::uint8_t {
  kNone = 0,        // respond without an answer section
  kRecursive,       // genuinely recurse; return the real result
  kFixedIp,         // fabricate a fixed A record (manipulation/redirect)
  kUrl,             // fabricate a CNAME-style name answer (Table VII "URL")
  kGarbageString,   // fabricate a TXT/garbage answer (Table VII "string")
  kUndecodable,     // emit an answer section that fails to decode (2013 N/A)
};

std::string_view to_string(AnswerMode m) noexcept;

struct BehaviorProfile {
  /// False models a host that is not an open resolver (or is firewalled):
  /// the probe simply never comes back. ~99.8% of the address space.
  bool respond = true;

  AnswerMode answer = AnswerMode::kRecursive;

  /// Header bits/fields stamped on R2 — *not* necessarily truthful, which is
  /// the paper's central observation (Tables IV-VI).
  bool ra = true;
  bool aa = false;
  dns::Rcode rcode = dns::Rcode::kNoError;

  /// Omit the question section from R2 (the 494 packets of §IV-B4).
  bool omit_question = false;

  /// Payloads for the fabricating modes.
  net::IPv4Addr fixed_answer;
  std::string text_answer;

  /// Number of parallel backend resolutions per client query (resolver
  /// farms / retry amplification). Calibrated so the fleet-wide Q2:R2 ratio
  /// matches Table II (~4.7 per answering resolver in 2018).
  int backend_fan = 1;

  /// Forwarder (CPE proxy): relay the query to `upstream` and pass the
  /// answer back, restamping the header per this profile.
  bool forwarder = false;
  net::IPv4Addr upstream;

  /// Local processing latency before the response leaves.
  net::SimTime response_delay = net::SimTime::millis(30);

  /// Response-rate limiting (disabled by default; see rrl.h). An operator
  /// mitigation, not a behavior the paper's population exhibits.
  RrlConfig rrl;

  /// DNSSEC-validation capability: sets the DO bit on upstream queries,
  /// which the authoritative server can count (the check-repeat-style
  /// validator census of §VI).
  bool dnssec_ok = false;

  /// Software banner served for CHAOS-class "version.bind" TXT queries
  /// (the fingerprinting surface Takano et al. surveyed; §VI). Empty =
  /// the query is REFUSED, as hardened deployments configure.
  std::string version;

  /// Server-side UDP response cap (bytes). Responses whose encoded form
  /// exceeds it are cut at the largest whole-record boundary with TC=1
  /// (dns::Truncator) — on top of the client's EDNS-advertised budget,
  /// which is honored either way. 0 = no server-side cap. This is the
  /// truncation knob of the DoTCP fallback study.
  std::uint16_t udp_limit = 0;

  /// Also serve DNS over TCP on port 53 (full answers, never truncated).
  /// Forwarder profiles ignore this — CPE proxies in the wild rarely
  /// listen on TCP, which is exactly what makes their truncated answers
  /// terminal.
  bool tcp = false;

  friend bool operator==(const BehaviorProfile&,
                         const BehaviorProfile&) = default;
};

}  // namespace orp::resolver
