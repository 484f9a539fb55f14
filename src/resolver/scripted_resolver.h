// A simulated host executing one BehaviorProfile on port 53.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "dns/wire_template.h"
#include "net/stream.h"
#include "resolver/behavior.h"
#include "resolver/recursive_resolver.h"
#include "resolver/rrl.h"

namespace orp::resolver {

struct HostStats {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t recursions = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t truncated = 0;      // responses cut to the client's UDP budget
  std::uint64_t rrl_dropped = 0;    // suppressed by response-rate limiting
  std::uint64_t rrl_slipped = 0;    // replaced by a minimal TC=1 nudge
  std::uint64_t template_stamped = 0;   // responses stamped from a template
  std::uint64_t template_fallback = 0;  // queries through the full path
  std::uint64_t tcp_queries = 0;    // queries arriving over a stream
  std::uint64_t tcp_responses = 0;  // responses served over a stream

  HostStats& operator+=(const HostStats& o) noexcept {
    queries += o.queries;
    responses += o.responses;
    recursions += o.recursions;
    forwarded += o.forwarded;
    truncated += o.truncated;
    rrl_dropped += o.rrl_dropped;
    rrl_slipped += o.rrl_slipped;
    template_stamped += o.template_stamped;
    template_fallback += o.template_fallback;
    tcp_queries += o.tcp_queries;
    tcp_responses += o.tcp_responses;
    return *this;
  }
};

/// Header stamping shared by every fabricating path and the template
/// factory (Tables IV-VI bit lies).
void stamp_profile(const BehaviorProfile& profile, dns::Message& response);

/// The full fabricated response for `profile` answering `query` (§IV answer
/// modes + header stamping). Sets `raw_counts` when the message must be
/// encoded with its forged header counts (AnswerMode::kUndecodable). The
/// per-query slow path and the template factory both call this, so the two
/// can never drift.
dns::Message build_fabricated_response(const BehaviorProfile& profile,
                                       const dns::Message& query,
                                       bool& raw_counts);

/// Pre-encoded templates for one fabricating profile. The response bytes
/// depend only on the profile and the probe vars — not on the host address —
/// so one ResponseTemplates instance is shared by every host running the
/// profile (the builder caches by shaping key).
struct ResponseTemplates {
  dns::WireTemplate query;     // recognizes an in-width probe A query
  dns::WireTemplate response;  // the profile's fabricated response
  dns::WireTemplate slip;      // the RRL slip: sections cleared, TC=1
  bool raw_counts = false;     // response encodes through raw header counts
  bool usable = false;
  bool ok() const noexcept { return usable; }
};

/// Renders the probe qname for (cluster, index) — the builder passes the
/// campaign's SubdomainScheme::qname.
using ProbeQnameFactory =
    std::function<dns::DnsName(std::uint32_t cluster, std::uint32_t index)>;

/// Derive the template set for `profile`. Returns not-usable for profiles
/// the fast path cannot serve (non-responding, forwarders, genuine
/// recursion) and for any shape the differential derivation declines.
ResponseTemplates build_response_templates(const BehaviorProfile& profile,
                                           const ProbeQnameFactory& qname,
                                           dns::EncodeBuffer& scratch);

/// Where a response goes: back out the UDP socket (conn == kNilConn) or
/// down the stream connection the query arrived on. Small enough to ride in
/// the resolution callbacks unchanged.
struct ReplyTo {
  net::Endpoint client;
  net::ConnId conn = net::kNilConn;
  bool via_stream() const noexcept { return conn != net::kNilConn; }
};

class ResolverHost : private net::StreamHandler {
 public:
  /// `engine_config` supplies root hints for profiles that genuinely
  /// recurse; it is unused (and the engine never instantiated) otherwise.
  /// `codec_scratch`, when given, is the shard-shared encode buffer (all
  /// hosts of one SimulatedInternet run on one event loop); each host owns
  /// a buffer otherwise. `templates`, when given and usable, enables the
  /// stamp fast path for in-width probe queries; it must outlive the host
  /// and match this profile's shaping key. Either way the wire bytes and
  /// stats are identical, minus the template_* counters themselves.
  ResolverHost(net::Network& network, net::IPv4Addr addr,
               BehaviorProfile profile, EngineConfig engine_config,
               std::uint64_t seed, dns::EncodeBuffer* codec_scratch = nullptr,
               const ResponseTemplates* templates = nullptr);
  ~ResolverHost();

  ResolverHost(const ResolverHost&) = delete;
  ResolverHost& operator=(const ResolverHost&) = delete;

  net::IPv4Addr address() const noexcept { return addr_; }
  const BehaviorProfile& profile() const noexcept { return profile_; }
  const HostStats& stats() const noexcept { return stats_; }
  /// The host's iterative engine, or null if this profile never recursed
  /// (the engine is instantiated lazily on first genuine recursion).
  const IterativeEngine* engine() const noexcept { return engine_.get(); }
  /// True when nothing can call into this host but a new datagram to :53:
  /// no scheduled response (emit, fast_respond) captures it, no forwarded
  /// query holds an ephemeral port, and its engine (if any) has no bound
  /// port and no pending timeout. A quiescent host can be destroyed without
  /// leaving a dangling callback; a forwarder whose upstream reply was lost
  /// keeps its port, so it never becomes quiescent.
  bool quiescent() const noexcept {
    return in_flight_ == 0 && (!engine_ || engine_->in_flight() == 0);
  }

 private:
  void on_query(const net::Datagram& d);
  /// DNS-over-TCP entry point (profile.tcp): one whole query message per
  /// on_message, answered over the same connection — full answers, no
  /// truncation, no RRL (TCP clients are return-routable by construction,
  /// which is the entire point of the TC=1 nudge).
  void on_message(net::ConnId c, net::SimTime at,
                  const net::PayloadRef& msg) override;
  void handle_query(std::span<const std::uint8_t> wire, ReplyTo to);
  void respond_chaos(const dns::Message& query, ReplyTo to);
  void respond_fabricated(const dns::Message& query, ReplyTo to);
  /// Template fast path: the RRL gate + stamp of emit(), minus the
  /// decode/build/encode round it makes unnecessary.
  void fast_respond(const dns::StampVars& v, net::Endpoint client);
  void respond_recursive(const dns::Message& query, ReplyTo to);
  void respond_forwarded(const dns::Message& query, net::Endpoint client);
  void emit(dns::Message response, ReplyTo to, bool raw_counts,
            std::size_t budget);

  /// Apply this profile's header stamping to a response under construction.
  void stamp(dns::Message& response) const;

  net::Network& network_;
  net::IPv4Addr addr_;
  dns::EncodeBuffer own_scratch_;
  dns::EncodeBuffer& codec_scratch_;
  BehaviorProfile profile_;
  EngineConfig engine_config_;
  std::uint64_t seed_;
  std::unique_ptr<IterativeEngine> engine_;  // lazily created
  std::uint16_t next_port_ = 10000;
  ResponseRateLimiter rrl_;
  const ResponseTemplates* tpl_ = nullptr;
  HostStats stats_;
  std::size_t in_flight_ = 0;  // scheduled responses + forwarded-query ports
};

}  // namespace orp::resolver
