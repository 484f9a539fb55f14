// The measurement's authoritative name server (paper §III-A2).
//
// Serves the controlled SLD: static apex records plus the currently-loaded
// probe-subdomain cluster (whose A records are derived from the
// SubdomainScheme rather than materialized — 5M synthetic names per cluster
// behave identically to a loaded zone file, without the memory).
// Answers with AA=1 and RA=0 (recursion disabled, as the paper's BIND
// configuration). Out-of-zone queries are REFUSED. Every received query and
// sent response is counted (the tcpdump vantage of Fig. 2: Q2 and R1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "dns/codec.h"
#include "dns/wire_template.h"
#include "net/stream.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "zone/cluster.h"
#include "zone/zone.h"

namespace orp::authns {

struct AuthStats {
  std::uint64_t queries_received = 0;   // Q2 at this vantage
  std::uint64_t responses_sent = 0;     // R1 at this vantage
  std::uint64_t answered = 0;           // NoError with answer
  std::uint64_t nxdomain = 0;
  std::uint64_t refused = 0;
  std::uint64_t formerr = 0;            // undecodable queries
  std::uint64_t truncated = 0;          // TC=1 responses (budget exceeded)
  std::uint64_t edns_queries = 0;       // queries carrying an OPT RR
  std::uint64_t dnssec_do_queries = 0;  // queries with the DO bit set
  std::uint64_t cluster_loads = 0;
  std::uint64_t template_stamped = 0;   // responses stamped from a template
  std::uint64_t template_fallback = 0;  // queries through the full path
  std::uint64_t tcp_queries = 0;        // queries arriving over a stream
  std::uint64_t tcp_responses = 0;      // responses served over a stream

  /// Merge another shard's auth-vantage counters. A sharded campaign runs
  /// one AuthServer instance per shard (each shard's loop is isolated);
  /// the Q2/R1 totals of the campaign are the sum across instances.
  AuthStats& operator+=(const AuthStats& o) noexcept {
    queries_received += o.queries_received;
    responses_sent += o.responses_sent;
    answered += o.answered;
    nxdomain += o.nxdomain;
    refused += o.refused;
    formerr += o.formerr;
    truncated += o.truncated;
    edns_queries += o.edns_queries;
    dnssec_do_queries += o.dnssec_do_queries;
    cluster_loads += o.cluster_loads;
    template_stamped += o.template_stamped;
    template_fallback += o.template_fallback;
    tcp_queries += o.tcp_queries;
    tcp_responses += o.tcp_responses;
    return *this;
  }
};

class AuthServer : private net::StreamHandler {
 public:
  /// The server answers for `scheme.sld()`. `addr` is its public address.
  /// `codec_scratch`, when given, is a shared single-threaded encode buffer
  /// (one per shard's SimulatedInternet); the server owns one otherwise.
  /// `wire_templates` enables the template fast path (recognize a probe
  /// query and stamp its answer without a decode/encode round); either
  /// setting yields bit-identical responses and identical stats, minus the
  /// template_* counters themselves.
  AuthServer(net::Network& network, net::IPv4Addr addr,
             zone::SubdomainScheme scheme, net::SimTime zone_load_latency,
             dns::EncodeBuffer* codec_scratch = nullptr,
             bool wire_templates = true);
  ~AuthServer();

  net::IPv4Addr address() const noexcept { return addr_; }
  const zone::SubdomainScheme& scheme() const noexcept { return scheme_; }
  const AuthStats& stats() const noexcept { return stats_; }

  /// Attach the shard's flow tracer (may be null). This vantage contributes
  /// the Q2/R1 span points — the tcpdump side of Fig. 2.
  void set_obs(obs::FlowTracer* tracer) noexcept { tracer_ = tracer; }

  /// Replace the loaded cluster (one zone file resident at a time, as in the
  /// paper). The load pauses answering for `zone_load_latency` of simulated
  /// time: queries arriving mid-load get SERVFAIL, which is what a BIND
  /// reload under memory pressure produced for the authors. The scanner
  /// coordinates by pausing sends across the load window, as the authors'
  /// pipeline did. `initial` marks the pre-scan load, which completes before
  /// probing starts and therefore opens no busy window.
  void load_cluster(std::uint32_t cluster, bool initial = false);

  std::uint32_t loaded_cluster() const noexcept { return loaded_cluster_; }

  /// Publish an additional static record under the SLD (TXT/MX/etc.) — used
  /// e.g. to study ANY-query amplification against a record-rich apex.
  void add_record(dns::ResourceRecord rr);

  /// Server-side UDP response cap: responses exceeding `limit` bytes are
  /// cut at the largest whole-record boundary with TC=1 (dns::Truncator),
  /// on top of the client's EDNS budget. 0 (default) disables the cap.
  /// Engaged by the truncation/fallback study; the measurement campaign
  /// never sets it.
  void set_udp_limit(std::uint16_t limit) noexcept;

  /// Also answer DNS over TCP on port 53 — full responses, never capped
  /// (RFC 7766 conduct for a truncating authoritative).
  void enable_tcp();
  std::uint16_t udp_limit() const noexcept { return udp_limit_; }

  /// Total simulated time spent loading zones.
  net::SimTime load_time_total() const noexcept { return load_time_total_; }

 private:
  void on_datagram(const net::Datagram& d);
  /// Grouped-delivery entry point: span-order per-query processing,
  /// equivalent to one on_datagram call per item.
  void on_batch(const net::DatagramBatch& b);
  /// DNS-over-TCP entry point (enable_tcp): full answers down the same
  /// connection, exempt from both the EDNS budget and udp_limit_. The
  /// stream vantage is not flow-traced — the TCP span points of a fallback
  /// flow are recorded by the retrying scanner, not here.
  void on_message(net::ConnId c, net::SimTime at,
                  const net::PayloadRef& msg) override;
  dns::Message answer(const dns::Message& query);

  net::Network& network_;
  net::IPv4Addr addr_;
  dns::EncodeBuffer own_scratch_;
  dns::EncodeBuffer& codec_scratch_;
  zone::SubdomainScheme scheme_;
  zone::Zone apex_zone_;
  net::SimTime zone_load_latency_;
  net::SimTime load_busy_until_;
  net::SimTime load_time_total_;
  std::uint32_t loaded_cluster_ = 0;
  std::uint16_t udp_limit_ = 0;
  /// Both response templates fit under udp_limit_ (always true at 0), so
  /// the stamp fast path never needs a truncation pass. Recomputed by
  /// set_udp_limit; checked alongside templates_ok_.
  bool tpl_fit_limit_ = true;
  bool tcp_enabled_ = false;
  AuthStats stats_;
  obs::FlowTracer* tracer_ = nullptr;

  // Probe fast path: recognize an in-width A query for the scheme via
  // query_tpl_.match(), stamp the answer (or NXDOMAIN) from a pre-encoded
  // template. Engaged when the server is not mid-reload; tracer-marked
  // flows stay on it too (their Q2/R1 span points are recorded around the
  // stamp). Everything else (EDNS variants, apex, out-of-zone, FORMERR)
  // can't match the template and takes the full path.
  dns::WireTemplate query_tpl_;
  dns::WireTemplate answer_tpl_;
  dns::WireTemplate nx_tpl_;
  bool templates_ok_ = false;
};

}  // namespace orp::authns
