#include "authns/auth_server.h"

#include "dns/builder.h"
#include "dns/edns.h"
#include "dns/truncate.h"
#include "util/hash.h"

namespace orp::authns {
namespace {

dns::SoaRdata make_soa(const dns::DnsName& sld) {
  dns::SoaRdata soa;
  soa.mname = sld.child("ns1");
  soa.rname = sld.child("hostmaster");
  soa.serial = 2018042601;
  return soa;
}

}  // namespace

AuthServer::AuthServer(net::Network& network, net::IPv4Addr addr,
                       zone::SubdomainScheme scheme,
                       net::SimTime zone_load_latency,
                       dns::EncodeBuffer* codec_scratch, bool wire_templates)
    : network_(network),
      addr_(addr),
      codec_scratch_(codec_scratch != nullptr ? *codec_scratch : own_scratch_),
      scheme_(std::move(scheme)),
      apex_zone_(scheme_.sld(), make_soa(scheme_.sld())),
      zone_load_latency_(zone_load_latency) {
  apex_zone_.add(dns::ResourceRecord{scheme_.sld(), dns::RRType::kNS,
                                     dns::RRClass::kIN, 172800,
                                     dns::NameRdata{scheme_.sld().child("ns1")}});
  apex_zone_.add(dns::ResourceRecord{scheme_.sld().child("ns1"),
                                     dns::RRType::kA, dns::RRClass::kIN,
                                     172800, dns::ARdata{addr_}});
  network_.bind_batch(
      net::Endpoint{addr_, net::kDnsPort},
      [this](const net::Datagram& d) { on_datagram(d); },
      [this](const net::DatagramBatch& b) { on_batch(b); });
  if (wire_templates) {
    // The dominant Q2 shape: an iterative (RD=0) A query for a probe
    // subdomain carrying the engines' default EDNS OPT (4096, DO=0).
    // DNSSEC validators (DO=1), "TCP" retries (65535), and every other
    // variant differ in wire bytes and fall through to the full path, so
    // the edns/do counters stay exact.
    const auto probe_query = [this](const dns::StampVars& v) {
      dns::Message q = dns::make_query(
          v.txn, scheme_.qname({v.cluster, v.index}), dns::RRType::kA);
      q.header.flags.rd = false;
      dns::set_edns(q, dns::EdnsInfo{.udp_payload_size = 4096});
      return q;
    };
    // Responses echo our own OPT, exactly as the slow path negotiates.
    query_tpl_ = dns::WireTemplate::derive(probe_query, codec_scratch_);
    answer_tpl_ = dns::WireTemplate::derive(
        [&](const dns::StampVars& v) {
          dns::Message r = dns::make_a_response(
              probe_query(v), net::IPv4Addr{v.addr}, v.ttl, /*ra=*/false,
              /*aa=*/true);
          dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
          return r;
        },
        codec_scratch_);
    nx_tpl_ = dns::WireTemplate::derive(
        [&](const dns::StampVars& v) {
          dns::Message r = dns::make_error_response(
              probe_query(v), dns::Rcode::kNXDomain, /*ra=*/false);
          r.header.flags.aa = true;
          dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
          return r;
        },
        codec_scratch_);
    // All three must have derived, and both responses must fit the classic
    // 512-byte budget so truncate_to_fit on the slow path is a no-op for
    // these shapes (the fast path skips it).
    templates_ok_ = query_tpl_.ok() && answer_tpl_.ok() && nx_tpl_.ok() &&
                    answer_tpl_.size() <= 512 && nx_tpl_.size() <= 512;
  }
  load_cluster(0, /*initial=*/true);
}

AuthServer::~AuthServer() {
  if (tcp_enabled_)
    network_.streams().unlisten(net::Endpoint{addr_, net::kDnsPort});
}

void AuthServer::set_udp_limit(std::uint16_t limit) noexcept {
  udp_limit_ = limit;
  tpl_fit_limit_ =
      limit == 0 || (answer_tpl_.size() <= limit && nx_tpl_.size() <= limit);
}

void AuthServer::enable_tcp() {
  if (tcp_enabled_) return;
  tcp_enabled_ = true;
  network_.streams().listen(net::Endpoint{addr_, net::kDnsPort}, this);
}

void AuthServer::load_cluster(std::uint32_t cluster, bool initial) {
  loaded_cluster_ = cluster;
  ++stats_.cluster_loads;
  load_time_total_ += zone_load_latency_;
  if (!initial)
    load_busy_until_ = network_.loop().now() + zone_load_latency_;
}

void AuthServer::add_record(dns::ResourceRecord rr) {
  apex_zone_.add(std::move(rr));
}

void AuthServer::on_batch(const net::DatagramBatch& b) {
  // Span-order per-query processing; the auth server stays bound for the
  // whole campaign, so this is exactly the per-packet path without the
  // per-item binding re-check.
  for (std::size_t i = 0; i < b.size(); ++i)
    on_datagram(net::Datagram{b.srcs[i], b.dst, b.payloads[i]});
}

void AuthServer::on_datagram(const net::Datagram& d) {
  ++stats_.queries_received;
  // Probe fast path: a wire-exact in-width A query for the loaded scheme is
  // answered by stamping a pre-encoded response — no decode, no encode.
  // Gated off while a zone reload is in flight (those queries take the full
  // path and its SERVFAIL). Tracer-marked flows stay on the fast path: the
  // Q2/R1 span points are recorded around the stamp, with the same
  // timestamps and peer the full path would record (no simulated time
  // passes inside a handler), so the trace is identical while the marked
  // query still costs one stamp instead of a decode/encode round — qname
  // reuse makes the marked set cover far more queries than the 1-in-N
  // sampling rate suggests.
  dns::StampVars v;
  if (templates_ok_ && tpl_fit_limit_ &&
      network_.loop().now() >= load_busy_until_ &&
      query_tpl_.match(d.payload, v)) {
    ++stats_.edns_queries;  // the matched shape always carries EDNS, DO=0
    std::uint64_t traced_flow = 0;
    bool traced = false;
    if (tracer_ != nullptr) {
      const std::uint64_t flow = scheme_.flow_key({v.cluster, v.index});
      if (tracer_->marked(flow)) {
        traced_flow = flow;
        traced = true;
        tracer_->record(flow, obs::SpanPoint::kQ2Auth, network_.loop().now(),
                        d.src.addr.value());
      }
    }
    const zone::SubdomainId id{v.cluster, v.index};
    const bool resident =
        id.cluster == loaded_cluster_ ||
        (loaded_cluster_ > 0 && id.cluster == loaded_cluster_ - 1);
    std::span<const std::uint8_t> wire;
    if (resident && id.index < scheme_.cluster_size()) {
      ++stats_.answered;
      v.ttl = 300;
      v.addr = scheme_.ground_truth(id).value();
      wire = answer_tpl_.stamp(v, codec_scratch_);
    } else {
      ++stats_.nxdomain;
      wire = nx_tpl_.stamp(v, codec_scratch_);
    }
    ++stats_.template_stamped;
    ++stats_.responses_sent;
    network_.send(net::Endpoint{addr_, net::kDnsPort}, d.src, wire);
    if (traced)
      tracer_->record(traced_flow, obs::SpanPoint::kR1Sent,
                      network_.loop().now(), d.src.addr.value());
    return;
  }
  ++stats_.template_fallback;
  const auto decoded = dns::decode(d.payload);
  if (!decoded) {
    // RFC 1035: unintelligible query -> FORMERR with whatever id we can read.
    ++stats_.formerr;
    dns::Message err;
    if (d.payload.size() >= 2)
      err.header.id =
          static_cast<std::uint16_t>((d.payload[0] << 8) | d.payload[1]);
    err.header.flags.qr = true;
    err.header.flags.rcode = dns::Rcode::kFormErr;
    ++stats_.responses_sent;
    const auto wire = dns::encode_into(err, codec_scratch_);
    network_.send(net::Endpoint{addr_, net::kDnsPort}, d.src, wire);
    return;
  }
  if (const auto edns = dns::extract_edns(*decoded)) {
    ++stats_.edns_queries;
    if (edns->do_bit) ++stats_.dnssec_do_queries;
  }
  // Sampled-flow tracing: the Q2 span point. One hash-set probe per query;
  // only flows the scanner marked at Q1 are recorded.
  std::uint64_t traced_flow = 0;
  bool traced = false;
  if (tracer_ != nullptr && !decoded->questions.empty()) {
    char key_buf[dns::kMaxNameLength];
    const std::uint64_t flow =
        util::Fnv1a{}
            .bytes(decoded->questions.front().qname.canonical_key_into(key_buf))
            .value();
    if (tracer_->marked(flow)) {
      traced_flow = flow;
      traced = true;
      tracer_->record(flow, obs::SpanPoint::kQ2Auth, network_.loop().now(),
                      d.src.addr.value());
    }
  }
  dns::Message response = answer(*decoded);
  // EDNS negotiation (RFC 6891): echo an OPT advertising our own buffer,
  // and truncate to the client's budget — 512 bytes for classic DNS.
  if (dns::extract_edns(*decoded))
    dns::set_edns(response, dns::EdnsInfo{.udp_payload_size = 4096});
  if (dns::truncate_to_fit(response, dns::response_size_budget(*decoded)))
    ++stats_.truncated;
  ++stats_.responses_sent;
  auto wire = dns::encode_into(response, codec_scratch_);
  // Server-side UDP cap: a wire-level whole-record cut with TC=1 on top of
  // whatever the client's EDNS budget already allowed. The TCP listener
  // (enable_tcp) serves the same query un-cut, which is what makes the
  // TC=1 bit an invitation rather than a dead end.
  if (udp_limit_ != 0 && wire.size() > udp_limit_) {
    std::span<std::uint8_t> mut{codec_scratch_.out.data(), wire.size()};
    const std::size_t cut = dns::Truncator::truncate(mut, udp_limit_);
    if (cut < wire.size()) {
      wire = wire.first(cut);
      ++stats_.truncated;
    }
  }
  network_.send(net::Endpoint{addr_, net::kDnsPort}, d.src, wire);
  if (traced)
    tracer_->record(traced_flow, obs::SpanPoint::kR1Sent,
                    network_.loop().now(), d.src.addr.value());
}

void AuthServer::on_message(net::ConnId c, net::SimTime /*at*/,
                            const net::PayloadRef& msg) {
  ++stats_.queries_received;
  ++stats_.tcp_queries;
  ++stats_.template_fallback;  // streams never take the stamp fast path
  net::StreamNet& streams = network_.streams();
  const auto decoded = dns::decode(msg.span());
  if (!decoded) {
    ++stats_.formerr;
    dns::Message err;
    const auto in = msg.span();
    if (in.size() >= 2)
      err.header.id = static_cast<std::uint16_t>((in[0] << 8) | in[1]);
    err.header.flags.qr = true;
    err.header.flags.rcode = dns::Rcode::kFormErr;
    ++stats_.responses_sent;
    ++stats_.tcp_responses;
    streams.send_message(c, dns::encode_into(err, codec_scratch_));
    return;
  }
  if (const auto edns = dns::extract_edns(*decoded)) {
    ++stats_.edns_queries;
    if (edns->do_bit) ++stats_.dnssec_do_queries;
  }
  dns::Message response = answer(*decoded);
  if (dns::extract_edns(*decoded))
    dns::set_edns(response, dns::EdnsInfo{.udp_payload_size = 4096});
  // No truncate_to_fit and no udp_limit_ cut: the stream carries the whole
  // answer regardless of any advertised datagram budget (RFC 7766).
  ++stats_.responses_sent;
  ++stats_.tcp_responses;
  streams.send_message(c, dns::encode_into(response, codec_scratch_));
}

dns::Message AuthServer::answer(const dns::Message& query) {
  if (query.questions.empty()) {
    ++stats_.formerr;
    dns::Message err = dns::make_error_response(query, dns::Rcode::kFormErr,
                                                /*ra=*/false);
    return err;
  }
  const dns::Question& q = query.questions.front();

  // Mid-reload the server cannot serve the zone.
  if (network_.loop().now() < load_busy_until_) {
    ++stats_.refused;  // counted with failures
    return dns::make_error_response(query, dns::Rcode::kServFail,
                                    /*ra=*/false);
  }

  if (!q.qname.is_subdomain_of(scheme_.sld())) {
    ++stats_.refused;
    return dns::make_error_response(query, dns::Rcode::kRefused, /*ra=*/false);
  }

  // Probe subdomain? Serve the synthetic cluster view. The current and the
  // immediately previous cluster are answerable; anything else was unloaded.
  if (const auto id = scheme_.parse(q.qname)) {
    const bool resident =
        id->cluster == loaded_cluster_ ||
        (loaded_cluster_ > 0 && id->cluster == loaded_cluster_ - 1);
    if (resident && id->index < scheme_.cluster_size() &&
        (q.qtype == dns::RRType::kA || q.qtype == dns::RRType::kANY)) {
      ++stats_.answered;
      dns::Message r = dns::make_a_response(query, scheme_.ground_truth(*id),
                                            /*ttl=*/300, /*ra=*/false,
                                            /*aa=*/true);
      return r;
    }
    ++stats_.nxdomain;
    dns::Message r =
        dns::make_error_response(query, dns::Rcode::kNXDomain, /*ra=*/false);
    r.header.flags.aa = true;
    return r;
  }

  // Static apex data.
  const auto result = apex_zone_.lookup(q.qname, q.qtype);
  switch (result.status) {
    case zone::LookupStatus::kAnswer: {
      ++stats_.answered;
      dns::Message r = dns::make_response(query);
      r.header.flags.aa = true;
      r.header.flags.ra = false;
      r.answers = result.records;
      return r;
    }
    case zone::LookupStatus::kNoData: {
      dns::Message r = dns::make_error_response(query, dns::Rcode::kNoError,
                                                /*ra=*/false);
      r.header.flags.aa = true;
      return r;
    }
    case zone::LookupStatus::kNXDomain:
    default: {
      ++stats_.nxdomain;
      dns::Message r = dns::make_error_response(query, dns::Rcode::kNXDomain,
                                                /*ra=*/false);
      r.header.flags.aa = true;
      return r;
    }
  }
}

}  // namespace orp::authns
