#include "resolver/scripted_resolver.h"

#include <memory>

#include "dns/edns.h"
#include "dns/truncate.h"
#include <utility>

namespace orp::resolver {

void stamp_profile(const BehaviorProfile& profile, dns::Message& response) {
  response.header.flags.ra = profile.ra;
  response.header.flags.aa = profile.aa;
  response.header.flags.rcode = profile.rcode;
  if (profile.omit_question) {
    response.questions.clear();
  }
}

dns::Message build_fabricated_response(const BehaviorProfile& profile,
                                       const dns::Message& query,
                                       bool& raw_counts) {
  dns::Message response = dns::make_response(query);
  const dns::DnsName& qname = query.questions.front().qname;
  raw_counts = false;

  switch (profile.answer) {
    case AnswerMode::kNone:
      break;
    case AnswerMode::kFixedIp:
      response.answers.push_back(
          dns::ResourceRecord{qname, dns::RRType::kA, dns::RRClass::kIN, 3600,
                              dns::ARdata{profile.fixed_answer}});
      break;
    case AnswerMode::kUrl: {
      // A CNAME whose target is the "URL" the wild resolvers returned
      // (e.g. u.dcoin.co) instead of a resolved address.
      const auto target = dns::DnsName::parse(profile.text_answer);
      response.answers.push_back(dns::ResourceRecord{
          qname, dns::RRType::kCNAME, dns::RRClass::kIN, 3600,
          dns::NameRdata{target.value_or(dns::DnsName::must_parse("invalid"))}});
      break;
    }
    case AnswerMode::kGarbageString:
      response.answers.push_back(dns::ResourceRecord{
          qname, dns::RRType::kTXT, dns::RRClass::kIN, 3600,
          dns::TxtRdata{{profile.text_answer}}});
      break;
    case AnswerMode::kUndecodable: {
      // Claim one answer record but ship none: the receiving parser runs off
      // the end of the packet mid-record. This reproduces the 8,764
      // undecodable answers of the 2013 corpus (§IV-C "Caveats").
      response.header.qdcount =
          static_cast<std::uint16_t>(response.questions.size());
      response.header.ancount = 1;
      response.header.nscount = 0;
      response.header.arcount = 0;
      raw_counts = true;
      break;
    }
    case AnswerMode::kRecursive:
      break;  // unreachable; handled by respond_recursive
  }

  stamp_profile(profile, response);
  if (raw_counts && profile.omit_question) response.header.qdcount = 0;
  return response;
}

ResponseTemplates build_response_templates(const BehaviorProfile& profile,
                                           const ProbeQnameFactory& qname,
                                           dns::EncodeBuffer& scratch) {
  ResponseTemplates t;
  // Profiles the fast path cannot serve: silence is already free, and
  // forwarders/recursives involve upstream traffic per query.
  if (!profile.respond || profile.forwarder ||
      profile.answer == AnswerMode::kRecursive)
    return t;
  const auto probe_query = [&](const dns::StampVars& v) {
    return dns::make_query(v.txn, qname(v.cluster, v.index), dns::RRType::kA);
  };
  t.raw_counts = profile.answer == AnswerMode::kUndecodable;
  t.query = dns::WireTemplate::derive(probe_query, scratch);
  t.response = dns::WireTemplate::derive(
      [&](const dns::StampVars& v) {
        bool rc = false;
        return build_fabricated_response(profile, probe_query(v), rc);
      },
      scratch, t.raw_counts);
  t.slip = dns::WireTemplate::derive(
      [&](const dns::StampVars& v) {
        bool rc = false;
        dns::Message r = build_fabricated_response(profile, probe_query(v), rc);
        r.answers.clear();
        r.authority.clear();
        r.additional.clear();
        r.header.flags.tc = true;
        return r;
      },
      scratch);
  // Responses must fit the classic 512-byte budget so the slow path's
  // truncate_to_fit is a no-op for matched queries (the fast path skips it).
  t.usable = t.query.ok() && t.response.ok() && t.slip.ok() &&
             t.response.size() <= 512 && t.slip.size() <= 512;
  return t;
}

ResolverHost::ResolverHost(net::Network& network, net::IPv4Addr addr,
                           BehaviorProfile profile, EngineConfig engine_config,
                           std::uint64_t seed, dns::EncodeBuffer* codec_scratch,
                           const ResponseTemplates* templates)
    : network_(network),
      addr_(addr),
      codec_scratch_(codec_scratch != nullptr ? *codec_scratch : own_scratch_),
      profile_(std::move(profile)),
      engine_config_(std::move(engine_config)),
      seed_(seed),
      rrl_(profile_.rrl),
      tpl_(templates != nullptr && templates->ok() &&
                   (profile_.udp_limit == 0 ||
                    (templates->response.size() <= profile_.udp_limit &&
                     templates->slip.size() <= profile_.udp_limit))
               ? templates
               : nullptr) {
  network_.bind(net::Endpoint{addr_, net::kDnsPort},
                [this](const net::Datagram& d) { on_query(d); });
  // A TCP-capable profile also listens on the stream transport; forwarders
  // never do (CPE proxies in the wild rarely speak TCP — their truncated
  // answers are terminal, which the fallback study measures).
  if (profile_.tcp && profile_.respond && !profile_.forwarder)
    network_.streams().listen(net::Endpoint{addr_, net::kDnsPort}, this);
}

ResolverHost::~ResolverHost() {
  network_.unbind(net::Endpoint{addr_, net::kDnsPort});
  if (profile_.tcp && profile_.respond && !profile_.forwarder)
    network_.streams().unlisten(net::Endpoint{addr_, net::kDnsPort});
}

void ResolverHost::stamp(dns::Message& response) const {
  stamp_profile(profile_, response);
}

void ResolverHost::on_query(const net::Datagram& d) {
  ++stats_.queries;
  if (!profile_.respond) return;
  // Probe fast path: a wire-exact in-width probe query gets its response
  // stamped from the profile's shared template — no decode, no encode.
  // Anything else (CHAOS class, EDNS, odd qtypes, wide ids) fails the
  // byte-exact match and takes the full path below.
  if (tpl_ != nullptr) {
    dns::StampVars v;
    if (tpl_->query.match(d.payload, v)) {
      fast_respond(v, d.src);
      return;
    }
    ++stats_.template_fallback;
  }
  handle_query(d.payload, ReplyTo{d.src});
}

void ResolverHost::on_message(net::ConnId c, net::SimTime /*at*/,
                              const net::PayloadRef& msg) {
  ++stats_.queries;
  ++stats_.tcp_queries;
  // No template fast path over TCP: the stamped wire image is the UDP
  // response shape, and TCP answers must never carry the UDP cap anyway.
  handle_query(msg, ReplyTo{net::Endpoint{}, c});
}

void ResolverHost::handle_query(std::span<const std::uint8_t> wire,
                                ReplyTo to) {
  const auto decoded = dns::decode(wire);
  if (!decoded || decoded->questions.empty()) return;

  // CHAOS-class version.bind: the fingerprinting side channel.
  if (decoded->questions.front().qclass == dns::RRClass::kCH) {
    respond_chaos(*decoded, to);
    return;
  }
  // A forwarder relays regardless of mode: the upstream does the work.
  // (Forwarders never listen on TCP, so `to` is always a UDP client here.)
  if (profile_.forwarder) {
    respond_forwarded(*decoded, to.client);
    return;
  }
  if (profile_.answer == AnswerMode::kRecursive) {
    respond_recursive(*decoded, to);
    return;
  }
  respond_fabricated(*decoded, to);
}

void ResolverHost::respond_chaos(const dns::Message& query, ReplyTo to) {
  const dns::Question& q = query.questions.front();
  const bool is_version_bind =
      q.qname == dns::DnsName::must_parse("version.bind") &&
      (q.qtype == dns::RRType::kTXT || q.qtype == dns::RRType::kANY);
  dns::Message response = dns::make_response(query);
  response.header.flags.ra = profile_.ra;
  if (is_version_bind && !profile_.version.empty()) {
    response.header.flags.aa = true;
    response.answers.push_back(dns::ResourceRecord{
        q.qname, dns::RRType::kTXT, dns::RRClass::kCH, 0,
        dns::TxtRdata{{profile_.version}}});
  } else {
    response.header.flags.rcode = dns::Rcode::kRefused;
  }
  emit(std::move(response), to, false, dns::response_size_budget(query));
}

void ResolverHost::respond_fabricated(const dns::Message& query, ReplyTo to) {
  bool raw_counts = false;
  dns::Message response = build_fabricated_response(profile_, query, raw_counts);
  emit(std::move(response), to, raw_counts, dns::response_size_budget(query));
}

void ResolverHost::fast_respond(const dns::StampVars& v, net::Endpoint client) {
  std::span<const std::uint8_t> wire;
  switch (rrl_.check(client.addr, network_.loop().now())) {
    case RrlAction::kSend:
      wire = tpl_->response.stamp(v, codec_scratch_);
      break;
    case RrlAction::kDrop:
      ++stats_.rrl_dropped;
      return;
    case RrlAction::kSlip:
      ++stats_.rrl_slipped;
      wire = tpl_->slip.stamp(v, codec_scratch_);
      break;
  }
  ++stats_.responses;
  ++stats_.template_stamped;
  // Mirrors emit(): acquire the pooled buffer now, let the delayed event
  // carry only the ref. Truncation is statically a no-op (templates are
  // only usable when both response shapes fit the 512-byte budget).
  net::PayloadRef payload = network_.pool().acquire(wire);
  ++in_flight_;
  network_.loop().schedule_in(
      profile_.response_delay,
      [this, client, payload = std::move(payload)]() mutable {
        --in_flight_;
        network_.send(net::Datagram{net::Endpoint{addr_, net::kDnsPort},
                                    client, std::move(payload)});
      });
}

void ResolverHost::respond_recursive(const dns::Message& query, ReplyTo to) {
  if (!engine_) {
    EngineConfig cfg = engine_config_;
    cfg.dnssec_ok = profile_.dnssec_ok;
    engine_ = std::make_unique<IterativeEngine>(network_, addr_, cfg, seed_);
  }
  const dns::Question& q = query.questions.front();
  // Resolver farms: `backend_fan` backends resolve independently; the
  // frontend answers from whichever finishes first. This is the calibrated
  // source of the Q2:R2 inflation seen at the authoritative server.
  auto answered = std::make_shared<bool>(false);
  const int fan = std::max(1, profile_.backend_fan);
  for (int i = 0; i < fan; ++i) {
    ++stats_.recursions;
    engine_->resolve(q.qname, q.qtype,
                     [this, query, to, answered](
                         const ResolutionOutcome& outcome) {
                       if (*answered) return;
                       *answered = true;
                       dns::Message response = dns::make_response(query);
                       if (outcome.success) {
                         response.answers = outcome.answers;
                       }
                       stamp(response);
                       // An honest resolver reports resolution failures; a
                       // stamped rcode override wins either way.
                       if (profile_.rcode == dns::Rcode::kNoError &&
                           !outcome.success) {
                         response.header.flags.rcode = outcome.rcode;
                       }
                       emit(std::move(response), to, false,
                            dns::response_size_budget(query));
                     });
  }
}

void ResolverHost::respond_forwarded(const dns::Message& query,
                                     net::Endpoint client) {
  ++stats_.forwarded;
  const std::uint16_t port = next_port_++;
  if (next_port_ >= 20000) next_port_ = 10000;
  const net::Endpoint local{addr_, port};
  ++in_flight_;
  network_.bind(local, [this, query, client, local](const net::Datagram& d) {
    network_.unbind(local);
    --in_flight_;
    const auto upstream_response = dns::decode(d.payload);
    if (!upstream_response) return;
    dns::Message response = dns::make_response(query);
    response.answers = upstream_response->answers;
    stamp(response);
    emit(std::move(response), ReplyTo{client}, false,
         dns::response_size_budget(query));
  });
  dns::Message upstream_q =
      dns::make_query(query.header.id, query.questions.front().qname,
                      query.questions.front().qtype);
  const auto wire = dns::encode_into(upstream_q, codec_scratch_);
  network_.send(local, net::Endpoint{profile_.upstream, net::kDnsPort}, wire);
}

void ResolverHost::emit(dns::Message response, ReplyTo to, bool raw_counts,
                        std::size_t budget) {
  if (to.via_stream()) {
    // DNS over TCP: the 64 KiB frame is the only size bound, so neither the
    // client's UDP budget nor the profile's udp_limit applies — and RRL is
    // a UDP-amplification mitigation with nothing to mitigate here (the
    // connection proves the client is return-routable).
    ++stats_.responses;
    ++stats_.tcp_responses;
    const auto wire =
        raw_counts ? dns::encode_raw_counts_into(response, codec_scratch_)
                   : dns::encode_into(response, codec_scratch_);
    net::PayloadRef payload = network_.pool().acquire(wire);
    ++in_flight_;
    network_.loop().schedule_in(
        profile_.response_delay,
        [this, conn = to.conn, payload = std::move(payload)]() {
          --in_flight_;
          // A client that closed or reset while we worked makes this a
          // validated no-op inside the stream layer.
          network_.streams().send_message(conn, payload.span());
        });
    return;
  }
  switch (rrl_.check(to.client.addr, network_.loop().now())) {
    case RrlAction::kSend:
      break;
    case RrlAction::kDrop:
      ++stats_.rrl_dropped;
      return;
    case RrlAction::kSlip: {
      // Minimal TC=1 nudge: question echoed, all data sections dropped. A
      // legitimate client retries over TCP; a spoofed victim gets ~0 bytes
      // of amplification.
      ++stats_.rrl_slipped;
      response.answers.clear();
      response.authority.clear();
      response.additional.clear();
      response.header.flags.tc = true;
      raw_counts = false;
      break;
    }
  }
  ++stats_.responses;
  // Honor the client's advertised UDP budget (512 for classic DNS).
  if (!raw_counts && dns::truncate_to_fit(response, budget))
    ++stats_.truncated;
  auto wire = raw_counts
                  ? dns::encode_raw_counts_into(response, codec_scratch_)
                  : dns::encode_into(response, codec_scratch_);
  // The profile's server-side cap cuts the encoded wire at the largest
  // whole-record boundary (TC=1). Wire-level on purpose: a size-capping
  // server chops the packet it already built, it does not re-plan the
  // message the way the EDNS budget pass above does.
  if (!raw_counts && profile_.udp_limit != 0 &&
      wire.size() > profile_.udp_limit) {
    const std::span<std::uint8_t> mut{codec_scratch_.out.data(), wire.size()};
    const std::size_t cut = dns::Truncator::truncate(mut, profile_.udp_limit);
    if (cut < wire.size()) {
      wire = wire.first(cut);
      ++stats_.truncated;
    }
  }
  // Acquire the pooled buffer now (while the scratch bytes are live) and let
  // the delayed event carry only the ref — no payload copy at fire time.
  net::PayloadRef payload = network_.pool().acquire(wire);
  ++in_flight_;
  network_.loop().schedule_in(
      profile_.response_delay,
      [this, client = to.client, payload = std::move(payload)]() mutable {
        --in_flight_;
        network_.send(net::Datagram{net::Endpoint{addr_, net::kDnsPort},
                                    client, std::move(payload)});
      });
}

}  // namespace orp::resolver
