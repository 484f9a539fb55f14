#include "resolver/recursive_resolver.h"

#include <algorithm>

#include "dns/edns.h"

namespace orp::resolver {

struct IterativeEngine::Resolution
    : std::enable_shared_from_this<IterativeEngine::Resolution> {
  dns::DnsName qname;
  dns::RRType qtype = dns::RRType::kA;
  ResolutionCallback done;

  std::vector<net::IPv4Addr> servers;  // candidates for the current zone
  std::size_t server_index = 0;
  int referrals = 0;
  int retries = 0;
  int cname_chases = 0;
  std::uint16_t port = 0;
  std::uint16_t txn_id = 0;
  std::uint64_t attempt_id = 0;  // guards stale timeout events
  bool finished = false;
  bool tcp_fallback = false;  // retrying a truncated answer at max budget
};

IterativeEngine::IterativeEngine(net::Network& network, net::IPv4Addr host,
                                 EngineConfig config, std::uint64_t seed)
    : network_(network),
      host_(host),
      config_(std::move(config)),
      rng_(seed),
      cache_(/*capacity=*/4096) {}

IterativeEngine::~IterativeEngine() = default;

void IterativeEngine::resolve(const dns::DnsName& qname, dns::RRType qtype,
                              ResolutionCallback done) {
  auto res = std::make_shared<Resolution>();
  res->qname = qname;
  res->qtype = qtype;
  res->done = std::move(done);
  res->txn_id = static_cast<std::uint16_t>(rng_());

  const net::SimTime now = network_.loop().now();

  // Final-answer cache.
  if (auto cached = cache_.get(qname, qtype, now)) {
    ++cache_hits_;
    ResolutionOutcome outcome;
    outcome.success = true;
    outcome.rcode = dns::Rcode::kNoError;
    outcome.answers = *std::move(cached);
    res->done(outcome);
    return;
  }
  ++cache_bypasses_;

  // Deepest cached delegation wins; fall back to the root hints.
  for (std::size_t up = 0; up <= qname.label_count(); ++up) {
    const dns::DnsName zone = qname.parent(up);
    if (auto glue = cache_.get(zone, dns::RRType::kNS, now)) {
      for (const auto& rr : *glue) {
        if (rr.type != dns::RRType::kA) continue;
        if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata))
          res->servers.push_back(a->addr);
      }
      if (!res->servers.empty()) break;
    }
  }
  if (res->servers.empty()) res->servers = config_.hints.roots;
  if (res->servers.empty()) {
    finish(res, ResolutionOutcome{});  // no hints configured
    return;
  }

  // Bind an ephemeral port for this resolution's upstream traffic.
  res->port = next_port_++;
  if (next_port_ >= 60000) next_port_ = 20000;
  auto self = res;
  ++in_flight_;
  network_.bind(net::Endpoint{host_, res->port},
                [this, self](const net::Datagram& d) { on_response(self, d); });

  step(res);
}

void IterativeEngine::step(std::shared_ptr<Resolution> res) {
  if (res->finished) return;
  if (res->server_index >= res->servers.size()) {
    finish(res, ResolutionOutcome{});  // exhausted all servers: SERVFAIL
    return;
  }
  send_query(res, res->servers[res->server_index]);
}

void IterativeEngine::send_query(std::shared_ptr<Resolution> res,
                                 net::IPv4Addr server) {
  ++upstream_queries_;
  dns::Message q = dns::make_query(res->txn_id, res->qname, res->qtype);
  q.header.flags.rd = false;  // iterative
  if (res->tcp_fallback) {
    // "TCP" retry: a transport without the UDP size ceiling.
    dns::set_edns(q, dns::EdnsInfo{.udp_payload_size = 65535});
  } else if (config_.edns_payload_size != 0) {
    dns::set_edns(q, dns::EdnsInfo{.udp_payload_size =
                                       config_.edns_payload_size,
                                   .do_bit = config_.dnssec_ok});
  }
  network_.send(net::Datagram{net::Endpoint{host_, res->port},
                              net::Endpoint{server, net::kDnsPort},
                              dns::encode(q)});
  const std::uint64_t attempt = ++res->attempt_id;
  ++in_flight_;
  network_.loop().schedule_in(config_.query_timeout, [this, res, attempt]() {
    --in_flight_;
    on_timeout(res, attempt);
  });
}

void IterativeEngine::on_timeout(std::shared_ptr<Resolution> res,
                                 std::uint64_t attempt_id) {
  if (res->finished || res->attempt_id != attempt_id) return;
  if (res->retries < config_.max_retries) {
    ++res->retries;
    send_query(res, res->servers[res->server_index]);
    return;
  }
  res->retries = 0;
  ++res->server_index;
  step(res);
}

void IterativeEngine::on_response(std::shared_ptr<Resolution> res,
                                  const net::Datagram& d) {
  if (res->finished) return;
  const auto decoded = dns::decode(d.payload);
  if (!decoded || decoded->header.id != res->txn_id) return;  // junk/spoof
  ++res->attempt_id;  // cancels the pending timeout

  const dns::Message& msg = *decoded;
  const net::SimTime now = network_.loop().now();

  // Truncated: the full answer did not fit our advertised budget. Fall back
  // to the size-unbounded transport once (TCP, in the real protocol).
  if (msg.header.flags.tc) {
    ++truncated_seen_;
    if (config_.retry_truncated && !res->tcp_fallback) {
      res->tcp_fallback = true;
      res->retries = 0;
      send_query(res, res->servers[res->server_index]);
      return;
    }
    // No fallback allowed: use whatever survived truncation.
  }

  // Authoritative or terminal answers.
  if (msg.has_answer()) {
    // CNAME chase: answer names another owner and lacks the requested type.
    const bool has_wanted = std::any_of(
        msg.answers.begin(), msg.answers.end(),
        [&](const dns::ResourceRecord& rr) { return rr.type == res->qtype; });
    if (!has_wanted && res->qtype != dns::RRType::kCNAME) {
      for (const auto& rr : msg.answers) {
        if (rr.type != dns::RRType::kCNAME) continue;
        const auto* cname = std::get_if<dns::NameRdata>(&rr.rdata);
        if (!cname || res->cname_chases >= 4) break;
        ++res->cname_chases;
        res->qname = cname->name;
        res->referrals = 0;
        res->server_index = 0;
        res->servers = config_.hints.roots;
        step(res);
        return;
      }
    }
    cache_.put(res->qname, res->qtype, msg.answers, now);
    ResolutionOutcome outcome;
    outcome.success = true;
    outcome.rcode = msg.header.flags.rcode;
    outcome.answers = msg.answers;
    finish(res, std::move(outcome));
    return;
  }

  // Referral: NS in authority with glue in additional.
  if (msg.header.flags.rcode == dns::Rcode::kNoError &&
      !msg.authority.empty()) {
    std::vector<net::IPv4Addr> next;
    dns::DnsName referred_zone;
    for (const auto& rr : msg.authority) {
      if (rr.type == dns::RRType::kNS) {
        referred_zone = rr.name;
        break;
      }
    }
    for (const auto& rr : msg.additional) {
      if (rr.type != dns::RRType::kA) continue;
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata))
        next.push_back(a->addr);
    }
    if (!next.empty() && !referred_zone.is_root()) {
      if (++res->referrals > config_.max_referrals) {
        finish(res, ResolutionOutcome{});
        return;
      }
      // Cache the delegation (glue A records keyed by the referred zone).
      std::vector<dns::ResourceRecord> glue;
      for (const auto& rr : msg.additional)
        if (rr.type == dns::RRType::kA) glue.push_back(rr);
      cache_.put(referred_zone, dns::RRType::kNS, glue, now);
      res->servers = std::move(next);
      res->server_index = 0;
      res->retries = 0;
      step(res);
      return;
    }
  }

  // Authoritative NoError without data: terminal empty answer (NODATA).
  if (msg.header.flags.rcode == dns::Rcode::kNoError && msg.header.flags.aa) {
    ResolutionOutcome outcome;
    outcome.success = true;
    outcome.rcode = dns::Rcode::kNoError;
    finish(res, std::move(outcome));
    return;
  }

  // Terminal errors (NXDomain, Refused, ...): NXDomain is authoritative and
  // final; others make us try the next server for the zone.
  if (msg.header.flags.rcode == dns::Rcode::kNXDomain) {
    ResolutionOutcome outcome;
    outcome.success = false;
    outcome.rcode = dns::Rcode::kNXDomain;
    finish(res, std::move(outcome));
    return;
  }
  ++res->server_index;
  res->retries = 0;
  step(res);
}

void IterativeEngine::finish(std::shared_ptr<Resolution> res,
                             ResolutionOutcome outcome) {
  if (res->finished) return;
  res->finished = true;
  if (res->port != 0) {
    network_.unbind(net::Endpoint{host_, res->port});
    --in_flight_;
  }
  res->done(outcome);
}

}  // namespace orp::resolver
