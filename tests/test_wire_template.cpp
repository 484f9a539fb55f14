// Differential guarantees for the template-stamped wire path.
//
// A WireTemplate may only ever *decline* — it must never produce bytes that
// differ from the full encoder. These tests sweep every shape the pipeline
// stamps (probe queries, auth answers/NXDOMAINs, every fabricating resolver
// profile and its RRL slip) across a grid of variable assignments and
// memcmp the stamped bytes against the factory's full encoding. The same
// file pins the supporting machinery the scanner's hot path relies on:
// match() soundness (a successful match re-stamps to the exact input) and
// derive() declining coupled or width-changing shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dns/builder.h"
#include "dns/codec.h"
#include "dns/edns.h"
#include "dns/truncate.h"
#include "dns/message.h"
#include "dns/wire_template.h"
#include "resolver/behavior.h"
#include "resolver/scripted_resolver.h"
#include "zone/cluster.h"

namespace orp {
namespace {

using dns::DnsName;
using dns::EncodeBuffer;
using dns::Message;
using dns::StampVars;
using dns::WireTemplate;

zone::SubdomainScheme probe_scheme() {
  return zone::SubdomainScheme(DnsName::must_parse("ucfsealresearch.net"),
                               5'000'000, 7);
}

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

/// The var grid the sweeps run over: boundary and interior values of every
/// patchable width.
std::vector<StampVars> var_grid() {
  std::vector<StampVars> grid;
  for (const std::uint16_t txn : {0, 1, 0x1234, 0xFFFF})
    for (const std::uint32_t cluster : {0u, 7u, 42u, 999u})
      for (const std::uint32_t index : {0u, 9u, 1234567u, 9999999u})
        for (const std::uint32_t ttl : {0u, 300u, 86400u, 0x7FFFFFFFu})
          for (const std::uint32_t addr : {0u, 0x01020304u, 0xFFFFFFFFu})
            grid.push_back({txn, cluster, index, ttl, addr});
  return grid;
}

WireTemplate::Factory probe_factory(const zone::SubdomainScheme& scheme) {
  return [&scheme](const StampVars& v) {
    return dns::make_query(v.txn, scheme.qname({v.cluster, v.index}),
                           dns::RRType::kA);
  };
}

/// Core differential property: for every grid point the template covers,
/// stamped bytes == the factory's full encoding.
void expect_stamp_equals_encode(const WireTemplate& tpl,
                                const WireTemplate::Factory& make,
                                bool raw_counts = false) {
  ASSERT_TRUE(tpl.ok());
  EncodeBuffer stamp_buf, encode_buf;
  for (const StampVars& v : var_grid()) {
    ASSERT_TRUE(tpl.covers(v));
    const auto stamped = to_vec(tpl.stamp(v, stamp_buf));
    const Message full = make(v);
    const auto encoded =
        raw_counts ? to_vec(dns::encode_raw_counts_into(full, encode_buf))
                   : to_vec(dns::encode_into(full, encode_buf));
    ASSERT_EQ(stamped, encoded)
        << "txn=" << v.txn << " cluster=" << v.cluster << " index=" << v.index
        << " ttl=" << v.ttl << " addr=" << v.addr;
  }
}

// ---- Producer shapes -------------------------------------------------------

TEST(WireTemplate, ProbeQueryStampMatchesFullEncode) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const auto make = probe_factory(scheme);
  const WireTemplate tpl = WireTemplate::derive(make, scratch);
  expect_stamp_equals_encode(tpl, make);
}

/// The Q2 query shape the auth server recognizes: an iterative (RD=0) probe
/// A query carrying the resolver engines' default EDNS OPT.
WireTemplate::Factory q2_factory(const zone::SubdomainScheme& scheme) {
  return [&scheme](const StampVars& v) {
    Message q = dns::make_query(v.txn, scheme.qname({v.cluster, v.index}),
                                dns::RRType::kA);
    q.header.flags.rd = false;
    dns::set_edns(q, dns::EdnsInfo{.udp_payload_size = 4096});
    return q;
  };
}

TEST(WireTemplate, AuthAnswerStampMatchesFullEncode) {
  // The exact shape AuthServer stamps for in-zone probes: aa=1, ra=0, the
  // ground-truth A record with variable TTL and rdata, OPT echoed.
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const auto q2 = q2_factory(scheme);
  const auto make = [&](const StampVars& v) {
    Message r = dns::make_a_response(q2(v), net::IPv4Addr{v.addr}, v.ttl,
                                     /*ra=*/false, /*aa=*/true);
    dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
    return r;
  };
  const WireTemplate tpl = WireTemplate::derive(make, scratch);
  expect_stamp_equals_encode(tpl, make);
}

TEST(WireTemplate, AuthNxdomainStampMatchesFullEncode) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const auto q2 = q2_factory(scheme);
  const auto make = [&](const StampVars& v) {
    Message r = dns::make_error_response(q2(v), dns::Rcode::kNXDomain,
                                         /*ra=*/false);
    r.header.flags.aa = true;
    dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
    return r;
  };
  const WireTemplate tpl = WireTemplate::derive(make, scratch);
  expect_stamp_equals_encode(tpl, make);
}

TEST(WireTemplate, AuthQueryTemplateDistinguishesEdnsVariants) {
  // The Q2 template must match only its exact shape: the recursive probe
  // (RD=1, no OPT), a DO=1 validator query, and a 65535-size "TCP" retry
  // all differ in bytes and must take the slow path (their stats depend on
  // full decode).
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(q2_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  StampVars got;
  const StampVars v{0x77, 5, 67890, 0, 0};
  EXPECT_TRUE(tpl.match(tpl.stamp(v, buf), got));

  Message rd1 = dns::make_query(0x77, scheme.qname({5, 67890}));
  dns::set_edns(rd1, dns::EdnsInfo{.udp_payload_size = 4096});
  EXPECT_FALSE(tpl.match(dns::encode_into(rd1, buf), got));  // RD=1

  Message do1 = q2_factory(scheme)(v);
  dns::set_edns(do1, dns::EdnsInfo{.udp_payload_size = 4096, .do_bit = true});
  EXPECT_FALSE(tpl.match(dns::encode_into(do1, buf), got));

  Message tcp = q2_factory(scheme)(v);
  dns::set_edns(tcp, dns::EdnsInfo{.udp_payload_size = 65535});
  EXPECT_FALSE(tpl.match(dns::encode_into(tcp, buf), got));

  Message plain = dns::make_query(0x77, scheme.qname({5, 67890}));
  plain.header.flags.rd = false;
  EXPECT_FALSE(tpl.match(dns::encode_into(plain, buf), got));  // no OPT
}

TEST(WireTemplate, CoversRejectsWideIds) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(probe_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());
  EXPECT_TRUE(tpl.covers({0, 999, 9999999, 0, 0}));
  EXPECT_FALSE(tpl.covers({0, 1000, 0, 0, 0}));       // 4-digit cluster
  EXPECT_FALSE(tpl.covers({0, 0, 10'000'000, 0, 0}));  // 8-digit index
}

// ---- Resolver profiles -----------------------------------------------------

std::vector<resolver::BehaviorProfile> fabricating_profiles() {
  using resolver::AnswerMode;
  std::vector<resolver::BehaviorProfile> out;
  for (const AnswerMode mode :
       {AnswerMode::kNone, AnswerMode::kFixedIp, AnswerMode::kUrl,
        AnswerMode::kGarbageString, AnswerMode::kUndecodable})
    for (const bool ra : {false, true})
      for (const bool aa : {false, true})
        for (const dns::Rcode rcode : {dns::Rcode::kNoError,
                                       dns::Rcode::kRefused})
          for (const bool omit : {false, true}) {
            resolver::BehaviorProfile p;
            p.answer = mode;
            p.ra = ra;
            p.aa = aa;
            p.rcode = rcode;
            p.omit_question = omit;
            p.fixed_answer = net::IPv4Addr(198, 51, 100, 7);
            p.text_answer = mode == AnswerMode::kUrl ? "u.dcoin.co"
                                                     : "xysvc-garbage-!!";
            out.push_back(std::move(p));
          }
  return out;
}

TEST(ResolverTemplates, EveryProfileShapeStampsIdentically) {
  // All 80 fabricating shapes (5 answer modes x ra x aa x rcode x
  // omit_question): the shared template triple must derive usable, and both
  // the response and the RRL slip must stamp byte-identically to the slow
  // path's build + encode.
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const resolver::ProbeQnameFactory qname =
      [&scheme](std::uint32_t cluster, std::uint32_t index) {
        return scheme.qname({cluster, index});
      };
  for (const resolver::BehaviorProfile& profile : fabricating_profiles()) {
    const resolver::ResponseTemplates t =
        resolver::build_response_templates(profile, qname, scratch);
    ASSERT_TRUE(t.ok()) << "mode=" << to_string(profile.answer)
                        << " ra=" << profile.ra << " aa=" << profile.aa
                        << " omit=" << profile.omit_question;
    EXPECT_EQ(t.raw_counts,
              profile.answer == resolver::AnswerMode::kUndecodable);

    const auto probe = probe_factory(scheme);
    const auto response_factory = [&](const StampVars& v) {
      bool rc = false;
      return resolver::build_fabricated_response(profile, probe(v), rc);
    };
    const auto slip_factory = [&](const StampVars& v) {
      bool rc = false;
      Message r = resolver::build_fabricated_response(profile, probe(v), rc);
      r.answers.clear();
      r.authority.clear();
      r.additional.clear();
      r.header.flags.tc = true;
      return r;
    };
    expect_stamp_equals_encode(t.response, response_factory, t.raw_counts);
    expect_stamp_equals_encode(t.slip, slip_factory);

    // The profile's query template recognizes a stamped probe and recovers
    // its id exactly.
    EncodeBuffer buf;
    const StampVars sent{0xABCD, 41, 7654321, 0, 0};
    const auto wire = to_vec(dns::encode_into(probe(sent), buf));
    StampVars got;
    ASSERT_TRUE(t.query.match(wire, got));
    EXPECT_EQ(got.txn, sent.txn);
    EXPECT_EQ(got.cluster, sent.cluster);
    EXPECT_EQ(got.index, sent.index);
  }
}

TEST(ResolverTemplates, UnusableForProfilesTheFastPathCannotServe) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const resolver::ProbeQnameFactory qname =
      [&scheme](std::uint32_t cluster, std::uint32_t index) {
        return scheme.qname({cluster, index});
      };

  resolver::BehaviorProfile silent;
  silent.respond = false;
  EXPECT_FALSE(resolver::build_response_templates(silent, qname, scratch).ok());

  resolver::BehaviorProfile fwd;
  fwd.forwarder = true;
  fwd.upstream = net::IPv4Addr(10, 0, 0, 1);
  EXPECT_FALSE(resolver::build_response_templates(fwd, qname, scratch).ok());

  resolver::BehaviorProfile recursive;
  recursive.answer = resolver::AnswerMode::kRecursive;
  EXPECT_FALSE(
      resolver::build_response_templates(recursive, qname, scratch).ok());
}

// ---- match() ---------------------------------------------------------------

TEST(WireTemplateMatch, RoundTripRecoversVars) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(probe_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  for (const StampVars& v : var_grid()) {
    const auto wire = tpl.stamp(v, buf);
    StampVars got;
    ASSERT_TRUE(tpl.match(wire, got));
    EXPECT_EQ(got.txn, v.txn);
    EXPECT_EQ(got.cluster, v.cluster);
    EXPECT_EQ(got.index, v.index);
  }
}

TEST(WireTemplateMatch, EveryByteMutationIsSound) {
  // Soundness: a match is a proof that stamping the recovered vars
  // reproduces the wire exactly. Mutate every byte of a stamped probe; each
  // mutant must either fail to match or round-trip to its own bytes (a
  // digit flipped to another digit is still a valid — different — probe).
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(probe_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  const StampVars v{0x5A5A, 123, 4567890, 0, 0};
  const auto wire = to_vec(tpl.stamp(v, buf));
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t delta : {0x01, 0x80}) {
      std::vector<std::uint8_t> mutant = wire;
      mutant[i] ^= delta;
      StampVars got;
      if (tpl.match(mutant, got)) {
        const auto restamped = to_vec(tpl.stamp(got, buf));
        EXPECT_EQ(restamped, mutant) << "byte " << i << " delta " << +delta;
      }
    }
  }
}

TEST(WireTemplateMatch, RejectsForeignAndResizedPackets) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(probe_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  StampVars got;

  // Wrong qtype.
  Message txt = dns::make_query(7, scheme.qname({1, 2}), dns::RRType::kTXT);
  EXPECT_FALSE(tpl.match(dns::encode_into(txt, buf), got));

  // CHAOS-class version.bind (the fingerprinting probe).
  Message chaos = dns::make_query(7, DnsName::must_parse("version.bind"),
                                  dns::RRType::kTXT);
  chaos.questions.front().qclass = dns::RRClass::kCH;
  EXPECT_FALSE(tpl.match(dns::encode_into(chaos, buf), got));

  // A foreign domain of similar shape.
  Message other = dns::make_query(
      7, DnsName::must_parse("or001.0000002.example.net"), dns::RRType::kA);
  EXPECT_FALSE(tpl.match(dns::encode_into(other, buf), got));

  // An out-of-width id renders a longer qname, so it cannot match.
  Message wide = dns::make_query(7, scheme.qname({1000, 5}), dns::RRType::kA);
  EXPECT_FALSE(tpl.match(dns::encode_into(wide, buf), got));

  // Truncated and extended copies of a genuine probe.
  const auto wire = to_vec(tpl.stamp({1, 2, 3, 0, 0}, buf));
  EXPECT_FALSE(tpl.match(std::span(wire).first(wire.size() - 1), got));
  std::vector<std::uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(tpl.match(longer, got));
}

TEST(WireTemplateMatch, DeclinesTcpFramedShapes) {
  // A stream segment carries the RFC 1035 §4.2.2 2-byte length prefix; if
  // such bytes ever reached the datagram fast path, match must decline —
  // the prefix shifts every literal run by two.
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(probe_factory(scheme), scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  const auto wire = to_vec(tpl.stamp({0x5151, 3, 1234567, 0, 0}, buf));
  std::vector<std::uint8_t> framed;
  framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
  framed.push_back(static_cast<std::uint8_t>(wire.size() & 0xFF));
  framed.insert(framed.end(), wire.begin(), wire.end());
  StampVars got;
  EXPECT_FALSE(tpl.match(framed, got));
  // Same-length check: frame it, then drop the last two payload bytes so
  // only the shift (not the size) distinguishes it.
  EXPECT_FALSE(tpl.match(std::span(framed).first(wire.size()), got));
}

TEST(WireTemplateMatch, DeclinesTruncatedTcFlaggedShapes) {
  // Differential pair for the fallback path: a TC=1 copy of a stamped auth
  // answer (and any whole-record Truncator cut of it) must decline at the
  // template layer while the full decoder still reads it — truncated
  // answers always take the slow path, where the TC bit is acted on.
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const auto q2 = q2_factory(scheme);
  const auto make = [&](const StampVars& v) {
    Message r = dns::make_a_response(q2(v), net::IPv4Addr{v.addr}, v.ttl,
                                     /*ra=*/false, /*aa=*/true);
    dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
    return r;
  };
  const WireTemplate tpl = WireTemplate::derive(make, scratch);
  ASSERT_TRUE(tpl.ok());

  EncodeBuffer buf;
  const StampVars v{0x2222, 5, 7654321, 300, 0x0A000001};
  const auto wire = to_vec(tpl.stamp(v, buf));
  StampVars got;
  ASSERT_TRUE(tpl.match(wire, got));

  // Flag the TC bit only: same length, one flags byte differs.
  std::vector<std::uint8_t> tc = wire;
  tc[2] |= 0x02;
  EXPECT_FALSE(tpl.match(tc, got));
  const auto decoded = dns::decode(tc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);

  // Every whole-record cut of the answer declines too, and stays decodable.
  for (std::size_t budget = dns::Truncator::kHeaderSize;
       budget < wire.size(); ++budget) {
    std::vector<std::uint8_t> cut = wire;
    const std::size_t len = dns::Truncator::truncate(cut, budget);
    ASSERT_LE(len, wire.size());
    EXPECT_FALSE(tpl.match(std::span(cut.data(), len), got)) << budget;
    ASSERT_TRUE(dns::decode(std::span(cut.data(), len)).has_value()) << budget;
  }
}

// ---- derive() declining ----------------------------------------------------

TEST(WireTemplateDerive, DeclinesWidthChangingShapes) {
  // Unpadded decimal rendering: the fingerprint index has more digits than
  // the base, the encoding changes length, and derive must refuse.
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(
      [](const StampVars& v) {
        return dns::make_query(
            v.txn,
            DnsName::must_parse("x" + std::to_string(v.index) + ".example.com"),
            dns::RRType::kA);
      },
      scratch);
  EXPECT_FALSE(tpl.ok());
}

TEST(WireTemplateDerive, DeclinesCoupledFields) {
  // A message where the TTL appears both verbatim and transformed (+1): the
  // transformed copy's bytes do not equal any fingerprint byte, so the
  // differential probe cannot attribute them and must refuse — stamping
  // such a shape would silently miss the coupled copy.
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(
      [&](const StampVars& v) {
        const DnsName qname = scheme.qname({v.cluster, v.index});
        Message r = dns::make_a_response(
            dns::make_query(v.txn, qname, dns::RRType::kA),
            net::IPv4Addr{v.addr}, v.ttl);
        r.answers.push_back(dns::ResourceRecord{
            qname, dns::RRType::kA, dns::RRClass::kIN, v.ttl + 1,
            dns::ARdata{net::IPv4Addr{v.addr}}});
        return r;
      },
      scratch);
  EXPECT_FALSE(tpl.ok());
}

TEST(WireTemplateDerive, ConstantShapeStampsItsOneMessage) {
  // A factory that ignores every var yields a patchless template: stamping
  // is a pure memcpy and still equals the full encoding.
  EncodeBuffer scratch;
  const auto make = [](const StampVars&) {
    return dns::make_query(99, DnsName::must_parse("static.example.com"),
                           dns::RRType::kA);
  };
  const WireTemplate tpl = WireTemplate::derive(make, scratch);
  ASSERT_TRUE(tpl.ok());
  EncodeBuffer buf, buf2;
  const auto stamped = to_vec(tpl.stamp({0xFFFF, 999, 9999999, 1, 2}, buf));
  EXPECT_EQ(stamped, to_vec(dns::encode_into(make({}), buf2)));
}

}  // namespace
}  // namespace orp
