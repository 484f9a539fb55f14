// resolver_forensics: interrogate individual resolvers and print a
// conformance report — the single-host version of the paper's behavioral
// analysis. Builds a small zoo of resolver profiles (one per taxon §IV
// documents), probes each with a fresh subdomain, and judges the response
// against RFC 1034/1035 expectations.
#include <cstdio>

#include "analysis/flow.h"
#include "authns/auth_server.h"
#include "dns/builder.h"
#include "resolver/root_tld.h"
#include "resolver/scripted_resolver.h"
#include "util/strings.h"
#include "util/table.h"

using namespace orp;

namespace {

struct ZooEntry {
  const char* name;
  resolver::BehaviorProfile profile;
};

std::vector<ZooEntry> make_zoo() {
  using resolver::AnswerMode;
  using resolver::BehaviorProfile;
  std::vector<ZooEntry> zoo;

  BehaviorProfile honest;
  honest.answer = AnswerMode::kRecursive;
  zoo.push_back({"honest open resolver", honest});

  BehaviorProfile ra_liar = honest;
  ra_liar.ra = false;
  zoo.push_back({"answers but claims RA=0", ra_liar});

  BehaviorProfile aa_liar = honest;
  aa_liar.aa = true;
  zoo.push_back({"claims authority (AA=1)", aa_liar});

  BehaviorProfile servfail_with_answer = honest;
  servfail_with_answer.rcode = dns::Rcode::kServFail;
  zoo.push_back({"answer with rcode=ServFail", servfail_with_answer});

  BehaviorProfile refuser;
  refuser.answer = AnswerMode::kNone;
  refuser.ra = false;
  refuser.rcode = dns::Rcode::kRefused;
  zoo.push_back({"refuser", refuser});

  BehaviorProfile noerror_empty;
  noerror_empty.answer = AnswerMode::kNone;
  noerror_empty.ra = true;
  zoo.push_back({"RA=1 but empty NoError", noerror_empty});

  BehaviorProfile manipulator;
  manipulator.answer = AnswerMode::kFixedIp;
  manipulator.fixed_answer = *net::IPv4Addr::parse("208.91.197.91");
  manipulator.ra = false;
  manipulator.aa = true;
  zoo.push_back({"manipulator -> ransomware IP", manipulator});

  BehaviorProfile home_router;
  home_router.answer = AnswerMode::kFixedIp;
  home_router.fixed_answer = net::IPv4Addr(192, 168, 1, 1);
  zoo.push_back({"redirect to private address", home_router});

  BehaviorProfile url_answerer;
  url_answerer.answer = AnswerMode::kUrl;
  url_answerer.text_answer = "u.dcoin.co";
  zoo.push_back({"URL instead of address", url_answerer});

  BehaviorProfile garbage;
  garbage.answer = AnswerMode::kGarbageString;
  garbage.text_answer = "wild";
  zoo.push_back({"garbage string answer", garbage});

  BehaviorProfile broken;
  broken.answer = AnswerMode::kUndecodable;
  zoo.push_back({"undecodable answer bytes", broken});

  BehaviorProfile headless;
  headless.answer = AnswerMode::kNone;
  headless.omit_question = true;
  headless.rcode = dns::Rcode::kServFail;
  zoo.push_back({"empty question section", headless});
  return zoo;
}

std::string verdict(const analysis::R2View& v) {
  std::vector<std::string> findings;
  if (!v.has_question) findings.push_back("question section missing");
  if (v.has_answer() && !v.ra)
    findings.push_back("answered while advertising RA=0");
  if (!v.has_answer() && v.ra && v.rcode == dns::Rcode::kNoError)
    findings.push_back("RA=1 NoError yet no answer");
  if (v.aa) findings.push_back("false authority claim (AA=1)");
  if (v.has_answer() && v.rcode != dns::Rcode::kNoError)
    findings.push_back("answer carried by error rcode");
  if (v.form == analysis::AnswerForm::kIp && !v.correct && v.has_question)
    findings.push_back("wrong A record");
  if (v.form == analysis::AnswerForm::kUrl)
    findings.push_back("name-valued answer to an A query");
  if (v.form == analysis::AnswerForm::kString)
    findings.push_back("non-address answer payload");
  if (v.form == analysis::AnswerForm::kUndecodable)
    findings.push_back("answer section does not parse");
  if (v.answer_ip && net::is_private_address(*v.answer_ip))
    findings.push_back("answer points into private space");
  if (findings.empty()) return "conforms";
  return util::join(findings, "; ");
}

}  // namespace

int main() {
  net::EventLoop loop;
  net::Network network(loop, 11);
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 100000, 3);
  authns::AuthServer auth(network, net::IPv4Addr(45, 76, 18, 21), scheme,
                          net::SimTime::nanos(0));
  const auto hierarchy = resolver::build_hierarchy(
      network, scheme.sld(), scheme.sld().child("ns1"), auth.address(), 3);
  resolver::EngineConfig engine_config;
  engine_config.hints = hierarchy.hints;

  std::printf("interrogating %zu resolver profiles with fresh probe "
              "subdomains...\n\n",
              make_zoo().size());

  util::TextTable report({"resolver", "RA", "AA", "rcode", "answer", "verdict"});
  report.set_align(5, util::Align::kLeft);

  std::uint32_t index = 0;
  std::vector<std::unique_ptr<resolver::ResolverHost>> hosts;
  const net::Endpoint prober{net::IPv4Addr(132, 170, 3, 44), 54321};

  for (const auto& entry : make_zoo()) {
    const net::IPv4Addr addr(66, 77, 0, static_cast<std::uint8_t>(index));
    hosts.push_back(std::make_unique<resolver::ResolverHost>(
        network, addr, entry.profile, engine_config, index + 1));

    const zone::SubdomainId id{0, index};
    std::optional<analysis::R2Record> r2;
    // R2Record::payload is a borrowed span; keep the bytes in an owned
    // buffer that outlives the datagram's pooled slab.
    std::vector<std::uint8_t> r2_wire;
    network.bind(prober, [&](const net::Datagram& d) {
      r2_wire = d.payload.to_vector();
      r2 = analysis::R2Record{loop.now(), d.src.addr, r2_wire};
    });
    network.send(net::Datagram{
        prober, net::Endpoint{addr, net::kDnsPort},
        dns::encode(dns::make_query(static_cast<std::uint16_t>(index + 1),
                                    scheme.qname(id)))});
    loop.run();
    network.unbind(prober);

    if (!r2) {
      report.add_row({entry.name, "-", "-", "-", "(silent)", "no response"});
    } else {
      const analysis::R2View v = analysis::classify_r2(*r2, scheme);
      std::string answer;
      switch (v.form) {
        case analysis::AnswerForm::kNone: answer = "(none)"; break;
        case analysis::AnswerForm::kIp:
          answer = v.answer_ip->to_string() + (v.correct ? " (correct)" : "");
          break;
        case analysis::AnswerForm::kUrl:
        case analysis::AnswerForm::kString: answer = v.answer_text; break;
        case analysis::AnswerForm::kUndecodable: answer = "<garbled>"; break;
      }
      report.add_row({entry.name, v.ra ? "1" : "0", v.aa ? "1" : "0",
                      std::string(dns::to_string(v.rcode)), answer,
                      verdict(v)});
    }
    ++index;
  }

  std::printf("%s", report.render().c_str());
  std::printf("\nauth server saw %llu recursive queries — only the honest "
              "profiles ever contact it;\nmanipulated answers arrive without "
              "any recursion, the paper's key discriminator.\n",
              static_cast<unsigned long long>(auth.stats().queries_received));
  return 0;
}
