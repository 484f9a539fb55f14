// manipulation_detector: the paper's §IV-C pipeline as a standalone tool.
//
// Runs a scaled 2018 scan, then hunts manipulated answers three ways:
//   1. ground-truth mismatch (wrong A record for our own subdomain),
//   2. threat-intel validation of the answer address (Cymon-style),
//   3. the recursion discriminator — answers for fresh subdomains that the
//      authoritative server never saw a query for cannot be cached or
//      resolved; they are fabricated.
// Prints each detected manipulator with geolocation and intel category.
//
//   ./manipulation_detector [scale] [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analysis/flow.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "net/capture.h"
#include "util/strings.h"
#include "util/table.h"

using namespace orp;

int main(int argc, char** argv) {
  const std::uint64_t scale =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8192;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  // Build + scan manually so a capture can watch the auth server.
  const core::PopulationSpec spec =
      core::build_population(core::paper_2018(), scale, seed);
  core::InternetConfig net_cfg;
  net_cfg.seed = seed;
  net_cfg.scan_seed = util::mix64(seed + 2018);
  core::SimulatedInternet internet(spec, net_cfg);

  net::Capture auth_capture(internet.auth_address());
  auth_capture.attach(internet.network());

  prober::ScanConfig scan_cfg;
  scan_cfg.seed = net_cfg.scan_seed;
  scan_cfg.rate_pps = spec.rate_pps;
  scan_cfg.raw_steps = spec.raw_steps;
  scan_cfg.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  prober::Scanner scanner(internet.network(), internet.prober_address(),
                          scan_cfg, internet.scheme());
  scanner.set_rotate_callback(
      [&](std::uint32_t c) { internet.auth().load_cluster(c); });
  scanner.set_advance_callback(
      [&internet](std::uint64_t end) { internet.build_hosts_below(end); });

  // Every R2 opens its flow as it arrives; the manipulated ones are kept
  // for the evidence pass once the auth-side captures are in.
  analysis::FlowGrouper grouper(internet.scheme());
  std::vector<analysis::R2View> suspects;
  scanner.set_r2_callback([&](net::SimTime t, net::IPv4Addr resolver,
                              std::span<const std::uint8_t> payload) {
    analysis::R2View v =
        analysis::classify_r2({t, resolver, payload}, internet.scheme());
    if (!v.has_question || !v.subdomain) return;
    const auto qname = internet.scheme().qname(*v.subdomain);
    grouper.add_probe(qname, resolver);
    grouper.add_r2(v, qname);
    if (v.has_answer() && !(v.form == analysis::AnswerForm::kIp && v.correct))
      suspects.push_back(std::move(v));
  });
  scanner.start([] {});
  internet.loop().run();

  std::printf("scan done: %s probes, %s responses\n\n",
              util::with_commas(scanner.stats().q1_sent).c_str(),
              util::with_commas(scanner.stats().r2_received).c_str());

  // Recursion evidence, grouped by qname.
  for (const auto& pkt : auth_capture.inbound())
    grouper.add_auth_packet(pkt, /*inbound=*/true);
  for (const auto& pkt : auth_capture.outbound())
    grouper.add_auth_packet(pkt, /*inbound=*/false);

  util::TextTable findings(
      {"resolver", "country", "answer", "intel", "evidence"});
  findings.set_align(4, util::Align::kLeft);
  const std::uint64_t manipulated = suspects.size();
  std::uint64_t fabricated_confirmed = 0;
  for (const analysis::R2View& v : suspects) {
    const auto qname = internet.scheme().qname(*v.subdomain);
    const auto& flow = grouper.flows().at(qname.canonical_key());
    const bool no_recursion = flow.q2_count == 0;
    if (no_recursion) ++fabricated_confirmed;
    if (findings.row_count() >= 15) continue;  // keep the sample printable

    std::string answer;
    std::string intel = "-";
    switch (v.form) {
      case analysis::AnswerForm::kIp: {
        answer = v.answer_ip->to_string();
        if (const auto cat = internet.threats().dominant_category(*v.answer_ip))
          intel = std::string(intel::to_string(*cat));
        else if (net::is_private_address(*v.answer_ip))
          intel = "private net";
        break;
      }
      case analysis::AnswerForm::kUrl:
      case analysis::AnswerForm::kString: answer = v.answer_text; break;
      case analysis::AnswerForm::kUndecodable: answer = "<garbled>"; break;
      default: break;
    }
    findings.add_row({v.resolver.to_string(),
                      internet.geo().country_of(v.resolver), answer, intel,
                      no_recursion ? "no recursion observed" : "recursed"});
  }

  std::printf("manipulated answers: %s (sample below)\n",
              util::with_commas(manipulated).c_str());
  std::printf("confirmed fabrications (answer with zero auth contact): %s\n\n",
              util::with_commas(fabricated_confirmed).c_str());
  std::printf("%s", findings.render().c_str());
  std::printf(
      "\ncache poisoning is ruled out by construction: every probe uses a "
      "subdomain that\nnever existed before the scan, so a manipulated "
      "answer implies the resolver\nitself is hostile (§IV-C2).\n");
  return 0;
}
