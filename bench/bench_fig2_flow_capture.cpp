// Fig. 2: the Q1/Q2/R1/R2 measurement flow, validated with captures at both
// vantage points (prober and authoritative server) and grouped by qname.
//
// This bench also demonstrates the paper's manipulation discriminator: an R2
// that carries an answer although the authoritative server never saw a Q2
// for its qname cannot be a cached or recursive result — it is fabricated.
#include "analysis/flow.h"
#include "bench_common.h"
#include "net/capture.h"
#include "prober/scanner.h"

int main(int argc, char** argv) {
  using namespace orp;
  auto opts = bench::parse_options(argc, argv);
  if (argc <= 1 && std::getenv("ORP_BENCH_SCALE") == nullptr)
    opts.scale = 8192;  // the auth capture retains payloads; keep it modest
  bench::print_header("Fig. 2 — measurement flow capture",
                      "paper §III-A, Fig. 2");

  // Build the 2018 internet but drive the scanner manually so we can attach
  // captures to both vantage points.
  const core::PopulationSpec spec =
      core::build_population(core::paper_2018(), opts.scale, opts.seed);
  core::InternetConfig net_cfg;
  net_cfg.seed = opts.seed;
  net_cfg.scan_seed = util::mix64(opts.seed + 2018);
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

  // Group all four packet kinds by qname (the §III-B matching method): the
  // R2s open their flows as they arrive, the auth-side Q2/R1 captures are
  // folded in after the scan.
  analysis::FlowGrouper grouper(internet.scheme());
  std::uint64_t answered = 0;
  scanner.set_r2_callback([&](net::SimTime t, net::IPv4Addr resolver,
                              std::span<const std::uint8_t> payload) {
    const analysis::R2View view =
        analysis::classify_r2({t, resolver, payload}, internet.scheme());
    if (!view.has_question || !view.subdomain) return;
    const auto qname = internet.scheme().qname(*view.subdomain);
    grouper.add_probe(qname, resolver);
    grouper.add_r2(view, qname);
    if (view.has_answer()) ++answered;
  });
  scanner.start([] {});
  internet.loop().run();

  std::printf("prober vantage:  Q1 sent %s, R2 received %s\n",
              util::with_commas(scanner.stats().q1_sent).c_str(),
              util::with_commas(scanner.stats().r2_received).c_str());
  std::printf("authns vantage:  Q2 captured %s, R1 captured %s\n",
              util::with_commas(auth_capture.inbound_count()).c_str(),
              util::with_commas(auth_capture.outbound_count()).c_str());

  for (const auto& pkt : auth_capture.inbound())
    grouper.add_auth_packet(pkt, /*inbound=*/true);
  for (const auto& pkt : auth_capture.outbound())
    grouper.add_auth_packet(pkt, /*inbound=*/false);
  std::uint64_t answered_with_recursion = 0;
  std::uint64_t fabricated = 0;
  for (const auto& [key, flow] : grouper.flows()) {
    if (!flow.has_r2 || !flow.r2 || !flow.r2->has_answer()) continue;
    if (flow.q2_count > 0)
      ++answered_with_recursion;
    else
      ++fabricated;
  }

  util::TextTable t({"flow class", "count"});
  t.add_row({"answered R2 (grouped by qname)", util::with_commas(answered)});
  t.add_row({"  backed by observed Q2/R1 recursion",
             util::with_commas(answered_with_recursion)});
  t.add_row({"  fabricated (answer with zero Q2) ",
             util::with_commas(fabricated)});
  std::printf("\n%s", t.render().c_str());
  std::printf(
      "\nshape checks: every incorrect answer in the calibrated population "
      "is fabricated\n(no auth contact) and every correct answer is backed "
      "by real recursion — the\nexact argument of §IV-C2 \"DNS "
      "Manipulation\".\n");
  return 0;
}
