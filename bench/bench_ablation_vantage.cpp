// Ablation: single-vantage (prober-only) vs two-vantage measurement.
//
// §V of the paper criticizes Censys/Rapid7-style scans: "if the measurement
// is conducted only at the prober, we cannot catch the packet flow of R1 and
// Q2, which makes it difficult to investigate the behavior of open resolvers
// in-depth." This bench quantifies that: with only the prober's view, an
// answer's provenance (real recursion vs fabrication) is unknowable; with
// the authoritative-server capture, every fabricated answer is provable.
#include "analysis/flow.h"
#include "bench_common.h"
#include "net/capture.h"

using namespace orp;

int main(int argc, char** argv) {
  auto opts = bench::parse_options(argc, argv);
  if (argc <= 1 && std::getenv("ORP_BENCH_SCALE") == nullptr)
    opts.scale = 4096;  // the auth capture retains payloads; keep it modest
  bench::print_header("Ablation — prober-only vs two-vantage measurement",
                      "paper §V 'Discussion' (Censys/Rapid7 critique)");

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

  // ---- Prober-only view (each R2 as it arrives) -------------------------------
  std::uint64_t ra_open = 0;        // RA=1 responses: the flag-only estimate
  std::uint64_t wrong_answers = 0;  // detectable: we own the ground truth
  analysis::FlowGrouper grouper(internet.scheme());
  scanner.set_r2_callback([&](net::SimTime t, net::IPv4Addr resolver,
                              std::span<const std::uint8_t> payload) {
    const analysis::R2View v =
        analysis::classify_r2({t, resolver, payload}, internet.scheme());
    if (!v.has_question) return;
    if (v.ra) ++ra_open;
    if (v.has_answer() && !(v.form == analysis::AnswerForm::kIp && v.correct))
      ++wrong_answers;
    if (v.subdomain) {
      const auto qname = internet.scheme().qname(*v.subdomain);
      grouper.add_probe(qname, resolver);
      grouper.add_r2(v, qname);
    }
  });
  scanner.start([] {});
  internet.loop().run();

  // ---- Add the authoritative vantage ------------------------------------------
  for (const auto& pkt : auth_capture.inbound())
    grouper.add_auth_packet(pkt, /*inbound=*/true);
  for (const auto& pkt : auth_capture.outbound())
    grouper.add_auth_packet(pkt, /*inbound=*/false);

  std::uint64_t proven_fabricated = 0;
  std::uint64_t recursion_backed = 0;
  std::uint64_t q2_total = 0;
  for (const auto& [key, flow] : grouper.flows()) {
    q2_total += flow.q2_count;
    if (!flow.r2 || !flow.r2->has_answer()) continue;
    if (flow.q2_count == 0)
      ++proven_fabricated;
    else
      ++recursion_backed;
  }

  util::TextTable t({"capability", "prober-only", "two-vantage"});
  t.set_align(0, util::Align::kLeft);
  t.add_row({"R2 responses observed",
             util::with_commas(scanner.stats().r2_received),
             util::with_commas(scanner.stats().r2_received)});
  t.add_row({"RA-flag open-resolver estimate", util::with_commas(ra_open),
             util::with_commas(ra_open)});
  t.add_row({"wrong answers detected (own ground truth)",
             util::with_commas(wrong_answers), util::with_commas(wrong_answers)});
  t.add_row({"Q2/R1 recursion flows observed", "0 (blind)",
             util::with_commas(q2_total)});
  t.add_row({"answers proven fabricated", "0 (cannot)",
             util::with_commas(proven_fabricated)});
  t.add_row({"answers proven recursion-backed", "0 (cannot)",
             util::with_commas(recursion_backed)});
  std::printf("%s", t.render().c_str());

  std::printf(
      "\nshape check: the prober alone sees *that* answers are wrong but not "
      "*why*; only the\nauthoritative vantage separates fabrication (%s "
      "answers, zero recursion) from honest\nresolution gone wrong — the "
      "paper's §IV-C2 manipulation argument needs both captures.\n",
      util::with_commas(proven_fabricated).c_str());
  return 0;
}
