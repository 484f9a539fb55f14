// Ablation: subdomain reuse on vs. off (§III-B).
//
// The paper's claim: without reuse a full scan needs ~800 zone files of 5M
// names each (a minute of load pause apiece); with reuse, 4. This bench runs
// the same scaled 2018 campaign both ways and reports zone loads, names
// consumed, and time lost to zone loading.
#include "bench_common.h"

using namespace orp;

namespace {

struct AblationResult {
  prober::ScanStats scan;
  zone::ClusterStats clusters;
  std::uint64_t zone_loads = 0;
  double load_seconds = 0;
};

AblationResult run(const bench::BenchOptions& opts, bool reuse) {
  const core::PopulationSpec spec =
      core::build_population(core::paper_2018(), opts.scale, opts.seed);
  core::InternetConfig net_cfg;
  net_cfg.seed = opts.seed;
  net_cfg.scan_seed = util::mix64(opts.seed + 2018);
  core::SimulatedInternet internet(spec, net_cfg);

  prober::ScanConfig scan_cfg;
  scan_cfg.seed = net_cfg.scan_seed;
  scan_cfg.rate_pps = spec.rate_pps;
  scan_cfg.raw_steps = spec.raw_steps;
  scan_cfg.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  scan_cfg.subdomain_reuse = reuse;
  prober::Scanner scanner(internet.network(), internet.prober_address(),
                          scan_cfg, internet.scheme());
  scanner.set_rotate_callback(
      [&](std::uint32_t c) { internet.auth().load_cluster(c); });
  scanner.set_advance_callback(
      [&internet](std::uint64_t end) { internet.build_hosts_below(end); });
  scanner.start([] {});
  internet.loop().run();

  AblationResult r;
  r.scan = scanner.stats();
  r.clusters = scanner.clusters().stats();
  r.zone_loads = internet.auth().stats().cluster_loads;
  r.load_seconds = internet.auth().load_time_total().as_seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  bench::print_header("Ablation — subdomain reuse on vs off",
                      "paper §III-B 'Subdomain Reuse' (800 clusters -> 4)");

  std::printf("... with reuse\n");
  const AblationResult with_reuse = run(opts, true);
  std::printf("... without reuse\n");
  const AblationResult without = run(opts, false);

  util::TextTable t({"", "with reuse", "without reuse"});
  auto row = [&](const char* label, std::uint64_t a, std::uint64_t b) {
    t.add_row({label, util::with_commas(a), util::with_commas(b)});
  };
  row("probes sent", with_reuse.scan.q1_sent, without.scan.q1_sent);
  row("zone loads", with_reuse.zone_loads, without.zone_loads);
  row("fresh subdomains consumed", with_reuse.clusters.subdomains_issued,
      without.clusters.subdomains_issued);
  row("subdomains reused", with_reuse.clusters.subdomains_reused,
      without.clusters.subdomains_reused);
  t.add_row({"zone-load time",
             util::human_duration(with_reuse.load_seconds),
             util::human_duration(without.load_seconds)});
  std::printf("%s", t.render().c_str());

  std::printf(
      "\nshape check: reuse cuts zone loads by ~%.0fx (paper: 800 -> 4, "
      "i.e. 200x at full scale)\nand eliminates ~%s zone-file generations; "
      "responses collected are identical either way.\n",
      static_cast<double>(without.zone_loads) /
          static_cast<double>(std::max<std::uint64_t>(1, with_reuse.zone_loads)),
      util::with_commas(without.zone_loads - with_reuse.zone_loads).c_str());
  return 0;
}
