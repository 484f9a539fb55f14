// orpscan: the survey as a command-line tool.
//
//   orpscan [options]
//     --year 2013|2018      population to scan            (default 2018)
//     --scale N             1/N-scale campaign            (default 2048)
//     --seed N              deterministic seed            (default 42)
//     --loss P              injected packet-loss rate     (default 0)
//     --csv PATH            per-response CSV export
//     --summary-csv PATH    key/value summary CSV export
//     --pcap PATH           R2 capture in libpcap format
//     --quiet               suppress the table printout
//
// Exit status: 0 on success, 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "core/contrast.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "net/pcap.h"
#include "util/strings.h"

using namespace orp;

namespace {

struct Options {
  int year = 2018;
  std::uint64_t scale = 2048;
  std::uint64_t seed = 42;
  double loss = 0.0;
  std::string csv_path;
  std::string summary_csv_path;
  std::string pcap_path;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--year 2013|2018] [--scale N] [--seed N] "
               "[--loss P] [--csv PATH] [--summary-csv PATH] [--pcap PATH] "
               "[--quiet]\n",
               argv0);
  return 2;
}

bool parse_options(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--year") {
      const char* v = next();
      if (!v) return false;
      opts.year = std::atoi(v);
      if (opts.year != 2013 && opts.year != 2018) return false;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opts.scale = std::strtoull(v, nullptr, 10);
      if (opts.scale == 0) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--loss") {
      const char* v = next();
      if (!v) return false;
      opts.loss = std::atof(v);
      if (opts.loss < 0 || opts.loss > 1) return false;
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return false;
      opts.csv_path = v;
    } else if (arg == "--summary-csv") {
      const char* v = next();
      if (!v) return false;
      opts.summary_csv_path = v;
    } else if (arg == "--pcap") {
      const char* v = next();
      if (!v) return false;
      opts.pcap_path = v;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else {
      return false;
    }
  }
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Per-response export rows, taken from one scan's R2 hook as they arrive.
struct Export {
  std::vector<analysis::R2View> views;        // --csv
  std::vector<net::CapturedPacket> packets;   // --pcap
};

/// The single-shard scan run_measurement performs, with the scanner's R2
/// hook feeding the export buffers.
Export export_scan(const core::PaperYear& year, const Options& opts) {
  const core::PopulationSpec spec =
      core::build_population(year, opts.scale, opts.seed);
  core::InternetConfig net_cfg;
  net_cfg.seed = opts.seed;
  net_cfg.scan_seed = util::mix64(opts.seed + year.year);
  net_cfg.loss_rate = opts.loss;
  core::SimulatedInternet internet(spec, net_cfg);
  prober::ScanConfig scan_cfg;
  scan_cfg.seed = net_cfg.scan_seed;
  scan_cfg.rate_pps = spec.rate_pps;
  scan_cfg.raw_steps = spec.raw_steps;
  scan_cfg.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  prober::Scanner scanner(internet.network(), internet.prober_address(),
                          scan_cfg, internet.scheme());
  scanner.set_rotate_callback(
      [&internet](std::uint32_t c) { internet.auth().load_cluster(c); });
  scanner.set_advance_callback(
      [&internet](std::uint64_t end) { internet.build_hosts_below(end); });

  Export out;
  const bool csv = !opts.csv_path.empty();
  const bool pcap = !opts.pcap_path.empty();
  scanner.set_r2_callback([&](net::SimTime t, net::IPv4Addr resolver,
                              std::span<const std::uint8_t> payload) {
    if (csv)
      out.views.push_back(analysis::classify_r2({t, resolver, payload},
                                                internet.scheme()));
    if (pcap) {
      net::CapturedPacket pkt;
      pkt.time = t;
      pkt.src = net::Endpoint{resolver, net::kDnsPort};
      pkt.dst = net::Endpoint{internet.prober_address(), 54321};
      pkt.payload.assign(payload.begin(), payload.end());
      out.packets.push_back(std::move(pkt));
    }
  });
  scanner.start([] {});
  internet.loop().run();
  // CSV rows in canonical order: stable by resolver address.
  std::stable_sort(out.views.begin(), out.views.end(),
                   [](const analysis::R2View& a, const analysis::R2View& b) {
                     return a.resolver.value() < b.resolver.value();
                   });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_options(argc, argv, opts)) return usage(argv[0]);

  const core::PaperYear& year =
      opts.year == 2013 ? core::paper_2013() : core::paper_2018();
  core::PipelineConfig cfg;
  cfg.scale = opts.scale;
  cfg.seed = opts.seed;
  cfg.loss_rate = opts.loss;

  if (!opts.quiet)
    std::printf("orpscan: %d population, scale 1/%llu, seed %llu%s\n",
                opts.year, static_cast<unsigned long long>(opts.scale),
                static_cast<unsigned long long>(opts.seed),
                opts.loss > 0 ? " (lossy)" : "");

  const core::ScanOutcome outcome = core::run_measurement(year, cfg);

  if (!opts.quiet) {
    const auto& a = outcome.analysis;
    std::printf(
        "scan: %s probes, %s responses in %s simulated\n"
        "answers: %s correct, %s incorrect (err %.3f%%), %s empty\n"
        "malicious: %s responses across %s addresses\n",
        util::with_commas(outcome.scan.q1_sent).c_str(),
        util::with_commas(outcome.scan.r2_received).c_str(),
        util::human_duration(outcome.sim_duration_seconds).c_str(),
        util::with_commas(a.answers.correct).c_str(),
        util::with_commas(a.answers.incorrect).c_str(),
        a.answers.err_percent(),
        util::with_commas(a.answers.without_answer).c_str(),
        util::with_commas(a.malicious.total_r2).c_str(),
        util::with_commas(a.malicious.total_ips).c_str());
    const auto est = core::estimate_open_resolvers(a);
    std::printf("open resolvers (strict/RA-only/correct-only): %s / %s / %s\n",
                util::with_commas(est.strict).c_str(),
                util::with_commas(est.ra_flag_only).c_str(),
                util::with_commas(est.correct_only).c_str());
  }

  // Per-response export: the pipeline keeps no responses, so one more
  // single-shard scan hands each R2 to the exporters as it arrives.
  Export rows;
  if (!opts.csv_path.empty() || !opts.pcap_path.empty())
    rows = export_scan(year, opts);
  if (!opts.csv_path.empty()) {
    if (!write_file(opts.csv_path, analysis::views_to_csv(rows.views))) {
      std::fprintf(stderr, "orpscan: cannot write %s\n",
                   opts.csv_path.c_str());
      return 1;
    }
    if (!opts.quiet)
      std::printf("wrote %zu response rows to %s\n", rows.views.size(),
                  opts.csv_path.c_str());
  }
  if (!opts.summary_csv_path.empty()) {
    if (!write_file(opts.summary_csv_path,
                    analysis::analysis_to_csv(outcome.analysis))) {
      std::fprintf(stderr, "orpscan: cannot write %s\n",
                   opts.summary_csv_path.c_str());
      return 1;
    }
    if (!opts.quiet)
      std::printf("wrote summary to %s\n", opts.summary_csv_path.c_str());
  }
  if (!opts.pcap_path.empty()) {
    if (!net::write_pcap_file(opts.pcap_path, rows.packets)) {
      std::fprintf(stderr, "orpscan: cannot write %s\n",
                   opts.pcap_path.c_str());
      return 1;
    }
    if (!opts.quiet)
      std::printf("wrote %zu R2 packets to %s\n", rows.packets.size(),
                  opts.pcap_path.c_str());
  }
  return 0;
}
