#include "analysis/report.h"

#include <sstream>

#include "analysis/streaming.h"
#include "util/strings.h"
#include "util/table.h"

namespace orp::analysis {

using util::fixed;
using util::TextTable;
using util::with_commas;

ScanAnalysis analyze_scan(std::span<const R2View> views,
                          const intel::ThreatDb& threats,
                          const intel::GeoDb& geo, const intel::OrgDb& orgs) {
  PartialTables tables;
  for (const R2View& v : views) tables.observe(v, threats, geo, orgs);
  return tables.finalize(orgs, threats);
}

std::string render_answer_table(const AnswerRows& rows) {
  TextTable t({"", "R2", "W/O", "W_Corr", "W_Incorr", "Err(%)"});
  for (const auto& [label, b] : rows) {
    t.add_row({label, with_commas(b.r2), with_commas(b.without_answer),
               with_commas(b.correct), with_commas(b.incorrect),
               fixed(b.err_percent())});
  }
  return t.render();
}

std::string render_flag_table(const FlagRows& rows, std::string_view flag) {
  TextTable t({"", "W/O", "W_Corr", "W_Incorr", "Total", "Err(%)"});
  for (const auto& [label, table] : rows) {
    const FlagBreakdown* bits[] = {&table.bit0, &table.bit1};
    for (int bit = 0; bit < 2; ++bit) {
      const FlagBreakdown& b = *bits[bit];
      t.add_row({label + "  " + std::string(flag) + std::to_string(bit),
                 with_commas(b.without_answer), with_commas(b.correct),
                 with_commas(b.incorrect), with_commas(b.total()),
                 fixed(b.err_percent())});
    }
    t.add_separator();
  }
  return t.render();
}

std::string render_rcode_table(const RcodeRows& rows) {
  // Columns follow Table VI: rcodes 0-7 and 9 (8 omitted, absent in data).
  static constexpr dns::Rcode kColumns[] = {
      dns::Rcode::kNoError,  dns::Rcode::kFormErr, dns::Rcode::kServFail,
      dns::Rcode::kNXDomain, dns::Rcode::kNotImp,  dns::Rcode::kRefused,
      dns::Rcode::kYXDomain, dns::Rcode::kYXRRSet, dns::Rcode::kNotAuth};
  std::vector<std::string> headers{""};
  for (const auto rc : kColumns) headers.emplace_back(dns::to_string(rc));
  TextTable t(headers);
  for (const auto& [label, table] : rows) {
    std::vector<std::string> w{label + "  W"};
    std::vector<std::string> wo{label + "  W/O"};
    std::vector<std::string> total{label + "  Total"};
    for (const auto rc : kColumns) {
      const RcodeRow& row = table.row(rc);
      w.push_back(with_commas(row.with_answer));
      wo.push_back(with_commas(row.without_answer));
      total.push_back(with_commas(row.total()));
    }
    t.add_row(std::move(w));
    t.add_row(std::move(wo));
    t.add_row(std::move(total));
    t.add_separator();
  }
  return t.render();
}

std::string render_incorrect_table(const IncorrectRows& rows) {
  TextTable t({"", "Form", "#R2", "#unique", "Example"});
  t.set_align(4, util::Align::kLeft);
  for (const auto& [label, s] : rows) {
    t.add_row({label, "IP", with_commas(s.ip.r2), with_commas(s.ip.unique),
               s.ip.example});
    t.add_row({"", "URL", with_commas(s.url.r2), with_commas(s.url.unique),
               s.url.example});
    t.add_row({"", "string", with_commas(s.str.r2), with_commas(s.str.unique),
               s.str.example});
    if (s.na.r2 > 0)
      t.add_row({"", "N/A", with_commas(s.na.r2), "-", s.na.example});
    t.add_row({"", "Total", with_commas(s.total_r2()),
               with_commas(s.total_unique()), ""});
    t.add_separator();
  }
  return t.render();
}

std::string render_top10_table(const std::vector<TopIncorrectEntry>& entries) {
  TextTable t({"IP address", "#", "Org Name", "Reports"});
  t.set_align(2, util::Align::kLeft);
  std::uint64_t total = 0;
  for (const auto& e : entries) {
    total += e.count;
    t.add_row({e.addr.to_string(), with_commas(e.count), e.org,
               e.reported == '-' ? "N/A" : std::string(1, e.reported)});
  }
  t.add_separator();
  t.add_row({"Total", with_commas(total), "-", "-"});
  return t.render();
}

std::string render_malicious_table(const MaliciousRows& rows) {
  TextTable t({"Report Category"});
  std::vector<std::string> headers{"Report Category"};
  for (const auto& [label, s] : rows) {
    (void)s;
    headers.push_back(label + " #IP");
    headers.push_back("(%IP)");
    headers.push_back(label + " #R2");
    headers.push_back("(%R2)");
  }
  t.set_headers(headers);
  for (std::size_t c = 0; c < intel::kThreatCategoryCount; ++c) {
    std::vector<std::string> row{
        std::string(intel::to_string(static_cast<intel::ThreatCategory>(c)))};
    for (const auto& [label, s] : rows) {
      const CategoryRow& cat = s.categories[c];
      row.push_back(with_commas(cat.unique_ips));
      row.push_back(fixed(util::percent(cat.unique_ips, s.total_ips), 1));
      row.push_back(with_commas(cat.r2));
      row.push_back(fixed(util::percent(cat.r2, s.total_r2), 1));
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> totals{"Total"};
  for (const auto& [label, s] : rows) {
    totals.push_back(with_commas(s.total_ips));
    totals.push_back("-");
    totals.push_back(with_commas(s.total_r2));
    totals.push_back("-");
  }
  t.add_separator();
  t.add_row(std::move(totals));
  return t.render();
}

std::string render_malicious_flags_table(const MaliciousRows& rows) {
  TextTable t({"", "RA0", "RA1", "AA0", "AA1", "rcode=0"});
  for (const auto& [label, s] : rows) {
    t.add_row({label, with_commas(s.ra0) + " (" +
                          fixed(util::percent(s.ra0, s.total_r2), 1) + "%)",
               with_commas(s.ra1) + " (" +
                   fixed(util::percent(s.ra1, s.total_r2), 1) + "%)",
               with_commas(s.aa0) + " (" +
                   fixed(util::percent(s.aa0, s.total_r2), 1) + "%)",
               with_commas(s.aa1) + " (" +
                   fixed(util::percent(s.aa1, s.total_r2), 1) + "%)",
               with_commas(s.rcode_noerror)});
  }
  return t.render();
}

std::string render_geo_summary(const GeoSummary& geo, std::size_t top_n) {
  std::ostringstream out;
  out << "malicious R2 across " << geo.country_count() << " countries, "
      << with_commas(geo.total) << " responses total\n";
  TextTable t({"Country", "#R2", "Share(%)"});
  for (std::size_t i = 0; i < geo.countries.size() && i < top_n; ++i) {
    const CountryCount& c = geo.countries[i];
    t.add_row({c.country, with_commas(c.r2), fixed(c.share(geo.total), 1)});
  }
  out << t.render();
  return out.str();
}

std::string render_empty_question_summary(const EmptyQuestionSummary& s) {
  std::ostringstream out;
  out << "R2 with empty question: " << with_commas(s.total) << "\n"
      << "  with answer: " << s.with_answer << " (correct: " << s.correct
      << ", private: " << s.private_answers
      << ", malformed: " << s.malformed_answers
      << ", org-unknown: " << s.unknown_org << ")\n"
      << "  RA=1: " << s.ra1 << " (without answer: " << s.ra1_without_answer
      << "), RA=0: " << s.ra0 << " (with answer: " << s.ra0_with_answer
      << "), AA=1: " << s.aa1 << "\n  rcode:";
  for (std::size_t i = 0; i < s.rcode.size(); ++i) {
    if (s.rcode[i] == 0) continue;
    out << " " << dns::to_string(static_cast<dns::Rcode>(i)) << "="
        << s.rcode[i];
  }
  out << "\n";
  return out.str();
}

}  // namespace orp::analysis
