#include <gtest/gtest.h>

#include <numeric>

#include "core/contrast.h"
#include "core/ipf.h"
#include "core/paper_data.h"
#include "core/population.h"
#include "core/reconcile.h"

namespace orp::core {

// gtest prints a pointer parameter as its address, which ASLR moves from run
// to run; print the year so the discovered test names are stable.
void PrintTo(const PaperYear* y, std::ostream* os) { *os << y->year; }

namespace {

// ---- Paper data self-consistency ----------------------------------------------------

class PaperDataYears : public ::testing::TestWithParam<const PaperYear*> {};

TEST_P(PaperDataYears, TableThreePartsSumToR2) {
  const PaperYear& y = *GetParam();
  EXPECT_EQ(y.answers.without_answer + y.answers.with_answer(), y.answers.r2);
  EXPECT_EQ(y.answers.r2 + y.empty_question, y.r2);
}

TEST_P(PaperDataYears, TableFourIsConsistentWithTableThree) {
  const PaperYear& y = *GetParam();
  // Table IV is packet-exact against Table III in both years.
  EXPECT_EQ(y.ra.bit0.correct + y.ra.bit1.correct, y.answers.correct);
  EXPECT_EQ(y.ra.bit0.incorrect + y.ra.bit1.incorrect, y.answers.incorrect);
  EXPECT_EQ(y.ra.bit0.without_answer + y.ra.bit1.without_answer,
            y.answers.without_answer);
}

TEST_P(PaperDataYears, TableNineSumsToTotals) {
  const PaperYear& y = *GetParam();
  std::uint64_t ips = 0;
  std::uint64_t r2 = 0;
  for (const auto& c : y.categories) {
    ips += c.unique_ips;
    r2 += c.r2;
  }
  EXPECT_EQ(ips, y.malicious_ips);
  EXPECT_EQ(r2, y.malicious_r2);
}

TEST_P(PaperDataYears, TableTenSumsToMaliciousTotal) {
  const PaperYear& y = *GetParam();
  EXPECT_EQ(y.mal_ra0 + y.mal_ra1, y.malicious_r2);
  EXPECT_EQ(y.mal_aa0 + y.mal_aa1, y.malicious_r2);
}

TEST_P(PaperDataYears, CountryListSumsToMaliciousR2) {
  const PaperYear& y = *GetParam();
  std::uint64_t total = 0;
  for (const auto& c : y.countries) total += c.r2;
  EXPECT_EQ(total, y.malicious_r2);
}

TEST_P(PaperDataYears, TopTenTotalsMatchProse) {
  const PaperYear& y = *GetParam();
  std::uint64_t total = 0;
  for (const auto& e : y.top10) total += e.count;
  // 2013: 26,514 (§IV-C1); 2018: 50,669 (Table VIII).
  EXPECT_EQ(total, y.year == 2013 ? 26'514u : 50'669u);
  // Strictly decreasing ranking.
  for (std::size_t i = 1; i < y.top10.size(); ++i)
    EXPECT_LT(y.top10[i].count, y.top10[i - 1].count);
}

TEST_P(PaperDataYears, IncorrectFormsSumToTableThree) {
  const PaperYear& y = *GetParam();
  EXPECT_EQ(y.incorrect.ip.r2 + y.incorrect.url.r2 + y.incorrect.str.r2 +
                y.incorrect.na.r2,
            y.answers.incorrect);
}

INSTANTIATE_TEST_SUITE_P(BothYears, PaperDataYears,
                         ::testing::Values(&paper_2013(), &paper_2018()),
                         [](const auto& info) {
                           return std::to_string(info.param->year);
                         });

TEST(PaperData, KnownHeadlineNumbers) {
  EXPECT_EQ(paper_2018().q1, 3'702'258'432u);
  EXPECT_EQ(paper_2018().r2, 6'506'258u);
  EXPECT_EQ(paper_2013().r2, 16'660'123u);
  EXPECT_NEAR(paper_2018().answers.err_percent(), 3.879, 0.001);
  EXPECT_NEAR(paper_2013().answers.err_percent(), 1.029, 0.001);
}

// ---- Reconciliation -------------------------------------------------------------------

TEST(Reconcile, TableFiveMovesTenPackets2018) {
  analysis::FlagTable aa = paper_2018().aa;
  const auto moved = reconcile_flag_table(aa, paper_2018().answers);
  EXPECT_EQ(moved, 20u);  // two columns off by 10 each
  EXPECT_EQ(aa.bit0.correct + aa.bit1.correct, paper_2018().answers.correct);
  EXPECT_EQ(aa.bit0.without_answer + aa.bit1.without_answer,
            paper_2018().answers.without_answer);
}

TEST(Reconcile, ConsistentTableMovesNothing) {
  analysis::FlagTable ra = paper_2018().ra;
  EXPECT_EQ(reconcile_flag_table(ra, paper_2018().answers), 0u);
}

TEST(Reconcile, RcodeTableSumsAfterwards) {
  for (const PaperYear* y : {&paper_2013(), &paper_2018()}) {
    analysis::RcodeTable rc = y->rcodes;
    reconcile_rcode_table(rc, y->answers);
    std::uint64_t with = 0;
    std::uint64_t without = 0;
    for (const auto& row : rc.rows) {
      with += row.with_answer;
      without += row.without_answer;
    }
    EXPECT_EQ(with, y->answers.with_answer()) << y->year;
    EXPECT_EQ(without, y->answers.without_answer) << y->year;
  }
}

// ---- IPF --------------------------------------------------------------------------------

CalibrationTargets targets_for(const PaperYear& y) {
  CalibrationTargets t;
  t.answers = y.answers;
  t.ra = y.ra;
  t.aa = y.aa;
  t.rcodes = y.rcodes;
  reconcile_flag_table(t.ra, t.answers);
  reconcile_flag_table(t.aa, t.answers);
  reconcile_rcode_table(t.rcodes, t.answers);
  t.mal_ra0 = y.mal_ra0;
  t.mal_ra1 = y.mal_ra1;
  t.mal_aa0 = y.mal_aa0;
  t.mal_aa1 = y.mal_aa1;
  return t;
}

class IpfYears : public ::testing::TestWithParam<const PaperYear*> {};

TEST_P(IpfYears, ConvergesAndReproducesMargins) {
  const CalibrationTargets t = targets_for(*GetParam());
  const IpfResult result = calibrate_joint(t);
  EXPECT_LT(result.max_margin_error, 1e-8);
  EXPECT_EQ(result.total, t.answers.r2);

  // Integerized margins must match the reconciled targets within the
  // rounding budget of the integerization (a few packets per margin cell).
  const auto ra = result.ra_margin();
  EXPECT_NEAR(static_cast<double>(ra.bit0.correct),
              static_cast<double>(t.ra.bit0.correct), 4.0);
  EXPECT_NEAR(static_cast<double>(ra.bit1.incorrect),
              static_cast<double>(t.ra.bit1.incorrect), 4.0);
  EXPECT_NEAR(static_cast<double>(ra.bit0.without_answer),
              static_cast<double>(t.ra.bit0.without_answer), 4.0);

  const auto aa = result.aa_margin();
  EXPECT_NEAR(static_cast<double>(aa.bit1.incorrect),
              static_cast<double>(t.aa.bit1.incorrect), 4.0);

  const auto rc = result.rcode_margin();
  for (std::size_t i = 0; i < rc.rows.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(rc.rows[i].with_answer),
                static_cast<double>(t.rcodes.rows[i].with_answer), 4.0)
        << "rcode " << i;
    EXPECT_NEAR(static_cast<double>(rc.rows[i].without_answer),
                static_cast<double>(t.rcodes.rows[i].without_answer), 4.0)
        << "rcode " << i;
  }
}

TEST_P(IpfYears, MaliciousCellsAllNoError) {
  const IpfResult result = calibrate_joint(targets_for(*GetParam()));
  std::uint64_t malicious = 0;
  std::uint64_t mal_ra0 = 0;
  for (const JointCell& c : result.cells) {
    if (c.cls != AnsClass::kIncorrectMalicious) continue;
    malicious += c.count;
    if (!c.ra) mal_ra0 += c.count;
    EXPECT_EQ(c.rcode, dns::Rcode::kNoError);
  }
  EXPECT_NEAR(static_cast<double>(malicious),
              static_cast<double>(GetParam()->malicious_r2), 4.0);
  EXPECT_NEAR(static_cast<double>(mal_ra0),
              static_cast<double>(GetParam()->mal_ra0), 4.0);
}

INSTANTIATE_TEST_SUITE_P(BothYears, IpfYears,
                         ::testing::Values(&paper_2013(), &paper_2018()),
                         [](const auto& info) {
                           return std::to_string(info.param->year);
                         });

TEST(Ipf, RareCellsSurviveIntegerization) {
  const IpfResult result = calibrate_joint(targets_for(paper_2018()));
  const auto rc = result.rcode_margin();
  // The 10 NXDomain-with-answer packets and 23 FormErr-with-answer packets
  // must not be rounded away.
  EXPECT_GT(rc.row(dns::Rcode::kNXDomain).with_answer, 0u);
  EXPECT_GT(rc.row(dns::Rcode::kFormErr).with_answer, 0u);
}

// ---- Population -----------------------------------------------------------------------

class PopulationYears : public ::testing::TestWithParam<const PaperYear*> {};

TEST_P(PopulationYears, HostCountMatchesScaledR2) {
  const PaperYear& y = *GetParam();
  const std::uint64_t scale = 1024;
  const PopulationSpec spec = build_population(y, scale, 42);
  const std::uint64_t expected_q = (y.answers.r2 + scale / 2) / scale;
  const std::uint64_t expected_eq =
      y.empty_question == 0
          ? 0
          : std::max<std::uint64_t>(1, (y.empty_question + scale / 2) / scale);
  EXPECT_EQ(spec.hosts.size(), expected_q + expected_eq);
}

TEST_P(PopulationYears, BehaviorMixMatchesScaledMargins) {
  const PaperYear& y = *GetParam();
  const std::uint64_t scale = 512;
  const PopulationSpec spec = build_population(y, scale, 7);

  std::uint64_t correct = 0;
  std::uint64_t none = 0;
  std::uint64_t fixed_ip = 0;
  std::uint64_t url = 0;
  std::uint64_t garbage = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t eq = 0;
  for (const HostSpec& h : spec.hosts) {
    if (h.profile.omit_question) {
      ++eq;
      continue;
    }
    switch (h.profile.answer) {
      case resolver::AnswerMode::kRecursive: ++correct; break;
      case resolver::AnswerMode::kNone: ++none; break;
      case resolver::AnswerMode::kFixedIp: ++fixed_ip; break;
      case resolver::AnswerMode::kUrl: ++url; break;
      case resolver::AnswerMode::kGarbageString: ++garbage; break;
      case resolver::AnswerMode::kUndecodable: ++undecodable; break;
    }
  }
  const double s = static_cast<double>(scale);
  // keep_nonzero apportionment floors every rare joint cell at 1 host, so
  // large classes can drift by a host per rare cell at coarse scales.
  EXPECT_NEAR(static_cast<double>(correct),
              static_cast<double>(y.answers.correct) / s, 12.0);
  EXPECT_NEAR(static_cast<double>(none),
              static_cast<double>(y.answers.without_answer) / s, 12.0);
  EXPECT_NEAR(static_cast<double>(fixed_ip),
              static_cast<double>(y.incorrect.ip.r2) / s, 4.0);
  EXPECT_NEAR(static_cast<double>(url),
              static_cast<double>(y.incorrect.url.r2) / s, 2.0);
  EXPECT_NEAR(static_cast<double>(garbage),
              static_cast<double>(y.incorrect.str.r2) / s, 2.0);
  EXPECT_NEAR(static_cast<double>(undecodable),
              static_cast<double>(y.incorrect.na.r2) / s, 2.0);
  if (y.empty_question > 0) {
    EXPECT_GE(eq, 1u);
  }
}

TEST_P(PopulationYears, RecursionFanMeanMatchesQ2Ratio) {
  const PaperYear& y = *GetParam();
  const PopulationSpec spec = build_population(y, 512, 7);
  std::uint64_t fans = 0;
  std::uint64_t correct_hosts = 0;
  for (const HostSpec& h : spec.hosts) {
    if (h.profile.answer != resolver::AnswerMode::kRecursive ||
        h.profile.omit_question)
      continue;
    ++correct_hosts;
    fans += static_cast<std::uint64_t>(h.profile.backend_fan);
  }
  ASSERT_GT(correct_hosts, 0u);
  const double mean = static_cast<double>(fans) /
                      static_cast<double>(correct_hosts);
  EXPECT_NEAR(mean, spec.q2_fan_mean, 0.05);
  EXPECT_NEAR(mean,
              static_cast<double>(y.q2_r1) /
                  static_cast<double>(y.answers.correct),
              0.05);
}

TEST_P(PopulationYears, MaliciousHostsCarryCountriesAndThreatEntries) {
  const PaperYear& y = *GetParam();
  const PopulationSpec spec = build_population(y, 512, 7);
  intel::ThreatDb threats;
  for (const auto& e : spec.threat_entries)
    threats.add_report(e.addr, e.category, e.source, e.reports);

  std::uint64_t malicious_hosts = 0;
  for (const HostSpec& h : spec.hosts) {
    if (h.country.empty()) continue;
    ++malicious_hosts;
    EXPECT_EQ(h.profile.answer, resolver::AnswerMode::kFixedIp);
    EXPECT_TRUE(threats.is_reported(h.profile.fixed_answer));
    EXPECT_EQ(h.profile.rcode, dns::Rcode::kNoError);  // Table X finding
  }
  EXPECT_NEAR(static_cast<double>(malicious_hosts),
              static_cast<double>(y.malicious_r2) / 512.0, 3.0);
}

TEST_P(PopulationYears, VersionBannersFollowTheProfileTaxonomy) {
  const PopulationSpec spec = build_population(*GetParam(), 1024, 7);
  std::uint64_t honest = 0, honest_disclosing = 0;
  std::uint64_t manip = 0, manip_disclosing = 0;
  std::uint64_t validators = 0;
  for (const HostSpec& h : spec.hosts) {
    if (h.profile.omit_question) continue;
    if (h.profile.answer == resolver::AnswerMode::kRecursive) {
      ++honest;
      if (!h.profile.version.empty()) ++honest_disclosing;
      if (h.profile.dnssec_ok) ++validators;
    } else if (h.profile.answer == resolver::AnswerMode::kFixedIp) {
      ++manip;
      if (!h.profile.version.empty()) ++manip_disclosing;
    }
  }
  ASSERT_GT(honest, 100u);
  // Honest recursives mostly disclose a banner; manipulators mostly hide.
  EXPECT_GT(honest_disclosing * 100, honest * 75);
  EXPECT_LT(manip_disclosing * 100, manip * 40);
  // Validator share ~12% of honest recursives.
  const double share = static_cast<double>(validators) /
                       static_cast<double>(honest);
  EXPECT_GT(share, 0.06);
  EXPECT_LT(share, 0.20);
}

TEST_P(PopulationYears, DeterministicForSeed) {
  const PaperYear& y = *GetParam();
  const PopulationSpec a = build_population(y, 2048, 9);
  const PopulationSpec b = build_population(y, 2048, 9);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].profile.answer, b.hosts[i].profile.answer);
    EXPECT_EQ(a.hosts[i].profile.fixed_answer, b.hosts[i].profile.fixed_answer);
    EXPECT_EQ(a.hosts[i].country, b.hosts[i].country);
  }
}

INSTANTIATE_TEST_SUITE_P(BothYears, PopulationYears,
                         ::testing::Values(&paper_2013(), &paper_2018()),
                         [](const auto& info) {
                           return std::to_string(info.param->year);
                         });

TEST(Population, ScaleOneKeepsFullCounts) {
  // Full-scale population is huge; just validate the arithmetic paths via
  // the spec's scan parameters rather than materializing hosts.
  const PopulationSpec spec = build_population(paper_2018(), 8192, 1);
  EXPECT_EQ(spec.scale, 8192u);
  EXPECT_NEAR(spec.rate_pps, 100000.0 / 8192.0, 1e-9);
  EXPECT_EQ(spec.cluster_size, 5'000'000u / 8192u);
  EXPECT_GT(spec.raw_steps, 500'000u);
  EXPECT_LT(spec.raw_steps, 530'000u);
}

// ---- Contrast ---------------------------------------------------------------------------

TEST(Contrast, PaperClaimsHoldOnPaperNumbers) {
  // Feed the contrast the paper's own numbers via synthetic analyses.
  analysis::ScanAnalysis a13;
  a13.r2_total = paper_2013().r2;
  a13.answers = paper_2013().answers;
  a13.ra = paper_2013().ra;
  a13.malicious.total_r2 = paper_2013().malicious_r2;
  a13.malicious.total_ips = paper_2013().malicious_ips;

  analysis::ScanAnalysis a18;
  a18.r2_total = paper_2018().r2;
  a18.answers = paper_2018().answers;
  a18.ra = paper_2018().ra;
  a18.malicious.total_r2 = paper_2018().malicious_r2;
  a18.malicious.total_ips = paper_2018().malicious_ips;

  const TemporalContrast c = contrast(a13, a18);
  EXPECT_TRUE(c.open_resolvers_decreased());
  EXPECT_TRUE(c.incorrect_roughly_stable());
  EXPECT_TRUE(c.error_rate_increased());
  EXPECT_TRUE(c.malicious_increased());

  const auto est13 = estimate_open_resolvers(a13);
  EXPECT_EQ(est13.strict, 11'505'481u);     // §IV-B1 "about 11.5 million"
  EXPECT_EQ(est13.ra_flag_only, 12'270'335u);
  EXPECT_EQ(est13.correct_only, 11'671'589u);
  const auto est18 = estimate_open_resolvers(a18);
  EXPECT_EQ(est18.strict, 2'748'568u);      // "about 2.74 million"
  EXPECT_EQ(est18.ra_flag_only, 3'002'183u);

  const std::string text = render_contrast(c, 2013, 2018);
  EXPECT_NE(text.find("malicious"), std::string::npos);
  EXPECT_NE(text.find("decrease=yes"), std::string::npos);
}

}  // namespace
}  // namespace orp::core
