#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/report.h"
#include "analysis/streaming.h"
#include "dns/builder.h"
#include "util/rng.h"

namespace orp::analysis {
namespace {

const zone::SubdomainScheme& scheme() {
  static const zone::SubdomainScheme s(
      dns::DnsName::must_parse("ucfsealresearch.net"), 1000, 7);
  return s;
}

// R2Record::payload borrows its bytes, so the test helper bundles the wire
// buffer with the record; converting to R2Record keeps the span valid for as
// long as the OwnedR2 lives (the full expression, for temporaries).
struct OwnedR2 {
  std::vector<std::uint8_t> wire;
  R2Record rec;
  operator const R2Record&() const { return rec; }  // NOLINT
};

OwnedR2 record_from(const dns::Message& msg,
                    net::IPv4Addr resolver = net::IPv4Addr(9, 9, 9, 9),
                    bool raw_counts = false) {
  OwnedR2 o;
  o.rec.resolver = resolver;
  o.wire = raw_counts ? dns::encode_raw_counts(msg) : dns::encode(msg);
  o.rec.payload = o.wire;
  return o;
}

dns::Message base_response(zone::SubdomainId id) {
  dns::Message q = dns::make_query(1, scheme().qname(id));
  dns::Message r = dns::make_response(q);
  r.header.flags.ra = true;
  return r;
}

// ---- classify_r2 -----------------------------------------------------------------

TEST(ClassifyR2, CorrectAnswer) {
  const zone::SubdomainId id{0, 5};
  dns::Message r = base_response(id);
  r.answers.push_back(dns::ResourceRecord{r.questions[0].qname, dns::RRType::kA,
                                          dns::RRClass::kIN, 300,
                                          dns::ARdata{scheme().ground_truth(id)}});
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_TRUE(v.has_question);
  EXPECT_EQ(v.form, AnswerForm::kIp);
  EXPECT_TRUE(v.correct);
  EXPECT_TRUE(v.ra);
  ASSERT_TRUE(v.subdomain.has_value());
  EXPECT_EQ(*v.subdomain, id);
}

TEST(ClassifyR2, IncorrectIpAnswer) {
  dns::Message r = base_response({0, 5});
  r.answers.push_back(dns::ResourceRecord{
      r.questions[0].qname, dns::RRType::kA, dns::RRClass::kIN, 300,
      dns::ARdata{net::IPv4Addr(216, 194, 64, 193)}});
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_EQ(v.form, AnswerForm::kIp);
  EXPECT_FALSE(v.correct);
  EXPECT_EQ(v.answer_ip->to_string(), "216.194.64.193");
}

TEST(ClassifyR2, NoAnswer) {
  dns::Message r = base_response({0, 5});
  r.header.flags.rcode = dns::Rcode::kRefused;
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_EQ(v.form, AnswerForm::kNone);
  EXPECT_FALSE(v.has_answer());
  EXPECT_EQ(v.rcode, dns::Rcode::kRefused);
}

TEST(ClassifyR2, UrlAnswer) {
  dns::Message r = base_response({0, 5});
  r.answers.push_back(dns::ResourceRecord{
      r.questions[0].qname, dns::RRType::kCNAME, dns::RRClass::kIN, 300,
      dns::NameRdata{dns::DnsName::must_parse("u.dcoin.co")}});
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_EQ(v.form, AnswerForm::kUrl);
  EXPECT_EQ(v.answer_text, "u.dcoin.co");
}

TEST(ClassifyR2, StringAnswer) {
  dns::Message r = base_response({0, 5});
  r.answers.push_back(dns::ResourceRecord{r.questions[0].qname,
                                          dns::RRType::kTXT, dns::RRClass::kIN,
                                          300, dns::TxtRdata{{"wild"}}});
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_EQ(v.form, AnswerForm::kString);
  EXPECT_EQ(v.answer_text, "wild");
}

TEST(ClassifyR2, RawBytesAnswerIsStringForm) {
  dns::Message r = base_response({0, 5});
  r.answers.push_back(dns::ResourceRecord{
      r.questions[0].qname, static_cast<dns::RRType>(250), dns::RRClass::kIN,
      300, dns::RawRdata{250, {0x04, 0xb4}}});
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_EQ(v.form, AnswerForm::kString);
  EXPECT_EQ(v.answer_text, "04b4");
}

TEST(ClassifyR2, UndecodableAnswerSection) {
  dns::Message r = base_response({0, 5});
  r.header.qdcount = 1;
  r.header.ancount = 1;  // claims an answer that is not there
  const R2View v = classify_r2(record_from(r, net::IPv4Addr(9, 9, 9, 9), true),
                               scheme());
  EXPECT_TRUE(v.has_question);
  EXPECT_EQ(v.form, AnswerForm::kUndecodable);
  EXPECT_TRUE(v.has_answer());
}

TEST(ClassifyR2, EmptyQuestion) {
  dns::Message r;
  r.header.flags.qr = true;
  r.header.flags.ra = true;
  r.header.flags.rcode = dns::Rcode::kServFail;
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_FALSE(v.has_question);
  EXPECT_TRUE(v.header_decoded);
  EXPECT_TRUE(v.ra);
}

TEST(ClassifyR2, ForeignQnameHasNoGroundTruth) {
  dns::Message q = dns::make_query(1, dns::DnsName::must_parse("x.other.org"));
  dns::Message r = dns::make_a_response(q, net::IPv4Addr(1, 2, 3, 4));
  const R2View v = classify_r2(record_from(r), scheme());
  EXPECT_TRUE(v.has_question);
  EXPECT_FALSE(v.subdomain.has_value());
  EXPECT_FALSE(v.correct);  // unverifiable counts as not-correct
}

// ---- Aggregation helpers -----------------------------------------------------------

std::vector<R2View> synthetic_views() {
  // 4 correct (ra=1), 2 incorrect-ip (ra=0, aa=1), 1 url, 1 string,
  // 3 no-answer refused, 1 empty-question.
  std::vector<R2View> views;
  for (int i = 0; i < 4; ++i) {
    R2View v;
    v.has_question = true;
    v.ra = true;
    v.form = AnswerForm::kIp;
    v.correct = true;
    v.answer_ip = net::IPv4Addr(50, 1, 1, static_cast<std::uint8_t>(i));
    views.push_back(v);
  }
  for (int i = 0; i < 2; ++i) {
    R2View v;
    v.has_question = true;
    v.aa = true;
    v.form = AnswerForm::kIp;
    v.answer_ip = net::IPv4Addr(208, 91, 197, 91);
    v.resolver = net::IPv4Addr(99, 0, 0, static_cast<std::uint8_t>(i));
    views.push_back(v);
  }
  {
    R2View v;
    v.has_question = true;
    v.form = AnswerForm::kUrl;
    v.answer_text = "u.dcoin.co";
    views.push_back(v);
    v.form = AnswerForm::kString;
    v.answer_text = "wild";
    views.push_back(v);
  }
  for (int i = 0; i < 3; ++i) {
    R2View v;
    v.has_question = true;
    v.rcode = dns::Rcode::kRefused;
    views.push_back(v);
  }
  {
    R2View v;
    v.has_question = false;
    v.ra = true;
    v.rcode = dns::Rcode::kServFail;
    views.push_back(v);
  }
  return views;
}

/// Empty intel databases for the tables that need no attribution.
struct NoIntel {
  intel::ThreatDb threats;
  intel::GeoDb geo;
  intel::OrgDb orgs;
  NoIntel() {
    geo.build();
    orgs.build();
  }
};
const NoIntel& no_intel() {
  static const NoIntel n;
  return n;
}

/// Every per-table test below reaches its table through the one
/// accumulator: analyze_scan folds the views through PartialTables.
ScanAnalysis analyze(std::span<const R2View> views) {
  const NoIntel& n = no_intel();
  return analyze_scan(views, n.threats, n.geo, n.orgs);
}

TEST(AnswerAnalysis, TableThreeShape) {
  const auto views = synthetic_views();
  const AnswerBreakdown b = analyze(views).answers;
  EXPECT_EQ(b.r2, 11u);  // empty-question excluded
  EXPECT_EQ(b.without_answer, 3u);
  EXPECT_EQ(b.correct, 4u);
  EXPECT_EQ(b.incorrect, 4u);  // 2 wrong IP + url + string
  EXPECT_DOUBLE_EQ(b.err_percent(), 50.0);
}

TEST(HeaderAnalysis, RaTable) {
  const auto views = synthetic_views();
  const FlagTable t = analyze(views).ra;
  EXPECT_EQ(t.bit1.correct, 4u);
  EXPECT_EQ(t.bit0.incorrect, 4u);
  EXPECT_EQ(t.bit0.without_answer, 3u);
  EXPECT_EQ(t.bit0.total() + t.bit1.total(), 11u);
}

TEST(HeaderAnalysis, AaTable) {
  const auto views = synthetic_views();
  const FlagTable t = analyze(views).aa;
  EXPECT_EQ(t.bit1.incorrect, 2u);
  EXPECT_EQ(t.bit1.without_answer, 0u);
  EXPECT_DOUBLE_EQ(t.bit1.err_percent(), 100.0);
}

TEST(HeaderAnalysis, RcodeTable) {
  const auto views = synthetic_views();
  const RcodeTable t = analyze(views).rcodes;
  EXPECT_EQ(t.row(dns::Rcode::kNoError).with_answer, 8u);
  EXPECT_EQ(t.row(dns::Rcode::kRefused).without_answer, 3u);
  EXPECT_EQ(t.error_rcode_with_answer(), 0u);
}

TEST(IncorrectAnswers, FormsAndUniques) {
  const auto views = synthetic_views();
  const IncorrectSummary s = analyze(views).incorrect;
  EXPECT_EQ(s.ip.r2, 2u);
  EXPECT_EQ(s.ip.unique, 1u);  // both point at 208.91.197.91
  EXPECT_EQ(s.url.r2, 1u);
  EXPECT_EQ(s.str.r2, 1u);
  EXPECT_EQ(s.total_r2(), 4u);
}

TEST(IncorrectAnswers, TopKRankingAndAttribution) {
  intel::OrgDb orgs;
  const auto confluence = *net::IPv4Addr::parse("208.91.197.91");
  orgs.add_range(confluence, confluence, "Confluence Network Inc");
  orgs.build();
  intel::ThreatDb threats;
  threats.add_report(confluence, intel::ThreatCategory::kMalware);

  auto views = synthetic_views();
  // Add one more incorrect answer to a private address.
  R2View priv;
  priv.has_question = true;
  priv.form = AnswerForm::kIp;
  priv.answer_ip = net::IPv4Addr(192, 168, 1, 1);
  views.push_back(priv);

  const auto top = analyze_scan(views, threats, no_intel().geo, orgs).top10;
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].addr, confluence);
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_EQ(top[0].org, "Confluence Network Inc");
  EXPECT_EQ(top[0].reported, 'Y');
  EXPECT_EQ(top[1].org, "private network");
  EXPECT_EQ(top[1].reported, '-');
}

TEST(Malicious, CategoriesAndFlagsAndRcode) {
  intel::ThreatDb threats;
  threats.add_report(*net::IPv4Addr::parse("208.91.197.91"),
                     intel::ThreatCategory::kMalware);
  const auto views = synthetic_views();
  const ScanAnalysis a =
      analyze_scan(views, threats, no_intel().geo, no_intel().orgs);
  const MaliciousSummary& s = a.malicious;
  EXPECT_EQ(s.total_r2, 2u);
  EXPECT_EQ(s.total_ips, 1u);
  EXPECT_EQ(s.categories[0].r2, 2u);  // malware is category 0
  EXPECT_EQ(s.ra0, 2u);
  EXPECT_EQ(s.aa1, 2u);
  EXPECT_EQ(s.rcode_noerror, 2u);
  EXPECT_EQ(a.geo.total, 2u);  // every malicious R2 reaches the geo table
}

TEST(Malicious, CorrectAnswersNeverMalicious) {
  intel::ThreatDb threats;
  // Report the *correct* answers' address: must still not count, since the
  // analysis only validates incorrect answers.
  threats.add_report(net::IPv4Addr(50, 1, 1, 0),
                     intel::ThreatCategory::kMalware);
  const auto views = synthetic_views();
  const MaliciousSummary s =
      analyze_scan(views, threats, no_intel().geo, no_intel().orgs).malicious;
  EXPECT_EQ(s.total_r2, 0u);
}

TEST(Geo, CountsByResolverCountry) {
  intel::GeoDb geo;
  geo.add_range(net::IPv4Addr(99, 0, 0, 0), net::IPv4Addr(99, 0, 0, 0), "US");
  geo.add_range(net::IPv4Addr(99, 0, 0, 1), net::IPv4Addr(99, 0, 0, 1), "IN");
  geo.build();
  intel::ThreatDb threats;
  threats.add_report(*net::IPv4Addr::parse("208.91.197.91"),
                     intel::ThreatCategory::kMalware);
  const auto views = synthetic_views();
  const GeoSummary g = analyze_scan(views, threats, geo, no_intel().orgs).geo;
  EXPECT_EQ(g.total, 2u);
  EXPECT_EQ(g.country_count(), 2u);
  EXPECT_EQ(g.countries[0].r2, 1u);
}

TEST(EmptyQuestion, SubAnalysis) {
  intel::OrgDb orgs;
  orgs.build();
  std::vector<R2View> views;
  {
    R2View v;  // no question, private answer, RA=1
    v.has_question = false;
    v.ra = true;
    v.form = AnswerForm::kIp;
    v.answer_ip = net::IPv4Addr(192, 168, 0, 1);
    views.push_back(v);
  }
  {
    R2View v;  // no question, no answer, servfail
    v.has_question = false;
    v.rcode = dns::Rcode::kServFail;
    views.push_back(v);
  }
  {
    R2View v;  // question present: excluded from this analysis
    v.has_question = true;
    views.push_back(v);
  }
  const EmptyQuestionSummary s =
      analyze_scan(views, no_intel().threats, no_intel().geo, orgs)
          .empty_question;
  EXPECT_EQ(s.total, 2u);
  EXPECT_EQ(s.with_answer, 1u);
  EXPECT_EQ(s.private_answers, 1u);
  EXPECT_EQ(s.correct, 0u);
  EXPECT_EQ(s.ra1, 1u);
  EXPECT_EQ(s.rcode[static_cast<std::size_t>(dns::Rcode::kServFail)], 1u);
}

TEST(PrivateRedirects, CountsAndClassifiesPrivateSpace) {
  auto views = synthetic_views();
  R2View cpe;
  cpe.has_question = true;
  cpe.form = AnswerForm::kIp;
  cpe.answer_ip = net::IPv4Addr(192, 168, 1, 1);
  views.push_back(cpe);
  cpe.answer_ip = net::IPv4Addr(192, 168, 1, 1);  // duplicate target
  views.push_back(cpe);
  cpe.answer_ip = net::IPv4Addr(100, 64, 7, 7);   // carrier-grade NAT
  views.push_back(cpe);

  const PrivateRedirectSummary s = analyze(views).private_redirects;
  EXPECT_EQ(s.r2, 3u);
  EXPECT_EQ(s.unique_ips, 2u);
  EXPECT_EQ(s.rfc1918, 2u);
  EXPECT_EQ(s.cgn, 1u);
  EXPECT_NEAR(s.share_of_incorrect(7), 42.86, 0.1);
}

TEST(PrivateRedirects, PublicWrongAnswersExcluded) {
  const auto views = synthetic_views();  // wrong answers all public
  const PrivateRedirectSummary s = analyze(views).private_redirects;
  EXPECT_EQ(s.r2, 0u);
  EXPECT_EQ(s.share_of_incorrect(0), 0.0);
}

// ---- Streaming partial tables --------------------------------------------------------

/// Every paper table rendered into one comparable string (field-complete,
/// unlike the summary CSV: exemplars, top-K attribution and uniques included).
std::string rendered(const ScanAnalysis& a) {
  std::string s;
  s += render_answer_table({{"t", a.answers}});
  s += render_flag_table({{"t", a.ra}}, "RA");
  s += render_flag_table({{"t", a.aa}}, "AA");
  s += render_rcode_table({{"t", a.rcodes}});
  s += render_incorrect_table({{"t", a.incorrect}});
  s += render_top10_table(a.top10);
  s += render_malicious_table({{"t", a.malicious}});
  s += render_malicious_flags_table({{"t", a.malicious}});
  s += render_geo_summary(a.geo);
  s += render_empty_question_summary(a.empty_question);
  return s;
}

/// Synthetic views in canonical order (the stable resolver-address sort the
/// exemplar rule is defined over — see streaming.h).
std::vector<R2View> canonical_views() {
  auto views = synthetic_views();
  std::stable_sort(views.begin(), views.end(),
                   [](const R2View& a, const R2View& b) {
                     return a.resolver.value() < b.resolver.value();
                   });
  return views;
}

struct StreamingIntel {
  intel::ThreatDb threats;
  intel::GeoDb geo;
  intel::OrgDb orgs;
  StreamingIntel() {
    threats.add_report(*net::IPv4Addr::parse("208.91.197.91"),
                       intel::ThreatCategory::kMalware);
    geo.add_range(net::IPv4Addr(99, 0, 0, 0), net::IPv4Addr(99, 0, 0, 0),
                  "US");
    geo.add_range(net::IPv4Addr(99, 0, 0, 1), net::IPv4Addr(99, 0, 0, 1),
                  "IN");
    geo.build();
    orgs.add_range(*net::IPv4Addr::parse("208.91.197.91"),
                   *net::IPv4Addr::parse("208.91.197.91"),
                   "Confluence Network Inc");
    orgs.build();
  }
};

TEST(StreamingTables, ObserveThenFinalizeMatchesFrozenPosthocGolden) {
  // The rendered tables and behavior digest of this corpus, recorded from
  // the whole-corpus pass (one function per table plus a separate digest
  // fold) before the accumulator became the only implementation.
  constexpr std::uint64_t kRenderedGolden = 0xbb0de9a5196e4d23ULL;
  constexpr std::uint64_t kDigestGolden = 0xd2f05e76426ce217ULL;
  const StreamingIntel intel;
  const auto views = canonical_views();

  PartialTables t;
  for (const R2View& v : views)
    t.observe(v, intel.threats, intel.geo, intel.orgs);
  const ScanAnalysis streamed = t.finalize(intel.orgs, intel.threats);

  EXPECT_EQ(util::fnv1a64(rendered(streamed)), kRenderedGolden);
  EXPECT_EQ(t.digest, kDigestGolden);
  EXPECT_EQ(t.r2_total, views.size());
  EXPECT_EQ(rendered(analyze_scan(views, intel.threats, intel.geo,
                                  intel.orgs)),
            rendered(streamed));
}

TEST(StreamingTables, ShardSplitAndMergeIsLayoutInvariant) {
  const StreamingIntel intel;
  const auto views = canonical_views();

  // One accumulator is the reference; every contiguous split of the same
  // stream, merged in shard order, must reproduce it exactly.
  PartialTables ref;
  for (const R2View& v : views)
    ref.observe(v, intel.threats, intel.geo, intel.orgs);
  const std::string ref_rendered =
      rendered(ref.finalize(intel.orgs, intel.threats));

  for (const std::size_t shards : {2u, 3u, 5u}) {
    std::vector<PartialTables> parts(shards);
    for (std::size_t i = 0; i < views.size(); ++i)
      parts[i * shards / views.size()].observe(views[i], intel.threats,
                                               intel.geo, intel.orgs);
    PartialTables merged = std::move(parts[0]);
    for (std::size_t s = 1; s < shards; ++s) merged += parts[s];

    EXPECT_EQ(rendered(merged.finalize(intel.orgs, intel.threats)),
              ref_rendered)
        << shards << " shards";
    EXPECT_EQ(merged.digest, ref.digest) << shards << " shards";
    EXPECT_EQ(merged.r2_total, ref.r2_total) << shards << " shards";
  }
}

TEST(StreamingTables, ExemplarKeepsCanonicalFirstAcrossMergeOrder) {
  // Two shards observe the same wrong IP at different resolvers; whichever
  // side of the merge holds the smaller resolver address must win, because
  // canonical view order sorts by resolver.
  PartialTables low, high;
  R2View v;
  v.has_question = true;
  v.form = AnswerForm::kIp;
  v.answer_ip = net::IPv4Addr(1, 2, 3, 4);
  const intel::ThreatDb threats;
  intel::GeoDb geo;
  geo.build();
  intel::OrgDb orgs;
  orgs.build();

  v.resolver = net::IPv4Addr(10, 0, 0, 1);
  v.answer_ip = net::IPv4Addr(5, 5, 5, 5);
  low.observe(v, threats, geo, orgs);
  v.resolver = net::IPv4Addr(200, 0, 0, 1);
  v.answer_ip = net::IPv4Addr(6, 6, 6, 6);
  high.observe(v, threats, geo, orgs);

  PartialTables a = low;
  a += high;
  PartialTables b = high;
  b += low;
  EXPECT_EQ(a.ip_example.ip, net::IPv4Addr(5, 5, 5, 5).value());
  EXPECT_EQ(b.ip_example.ip, a.ip_example.ip)
      << "merge order must not change the canonical exemplar";
}

TEST(StreamingTables, EmptyTextNeverFillsAnExampleSlot) {
  // SOA/MX/AAAA answers classify as kString with empty text; the example
  // is the first *non-empty* text in canonical order, so an earlier empty
  // one must not claim the slot.
  const intel::ThreatDb threats;
  intel::GeoDb geo;
  geo.build();
  intel::OrgDb orgs;
  orgs.build();

  std::vector<R2View> views(2);
  views[0].has_question = true;
  views[0].resolver = net::IPv4Addr(1, 1, 1, 1);
  views[0].form = AnswerForm::kString;  // empty answer_text
  views[1].has_question = true;
  views[1].resolver = net::IPv4Addr(2, 2, 2, 2);
  views[1].form = AnswerForm::kString;
  views[1].answer_text = "wild";

  PartialTables t;
  for (const R2View& v : views) t.observe(v, threats, geo, orgs);
  const ScanAnalysis streamed = t.finalize(orgs, threats);
  EXPECT_EQ(streamed.incorrect.str.example, "wild");
  EXPECT_EQ(streamed.incorrect.str.r2, 2u);
  // The empty text is still a distinct value of its own.
  EXPECT_EQ(streamed.incorrect.str.unique, 2u);
}

// ---- FlowGrouper --------------------------------------------------------------------

TEST(FlowGrouper, DetectsFabricationWithoutRecursion) {
  FlowGrouper grouper(scheme());
  const auto q1 = scheme().qname({0, 1});
  const auto q2 = scheme().qname({0, 2});
  grouper.add_probe(q1, net::IPv4Addr(1, 1, 1, 1));
  grouper.add_probe(q2, net::IPv4Addr(2, 2, 2, 2));

  // Flow 1: honest — auth saw the recursion.
  net::CapturedPacket pkt;
  pkt.payload = dns::encode(dns::make_query(5, q1));
  grouper.add_auth_packet(pkt, /*inbound=*/true);
  pkt.payload = dns::encode(dns::make_a_response(
      dns::make_query(5, q1), scheme().ground_truth({0, 1})));
  grouper.add_auth_packet(pkt, /*inbound=*/false);
  R2View honest;
  honest.has_question = true;
  honest.form = AnswerForm::kIp;
  honest.correct = true;
  grouper.add_r2(honest, q1);

  // Flow 2: manipulated — an answer appears with zero auth contact.
  R2View fake;
  fake.has_question = true;
  fake.form = AnswerForm::kIp;
  fake.answer_ip = net::IPv4Addr(208, 91, 197, 91);
  grouper.add_r2(fake, q2);

  const auto suspicious = grouper.answered_without_recursion();
  ASSERT_EQ(suspicious.size(), 1u);
  EXPECT_EQ(suspicious[0]->qname_key, q2.canonical_key());
  EXPECT_EQ(grouper.flows().at(q1.canonical_key()).q2_count, 1u);
  EXPECT_EQ(grouper.flows().at(q1.canonical_key()).r1_count, 1u);
}

// ---- Renderers (smoke: content present, no crashes) ----------------------------------

TEST(Report, RendersAllTables) {
  intel::ThreatDb threats;
  threats.add_report(*net::IPv4Addr::parse("208.91.197.91"),
                     intel::ThreatCategory::kMalware);
  intel::GeoDb geo;
  geo.build();
  intel::OrgDb orgs;
  orgs.build();
  const auto views = synthetic_views();
  const ScanAnalysis a = analyze_scan(views, threats, geo, orgs);

  EXPECT_NE(render_answer_table({{"2018", a.answers}}).find("Err(%)"),
            std::string::npos);
  EXPECT_NE(render_flag_table({{"2018", a.ra}}, "RA").find("RA0"),
            std::string::npos);
  EXPECT_NE(render_rcode_table({{"2018", a.rcodes}}).find("Refused"),
            std::string::npos);
  EXPECT_NE(render_incorrect_table({{"2018", a.incorrect}}).find("u.dcoin.co"),
            std::string::npos);
  EXPECT_NE(render_top10_table(a.top10).find("208.91.197.91"),
            std::string::npos);
  EXPECT_NE(render_malicious_table({{"2018", a.malicious}}).find("Malware"),
            std::string::npos);
  EXPECT_NE(render_malicious_flags_table({{"2018", a.malicious}}).find("RA0"),
            std::string::npos);
  EXPECT_NE(render_geo_summary(a.geo).find("countries"), std::string::npos);
  EXPECT_NE(render_empty_question_summary(a.empty_question).find("ServFail"),
            std::string::npos);
  EXPECT_EQ(a.r2_total, views.size());
}

}  // namespace
}  // namespace orp::analysis
