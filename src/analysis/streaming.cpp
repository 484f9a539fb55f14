#include "analysis/streaming.h"

#include <algorithm>
#include <vector>

#include "net/ipv4.h"
#include "util/hash.h"
#include "util/rng.h"

namespace orp::analysis {
namespace {

/// The per-view tally shared by Tables III-V.
void tally_flag(FlagBreakdown& row, const R2View& v) noexcept {
  if (!v.has_answer()) {
    ++row.without_answer;
  } else if (v.form == AnswerForm::kIp && v.correct) {
    ++row.correct;
  } else {
    ++row.incorrect;
  }
}

/// One view's term of PartialTables::digest.
std::uint64_t view_digest(const R2View& v) noexcept {
  util::Fnv1a h;
  h.word(v.resolver.value())
      .word(v.header_decoded)
      .word(v.has_question)
      .word(v.ra)
      .word(v.aa)
      .word(static_cast<std::uint64_t>(v.rcode))
      .word(static_cast<std::uint64_t>(v.form))
      .word(v.correct);
  // A *correct* answer IP is the ground truth of whichever probe name the
  // scanner happened to allocate — an ordering artifact, excluded. An
  // incorrect one is the resolver's own rewrite target — behavior, folded.
  if (v.answer_ip && !v.correct) h.word(v.answer_ip->value());
  h.word(util::fnv1a64(v.answer_text));
  return util::mix64(h.value());
}

}  // namespace

void PartialTables::observe(const R2View& v, const intel::ThreatDb& threats,
                            const intel::GeoDb& geo,
                            const intel::OrgDb& orgs) {
  ++r2_total;
  digest += view_digest(v);

  if (!v.has_question) {
    // §IV-B4 population (header must have decoded to count at all).
    if (!v.header_decoded) return;
    EmptyQuestionSummary& eq = empty_question;
    ++eq.total;
    ++eq.rcode[static_cast<std::size_t>(v.rcode)];
    if (v.ra)
      ++eq.ra1;
    else
      ++eq.ra0;
    if (v.aa) ++eq.aa1;
    if (v.has_answer()) {
      ++eq.with_answer;
      if (v.correct) ++eq.correct;
      if (v.form == AnswerForm::kIp && v.answer_ip) {
        if (net::is_private_address(*v.answer_ip))
          ++eq.private_answers;
        else if (orgs.org_of(*v.answer_ip) == "unknown")
          ++eq.unknown_org;
      } else {
        ++eq.malformed_answers;
      }
      if (!v.ra) ++eq.ra0_with_answer;
    } else if (v.ra) {
      ++eq.ra1_without_answer;
    }
    return;
  }

  // The questioned population: Tables III-VI.
  ++answers.r2;
  if (!v.has_answer()) {
    ++answers.without_answer;
  } else if (v.form == AnswerForm::kIp && v.correct) {
    ++answers.correct;
  } else {
    ++answers.incorrect;
  }
  tally_flag(v.ra ? ra.bit1 : ra.bit0, v);
  tally_flag(v.aa ? aa.bit1 : aa.bit0, v);
  RcodeRow& rc = rcodes.rows[static_cast<std::size_t>(v.rcode)];
  if (v.has_answer())
    ++rc.with_answer;
  else
    ++rc.without_answer;

  if (!v.has_answer()) return;

  // Tables VII-X + §V, incorrect answers only.
  switch (v.form) {
    case AnswerForm::kIp: {
      if (v.correct) break;
      ++ip_r2;
      if (v.answer_ip) {
        const std::uint32_t addr = v.answer_ip->value();
        ++wrong_ip_counts[addr];
        if (ip_example.offer(v.resolver.value(), addr)) ++exemplar_updates;

        static const net::Prefix kCgn(net::IPv4Addr(100, 64, 0, 0), 10);
        if (net::is_private_address(*v.answer_ip)) {
          ++priv_r2;
          priv_unique.insert(addr);
          if (kCgn.contains(*v.answer_ip))
            ++priv_cgn;
          else
            ++priv_rfc1918;
        }

        if (const auto category = threats.dominant_category(*v.answer_ip)) {
          const auto idx = static_cast<std::size_t>(*category);
          ++category_r2[idx];
          category_ips[idx].insert(addr);
          malicious_ips.insert(addr);
          ++mal_r2;
          if (v.ra)
            ++mal_ra1;
          else
            ++mal_ra0;
          if (v.aa)
            ++mal_aa1;
          else
            ++mal_aa0;
          if (v.rcode == dns::Rcode::kNoError) ++mal_rcode_noerror;
          ++malicious_by_country[geo.country_of(v.resolver)];
        }
      }
      break;
    }
    case AnswerForm::kUrl:
      ++url_r2;
      unique_urls.insert(v.answer_text);
      if (url_example.offer(v.resolver.value(), v.answer_text))
        ++exemplar_updates;
      break;
    case AnswerForm::kString:
      ++str_r2;
      unique_strings.insert(v.answer_text);
      if (str_example.offer(v.resolver.value(), v.answer_text))
        ++exemplar_updates;
      break;
    case AnswerForm::kUndecodable:
      ++na_r2;
      break;
    case AnswerForm::kNone:
      break;
  }
}

PartialTables& PartialTables::operator+=(const PartialTables& o) {
  r2_total += o.r2_total;
  answers += o.answers;
  ra += o.ra;
  aa += o.aa;
  rcodes += o.rcodes;

  ip_r2 += o.ip_r2;
  url_r2 += o.url_r2;
  str_r2 += o.str_r2;
  na_r2 += o.na_r2;
  unique_urls.insert(o.unique_urls.begin(), o.unique_urls.end());
  unique_strings.insert(o.unique_strings.begin(), o.unique_strings.end());
  ip_example.merge(o.ip_example);
  url_example.merge(o.url_example);
  str_example.merge(o.str_example);

  for (const auto& [addr, count] : o.wrong_ip_counts)
    wrong_ip_counts[addr] += count;

  for (std::size_t i = 0; i < category_r2.size(); ++i) {
    category_r2[i] += o.category_r2[i];
    category_ips[i].insert(o.category_ips[i].begin(), o.category_ips[i].end());
  }
  malicious_ips.insert(o.malicious_ips.begin(), o.malicious_ips.end());
  mal_r2 += o.mal_r2;
  mal_ra0 += o.mal_ra0;
  mal_ra1 += o.mal_ra1;
  mal_aa0 += o.mal_aa0;
  mal_aa1 += o.mal_aa1;
  mal_rcode_noerror += o.mal_rcode_noerror;
  for (const auto& [country, count] : o.malicious_by_country)
    malicious_by_country[country] += count;

  empty_question += o.empty_question;

  priv_r2 += o.priv_r2;
  priv_rfc1918 += o.priv_rfc1918;
  priv_cgn += o.priv_cgn;
  priv_unique.insert(o.priv_unique.begin(), o.priv_unique.end());

  digest += o.digest;
  exemplar_updates += o.exemplar_updates;
  return *this;
}

ScanAnalysis PartialTables::finalize(const intel::OrgDb& orgs,
                                     const intel::ThreatDb& threats) const {
  ScanAnalysis out;
  out.r2_total = r2_total;
  out.answers = answers;
  out.ra = ra;
  out.aa = aa;
  out.rcodes = rcodes;

  out.incorrect.ip.r2 = ip_r2;
  out.incorrect.ip.unique = wrong_ip_counts.size();
  if (ip_example.set)
    out.incorrect.ip.example = net::IPv4Addr(ip_example.ip).to_string();
  out.incorrect.url.r2 = url_r2;
  out.incorrect.url.unique = unique_urls.size();
  out.incorrect.url.example = url_example.text;
  out.incorrect.str.r2 = str_r2;
  out.incorrect.str.unique = unique_strings.size();
  out.incorrect.str.example = str_example.text;
  out.incorrect.na.r2 = na_r2;
  if (na_r2 > 0) out.incorrect.na.example = "<0x00>";

  // Table VIII: the top 10 in (count desc, addr asc) order, ties broken by
  // address — the comparator is strict over the map's unique keys, so the
  // result is independent of the unordered map's iteration order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
      wrong_ip_counts.begin(), wrong_ip_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  constexpr std::size_t kTopK = 10;
  if (ranked.size() > kTopK) ranked.resize(kTopK);
  out.top10.reserve(ranked.size());
  for (const auto& [value, count] : ranked) {
    TopIncorrectEntry entry;
    entry.addr = net::IPv4Addr(value);
    entry.count = count;
    entry.org = orgs.org_of(entry.addr);
    if (net::is_private_address(entry.addr))
      entry.reported = '-';
    else
      entry.reported = threats.is_reported(entry.addr) ? 'Y' : 'N';
    out.top10.push_back(std::move(entry));
  }

  for (std::size_t i = 0; i < category_r2.size(); ++i) {
    out.malicious.categories[i].r2 = category_r2[i];
    out.malicious.categories[i].unique_ips = category_ips[i].size();
  }
  out.malicious.total_ips = malicious_ips.size();
  out.malicious.total_r2 = mal_r2;
  out.malicious.ra0 = mal_ra0;
  out.malicious.ra1 = mal_ra1;
  out.malicious.aa0 = mal_aa0;
  out.malicious.aa1 = mal_aa1;
  out.malicious.rcode_noerror = mal_rcode_noerror;

  out.geo.total = mal_r2;
  out.geo.countries.reserve(malicious_by_country.size());
  for (const auto& [country, count] : malicious_by_country)
    out.geo.countries.push_back(CountryCount{country, count});
  std::sort(out.geo.countries.begin(), out.geo.countries.end(),
            [](const CountryCount& a, const CountryCount& b) {
              if (a.r2 != b.r2) return a.r2 > b.r2;
              return a.country < b.country;
            });

  out.empty_question = empty_question;

  out.private_redirects.r2 = priv_r2;
  out.private_redirects.unique_ips = priv_unique.size();
  out.private_redirects.rfc1918 = priv_rfc1918;
  out.private_redirects.cgn = priv_cgn;
  return out;
}

std::size_t PartialTables::footprint_bytes() const noexcept {
  std::size_t text = 0;
  for (const std::string& s : unique_urls) text += s.capacity();
  for (const std::string& s : unique_strings) text += s.capacity();
  for (const auto& [country, count] : malicious_by_country)
    text += country.capacity() + sizeof(count);
  std::size_t ips = wrong_ip_counts.size() + malicious_ips.size() +
                    priv_unique.size();
  for (const auto& s : category_ips) ips += s.size();
  // Node-based containers: count ~2 pointers + hash per entry on top of the
  // key/value bytes; close enough for a capacity-planning gauge.
  return sizeof(PartialTables) + text +
         ips * (sizeof(std::uint64_t) * 2 + sizeof(void*) * 2) +
         (unique_urls.size() + unique_strings.size()) *
             (sizeof(std::string) + sizeof(void*) * 2);
}

void StreamingAnalyzer::on_r2(net::SimTime time, net::IPv4Addr resolver,
                              std::span<const std::uint8_t> payload) {
  classify_r2_into(payload, resolver, time, scheme_, scratch_);
  tables_.observe(scratch_, threats_, geo_, orgs_);
}

}  // namespace orp::analysis
