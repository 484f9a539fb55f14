// Full-scan analysis bundle and paper-style table rendering.
//
// Each render function prints rows in the layout of the corresponding paper
// table; benches pass both the paper's published row and the measured row so
// shapes can be compared line by line.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/answer_analysis.h"
#include "analysis/empty_question.h"
#include "analysis/geo_analysis.h"
#include "analysis/header_analysis.h"
#include "analysis/incorrect_answers.h"
#include "analysis/malicious.h"
#include "intel/geo_db.h"
#include "intel/org_db.h"
#include "intel/threat_db.h"

namespace orp::analysis {

/// Everything §IV derives from one year's R2 corpus.
struct ScanAnalysis {
  std::uint64_t r2_total = 0;           // including empty-question packets
  AnswerBreakdown answers;              // Table III
  FlagTable ra;                         // Table IV
  FlagTable aa;                         // Table V
  RcodeTable rcodes;                    // Table VI
  IncorrectSummary incorrect;           // Table VII
  std::vector<TopIncorrectEntry> top10; // Table VIII
  MaliciousSummary malicious;           // Tables IX-X
  GeoSummary geo;                       // §IV-C2
  EmptyQuestionSummary empty_question;  // §IV-B4
  PrivateRedirectSummary private_redirects;  // §V discussion
};

/// Fold a span of classified views through PartialTables (streaming.h) and
/// finalize. Example strings follow the accumulator's canonical-first rule
/// (lowest resolver address, first arrival on ties), whatever the span's
/// order.
ScanAnalysis analyze_scan(std::span<const R2View> views,
                          const intel::ThreatDb& threats,
                          const intel::GeoDb& geo, const intel::OrgDb& orgs);

// ---- Table renderers -------------------------------------------------------

using AnswerRows = std::vector<std::pair<std::string, AnswerBreakdown>>;
std::string render_answer_table(const AnswerRows& rows);

using FlagRows = std::vector<std::pair<std::string, FlagTable>>;
std::string render_flag_table(const FlagRows& rows, std::string_view flag);

using RcodeRows = std::vector<std::pair<std::string, RcodeTable>>;
std::string render_rcode_table(const RcodeRows& rows);

using IncorrectRows = std::vector<std::pair<std::string, IncorrectSummary>>;
std::string render_incorrect_table(const IncorrectRows& rows);

std::string render_top10_table(const std::vector<TopIncorrectEntry>& entries);

using MaliciousRows = std::vector<std::pair<std::string, MaliciousSummary>>;
std::string render_malicious_table(const MaliciousRows& rows);
std::string render_malicious_flags_table(const MaliciousRows& rows);

std::string render_geo_summary(const GeoSummary& geo, std::size_t top_n = 10);

std::string render_empty_question_summary(const EmptyQuestionSummary& s);

}  // namespace orp::analysis
