// §IV-B4: the R2 packets that came back with no question section at all —
// unmatchable to their probes and excluded from the main tables, but still
// behaviorally interesting (the paper gives them their own sub-analysis).
#pragma once

#include <array>
#include <cstdint>

#include "analysis/flow.h"

namespace orp::analysis {

struct EmptyQuestionSummary {
  std::uint64_t total = 0;
  std::uint64_t with_answer = 0;
  std::uint64_t correct = 0;  // the paper found zero
  std::uint64_t private_answers = 0;    // 192.168/16, 10/8, ...
  std::uint64_t malformed_answers = 0;  // non-IP garbage
  std::uint64_t unknown_org = 0;        // answer IP absent from Whois

  std::uint64_t ra1 = 0;
  std::uint64_t ra0 = 0;
  std::uint64_t ra1_without_answer = 0;
  std::uint64_t ra0_with_answer = 0;  // the paper found zero
  std::uint64_t aa1 = 0;

  std::array<std::uint64_t, dns::kRcodeCount> rcode{};

  /// Shard merge for the streaming analysis path (every field is a count).
  EmptyQuestionSummary& operator+=(const EmptyQuestionSummary& o) noexcept {
    total += o.total;
    with_answer += o.with_answer;
    correct += o.correct;
    private_answers += o.private_answers;
    malformed_answers += o.malformed_answers;
    unknown_org += o.unknown_org;
    ra1 += o.ra1;
    ra0 += o.ra0;
    ra1_without_answer += o.ra1_without_answer;
    ra0_with_answer += o.ra0_with_answer;
    aa1 += o.aa1;
    for (std::size_t i = 0; i < rcode.size(); ++i) rcode[i] += o.rcode[i];
    return *this;
  }
};

}  // namespace orp::analysis
