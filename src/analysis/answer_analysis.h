// Table III: presence and correctness of the answer section.
//
// Convention followed throughout the analyzers (as in the paper, §IV): only
// R2 packets whose question section is present participate; the
// empty-question packets get their own analysis (§IV-B4 /
// empty_question.h). "Incorrect" means an answer section is present but its
// content is not the ground truth — wrong IP, URL instead of an address,
// garbage string, or undecodable bytes. Every table type in this and the
// sibling headers is filled by the one accumulator, analysis::PartialTables
// (streaming.h).
#pragma once

#include <cstdint>

#include "analysis/flow.h"
#include "util/apportion.h"

namespace orp::analysis {

struct AnswerBreakdown {
  std::uint64_t r2 = 0;              // responses with a question section
  std::uint64_t without_answer = 0;  // "W/O"
  std::uint64_t correct = 0;         // "W_Corr"
  std::uint64_t incorrect = 0;       // "W_Incorr"

  std::uint64_t with_answer() const noexcept { return correct + incorrect; }
  double err_percent() const noexcept {
    return util::percent(incorrect, with_answer());
  }

  /// Shard merge for the streaming analysis path (counters sum).
  AnswerBreakdown& operator+=(const AnswerBreakdown& o) noexcept {
    r2 += o.r2;
    without_answer += o.without_answer;
    correct += o.correct;
    incorrect += o.incorrect;
    return *this;
  }
};

}  // namespace orp::analysis
