// Tables IV-VI: DNS header conformance analysis.
//
// The paper's key behavioral findings live here: resolvers that answer while
// claiming recursion is unavailable (RA=0 with dns_answer, 94% wrong in
// 2018), resolvers claiming authority over a zone they do not serve (AA=1,
// 79% wrong), and rcodes inconsistent with the presence of an answer.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/flow.h"
#include "util/apportion.h"

namespace orp::analysis {

/// One row of Table IV/V: responses with the flag at a given value.
struct FlagBreakdown {
  std::uint64_t without_answer = 0;
  std::uint64_t correct = 0;
  std::uint64_t incorrect = 0;

  std::uint64_t with_answer() const noexcept { return correct + incorrect; }
  std::uint64_t total() const noexcept {
    return without_answer + with_answer();
  }
  double err_percent() const noexcept {
    return util::percent(incorrect, with_answer());
  }

  FlagBreakdown& operator+=(const FlagBreakdown& o) noexcept {
    without_answer += o.without_answer;
    correct += o.correct;
    incorrect += o.incorrect;
    return *this;
  }
};

struct FlagTable {
  FlagBreakdown bit0;
  FlagBreakdown bit1;

  /// Shard merge for the streaming analysis path.
  FlagTable& operator+=(const FlagTable& o) noexcept {
    bit0 += o.bit0;
    bit1 += o.bit1;
    return *this;
  }
};

/// Table VI: rcode distribution split by answer presence.
struct RcodeRow {
  std::uint64_t with_answer = 0;     // "W"
  std::uint64_t without_answer = 0;  // "W/O"
  std::uint64_t total() const noexcept { return with_answer + without_answer; }

  RcodeRow& operator+=(const RcodeRow& o) noexcept {
    with_answer += o.with_answer;
    without_answer += o.without_answer;
    return *this;
  }
};

struct RcodeTable {
  std::array<RcodeRow, dns::kRcodeCount> rows{};

  /// Shard merge for the streaming analysis path.
  RcodeTable& operator+=(const RcodeTable& o) noexcept {
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] += o.rows[i];
    return *this;
  }

  const RcodeRow& row(dns::Rcode rc) const noexcept {
    return rows[static_cast<std::size_t>(rc)];
  }
  /// Abnormal combinations the paper calls out: nonzero rcode carrying an
  /// answer, and NoError without one.
  std::uint64_t error_rcode_with_answer() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) total += rows[i].with_answer;
    return total;
  }
  std::uint64_t noerror_without_answer() const noexcept {
    return rows[0].without_answer;
  }
};

}  // namespace orp::analysis
