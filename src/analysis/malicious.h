// Tables IX and X: malicious answers, validated against threat intel.
//
// An incorrect IP answer is *malicious* when the pointed-to address has
// reports on file; the paper's category attribution rule applies (most
// frequently reported category wins).
#pragma once

#include <array>
#include <cstdint>

#include "analysis/flow.h"
#include "intel/threat_db.h"

namespace orp::analysis {

struct CategoryRow {
  std::uint64_t unique_ips = 0;  // Table IX "#_IP"
  std::uint64_t r2 = 0;          // Table IX "#_R2"
};

struct MaliciousSummary {
  std::array<CategoryRow, intel::kThreatCategoryCount> categories{};
  std::uint64_t total_ips = 0;
  std::uint64_t total_r2 = 0;

  // Table X: header flags across the malicious R2 population.
  std::uint64_t ra0 = 0;
  std::uint64_t ra1 = 0;
  std::uint64_t aa0 = 0;
  std::uint64_t aa1 = 0;
  std::uint64_t rcode_noerror = 0;  // the paper found all 26,926 at rcode 0
};

}  // namespace orp::analysis
