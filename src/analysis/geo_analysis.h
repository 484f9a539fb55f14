// §IV-C2 "Distribution of Malicious Resolvers": geolocation of the
// *resolvers* (not the answer addresses) behind malicious responses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/flow.h"

namespace orp::analysis {

struct CountryCount {
  std::string country;  // ISO 3166-1 alpha-2; "??" for unresolvable
  std::uint64_t r2 = 0;

  double share(std::uint64_t total) const noexcept {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(r2) /
                            static_cast<double>(total);
  }
};

struct GeoSummary {
  std::vector<CountryCount> countries;  // descending by count
  std::uint64_t total = 0;
  std::size_t country_count() const noexcept { return countries.size(); }
};

}  // namespace orp::analysis
