// Table VII (form of incorrect answers) and Table VIII (top-10 addresses in
// incorrect responses, with org attribution and threat-intel hits).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/flow.h"

namespace orp::analysis {

/// One row of Table VII.
struct FormStats {
  std::uint64_t r2 = 0;      // responses carrying this form
  std::uint64_t unique = 0;  // distinct values observed
  std::string example;       // a representative value
};

struct IncorrectSummary {
  FormStats ip;        // wrong A records
  FormStats url;       // name-valued answers
  FormStats str;       // garbage strings
  FormStats na;        // undecodable (2013 corpus)

  std::uint64_t total_r2() const noexcept {
    return ip.r2 + url.r2 + str.r2 + na.r2;
  }
  std::uint64_t total_unique() const noexcept {
    return ip.unique + url.unique + str.unique;
  }
};

/// One row of Table VIII.
struct TopIncorrectEntry {
  net::IPv4Addr addr;
  std::uint64_t count = 0;
  std::string org;
  /// 'Y' = threat reports on file, 'N' = none, '-' = private (N/A).
  char reported = 'N';
};

/// §V "Private Network in Incorrect Information": incorrect answers that
/// point into RFC1918/CGN space — puzzling from an external probe, since the
/// returned address is unreachable from outside the resolver's network
/// (captive-portal/CPE redirection is the paper's leading hypothesis).
struct PrivateRedirectSummary {
  std::uint64_t r2 = 0;          // responses pointing into private space
  std::uint64_t unique_ips = 0;  // distinct private targets
  std::uint64_t rfc1918 = 0;     // 10/8 + 172.16/12 + 192.168/16
  std::uint64_t cgn = 0;         // 100.64/10

  double share_of_incorrect(std::uint64_t incorrect_total) const noexcept {
    return incorrect_total == 0 ? 0.0
                                : 100.0 * static_cast<double>(r2) /
                                      static_cast<double>(incorrect_total);
  }
};

}  // namespace orp::analysis
