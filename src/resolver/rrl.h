// Response-Rate Limiting (RRL), the BIND/NSD mitigation for the
// amplification abuse of §II-C.
//
// A reflector is only useful to an attacker if it answers a flood of
// spoofed-source queries at full size. RRL tracks per-client response rates;
// once a client exceeds its budget the server drops most responses and
// "slips" an empty TC=1 answer for the rest — a real client retries over
// TCP (unspoofable) while the spoofed victim just stops receiving
// amplification payload.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/ipv4.h"
#include "net/sim_time.h"

namespace orp::resolver {

struct RrlConfig {
  bool enabled = false;
  double responses_per_second = 5.0;  // per-client sustained budget
  std::uint64_t burst = 10;           // bucket depth
  /// Every `slip`-th suppressed response is sent as an empty TC=1 reply
  /// (slip=0 drops everything; slip=1 slips everything).
  int slip = 2;

  friend bool operator==(const RrlConfig&, const RrlConfig&) = default;
};

enum class RrlAction {
  kSend,  // under budget: respond normally
  kDrop,  // over budget: say nothing
  kSlip,  // over budget: send the minimal TC=1 nudge
};

class ResponseRateLimiter {
 public:
  explicit ResponseRateLimiter(RrlConfig config) : config_(config) {}

  RrlAction check(net::IPv4Addr client, net::SimTime now);

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t slipped() const noexcept { return slipped_; }

 private:
  struct Bucket {
    bool initialized = false;
    double tokens = 0;
    net::SimTime last;
    int suppressed_streak = 0;
  };

  RrlConfig config_;
  std::unordered_map<std::uint32_t, Bucket> buckets_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t slipped_ = 0;
};

}  // namespace orp::resolver
