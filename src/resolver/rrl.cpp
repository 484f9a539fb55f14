#include "resolver/rrl.h"

#include <algorithm>

namespace orp::resolver {

RrlAction ResponseRateLimiter::check(net::IPv4Addr client, net::SimTime now) {
  if (!config_.enabled) {
    ++sent_;
    return RrlAction::kSend;
  }
  Bucket& bucket = buckets_[client.value()];
  if (!bucket.initialized) {
    bucket.initialized = true;
    bucket.tokens = static_cast<double>(config_.burst);
  } else if (now > bucket.last) {
    bucket.tokens =
        std::min(static_cast<double>(config_.burst),
                 bucket.tokens + (now - bucket.last).as_seconds() *
                                     config_.responses_per_second);
  }
  bucket.last = now;

  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    bucket.suppressed_streak = 0;
    ++sent_;
    return RrlAction::kSend;
  }
  ++bucket.suppressed_streak;
  if (config_.slip > 0 && bucket.suppressed_streak % config_.slip == 0) {
    ++slipped_;
    return RrlAction::kSlip;
  }
  ++dropped_;
  return RrlAction::kDrop;
}

}  // namespace orp::resolver
