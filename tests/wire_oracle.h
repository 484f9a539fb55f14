// Test-side oracle over the prober vantage's wire bytes.
//
// net::CaptureStore counts outbound probes without hashing them, so a
// campaign's own outputs cannot show that two configurations sent the same
// Q1 bytes. WireOracle restores that proof in the determinism tests: hung on
// every shard through run_measurement's ShardHook, it sums
// mix64(FNV-1a over src, dst, payload) of every packet to or from the prober,
// in both directions. Like the capture digest, the sum is commutative, so it
// does not depend on how a send was batched.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <utility>

#include "core/pipeline.h"
#include "core/shard.h"
#include "util/hash.h"
#include "util/rng.h"

namespace orp::core {

class WireOracle {
 public:
  /// The hook to pass to run_measurement; the oracle must outlive the call.
  ShardHook hook() {
    return [this](ShardContext& ctx) { attach(ctx); };
  }

  /// Sum over every shard the oracle was attached to. Read it after
  /// run_measurement returns, when every shard thread has been joined.
  std::uint64_t digest() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t sum = 0;
    for (const std::uint64_t s : shards_) sum += s;
    return sum;
  }

 private:
  void attach(ShardContext& ctx) {
    std::uint64_t* slot = nullptr;
    {
      // Shards attach concurrently; a deque keeps every slot where it is,
      // and each slot is then written by its own shard's thread only.
      const std::lock_guard<std::mutex> lock(mu_);
      slot = &shards_.emplace_back(0);
    }
    const net::IPv4Addr host = ctx.internet().prober_address();
    ctx.internet().network().add_tap(
        [slot, host](net::SimTime, const net::Datagram& d) {
          fold(*slot, d.src, d.dst, d.payload, host);
        },
        [slot, host](net::SimTime, std::span<const net::PacketView> pkts) {
          for (const net::PacketView& p : pkts)
            fold(*slot, p.src, p.dst, p.payload, host);
        });
  }

  static void fold(std::uint64_t& sum, net::Endpoint src, net::Endpoint dst,
                   std::span<const std::uint8_t> payload, net::IPv4Addr host) {
    if (src.addr != host && dst.addr != host) return;
    sum += util::mix64(util::Fnv1a()
                           .word_bytes(src.addr.value())
                           .word_bytes(src.port)
                           .word_bytes(dst.addr.value())
                           .word_bytes(dst.port)
                           .bytes(payload)
                           .value());
  }

  mutable std::mutex mu_;
  std::deque<std::uint64_t> shards_;
};

/// A campaign's outcome together with its prober-vantage wire digest.
struct TappedOutcome {
  ScanOutcome outcome;
  std::uint64_t wire = 0;
};

inline TappedOutcome run_tapped(const PaperYear& year,
                                const PipelineConfig& config) {
  WireOracle oracle;
  ScanOutcome o = run_measurement(year, config, oracle.hook());
  return {std::move(o), oracle.digest()};
}

}  // namespace orp::core
