// Merge-friendly packet capture for sharded scans.
//
// A sharded campaign runs one event loop per shard, so a single Capture tap
// cannot observe the whole scan. CaptureStore is the shard-local vantage
// whose contents *merge*: counts sum and the digest is an order-insensitive
// (commutative) hash, so the merged value is identical no matter how the
// campaign was partitioned or in which order shards land.
//
// Like ZMap's prober, the vantage keeps nothing per packet. Every packet to
// or from the host is counted; only inbound packets (the R2s) are hashed.
// Outbound probe bytes are a function of (destination, subdomain id,
// template) that nothing downstream reads, so the per-probe path never
// hashes them. The determinism tests that pin the probe bytes carry their
// own tap over the prober vantage (tests/wire_oracle.h).
#pragma once

#include <cstdint>
#include <span>

#include "net/transport.h"

namespace orp::net {

class CaptureStore {
 public:
  /// Install a tap pair on `net` observing traffic to/from `host`: the
  /// single half covers per-packet sends, the batch half a whole
  /// send_batch() span in one call. The store must outlive the network.
  void attach(Network& net, IPv4Addr host);

  /// Per-packet tap body: count a packet to or from `host`, and fold it
  /// into the digest if it is inbound. Other traffic is ignored.
  void observe(const Datagram& d, IPv4Addr host) noexcept {
    fold(d.src, d.dst, host, [&] { return d.payload.span(); });
  }
  /// Batch-tap body: observe() for every packet of a send_batch() span.
  /// Only inbound packets' bytes are read, so payload_of is called for
  /// those alone — the scanner's outbound probes are counted unbuilt.
  void observe_batch(std::span<const PacketView> pkts, PayloadFn payload_of,
                     IPv4Addr host) {
    for (std::size_t i = 0; i < pkts.size(); ++i)
      fold(pkts[i].src, pkts[i].dst, host, [&] { return payload_of(i); });
  }

  /// Fold another shard's store into this one (commutative).
  void merge(CaptureStore&& other) noexcept {
    packet_count_ += other.packet_count_;
    digest_ += other.digest_;
  }

  /// No-op: nothing is retained, so there is nothing to order. It stays only
  /// because perfbench/census_bench.cpp calls it (ROADMAP item 3).
  void sort_canonical() noexcept {}

  /// Packets observed in either direction.
  std::uint64_t packet_count() const noexcept { return packet_count_; }

  /// Order-insensitive digest over (src, dst, payload) of every inbound
  /// packet — equal for any shard layout that received the same packet set.
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  /// Count a packet to or from `host`; only an inbound one has its bytes
  /// (`bytes()`) read and digested.
  template <typename Bytes>
  void fold(Endpoint src, Endpoint dst, IPv4Addr host, const Bytes& bytes) {
    if (dst.addr == host)
      digest_ += packet_hash(src, dst, bytes());
    else if (src.addr != host)
      return;  // not this vantage's traffic
    ++packet_count_;
  }
  static std::uint64_t packet_hash(
      Endpoint src, Endpoint dst,
      std::span<const std::uint8_t> payload) noexcept;

  std::uint64_t packet_count_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace orp::net
