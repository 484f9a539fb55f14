// Simulated UDP datagram network.
//
// Hosts register an endpoint (address, port) and receive datagrams through a
// callback. Delivery goes through the event loop with a configurable latency
// model and loss rate. Taps can observe every accepted datagram — this is
// how the prober-side and authns-side captures of Fig. 2 are implemented
// (the paper used modified ZMap output and tcpdump respectively).
//
// Every delivered datagram is one event on the loop, which looks the
// destination's handler up when it fires (a one-shot ephemeral port that
// unbound meanwhile drops the packet). Two send shapes feed that one
// delivery event:
//
//   * send(): one datagram, per-packet tap calls. The reference path.
//   * send_batch(): a span of PacketViews (endpoints only) accepted in
//     order, plus one PayloadFn that builds packet i's bytes on demand.
//     Bytes are built only where something reads them: for packets about
//     to be delivered (not lost, bound at the destination) and for taps
//     that ask. Batch-aware taps observe the whole span in one call;
//     per-item RNG draws (loss, then latency for bound packets) happen in
//     exactly the order send() would have made them, and each survivor is
//     scheduled exactly as send() schedules it. A scanner's send batch
//     holds one probe per target, so there is nothing to group on the
//     receiving side.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/buffer_pool.h"
#include "net/event_loop.h"
#include "net/ipv4.h"
#include "util/rng.h"

namespace orp::net {

class StreamNet;

constexpr std::uint16_t kDnsPort = 53;

struct Endpoint {
  IPv4Addr addr;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) noexcept =
      default;
};

struct Datagram {
  Endpoint src;
  Endpoint dst;
  /// Shared immutable payload: the in-flight event, every tap, and the
  /// receiving handler all see the same bytes, copied exactly once (by the
  /// sender, into a pooled or adopted buffer).
  PayloadRef payload;
};

/// One not-yet-accepted packet in a send_batch() span: its endpoints only.
/// The bytes do not exist yet; the batch's PayloadFn builds them when
/// something reads them. In an internet-scale scan almost every probe goes
/// to an address where nothing is bound, and such a probe's bytes are never
/// built unless a tap asks for them.
struct PacketView {
  Endpoint src;
  Endpoint dst;
};

/// Non-owning reference to a sender's payload builder: `payload_of(i)` is
/// the bytes of packet i of the span it was passed with. The span it
/// returns may alias the sender's scratch, so it is valid only until the
/// next call; readers copy or consume it at once. It must be a pure
/// function of i: any reader, in any order, sees the same bytes.
class PayloadFn {
 public:
  // The builder must return the span itself: a builder returning a vector
  // by value would hand out bytes that die with the call.
  template <typename F>
    requires(!std::is_same_v<F, PayloadFn> &&
             std::is_same_v<std::invoke_result_t<const F&, std::size_t>,
                            std::span<const std::uint8_t>>)
  PayloadFn(const F& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o, std::size_t i) {
          return (*static_cast<const F*>(o))(i);
        }) {}

  std::span<const std::uint8_t> operator()(std::size_t i) const {
    return call_(obj_, i);
  }

 private:
  const void* obj_;
  std::span<const std::uint8_t> (*call_)(const void*, std::size_t);
};

/// Latency model: base propagation delay plus uniform jitter.
struct LatencyModel {
  SimTime base = SimTime::millis(20);
  SimTime jitter = SimTime::millis(30);
};

class Network {
 public:
  using Handler = std::function<void(const Datagram&)>;
  using Tap = std::function<void(SimTime, const Datagram&)>;
  /// A batch tap gets the span and its PayloadFn; it calls payload_of(i)
  /// only for the packets whose bytes it reads.
  using BatchTap =
      std::function<void(SimTime, std::span<const PacketView>, PayloadFn)>;

  explicit Network(EventLoop& loop, std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void set_latency(LatencyModel m) noexcept;
  void set_loss_rate(double p) noexcept;

  /// Bind a handler to an endpoint. Rebinding replaces the previous handler.
  void bind(Endpoint ep, Handler handler);
  void unbind(Endpoint ep);
  bool bound(Endpoint ep) const;

  /// Send a datagram. If nothing is bound at the destination the packet is
  /// silently dropped — exactly how probing a non-resolver address behaves.
  void send(Datagram d);

  /// Hot-path send: copy `payload` into a recycled pool buffer (allocation-
  /// free once warm) instead of making the caller materialize a vector. This
  /// is the path every steady-state sender (scanner probes, resolver and
  /// auth-server responses encoded into per-shard scratch) goes through.
  void send(Endpoint src, Endpoint dst, std::span<const std::uint8_t> payload) {
    send(Datagram{src, dst, pool_.acquire(payload)});
  }

  /// Accept a span of packets in order, equivalent to calling send() on
  /// each with payload_of(i) as packet i's bytes. Differences are purely
  /// mechanical: batch taps see the span in one call, and payload_of is
  /// called (and a pool buffer acquired) only for packets that will be
  /// delivered or that a tap reads. RNG draw order (per-packet loss, then
  /// latency for bound packets) and the delivery events are identical to
  /// the per-packet path, so a batched sender produces a bit-identical
  /// simulation.
  void send_batch(std::span<const PacketView> pkts, PayloadFn payload_of);

  /// Install a tap observing every datagram accepted into the network
  /// (before loss is applied), stamped with the send time. A tap installed
  /// without a batch half sees batched sends item by item (each packet
  /// built and materialized into a pool buffer first — fine for tests and
  /// benches, but the campaign vantage registers both halves).
  void add_tap(Tap tap) { taps_.push_back(TapEntry{std::move(tap), nullptr}); }
  void add_tap(Tap single, BatchTap batch) {
    taps_.push_back(TapEntry{std::move(single), std::move(batch)});
  }

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t dropped_loss() const noexcept { return dropped_loss_; }
  std::uint64_t dropped_unbound() const noexcept { return dropped_unbound_; }

  EventLoop& loop() noexcept { return loop_; }
  BufferPool& pool() noexcept { return pool_; }

  /// The stream (TCP-style) transport sharing this network's loop, pool,
  /// and link model. Created on first use with its own Rng substream
  /// (forked from the network seed by a fixed label), so a campaign that
  /// never touches streams draws nothing extra from the datagram RNG and
  /// every pinned UDP digest is invariant by construction.
  StreamNet& streams();
  /// Null until streams() has been called — lets the metrics sweep skip
  /// campaigns that never opened a connection.
  const StreamNet* streams_or_null() const noexcept { return streams_.get(); }

 private:
  struct TapEntry {
    Tap single;
    BatchTap batch;  // empty taps observe batched sends per item
  };

  struct EndpointHash {
    std::size_t operator()(const Endpoint& e) const noexcept {
      return std::hash<std::uint64_t>{}(
          (std::uint64_t{e.addr.value()} << 16) | e.port);
    }
  };

  SimTime sample_latency();
  /// Schedule `d`'s delivery at `at`: the one delivery event both send
  /// shapes use.
  void schedule_delivery(SimTime at, Datagram d);

  // One-sided filter over the addresses that have ever had an endpoint
  // bound. In an internet-scale scan almost every probe goes to an address
  // where nothing is bound; a clear bit proves that and skips the hash-map
  // probe. A set bit is only a hint (hash collisions, or an address whose
  // every endpoint has since unbound), so a hit falls through to the exact
  // handlers_ lookup. The filter is keyed by address alone, not by port:
  // an ephemeral upstream port is bound on a resolver address that is
  // already bound at :53, so binding and unbinding ports sets no new bit,
  // and unbind() never has to clear one. 2^20 bits = 128 KiB.
  static constexpr int kFilterBits = 20;
  static constexpr std::size_t kFilterWords = std::size_t{1}
                                              << (kFilterBits - 6);
  static constexpr std::uint64_t filter_hash(IPv4Addr a) noexcept {
    return util::mix64(a.value()) >> (64 - kFilterBits);
  }
  void note_bound(IPv4Addr a) noexcept {
    const std::uint64_t h = filter_hash(a);
    bound_filter_[h >> 6] |= std::uint64_t{1} << (h & 63);
  }
  bool maybe_bound(IPv4Addr a) const noexcept {
    const std::uint64_t h = filter_hash(a);
    return (bound_filter_[h >> 6] >> (h & 63)) & 1;
  }

  EventLoop& loop_;
  BufferPool pool_;
  util::Rng rng_;
  std::uint64_t seed_;
  LatencyModel latency_{};
  double loss_rate_ = 0.0;
  std::unique_ptr<StreamNet> streams_;
  std::unordered_map<Endpoint, Handler, EndpointHash> handlers_;
  std::array<std::uint64_t, kFilterWords> bound_filter_{};
  std::vector<TapEntry> taps_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_unbound_ = 0;
};

}  // namespace orp::net
