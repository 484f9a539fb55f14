#include "net/transport.h"

#include <utility>

#include "net/stream.h"

namespace orp::net {

Network::Network(EventLoop& loop, std::uint64_t seed)
    : loop_(loop), rng_(seed), seed_(seed) {}

Network::~Network() = default;

void Network::set_latency(LatencyModel m) noexcept {
  latency_ = m;
  if (streams_) streams_->set_latency(m);
}

void Network::set_loss_rate(double p) noexcept {
  loss_rate_ = p;
  if (streams_) streams_->set_loss_rate(p);
}

StreamNet& Network::streams() {
  if (!streams_) {
    // A fixed fork label keeps the stream substream a pure function of the
    // network seed — the datagram rng_ is never consulted.
    streams_ = std::make_unique<StreamNet>(
        loop_, pool_, util::mix64(seed_ ^ 0x7c9df1a35b8e24d6ULL));
    streams_->set_latency(latency_);
    streams_->set_loss_rate(loss_rate_);
  }
  return *streams_;
}

void Network::bind(Endpoint ep, Handler handler) {
  handlers_[ep] = std::move(handler);
  note_bound(ep.addr);
}

void Network::unbind(Endpoint ep) { handlers_.erase(ep); }

bool Network::bound(Endpoint ep) const { return handlers_.contains(ep); }

SimTime Network::sample_latency() {
  const auto jitter_ns = latency_.jitter.as_nanos();
  const auto extra =
      jitter_ns > 0
          ? static_cast<std::int64_t>(
                rng_.bounded(static_cast<std::uint64_t>(jitter_ns)))
          : 0;
  return latency_.base + SimTime::nanos(extra);
}

void Network::send(Datagram d) {
  ++sent_;
  for (const auto& tap : taps_) tap.single(loop_.now(), d);
  if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
    ++dropped_loss_;
    return;
  }
  if (!maybe_bound(d.dst.addr) || !handlers_.contains(d.dst)) {
    ++dropped_unbound_;
    return;
  }
  schedule_delivery(loop_.now() + sample_latency(), std::move(d));
}

void Network::schedule_delivery(SimTime at, Datagram d) {
  // Look the handler up by key at delivery time, so a host that unbinds
  // mid-flight drops the packet instead of touching a dangling callback.
  loop_.schedule_at(at, [this, d = std::move(d)]() {
    const auto live = handlers_.find(d.dst);
    if (live == handlers_.end()) {
      ++dropped_unbound_;
      return;
    }
    ++delivered_;
    // Copy before invoking: a handler may unbind itself (one-shot ephemeral
    // ports do), which would otherwise destroy the function mid-call.
    const Handler handler = live->second;
    handler(d);
  });
}

void Network::send_batch(std::span<const PacketView> pkts,
                         PayloadFn payload_of) {
  if (pkts.empty()) return;
  const SimTime now = loop_.now();
  sent_ += pkts.size();
  // Batch-aware taps observe the whole span in one call and build only the
  // bytes they read; taps without a batch half see each packet as a
  // Datagram, which requires building and pooling every payload (only
  // test and bench taps pay this).
  bool singles_only_taps = false;
  for (const auto& tap : taps_) {
    if (tap.batch)
      tap.batch(now, pkts, payload_of);
    else
      singles_only_taps = true;
  }
  if (singles_only_taps) {
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const Datagram d{pkts[i].src, pkts[i].dst, pool_.acquire(payload_of(i))};
      for (const auto& tap : taps_)
        if (!tap.batch) tap.single(now, d);
    }
  }
  // Per-packet draws in span order, exactly as send() would have made them:
  // loss first, then (bound packets only) latency, and each survivor gets
  // the delivery event send() would have scheduled. A lost or unbound
  // packet costs a counter: its bytes are never built.
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const PacketView& p = pkts[i];
    if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
      ++dropped_loss_;
      continue;
    }
    if (!maybe_bound(p.dst.addr) || !handlers_.contains(p.dst)) {
      ++dropped_unbound_;
      continue;
    }
    schedule_delivery(now + sample_latency(),
                      Datagram{p.src, p.dst, pool_.acquire(payload_of(i))});
  }
}

}  // namespace orp::net
