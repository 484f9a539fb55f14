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
  Binding& b = handlers_[ep];
  b.single = std::move(handler);
  b.batch = nullptr;
  note_bound(ep.addr);
}

void Network::bind_batch(Endpoint ep, Handler single, BatchHandler batch) {
  Binding& b = handlers_[ep];
  b.single = std::move(single);
  b.batch = std::move(batch);
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
  const SimTime deliver_at = loop_.now() + sample_latency();
  // Copy the handler reference target by key lookup at delivery time, so a
  // host that unbinds mid-flight drops the packet instead of touching a
  // dangling callback.
  loop_.schedule_at(deliver_at, [this, d = std::move(d)]() {
    const auto live = handlers_.find(d.dst);
    if (live == handlers_.end()) {
      ++dropped_unbound_;
      return;
    }
    ++delivered_;
    // Copy before invoking: a handler may unbind itself (one-shot ephemeral
    // ports do), which would otherwise destroy the function mid-call.
    const Handler handler = live->second.single;
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
  // loss first, then (bound packets only) latency. Consecutive survivors
  // sharing (dst, deliver time) accumulate into one grouped delivery; the
  // group is scheduled when it closes, which is where the *first* member's
  // per-packet event would have gone — nothing else schedules in between,
  // so every relative event order is preserved. A lost or unbound packet
  // costs a counter: its bytes are never built.
  DatagramBatch* open = nullptr;
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
    const SimTime deliver_at = now + sample_latency();
    if (open != nullptr &&
        (open->dst != p.dst || open->at != deliver_at ||
         (group_cap_ != 0 && open->size() >= group_cap_))) {
      schedule_group(open);
      open = nullptr;
    }
    if (open == nullptr) {
      open = acquire_group();
      open->at = deliver_at;
      open->dst = p.dst;
    }
    open->srcs.push_back(p.src);
    open->payloads.push_back(pool_.acquire(payload_of(i)));
  }
  if (open != nullptr) schedule_group(open);
}

DatagramBatch* Network::acquire_group() {
  if (group_free_.empty()) {
    group_store_.push_back(std::make_unique<DatagramBatch>());
    return group_store_.back().get();
  }
  DatagramBatch* b = group_free_.back();
  group_free_.pop_back();
  return b;
}

void Network::schedule_group(DatagramBatch* b) {
  loop_.schedule_at(b->at, [this, b]() { deliver_group(b); });
}

void Network::deliver_group(DatagramBatch* b) {
  const std::size_t n = b->size();
  if (metrics_ != nullptr) metrics_->observe(delivery_batch_h_, n);
  const auto it = handlers_.find(b->dst);
  if (it == handlers_.end()) {
    dropped_unbound_ += n;
  } else if (it->second.batch) {
    delivered_ += n;
    // Copy before invoking, same discipline as the single path.
    const BatchHandler handler = it->second.batch;
    handler(*b);
  } else {
    // Single-packet fallback: re-check the binding before each item — a
    // handler may unbind itself mid-group (one-shot ephemeral ports do),
    // and the per-packet path would have re-checked per delivery event.
    for (std::size_t i = 0; i < n; ++i) {
      const auto live = handlers_.find(b->dst);
      if (live == handlers_.end()) {
        ++dropped_unbound_;
        continue;
      }
      ++delivered_;
      ++batch_fallback_singles_;
      const Handler handler = live->second.single;
      handler(Datagram{b->srcs[i], b->dst, b->payloads[i]});
    }
  }
  release_group(b);
}

void Network::release_group(DatagramBatch* b) {
  b->srcs.clear();
  b->payloads.clear();  // drops the refs, recycling slabs into the pool
  group_free_.push_back(b);
}

}  // namespace orp::net
