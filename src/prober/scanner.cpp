#include "prober/scanner.h"

#include "dns/builder.h"

namespace orp::prober {

namespace {
constexpr std::uint16_t kProberPort = 54321;  // fixed source port, ZMap-style
}  // namespace

Scanner::Scanner(net::Network& network, net::IPv4Addr prober_addr,
                 ScanConfig config, zone::SubdomainScheme scheme,
                 dns::EncodeBuffer* codec_scratch)
    : network_(network),
      addr_(prober_addr),
      config_(config),
      codec_scratch_(codec_scratch != nullptr ? *codec_scratch : own_scratch_),
      clusters_(std::move(scheme), config.rotate_pause),
      permutation_(config.seed),
      limiter_(config.rate_pps, config.batch_size * 4) {
  if (config_.first_index != 0) permutation_.seek(config_.first_index);
  network_.bind_batch(
      net::Endpoint{addr_, kProberPort},
      [this](const net::Datagram& d) { on_datagram(d); },
      [this](const net::DatagramBatch& b) { on_batch(b); });

  // Learn the probe template (verified byte-identical to the encoder by
  // derive itself).
  if (config_.wire_templates) {
    probe_tpl_ = dns::WireTemplate::derive(
        [this](const dns::StampVars& v) {
          return dns::make_query(
              v.txn, clusters_.scheme().qname({v.cluster, v.index}),
              config_.qtype);
        },
        codec_scratch_);
  }

  pending_views_.reserve(config_.batch_size);
  pending_vars_.reserve(config_.batch_size);
}

void Scanner::start(DoneCallback done) {
  done_ = std::move(done);
  stats_.started = network_.loop().now();
  network_.loop().schedule_in(net::SimTime::nanos(0),
                              [this]() { send_batch(); });
  network_.loop().schedule_in(config_.reap_interval,
                              [this]() { reap(false); });
}

void Scanner::send_batch() {
  if (sending_done_) return;
  net::SimTime next_ready;
  if (!limiter_.try_acquire(config_.batch_size, network_.loop().now(),
                            next_ready)) {
    network_.loop().schedule_at(next_ready, [this]() { send_batch(); });
    return;
  }

  // The limiter paces *packets on the wire*; excluded addresses cost a
  // permutation step but no send budget (as in ZMap). Probes stage as
  // endpoints plus stamp vars and leave as one bulk hand-off below —
  // nothing in this loop draws network RNG or schedules, so deferring the
  // hand-off keeps every draw and every event seq exactly where per-probe
  // sends put them.
  bool rotated = false;
  std::uint32_t rotated_to = 0;
  for (std::uint64_t sent = 0;
       sent < config_.batch_size && raw_consumed_ < config_.raw_steps;) {
    ++raw_consumed_;
    const std::uint64_t raw = permutation_.next_raw();
    if (raw >= (std::uint64_t{1} << 32)) {
      ++stats_.skipped_overflow;
      continue;
    }
    const net::IPv4Addr target(static_cast<std::uint32_t>(raw));
    if (net::is_reserved(target)) {
      ++stats_.skipped_reserved;
      continue;
    }
    ++sent;
    const std::uint32_t cluster_before = clusters_.current_cluster();
    send_one_probe(target);
    if (clusters_.current_cluster() != cluster_before) {
      // A zone rotation started at the auth server; stop the batch so the
      // send pause covers the reload window.
      rotated = true;
      rotated_to = clusters_.current_cluster();
      break;
    }
  }
  flush_pending();
  if (rotated && on_rotate_) on_rotate_(rotated_to);

  if (beacon_ != nullptr)
    beacon_->probes_sent.store(stats_.q1_sent, std::memory_order_relaxed);

  if (raw_consumed_ >= config_.raw_steps) {
    sending_done_ = true;
    // Final drain: one response window after the last probe, then sweep.
    network_.loop().schedule_in(config_.response_timeout, [this]() {
      reap(true);
      maybe_finish();
    });
    return;
  }
  // Pause across a zone reload so recursions never race the loading server,
  // as the authors' pipeline coordinated prober and name server.
  const net::SimTime delay =
      rotated ? config_.rotate_pause : net::SimTime::nanos(0);
  network_.loop().schedule_in(delay, [this]() { send_batch(); });
}

void Scanner::send_one_probe(net::IPv4Addr target) {
  const zone::SubdomainId id = clusters_.acquire();
  const std::uint16_t txn = next_txn_++;
  if (next_txn_ == 0) next_txn_ = 1;
  outstanding_.push(pack(id), network_.loop().now());
  peak_outstanding_ =
      std::max<std::uint64_t>(peak_outstanding_, outstanding_.size());
  ++stats_.q1_sent;
  if (tracer_ != nullptr) {
    // The probe's global permutation index — a property of the campaign
    // plan, not the shard layout, so sampling is shard-count-invariant.
    // Indexes grow monotonically, so the cursor check replaces a per-probe
    // division with a compare; reserved-address skips can jump the index
    // past a sample point, in which case sample() rejects (that index sent
    // no probe) and the cursor re-arms at the next multiple.
    const std::uint64_t index = config_.first_index + raw_consumed_ - 1;
    if (index >= next_trace_index_) {
      if (tracer_->sample(index))
        tracer_->begin_flow(clusters_.scheme().flow_key(id), index,
                            network_.loop().now(), target.value());
      const std::uint64_t every = tracer_->sample_every();
      next_trace_index_ = index - index % every + every;
    }
  }
  // Stage the probe: its endpoints and the vars its bytes are a function
  // of. The template/fallback split is counted here, where the probe is
  // sent; the bytes are built only if something reads them (probe_bytes).
  const dns::StampVars vars{txn, id.cluster, id.index, 0, 0};
  if (probe_tpl_.covers(vars))
    ++stats_.template_stamped;
  else
    ++stats_.template_fallback;
  pending_views_.push_back(net::PacketView{
      {addr_, kProberPort}, {target, net::kDnsPort}});
  pending_vars_.push_back(vars);
}

void Scanner::flush_pending() {
  if (pending_views_.empty()) return;
  network_.send_batch(pending_views_, [this](std::size_t i) {
    return probe_bytes(pending_vars_[i]);
  });
  pending_views_.clear();
  pending_vars_.clear();
}

std::span<const std::uint8_t> Scanner::probe_bytes(const dns::StampVars& v) {
  // Common ids stamp the pre-encoded template (txn + two fixed-width digit
  // runs); wider ids take the full make_query/encode path, byte-identical
  // to what the stamp produces inside its widths.
  if (probe_tpl_.covers(v)) return probe_tpl_.stamp(v, codec_scratch_);
  const dns::DnsName qname = clusters_.scheme().qname({v.cluster, v.index});
  return dns::encode_into(dns::make_query(v.txn, qname, config_.qtype),
                          codec_scratch_);
}

void Scanner::on_batch(const net::DatagramBatch& b) {
  for (std::size_t i = 0; i < b.size(); ++i)
    on_datagram(net::Datagram{b.srcs[i], b.dst, b.payloads[i]});
}

Scanner::R2Match Scanner::match_r2(const dns::DecodeView& v,
                                   net::IPv4Addr from) {
  char key_buf[dns::kMaxNameLength];
  const std::string_view key = v.qname.canonical_key_into(key_buf);
  const std::optional<zone::SubdomainId> id = clusters_.scheme().parse_key(key);
  if (!id) return {};
  R2Match m{pack(*id), true, outstanding_.answer(pack(*id))};
  if (!m.answered) return m;
  ++stats_.r2_matched;
  if (tracer_ != nullptr) {
    const std::uint64_t flow = clusters_.scheme().flow_key(*id);
    if (tracer_->marked(flow))
      tracer_->record(flow, obs::SpanPoint::kR2Received,
                      network_.loop().now(), from.value());
  }
  clusters_.retire_answered(*id);
  return m;
}

void Scanner::on_datagram(const net::Datagram& d) {
  if (config_.tcp_fallback) {
    // The fallback receive path re-orders classification around the TCP
    // retry; keeping it fully separate leaves the default path below
    // byte-for-byte untouched (the pinned-digest discipline).
    on_datagram_fallback(d);
    return;
  }
  ++stats_.r2_received;
  if (beacon_ != nullptr)
    beacon_->responses.store(stats_.r2_received, std::memory_order_relaxed);
  classify(d.src.addr, d.payload);

  // Group the flow by qname (§III-B): the DNS ID field is too narrow at
  // 100k pps, so the question name is the flow key. A DecodeView is a full
  // validation pass (all four sections, same rules as decode), so
  // `complete()` matches exactly what decode() used to accept — without
  // materializing the message.
  const dns::DecodeView v = dns::DecodeView::parse(d.payload);
  if (v.complete() && v.questions_parsed > 0) {
    if (!match_r2(v, d.src.addr).answered) ++stats_.r2_unmatched;
    return;
  }
  if (v.complete()) {
    // The paper's 494 unmatchable responses: no dns_question to group by.
    ++stats_.r2_empty_question;
    return;
  }
  // Header too mangled even to count a question; still an R2.
  ++stats_.r2_unmatched;
}

void Scanner::on_datagram_fallback(const net::Datagram& d) {
  ++stats_.r2_received;
  if (beacon_ != nullptr)
    beacon_->responses.store(stats_.r2_received, std::memory_order_relaxed);

  const dns::DecodeView v = dns::DecodeView::parse(d.payload);
  if (v.complete() && v.questions_parsed > 0) {
    // An answered subdomain retires either way — the flow *was* answered;
    // what is still open is which payload gets classified.
    const R2Match m = match_r2(v, d.src.addr);
    if (m.answered) {
      if (v.header.flags.tc) {
        ++stats_.tc_seen;
        start_tcp_retry(m.packed, d.src.addr, d.payload);
        return;  // classification deferred until the retry settles
      }
      classify(d.src.addr, d.payload);
      return;
    }
    if (m.ours && find_retry_by_key(m.packed) != kNilSlot) {
      // A UDP answer racing the TCP retry (the resolver answered twice,
      // e.g. full answer after the truncated one): counted, never
      // classified — the retry owns this flow's single classification.
      ++stats_.tcp_duplicate_r2;
      return;
    }
    ++stats_.r2_unmatched;
    classify(d.src.addr, d.payload);
    return;
  }
  if (v.complete()) {
    ++stats_.r2_empty_question;
    classify(d.src.addr, d.payload);
    return;
  }
  ++stats_.r2_unmatched;
  classify(d.src.addr, d.payload);
}

void Scanner::classify(net::IPv4Addr from,
                       std::span<const std::uint8_t> payload) {
  if (on_r2_) on_r2_(network_.loop().now(), from, payload);
}

std::uint32_t Scanner::find_retry(net::ConnId c) const noexcept {
  for (std::uint32_t i = 0; i < retries_.size(); ++i)
    if (retries_[i].active && retries_[i].conn == c) return i;
  return kNilSlot;
}

std::uint32_t Scanner::find_retry_by_key(std::uint64_t packed) const noexcept {
  for (std::uint32_t i = 0; i < retries_.size(); ++i)
    if (retries_[i].active && retries_[i].packed == packed) return i;
  return kNilSlot;
}

void Scanner::start_tcp_retry(std::uint64_t packed, net::IPv4Addr target,
                              const net::PayloadRef& held) {
  std::uint32_t slot;
  if (!retry_free_.empty()) {
    slot = retry_free_.back();
    retry_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(retries_.size());
    retries_.emplace_back();
  }
  TcpRetry& r = retries_[slot];
  r.packed = packed;
  r.target = target;
  r.held = held;  // refcount bump; the slab stays pooled
  r.active = true;
  ++retries_active_;
  ++stats_.tcp_retries;
  if (tracer_ != nullptr) {
    const std::uint64_t flow = clusters_.scheme().flow_key(unpack(packed));
    if (tracer_->marked(flow))
      tracer_->record(flow, obs::SpanPoint::kTcpRetry, network_.loop().now(),
                      target.value());
  }
  std::uint16_t port = next_tcp_port_++;
  if (next_tcp_port_ == 0) next_tcp_port_ = 49152;
  r.conn = network_.streams().connect(net::Endpoint{addr_, port},
                                      net::Endpoint{target, net::kDnsPort},
                                      this);
  // The only signal for a silently lost SYN — and the cap on a connection
  // that establishes but never answers.
  const std::uint32_t gen = r.gen;
  network_.loop().schedule_in(config_.tcp_timeout, [this, slot, gen]() {
    on_tcp_timeout(slot, gen);
  });
}

void Scanner::on_established(net::ConnId c) {
  const std::uint32_t slot = find_retry(c);
  if (slot == kNilSlot) {
    network_.streams().reset(c);
    return;
  }
  // Re-ask the same probe qname over the stream. Fresh transaction id (a
  // real client's retry is a new transaction); the flow is keyed by qname,
  // so the answer still groups to the same probe.
  const std::uint16_t txn = next_txn_++;
  if (next_txn_ == 0) next_txn_ = 1;
  const dns::DnsName qname =
      clusters_.scheme().qname(unpack(retries_[slot].packed));
  const dns::Message query = dns::make_query(txn, qname, config_.qtype);
  network_.streams().send_message(c, dns::encode_into(query, codec_scratch_));
}

void Scanner::on_message(net::ConnId c, net::SimTime /*at*/,
                         const net::PayloadRef& msg) {
  const std::uint32_t slot = find_retry(c);
  if (slot == kNilSlot) return;
  TcpRetry& r = retries_[slot];
  ++stats_.tcp_answers;
  if (tracer_ != nullptr) {
    const std::uint64_t flow = clusters_.scheme().flow_key(unpack(r.packed));
    if (tracer_->marked(flow))
      tracer_->record(flow, obs::SpanPoint::kTcpAnswer, network_.loop().now(),
                      r.target.value());
  }
  classify(r.target, msg);
  finish_retry(slot);
  network_.streams().close(c);
}

void Scanner::on_closed(net::ConnId c, bool /*reset*/) {
  const std::uint32_t slot = find_retry(c);
  if (slot == kNilSlot) return;  // already settled (answer beat the FIN)
  tcp_retry_failed(slot);        // refused, reset, or closed unanswered
}

void Scanner::on_tcp_timeout(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= retries_.size()) return;
  TcpRetry& r = retries_[slot];
  if (!r.active || r.gen != gen) return;  // settled; stale timer
  const net::ConnId c = r.conn;
  tcp_retry_failed(slot);            // banks conn bytes while `c` is live
  network_.streams().reset(c);       // no-op if the SYN was lost
}

void Scanner::tcp_retry_failed(std::uint32_t slot) {
  TcpRetry& r = retries_[slot];
  ++stats_.tcp_failures;
  // The truncated UDP answer is the flow's final word after all.
  classify(r.target, r.held.span());
  finish_retry(slot);
}

void Scanner::finish_retry(std::uint32_t slot) {
  TcpRetry& r = retries_[slot];
  // Bank the connection's wire-byte totals before the id goes stale (a
  // stale or already-torn-down conn reads 0 — see ScanStats).
  stats_.tcp_bytes_sent += network_.streams().conn_bytes_sent(r.conn);
  stats_.tcp_bytes_received += network_.streams().conn_bytes_received(r.conn);
  r.active = false;
  r.conn = net::kNilConn;
  r.held = net::PayloadRef{};  // release the slab back to the pool
  ++r.gen;                     // pending timeout events become inert
  --retries_active_;
  retry_free_.push_back(slot);
  maybe_finish();  // a drained retry may have been the last open work
}

void Scanner::reap(bool final_sweep) {
  // Sent times are non-decreasing along the ring and the timeout is one
  // constant, so the expired probes are exactly a prefix of it (the final
  // sweep, one window after the last send, takes everything).
  const net::SimTime now = network_.loop().now();
  outstanding_.reap(final_sweep ? now : now - config_.response_timeout,
                    [this](std::uint64_t packed) {
                      if (config_.subdomain_reuse)
                        clusters_.release_unanswered(unpack(packed));
                      ++stats_.timeouts_reaped;
                    });
  if (final_sweep) final_swept_ = true;
  if (!sending_done_) {
    network_.loop().schedule_in(config_.reap_interval,
                                [this]() { reap(false); });
  }
}

void Scanner::maybe_finish() {
  if (finished_ || !sending_done_ || !final_swept_) return;
  // TCP retries opened late in the drain window may still be settling;
  // each one calls back here as it finishes.
  if (retries_active_ > 0) return;
  finished_ = true;
  stats_.finished = network_.loop().now();
  network_.unbind(net::Endpoint{addr_, kProberPort});
  if (beacon_ != nullptr) {
    beacon_->probes_sent.store(stats_.q1_sent, std::memory_order_relaxed);
    beacon_->responses.store(stats_.r2_received, std::memory_order_relaxed);
    beacon_->done.store(1, std::memory_order_relaxed);
  }
  if (done_) done_();
}

}  // namespace orp::prober
