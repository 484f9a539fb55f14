// The probing system of Fig. 2: a modified-ZMap-style scanner that walks the
// address space in cyclic-permutation order, skips the Table I exclusion
// list, paces itself, stamps each probe with a unique probe subdomain, and
// collects R2 responses — reusing the subdomains of unanswered probes so the
// authoritative server's zone rotations stay rare (§III-B).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "dns/codec.h"
#include "dns/decode_view.h"
#include "dns/wire_template.h"
#include "net/capture.h"
#include "net/reserved.h"
#include "net/stream.h"
#include "net/transport.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "prober/outstanding_ring.h"
#include "prober/permutation.h"
#include "prober/rate_limiter.h"
#include "zone/cluster.h"

namespace orp::prober {

struct ScanConfig {
  std::uint64_t seed = 2018;
  double rate_pps = 100000.0;       // paper: 100k pps
  std::uint64_t batch_size = 64;    // probes per send event
  /// Number of raw permutation elements to consume. The full cycle is
  /// kPermutationPrime - 1; a scaled scan consumes the first (cycle/scale).
  std::uint64_t raw_steps = kPermutationPrime - 1;
  /// Absolute permutation index at which this scanner starts. A sharded
  /// campaign gives shard i the slice [i*N/S, (i+1)*N/S) of the one global
  /// permutation: first_index = i*N/S and raw_steps = the slice length.
  std::uint64_t first_index = 0;
  net::SimTime response_timeout = net::SimTime::seconds(30.0);
  net::SimTime reap_interval = net::SimTime::seconds(10.0);
  net::SimTime rotate_pause;        // send pause per zone rotation
  dns::RRType qtype = dns::RRType::kA;
  /// §III-B subdomain reuse. Disabling it burns a fresh name per probe —
  /// the ~800-zone-load regime the paper engineered away (ablation knob).
  bool subdomain_reuse = true;
  /// Stamp probes from a pre-encoded dns::WireTemplate instead of running
  /// the full encoder per probe. Either setting yields bit-identical wire
  /// bytes (the template is differentially verified against the encoder);
  /// the determinism suite sweeps this knob.
  bool wire_templates = true;
  /// Retry TC=1 answers over TCP (RFC 7766 fallback). Off by default — the
  /// pinned measurement campaign is UDP-only, and with the knob off the
  /// scanner never touches the stream transport at all. When on, a matched
  /// truncated answer defers classification until the retry settles: the
  /// TCP answer wins; on failure (silent SYN loss, refusal, reset, or a
  /// connection that never answers) the held truncated UDP answer is
  /// classified instead. Exactly one classification per flow either way.
  bool tcp_fallback = false;
  /// Give-up window per TCP retry, covering both the silent-SYN-loss case
  /// and an established connection that never answers. Shorter than
  /// response_timeout so retries settle within the scan's final drain.
  net::SimTime tcp_timeout = net::SimTime::seconds(10.0);
};

struct ScanStats {
  std::uint64_t q1_sent = 0;            // probes sent (Table II "Q1")
  std::uint64_t skipped_reserved = 0;   // Table I exclusions hit
  std::uint64_t skipped_overflow = 0;   // raw permutation values >= 2^32
  std::uint64_t r2_received = 0;        // responses (Table II "R2")
  std::uint64_t r2_matched = 0;         // grouped to a probe by qname
  std::uint64_t r2_empty_question = 0;  // §IV-B4 population
  std::uint64_t r2_unmatched = 0;       // question present but not ours
  std::uint64_t timeouts_reaped = 0;
  std::uint64_t template_stamped = 0;   // probes emitted via WireTemplate
  std::uint64_t template_fallback = 0;  // probes through the full encoder
  std::uint64_t tc_seen = 0;            // matched answers carrying TC=1
  std::uint64_t tcp_retries = 0;        // retry connections opened
  std::uint64_t tcp_answers = 0;        // answers received over TCP
  std::uint64_t tcp_failures = 0;       // retries settled on the UDP answer
  std::uint64_t tcp_duplicate_r2 = 0;   // UDP dups racing a pending retry
  /// Wire bytes the scanner's TCP client put on / took off the wire
  /// (per-connection totals banked as each retry settles). Failure paths
  /// where the peer tore the connection down first under-count the lost
  /// handshake — a conservative floor on the attacker-side TCP cost the
  /// amplification study reports.
  std::uint64_t tcp_bytes_sent = 0;
  std::uint64_t tcp_bytes_received = 0;
  net::SimTime started;
  net::SimTime finished;

  net::SimTime duration() const noexcept { return finished - started; }

  /// Merge another shard's counters into this one. Counters sum; the time
  /// window is the union (shards run concurrently over the same campaign).
  ScanStats& operator+=(const ScanStats& o) noexcept {
    q1_sent += o.q1_sent;
    skipped_reserved += o.skipped_reserved;
    skipped_overflow += o.skipped_overflow;
    r2_received += o.r2_received;
    r2_matched += o.r2_matched;
    r2_empty_question += o.r2_empty_question;
    r2_unmatched += o.r2_unmatched;
    timeouts_reaped += o.timeouts_reaped;
    template_stamped += o.template_stamped;
    template_fallback += o.template_fallback;
    tc_seen += o.tc_seen;
    tcp_retries += o.tcp_retries;
    tcp_answers += o.tcp_answers;
    tcp_failures += o.tcp_failures;
    tcp_duplicate_r2 += o.tcp_duplicate_r2;
    tcp_bytes_sent += o.tcp_bytes_sent;
    tcp_bytes_received += o.tcp_bytes_received;
    started = std::min(started, o.started);
    finished = std::max(finished, o.finished);
    return *this;
  }
};

class Scanner : private net::StreamHandler {
 public:
  using DoneCallback = std::function<void()>;
  /// Invoked when the subdomain planner rotates to a new cluster; the
  /// pipeline wires this to AuthServer::load_cluster.
  using RotateCallback = std::function<void(std::uint32_t cluster)>;
  /// Invoked once per classified R2 (the capture-time hook the streaming
  /// analyzer and the per-response exporters hang off). `payload` borrows
  /// the delivery buffer — consume it during the call; do not retain the
  /// span.
  using R2Callback = std::function<void(
      net::SimTime time, net::IPv4Addr resolver,
      std::span<const std::uint8_t> payload)>;

  /// `codec_scratch`, when given, is the per-shard encode buffer probes are
  /// built in (shards are single-threaded, so sharing it is race-free); the
  /// scanner falls back to an owned buffer otherwise.
  Scanner(net::Network& network, net::IPv4Addr prober_addr, ScanConfig config,
          zone::SubdomainScheme scheme,
          dns::EncodeBuffer* codec_scratch = nullptr);

  void set_rotate_callback(RotateCallback cb) { on_rotate_ = std::move(cb); }
  /// The scanner keeps no response payloads; whoever needs them (tables,
  /// CSV/pcap export, tests) takes them here, in arrival order.
  void set_r2_callback(R2Callback cb) { on_r2_ = std::move(cb); }

  /// Begin scanning; `done` fires after the last probe's response window.
  void start(DoneCallback done);

  /// Attach observability sinks (either may be null). The tracer samples
  /// flows by *global* permutation index, so every shard layout traces the
  /// same flows; the beacon is a relaxed-atomic progress mirror polled by a
  /// real-time reporter thread. Neither touches simulated time or RNG state.
  void set_obs(obs::FlowTracer* tracer, obs::ShardBeacon* beacon) noexcept {
    tracer_ = tracer;
    beacon_ = beacon;
    // Prime the sampling cursor: the first multiple of sample_every at or
    // after this shard's slice start. The send path then pays one compare
    // per probe instead of one division (see send_one_probe).
    if (tracer != nullptr && tracer->enabled()) {
      const std::uint64_t every = tracer->sample_every();
      next_trace_index_ = (config_.first_index + every - 1) / every * every;
    }
  }

  const ScanStats& stats() const noexcept { return stats_; }
  const zone::ClusterManager& clusters() const noexcept { return clusters_; }
  const RateLimiter& limiter() const noexcept { return limiter_; }
  /// High-water mark of the unanswered-probe count (Table II's in-flight
  /// window, surfaced for the metrics layer).
  std::uint64_t peak_outstanding() const noexcept { return peak_outstanding_; }
  const OutstandingRing& outstanding() const noexcept { return outstanding_; }
  net::IPv4Addr address() const noexcept { return addr_; }

 private:
  void send_batch();
  void send_one_probe(net::IPv4Addr target);
  void flush_pending();
  /// Probe `v`'s wire bytes, built in codec scratch (valid until its next
  /// use) — the PayloadFn behind every send_batch the scanner makes.
  std::span<const std::uint8_t> probe_bytes(const dns::StampVars& v);
  void on_datagram(const net::Datagram& d);
  void on_batch(const net::DatagramBatch& b);
  /// Hand one response to the R2 callback — the single classification
  /// point of a flow (in fallback mode, once its TCP retry has settled).
  void classify(net::IPv4Addr from, std::span<const std::uint8_t> payload);
  /// Outcome of grouping one response to its probe by qname (§III-B).
  struct R2Match {
    std::uint64_t packed = 0;  // the parsed probe id, when `ours`
    bool ours = false;         // the qname is one of our probe keys
    bool answered = false;     // ...whose probe was still outstanding
  };
  /// The match step both receive paths share: parse the question of a
  /// complete response `v` as a probe key and, if its probe is still
  /// outstanding, answer it — count the match, record the kR2Received span
  /// and retire the subdomain.
  R2Match match_r2(const dns::DecodeView& v, net::IPv4Addr from);
  void reap(bool final_sweep);
  void maybe_finish();

  // --- DoTCP fallback (config_.tcp_fallback; dead code otherwise) ---
  /// Receive path with retry deferral: a matched TC=1 answer holds its
  /// payload and opens a TCP retry instead of classifying; everything else
  /// behaves exactly like the default path.
  void on_datagram_fallback(const net::Datagram& d);
  void start_tcp_retry(std::uint64_t packed, net::IPv4Addr target,
                       const net::PayloadRef& held);
  void tcp_retry_failed(std::uint32_t slot);
  void finish_retry(std::uint32_t slot);
  void on_tcp_timeout(std::uint32_t slot, std::uint32_t gen);
  std::uint32_t find_retry(net::ConnId c) const noexcept;
  std::uint32_t find_retry_by_key(std::uint64_t packed) const noexcept;
  // StreamHandler (client side of the retries).
  void on_established(net::ConnId c) override;
  void on_message(net::ConnId c, net::SimTime at,
                  const net::PayloadRef& msg) override;
  void on_closed(net::ConnId c, bool reset) override;

  static constexpr std::uint64_t pack(zone::SubdomainId id) noexcept {
    return (std::uint64_t{id.cluster} << 32) | id.index;
  }
  static constexpr zone::SubdomainId unpack(std::uint64_t key) noexcept {
    return zone::SubdomainId{static_cast<std::uint32_t>(key >> 32),
                             static_cast<std::uint32_t>(key)};
  }

  net::Network& network_;
  net::IPv4Addr addr_;
  ScanConfig config_;
  dns::EncodeBuffer own_scratch_;
  dns::EncodeBuffer& codec_scratch_;
  zone::ClusterManager clusters_;
  CyclicPermutation permutation_;
  RateLimiter limiter_;
  RotateCallback on_rotate_;
  R2Callback on_r2_;
  DoneCallback done_;

  // Packed ids of sent probes in send order; the reap sweep pops expired
  // ones off the head, so unanswered subdomains are released for reuse in
  // send order (see outstanding_ring.h).
  OutstandingRing outstanding_;

  // Pre-encoded probe template: per probe only the transaction id and the
  // two fixed-width digit runs are patched. Ids outside the template's
  // widths (cluster >= 1000, index >= 10^7) take the full
  // make_query/encode path instead, producing identical bytes.
  dns::WireTemplate probe_tpl_;

  // Batched-send staging: per probe only its endpoints and stamp vars,
  // handed to one Network::send_batch call per send event. No bytes are
  // staged: the network calls probe_bytes() for a probe only if it will be
  // delivered or a tap reads it, so a probe into empty address space is
  // never built at all.
  std::vector<net::PacketView> pending_views_;
  std::vector<dns::StampVars> pending_vars_;

  // Pooled retry slots: a free list plus linear scans (the active set is
  // the handful of in-flight retries, and the steady-state path must not
  // touch an allocating map). Slot generations make stale timeout events
  // inert, mirroring StreamNet's connection ids.
  struct TcpRetry {
    std::uint64_t packed = 0;         // the flow's SubdomainId key
    net::IPv4Addr target;             // the truncating resolver
    net::ConnId conn = net::kNilConn;
    net::PayloadRef held;             // the TC=1 UDP answer, kept pooled
    std::uint32_t gen = 0;
    bool active = false;
  };
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  std::vector<TcpRetry> retries_;
  std::vector<std::uint32_t> retry_free_;
  std::size_t retries_active_ = 0;
  std::uint16_t next_tcp_port_ = 49152;  // ephemeral client ports
  bool final_swept_ = false;

  std::uint64_t raw_consumed_ = 0;
  std::uint16_t next_txn_ = 1;
  bool sending_done_ = false;
  bool finished_ = false;
  ScanStats stats_;
  obs::FlowTracer* tracer_ = nullptr;
  /// Next global permutation index the tracer would sample — probes below
  /// it skip the sampling check with a single compare. Indexes only grow
  /// (raw steps are consumed in order), so the cursor re-arms by rounding
  /// the current index up to the next sample_every multiple.
  std::uint64_t next_trace_index_ = 0;
  obs::ShardBeacon* beacon_ = nullptr;
  std::uint64_t peak_outstanding_ = 0;
};

}  // namespace orp::prober
