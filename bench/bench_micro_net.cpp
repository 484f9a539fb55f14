// Microbenchmarks: the simulation core's per-packet cost — event scheduling,
// datagram delivery, and capture, the loop under all 3.7B probes and 76M
// responses of a full-scale campaign.
//
// Besides the google-benchmark suite, the binary measures ns/packet and
// allocations/packet on both the pre-refactor core ("before": std::function
// actions in a std::priority_queue, per-hop std::vector payload copies,
// per-record capture buffers — retained here as a reference implementation)
// and the pooled core ("after": fixed-budget InlineAction on an explicit
// binary heap, recycled PayloadRef slabs, a capture that keeps a count and a
// digest), and writes BENCH_net.json so the delta is machine-readable. The
// two sides of each row are timed in alternating repetitions. One more pair
// times a batch of probes into unbound space on a fresh network against
// one whose resolvers have bound and unbound ephemeral ports, which must
// cost the same (the bound-endpoint filter is keyed by address).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_host.h"
#include "dns/builder.h"
#include "dns/codec.h"
#include "net/capture_store.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"
#include "zone/cluster.h"

// ---- allocation counter ---------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace orp;

std::vector<std::uint8_t> probe_wire() {
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  return dns::encode(dns::make_query(0x4242, scheme.qname({3, 1234567})));
}

// ---- the pre-refactor core, retained as the "before" reference ------------
//
// This is the simulation core as it stood before the zero-allocation rework:
// every scheduled event boxed its closure in a std::function, the queue was a
// std::priority_queue (whose const top() forced a const_cast to move events
// out), each network hop carried its payload in a per-datagram std::vector,
// and the capture copied every retained payload into a fresh buffer. The
// behavior is identical to the current core (test_net.cpp pins the event
// ordering; the capture digest is unchanged) — only the allocation profile
// differs, which is exactly what this bench exists to show.

class LegacyLoop {
 public:
  using Action = std::function<void()>;

  net::SimTime now() const noexcept { return now_; }

  void schedule_in(net::SimTime delay, Action action) {
    net::SimTime at = now_ + delay;
    if (at < now_) at = now_;
    queue_.push(Event{at, next_seq_++, std::move(action)});
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      now_ = top.at;
      Action action = std::move(const_cast<Event&>(top).action);
      queue_.pop();
      action();
      ++n;
    }
    return n;
  }

 private:
  struct Event {
    net::SimTime at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return b.at < a.at;
      return b.seq < a.seq;
    }
  };

  net::SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

struct LegacyDatagram {
  net::Endpoint src;
  net::Endpoint dst;
  std::vector<std::uint8_t> payload;
};

class LegacyNetwork {
 public:
  using Handler = std::function<void(const LegacyDatagram&)>;
  using Tap = std::function<void(net::SimTime, const LegacyDatagram&)>;

  explicit LegacyNetwork(LegacyLoop& loop, std::uint64_t seed = 1)
      : loop_(loop), rng_(seed) {}

  void bind(net::Endpoint ep, Handler handler) {
    handlers_[key(ep)] = std::move(handler);
  }
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  void send(LegacyDatagram d) {
    for (const auto& tap : taps_) tap(loop_.now(), d);
    if (handlers_.find(key(d.dst)) == handlers_.end()) return;
    const net::SimTime delay =
        latency_.base +
        net::SimTime::nanos(static_cast<std::int64_t>(rng_.bounded(
            static_cast<std::uint64_t>(latency_.jitter.as_nanos()))));
    loop_.schedule_in(delay, [this, d = std::move(d)]() {
      auto it = handlers_.find(key(d.dst));
      if (it == handlers_.end()) return;
      Handler h = it->second;
      h(d);
    });
  }

 private:
  static std::uint64_t key(net::Endpoint e) noexcept {
    return (std::uint64_t{e.addr.value()} << 16) | e.port;
  }

  LegacyLoop& loop_;
  util::Rng rng_;
  net::LatencyModel latency_{};
  std::unordered_map<std::uint64_t, Handler> handlers_;
  std::vector<Tap> taps_;
};

/// The pre-arena capture: one owning payload vector per retained record.
class LegacyCapture {
 public:
  struct Record {
    net::SimTime time;
    net::Endpoint src;
    net::Endpoint dst;
    std::vector<std::uint8_t> payload;
  };

  void retain(net::SimTime t, const LegacyDatagram& d) {
    digest_ += util::mix64(util::Fnv1a()
                               .word_bytes(d.src.addr.value())
                               .word_bytes(d.src.port)
                               .word_bytes(d.dst.addr.value())
                               .word_bytes(d.dst.port)
                               .bytes(d.payload)
                               .value());
    records_.push_back(Record{t, d.src, d.dst, d.payload});
  }

  std::size_t size() const noexcept { return records_.size(); }
  std::uint64_t digest() const noexcept { return digest_; }
  void clear() {
    records_.clear();
    digest_ = 0;
  }

 private:
  std::vector<Record> records_;
  std::uint64_t digest_ = 0;
};

// ---- google-benchmark suite (current core only) ---------------------------

void BM_ScheduleFire(benchmark::State& state) {
  net::EventLoop loop;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      loop.schedule_in(net::SimTime::micros(i), [&fired] { ++fired; });
    loop.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ScheduleFire);

void BM_SendDeliver(benchmark::State& state) {
  const auto wire = probe_wire();
  net::EventLoop loop;
  net::Network net{loop, 1};
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  std::uint64_t handled = 0;
  net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) net.send(prober, resolver, wire);
    loop.run();
  }
  benchmark::DoNotOptimize(handled);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SendDeliver);

void BM_SendDeliverTapCapture(benchmark::State& state) {
  const auto wire = probe_wire();
  net::EventLoop loop;
  net::Network net{loop, 1};
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  std::uint64_t handled = 0;
  net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
  net::CaptureStore store;
  store.attach(net, resolver.addr);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) net.send(prober, resolver, wire);
    loop.run();
  }
  benchmark::DoNotOptimize(handled);
  benchmark::DoNotOptimize(store.packet_count());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SendDeliverTapCapture);

/// The same full path with the metrics registry attached to the loop — the
/// per-event cost of the observability layer (acceptance: < 5% overhead).
void BM_SendDeliverTapCaptureMetrics(benchmark::State& state) {
  const auto wire = probe_wire();
  net::EventLoop loop;
  obs::Metrics metrics(obs::builtin().schema);
  loop.set_metrics(&metrics);
  net::Network net{loop, 1};
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  std::uint64_t handled = 0;
  net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
  net::CaptureStore store;
  store.attach(net, resolver.addr);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) net.send(prober, resolver, wire);
    loop.run();
  }
  benchmark::DoNotOptimize(handled);
  benchmark::DoNotOptimize(store.packet_count());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SendDeliverTapCaptureMetrics);

// ---- before/after alloc+latency table ------------------------------------

struct PacketCost {
  double ns = 0;
  double allocs = 0;
};

/// One timed pass of `iters` calls of `f`: wall nanoseconds and the
/// allocations made during it.
template <typename F>
std::pair<double, std::uint64_t> timed_pass(int iters, F& f) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  g_counting.store(false, std::memory_order_relaxed);
  return {std::chrono::duration<double, std::nano>(t1 - t0).count(),
          g_alloc_count.load(std::memory_order_relaxed)};
}

/// Timed passes per side of a measure_pair() row.
constexpr int kPasses = 21;

/// Per-packet cost of two implementations of one operation, each call of
/// which moves `batch` packets (or events). The sides alternate pass by
/// pass, in ABBA order, so a change in host load lands on both rather than
/// on whichever side happened to run during it. Wall time is the best of
/// kPasses short passes per side; allocations are exact, averaged over the
/// passes.
template <typename A, typename B>
std::pair<PacketCost, PacketCost> measure_pair(int iters, int batch, A&& a,
                                               B&& b) {
  a();  // warm pools, heap storage, and handler maps before the clock starts
  b();
  double best[2] = {0, 0};
  std::uint64_t allocs[2] = {0, 0};
  const auto record = [&](int side, std::pair<double, std::uint64_t> t) {
    if (best[side] == 0 || t.first < best[side]) best[side] = t.first;
    allocs[side] += t.second;
  };
  for (int pass = 0; pass < kPasses; ++pass) {
    if (pass % 2 == 0) {
      record(0, timed_pass(iters, a));
      record(1, timed_pass(iters, b));
    } else {
      record(1, timed_pass(iters, b));
      record(0, timed_pass(iters, a));
    }
  }
  const double per = static_cast<double>(iters) * batch;
  const auto cost = [&](int side) {
    return PacketCost{best[side] / per,
                      static_cast<double>(allocs[side]) / (per * kPasses)};
  };
  return {cost(0), cost(1)};
}

void write_bench_net_json(const char* path) {
  constexpr int kIters = 600;
  constexpr int kBatch = 256;
  const auto wire = probe_wire();
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};

  struct Row {
    const char* op;
    PacketCost before, after;
  };
  std::vector<Row> rows;

  {  // event scheduling alone: closure storage + queue maintenance
    LegacyLoop legacy_loop;
    net::EventLoop loop;
    std::uint64_t fired = 0;
    const auto [before, after] = measure_pair(
        kIters, kBatch,
        [&] {
          for (int i = 0; i < kBatch; ++i)
            legacy_loop.schedule_in(net::SimTime::micros(i),
                                    [&fired] { ++fired; });
          legacy_loop.run();
        },
        [&] {
          for (int i = 0; i < kBatch; ++i)
            loop.schedule_in(net::SimTime::micros(i), [&fired] { ++fired; });
          loop.run();
        });
    rows.push_back({"event_schedule_fire", before, after});
  }

  {  // heap churn: interleaved deadlines with 4-deep same-deadline runs —
     // every pop walks a full leaf path and every drain crosses a batch of
     // equal timestamps, the pattern the Floyd pop + batch-drain rework
     // targets (the plain ascending case above barely exercises either).
    LegacyLoop legacy_loop;
    net::EventLoop loop;
    std::uint64_t fired = 0;
    const auto churn_deadline = [](int i) {
      return net::SimTime::micros((i * 37) % (kBatch / 4));
    };
    const auto [before, after] = measure_pair(
        kIters, kBatch,
        [&] {
          for (int i = 0; i < kBatch; ++i)
            legacy_loop.schedule_in(churn_deadline(i), [&fired] { ++fired; });
          legacy_loop.run();
        },
        [&] {
          for (int i = 0; i < kBatch; ++i)
            loop.schedule_in(churn_deadline(i), [&fired] { ++fired; });
          loop.run();
        });
    rows.push_back({"event_heap_churn", before, after});
  }

  {  // delivery without capture: payload buffers + delivery closures
    LegacyLoop legacy_loop;
    LegacyNetwork legacy_net{legacy_loop, 1};
    std::uint64_t handled = 0;
    legacy_net.bind(resolver, [&handled](const LegacyDatagram&) { ++handled; });
    net::EventLoop loop;
    net::Network net{loop, 1};
    net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
    const auto [before, after] = measure_pair(
        kIters, kBatch,
        [&] {
          for (int i = 0; i < kBatch; ++i)
            legacy_net.send(LegacyDatagram{prober, resolver, wire});
          legacy_loop.run();
        },
        [&] {
          for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
          loop.run();
        });
    rows.push_back({"send_deliver", before, after});
  }

  {  // the full steady-state path the campaign lives in: every accepted
     // packet is tapped into the capture, and the receiver reads each
     // delivered response (the legacy one copied and kept every R2)
    LegacyLoop legacy_loop;
    LegacyNetwork legacy_net{legacy_loop, 1};
    struct LegacyR2 {
      net::SimTime time;
      net::IPv4Addr resolver;
      std::vector<std::uint8_t> payload;  // one owning buffer per response
    };
    std::vector<LegacyR2> legacy_responses;
    legacy_net.bind(resolver, [&](const LegacyDatagram& d) {
      legacy_responses.push_back(LegacyR2{legacy_loop.now(), d.src.addr,
                                          d.payload});
    });
    LegacyCapture legacy_cap;
    legacy_net.add_tap([&](net::SimTime t, const LegacyDatagram& d) {
      if (d.dst.addr == resolver.addr) legacy_cap.retain(t, d);
    });
    // Today's receiver and capture keep nothing: the scanner hands each R2
    // to its callback, which reads the pooled delivery buffer in place, and
    // the capture keeps a count and a digest.
    net::EventLoop loop;
    net::Network net{loop, 1};
    std::uint64_t consumed = 0;
    net.bind(resolver, [&consumed](const net::Datagram& d) {
      consumed += d.payload.size();
    });
    net::CaptureStore store;
    store.attach(net, resolver.addr);
    const auto [before, after] = measure_pair(
        kIters, kBatch,
        [&] {
          legacy_cap.clear();
          legacy_responses.clear();
          for (int i = 0; i < kBatch; ++i)
            legacy_net.send(LegacyDatagram{prober, resolver, wire});
          legacy_loop.run();
        },
        [&] {
          for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
          loop.run();
        });
    rows.push_back({"send_deliver_tap_capture", before, after});
  }

  // The observability tax on the same full path: two identical stacks, but
  // the second loop records into an attached Metrics instance (per-event
  // counter bump, time-in-queue histogram observe, queue-peak gauge on
  // schedule).
  PacketCost plain, instrumented;
  {
    struct Stack {
      net::EventLoop loop;
      net::Network net{loop, 1};
      net::CaptureStore store;
      std::uint64_t handled = 0;
    };
    Stack stacks[2];
    for (Stack& st : stacks) {
      st.net.bind(resolver, [&st](const net::Datagram&) { ++st.handled; });
      st.store.attach(st.net, resolver.addr);
    }
    obs::Metrics metrics(obs::builtin().schema);
    stacks[1].loop.set_metrics(&metrics);
    const auto pass = [&](Stack& st) {
      for (int i = 0; i < kBatch; ++i) st.net.send(prober, resolver, wire);
      st.loop.run();
    };
    std::tie(plain, instrumented) =
        measure_pair(kIters, kBatch, [&] { pass(stacks[0]); },
                     [&] { pass(stacks[1]); });
  }
  const double metrics_overhead_pct =
      (instrumented.ns - plain.ns) / plain.ns * 100.0;

  // Port churn against the bound-endpoint filter. Both networks bind the
  // same resolver addresses at :53; the churned one then binds and unbinds
  // one ephemeral port per upstream query, as often as a campaign's
  // resolvers do, and unbind never clears a filter bit. A batch of probes
  // into unbound space must cost the same on both: the filter is keyed by
  // address, so ephemeral ports on an already-bound address set no bit.
  constexpr int kResolvers = 4096;
  constexpr int kEphemeralBinds = 156'000;
  PacketCost fresh_cost, churned_cost;
  {
    struct Stack {
      net::EventLoop loop;
      net::Network net{loop, 1};
    };
    Stack stacks[2];
    const auto resolver_addr = [](int r) {
      return net::IPv4Addr(
          static_cast<std::uint32_t>(util::mix64(0x5EED0000u + r)));
    };
    for (Stack& st : stacks)
      for (int r = 0; r < kResolvers; ++r)
        st.net.bind({resolver_addr(r), net::kDnsPort},
                    [](const net::Datagram&) {});
    for (int q = 0; q < kEphemeralBinds; ++q) {
      const net::Endpoint ep{resolver_addr(q % kResolvers),
                             static_cast<std::uint16_t>(1024 + q % 60000)};
      stacks[1].net.bind(ep, [](const net::Datagram&) {});
      stacks[1].net.unbind(ep);
    }
    std::vector<net::PacketView> unbound;
    for (int i = 0; i < kBatch; ++i)
      unbound.push_back(
          {prober,
           {net::IPv4Addr(static_cast<std::uint32_t>(util::mix64(i))),
            net::kDnsPort}});
    const auto payload_of = [&wire](std::size_t) {
      return std::span<const std::uint8_t>(wire);
    };
    const auto pass = [&](Stack& st) {
      st.net.send_batch(unbound, payload_of);
      st.loop.run();
    };
    std::tie(fresh_cost, churned_cost) =
        measure_pair(kIters, kBatch, [&] { pass(stacks[0]); },
                     [&] { pass(stacks[1]); });
    if (stacks[0].net.delivered() + stacks[1].net.delivered() != 0)
      std::fprintf(stderr, "churn row: a probe hit a bound resolver\n");
  }
  const double churn_ratio = churned_cost.ns / fresh_cost.ns;
  std::printf("%-26s fresh  %8.1f ns %6.2f allocs | churned %7.1f ns "
              "%6.2f allocs (%.2fx)\n",
              "send_unbound_after_churn", fresh_cost.ns, fresh_cost.allocs,
              churned_cost.ns, churned_cost.allocs, churn_ratio);
  std::printf("%-26s plain  %8.1f ns %6.2f allocs | metrics %7.1f ns "
              "%6.2f allocs (%.1f%% overhead)\n",
              "metrics_on_full_path", plain.ns, plain.allocs, instrumented.ns,
              instrumented.allocs, metrics_overhead_pct);

  std::string json =
      "{\n  \"bench\": \"net_alloc\",\n  " + bench::host_json_fields() +
      ",\n  \"iters\": " + std::to_string(kIters) +
      ",\n  \"batch\": " + std::to_string(kBatch) +
      ",\n  \"unit\": \"per delivered packet\","
      "\n  \"timing\": \"best of " + std::to_string(kPasses) +
      " passes per side, sides alternating ABBA\","
      "\n  \"before\": \"std::function + priority_queue / vector payloads / "
      "per-record capture buffers\","
      "\n  \"after\": \"InlineAction + binary heap / pooled PayloadRef / "
      "count + digest capture\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"before_ns\": %.1f, "
                  "\"before_allocs\": %.2f, \"after_ns\": %.1f, "
                  "\"after_allocs\": %.2f, \"speedup\": %.2f}%s\n",
                  r.op, r.before.ns, r.before.allocs, r.after.ns,
                  r.after.allocs, r.before.ns / r.after.ns,
                  i + 1 == rows.size() ? "" : ",");
    json += line;
    std::printf("%-26s before %8.1f ns %6.2f allocs | after %8.1f ns "
                "%6.2f allocs\n",
                r.op, r.before.ns, r.before.allocs, r.after.ns,
                r.after.allocs);
  }
  char obs_line[640];
  std::snprintf(obs_line, sizeof(obs_line),
                "  ],\n  \"metrics_on_full_path\": {\"plain_ns\": %.1f, "
                "\"instrumented_ns\": %.1f, \"instrumented_allocs\": %.2f, "
                "\"overhead_pct\": %.1f},\n"
                "  \"send_unbound_after_churn\": {\"resolvers\": %d, "
                "\"ephemeral_binds\": %d, \"fresh_ns\": %.1f, "
                "\"churned_ns\": %.1f, \"churned_allocs\": %.2f, "
                "\"ratio\": %.2f}\n}\n",
                plain.ns, instrumented.ns, instrumented.allocs,
                metrics_overhead_pct, kResolvers, kEphemeralBinds,
                fresh_cost.ns, churned_cost.ns, churned_cost.allocs,
                churn_ratio);
  json += obs_line;
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_net_json("BENCH_net.json");
  return 0;
}
