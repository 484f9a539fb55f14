// Allocation budgets for the hot wire path.
//
// A campaign encodes billions of probes and classifies millions of R2s; the
// per-packet allocation count is the difference between an L1-resident inner
// loop and one that lives in the allocator. These tests override the global
// operator new with a counter and lock the budgets in:
//
//   encode_into (warm per-shard scratch)   0 allocations
//   encode (convenience, fresh buffers)   <= 2 allocations
//   DecodeView::parse                      0 allocations
//   classify_r2, A-record answer           0 allocations
//   classify_r2, TXT/CNAME answer         <= 1 allocation (the answer text)
//
// The counter is process-global, so this file must stay its own test binary
// (orp_test gives every file one).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "analysis/flow.h"
#include "analysis/streaming.h"
#include "dns/builder.h"
#include "dns/codec.h"
#include "dns/decode_view.h"
#include "dns/wire_template.h"
#include "net/capture_store.h"
#include "net/event_loop.h"
#include "net/stream.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "zone/cluster.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

/// Run `f` with counting enabled; returns the number of operator-new calls.
template <typename F>
std::uint64_t count_allocs(F&& f) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  f();
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace

// The replacements stay out of line. Inlined into a container, a malloc
// behind operator new meeting a free behind operator delete (or the other
// way round) looks to GCC like mismatched allocation functions
// (-Wmismatched-new-delete), though the pair is consistent.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace orp {
namespace {

using namespace orp::dns;

zone::SubdomainScheme probe_scheme() {
  return zone::SubdomainScheme(DnsName::must_parse("ucfsealresearch.net"),
                               5'000'000, 7);
}

Message probe_query(const zone::SubdomainScheme& scheme) {
  return make_query(0x4242, scheme.qname({3, 1234567}));
}

Message full_response(const zone::SubdomainScheme& scheme) {
  Message m = probe_query(scheme);
  m.header.flags.qr = true;
  m.header.flags.ra = true;
  m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kA,
                                     RRClass::kIN, 300,
                                     ARdata{net::IPv4Addr(93, 184, 216, 34)}});
  m.authority.push_back(ResourceRecord{
      DnsName::must_parse("ucfsealresearch.net"), RRType::kNS, RRClass::kIN,
      172800, NameRdata{DnsName::must_parse("ns1.ucfsealresearch.net")}});
  m.additional.push_back(ResourceRecord{
      DnsName::must_parse("ns1.ucfsealresearch.net"), RRType::kA, RRClass::kIN,
      172800, ARdata{net::IPv4Addr(45, 76, 18, 21)}});
  return m;
}

// R2Record::payload borrows the caller's wire buffer, so every call site
// must keep `wire` alive for as long as the record is used.
analysis::R2Record record_for(const std::vector<std::uint8_t>& wire) {
  return analysis::R2Record{net::SimTime{}, net::IPv4Addr(8, 8, 8, 8), wire};
}

TEST(AllocBudget, EncodeIntoWarmScratchAllocatesNothing) {
  const auto scheme = probe_scheme();
  const Message query = probe_query(scheme);
  const Message response = full_response(scheme);
  EncodeBuffer scratch;
  (void)encode_into(query, scratch);     // warm the scratch once
  (void)encode_into(response, scratch);
  const auto n = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      (void)encode_into(query, scratch);
      (void)encode_into(response, scratch);
    }
  });
  EXPECT_EQ(n, 0u) << "per-shard scratch must make re-encoding allocation-free";
}

// The template-stamped wire path: once a template is derived and the stamp
// scratch is warm, producing a packet (memcpy + field pokes) and
// recognizing one (segment memcmps) never touch the allocator.
TEST(AllocBudget, TemplateStampAndMatchAllocateNothing) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(
      [&](const StampVars& v) {
        return make_query(v.txn, scheme.qname({v.cluster, v.index}));
      },
      scratch);
  ASSERT_TRUE(tpl.ok());

  StampVars v{0x1111, 3, 1234567, 0, 0};
  (void)tpl.stamp(v, scratch);  // warm the stamp scratch once
  const auto n_stamp = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      v.txn = static_cast<std::uint16_t>(i);
      (void)tpl.stamp(v, scratch);
    }
  });
  EXPECT_EQ(n_stamp, 0u) << "stamping into warm scratch must not allocate";

  const auto wire = tpl.stamp(v, scratch);
  StampVars out;
  const auto n_match = count_allocs([&] {
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(tpl.match(wire, out));
  });
  EXPECT_EQ(n_match, 0u) << "probe recognition must not allocate";
}

TEST(AllocBudget, ConvenienceEncodeStaysWithinTwoAllocations) {
  const auto scheme = probe_scheme();
  const Message query = probe_query(scheme);
  std::uint64_t n = 0;
  std::vector<std::uint8_t> wire;
  n = count_allocs([&] { wire = encode(query); });
  // One allocation for the output vector, one for the compression offsets;
  // both are up-front reserves, so there is no regrowth.
  EXPECT_LE(n, 2u);
  EXPECT_FALSE(wire.empty());
}

TEST(AllocBudget, DecodeViewAllocatesNothing) {
  const auto scheme = probe_scheme();
  const auto wire = encode(full_response(scheme));
  const auto n = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      const DecodeView v = DecodeView::parse(wire);
      ASSERT_TRUE(v.complete());
    }
  });
  EXPECT_EQ(n, 0u) << "DecodeView must borrow the wire buffer, not copy it";
}

TEST(AllocBudget, ClassifyARecordAnswerAllocatesNothing) {
  const auto scheme = probe_scheme();
  const auto wire = encode(full_response(scheme));
  const auto rec = record_for(wire);
  (void)analysis::classify_r2(rec, scheme);  // warm up
  const auto n = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      const auto view = analysis::classify_r2(rec, scheme);
      ASSERT_EQ(view.form, analysis::AnswerForm::kIp);
    }
  });
  EXPECT_EQ(n, 0u) << "the common A-record classify path must not allocate";
}

TEST(AllocBudget, ClassifyTextAnswersAllocateAtMostTheAnswerText) {
  const auto scheme = probe_scheme();

  Message txt = probe_query(scheme);
  txt.header.flags.qr = true;
  txt.answers.push_back(ResourceRecord{
      txt.questions[0].qname, RRType::kTXT, RRClass::kIN, 60,
      TxtRdata{{"a deliberately long garbage answer", "second chunk"}}});
  const auto txt_wire = encode(txt);
  const auto txt_rec = record_for(txt_wire);

  Message url = probe_query(scheme);
  url.header.flags.qr = true;
  url.answers.push_back(ResourceRecord{
      url.questions[0].qname, RRType::kCNAME, RRClass::kIN, 60,
      NameRdata{DnsName::must_parse("u.dcoin.co.long-enough-to-heap.example")}});
  const auto url_wire = encode(url);
  const auto url_rec = record_for(url_wire);

  const auto n_txt =
      count_allocs([&] { (void)analysis::classify_r2(txt_rec, scheme); });
  const auto n_url =
      count_allocs([&] { (void)analysis::classify_r2(url_rec, scheme); });
  EXPECT_LE(n_txt, 1u) << "TXT join must presize and allocate once";
  EXPECT_LE(n_url, 1u) << "URL answer must allocate only the rendered name";
}

TEST(AllocBudget, ClassifyBeatsMaterializingDecodeByTwoX) {
  // The acceptance bar: the DecodeView classify path allocates at most half
  // of what the Message-materializing decode alone used to cost it.
  const auto scheme = probe_scheme();
  Message txt = probe_query(scheme);
  txt.header.flags.qr = true;
  txt.answers.push_back(ResourceRecord{
      txt.questions[0].qname, RRType::kTXT, RRClass::kIN, 60,
      TxtRdata{{"a deliberately long garbage answer", "second chunk"}}});
  const auto wire = encode(txt);
  const auto rec = record_for(wire);

  const auto n_view =
      count_allocs([&] { (void)analysis::classify_r2(rec, scheme); });
  const auto n_materialize =
      count_allocs([&] { (void)decode_partial(rec.payload); });
  EXPECT_GE(n_materialize, 2 * std::max<std::uint64_t>(n_view, 1))
      << "view=" << n_view << " materialize=" << n_materialize;
}

// The tentpole budget: once the payload pool and event heap are warm, a full
// send→schedule→deliver→tap→capture round trip touches the allocator exactly
// zero times per packet.
TEST(AllocBudget, SteadyStateSendDeliverCaptureIsAllocationFree) {
  const auto scheme = probe_scheme();
  const auto wire = encode(probe_query(scheme));

  net::EventLoop loop;
  net::Network net{loop, 1};
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  std::uint64_t handled = 0;
  net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
  net::CaptureStore store;
  store.attach(net, resolver.addr);  // every packet inbound -> digested

  constexpr int kBatch = 256;
  // Warm everything the steady state reuses: pool slabs and free list up to
  // the in-flight high-water mark and the event heap's backing vector. The
  // capture keeps a count and a digest, so it needs no pre-sizing.
  for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
  loop.run();

  const auto n = count_allocs([&] {
    for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
    loop.run();
  });
  EXPECT_EQ(n, 0u) << "warm-pool send->deliver->capture must not allocate";
  EXPECT_EQ(handled, 2u * kBatch);
  EXPECT_EQ(store.packet_count(), 2u * kBatch);
  EXPECT_EQ(net.pool().slab_count(), static_cast<std::size_t>(kBatch));
}

// The scanner's send shape: one send_batch of 64 probes into unbound space
// and one to a bound resolver, with the prober vantage's capture tapped in
// and a payload_of that stamps the probe template into warm scratch. Once
// the pool and event heap are warm, the batch — staging
// nothing but endpoints, building only the delivered probe's bytes — never
// touches the allocator.
TEST(AllocBudget, WarmScannerShapedSendBatchAllocatesNothing) {
  const auto scheme = probe_scheme();
  EncodeBuffer scratch;
  const WireTemplate tpl = WireTemplate::derive(
      [&](const StampVars& v) {
        return make_query(v.txn, scheme.qname({v.cluster, v.index}));
      },
      scratch);
  ASSERT_TRUE(tpl.ok());

  net::EventLoop loop;
  net::Network net{loop, 1};
  const net::Endpoint prober{net::IPv4Addr(1, 1, 1, 1), 54321};
  const net::Endpoint resolver{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  std::uint64_t handled = 0;
  net.bind(resolver, [&handled](const net::Datagram&) { ++handled; });
  net::CaptureStore store;
  store.attach(net, prober.addr);  // outbound probes: counted, not built

  std::vector<net::PacketView> pkts;
  std::vector<StampVars> vars;
  for (std::uint32_t i = 0; i < 65; ++i) {
    const net::Endpoint dst =
        i == 32 ? resolver
                : net::Endpoint{net::IPv4Addr(0x0B000000u + i * 7919u),
                                net::kDnsPort};
    pkts.push_back({prober, dst});
    vars.push_back(StampVars{static_cast<std::uint16_t>(i + 1), 3,
                             1000000 + i, 0, 0});
  }
  std::uint64_t built = 0;
  const auto payload_of = [&](std::size_t i) {
    ++built;
    return tpl.stamp(vars[i], scratch);
  };
  net.send_batch(pkts, payload_of);  // warm pool and event heap
  loop.run();

  const auto n = count_allocs([&] {
    for (int round = 0; round < 100; ++round) {
      net.send_batch(pkts, payload_of);
      loop.run();
    }
  });
  EXPECT_EQ(n, 0u) << "a warm scanner-shaped send_batch must not allocate";
  EXPECT_EQ(built, 101u);  // one delivered probe per batch, nothing else
  EXPECT_EQ(handled, 101u);
  EXPECT_EQ(net.dropped_unbound(), 101u * 64);
  EXPECT_EQ(store.packet_count(), 101u * 65);
}

// The same round trip with the observability layer attached: per-event
// metric updates are slot-array increments against a pre-registered schema,
// so instrumentation must not move the zero-allocation budget at all.
TEST(AllocBudget, InstrumentedSteadyStatePathIsStillAllocationFree) {
  const auto scheme = probe_scheme();
  const auto wire = encode(probe_query(scheme));

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

  constexpr int kBatch = 256;
  for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
  loop.run();

  const auto n = count_allocs([&] {
    for (int i = 0; i < kBatch; ++i) net.send(prober, resolver, wire);
    loop.run();
  });
  EXPECT_EQ(n, 0u) << "metric increments must never touch the allocator";
  const obs::Builtin& b = obs::builtin();
  EXPECT_EQ(metrics.counter(b.loop_events_run), 2u * kBatch);
  EXPECT_GE(metrics.gauge(b.loop_queue_peak), static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(metrics.histogram_count(b.loop_time_in_queue_us), 2u * kBatch);
}

// The tracer's per-packet fast path (the membership probe every downstream
// vantage runs, plus appending a span record into the reserved arena) must
// also stay off the allocator; only marking a *new* sampled flow may pay the
// hash-set node.
TEST(AllocBudget, TracerRecordPathIsAllocationFree) {
  obs::FlowTracer tracer(/*sample_every=*/1);
  tracer.reserve(/*flows=*/16, /*records=*/1024);
  tracer.begin_flow(0x1234, 0, net::SimTime::seconds(1), 0x01020304);

  const auto n = count_allocs([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(tracer.marked(0x1234));
      ASSERT_FALSE(tracer.marked(0x9999));
      tracer.record(0x1234, obs::SpanPoint::kQ2Auth,
                    net::SimTime::seconds(2), 0x05060708);
    }
  });
  EXPECT_EQ(n, 0u) << "marked() + record() into a reserved arena must be free";
  EXPECT_EQ(tracer.records().size(), 201u);
}

// Heterogeneous map keys: grouping an auth-side packet into an existing flow
// probes the map with a stack-buffer canonical key, never a heap string.
TEST(AllocBudget, FlowGrouperAuthPacketLookupIsAllocationFree) {
  const auto scheme = probe_scheme();
  analysis::FlowGrouper grouper(scheme);
  grouper.add_probe(scheme.qname({3, 1234567}), net::IPv4Addr(5, 5, 5, 5));
  const auto wire = encode(probe_query(scheme));  // same qname as the probe
  grouper.add_auth_packet(wire, true);  // warm
  const auto n = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      grouper.add_auth_packet(wire, true);
      grouper.add_auth_packet(wire, false);
    }
  });
  EXPECT_EQ(n, 0u) << "flow lookups must not materialize key strings";
  EXPECT_EQ(grouper.flows().size(), 1u);
}

// The streaming-analysis budget: once every distinct value in the stream
// has been seen (the scratch view's text capacity is warm, the exemplars
// are set, the distinct-value sets contain their keys), classifying and
// folding an R2 into the shard's PartialTables is allocation-free. This is
// what lets the capture-time path replace the O(probes) view buffer
// without moving the per-packet cost.
TEST(AllocBudget, StreamingClassifyAndObserveAllocatesNothingSteadyState) {
  const auto scheme = probe_scheme();
  const intel::ThreatDb threats;  // empty: the common (benign) case
  intel::GeoDb geo;
  geo.build();
  intel::OrgDb orgs;
  orgs.build();
  analysis::StreamingAnalyzer analyzer(scheme, threats, geo, orgs);

  // Three steady-state shapes: a correct A answer (the overwhelmingly
  // common case), a repeated wrong A answer, and a repeated TXT answer.
  Message correct = probe_query(scheme);
  correct.header.flags.qr = true;
  correct.header.flags.ra = true;
  correct.answers.push_back(
      ResourceRecord{correct.questions[0].qname, RRType::kA, RRClass::kIN,
                     300, ARdata{scheme.ground_truth({3, 1234567})}});
  const auto correct_wire = encode(correct);

  Message wrong = probe_query(scheme);
  wrong.header.flags.qr = true;
  wrong.answers.push_back(ResourceRecord{wrong.questions[0].qname, RRType::kA,
                                         RRClass::kIN, 300,
                                         ARdata{net::IPv4Addr(203, 0, 113, 5)}});
  const auto wrong_wire = encode(wrong);

  Message txt = probe_query(scheme);
  txt.header.flags.qr = true;
  txt.answers.push_back(ResourceRecord{
      txt.questions[0].qname, RRType::kTXT, RRClass::kIN, 60,
      TxtRdata{{"a deliberately long garbage answer", "second chunk"}}});
  const auto txt_wire = encode(txt);

  const net::IPv4Addr resolver(8, 8, 8, 8);
  // Warm: first sight of each distinct wrong IP / text pays its set node
  // and the scratch view's text capacity; nothing after that may.
  analyzer.on_r2(net::SimTime{}, resolver, correct_wire);
  analyzer.on_r2(net::SimTime{}, resolver, wrong_wire);
  analyzer.on_r2(net::SimTime{}, resolver, txt_wire);

  const auto n = count_allocs([&] {
    for (int i = 0; i < 100; ++i) {
      analyzer.on_r2(net::SimTime{}, resolver, correct_wire);
      analyzer.on_r2(net::SimTime{}, resolver, wrong_wire);
      analyzer.on_r2(net::SimTime{}, resolver, txt_wire);
    }
  });
  EXPECT_EQ(n, 0u) << "per-R2 streaming classify+observe must not allocate";

  const analysis::PartialTables& t = analyzer.tables();
  EXPECT_EQ(t.r2_total, 303u);
  EXPECT_EQ(t.answers.correct, 101u);
  EXPECT_EQ(t.answers.incorrect, 202u);
  EXPECT_EQ(t.wrong_ip_counts.size(), 1u);
  EXPECT_EQ(t.unique_strings.size(), 1u);
}

// Exemplar replacement is the one arrival-order-dependent moment in the
// stream; even it stays off the allocator when the replacement text fits
// the capacity already banked in the slot.
TEST(AllocBudget, ExemplarOfferWithWarmCapacityAllocatesNothing) {
  analysis::TextExemplar ex;
  std::string long_text(64, 'a');
  std::string short_text(32, 'b');
  ASSERT_TRUE(ex.offer(200, long_text));  // banks 64 bytes of capacity
  const auto n = count_allocs([&] {
    ASSERT_TRUE(ex.offer(100, short_text));   // smaller resolver replaces
    ASSERT_FALSE(ex.offer(150, long_text));   // larger resolver does not
  });
  EXPECT_EQ(n, 0u) << "replacement within banked capacity must be free";
  EXPECT_EQ(ex.text, short_text);
  EXPECT_EQ(ex.resolver, 100u);
}

// The stream-transport budget: on an established connection, the whole
// send → segment → deliver → reassemble round (length prefix, MSS split,
// ordered arrival, message re-slab) reuses pool slabs, the warm reassembly
// buffer, and the warm event heap — zero allocations per message.
namespace stream_budget {

struct CountingServer : net::StreamHandler {
  std::uint64_t received = 0;
  std::uint64_t bytes = 0;
  void on_message(net::ConnId, net::SimTime,
                  const net::PayloadRef& m) override {
    ++received;
    bytes += m.span().size();
  }
};

struct QuietClient : net::StreamHandler {
  bool up = false;
  void on_established(net::ConnId) override { up = true; }
  void on_message(net::ConnId, net::SimTime, const net::PayloadRef&) override {}
};

}  // namespace stream_budget

TEST(AllocBudget, StreamSteadyStateMessagesAllocateNothing) {
  net::EventLoop loop;
  net::Network net{loop, 1};
  net::StreamNet& streams = net.streams();
  streams.set_mss(128);  // a 500-byte message splits into 4 segments

  const net::Endpoint client{net::IPv4Addr(1, 1, 1, 1), 49152};
  const net::Endpoint server{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  stream_budget::CountingServer srv;
  stream_budget::QuietClient cli;
  streams.listen(server, &srv);
  const net::ConnId c = streams.connect(client, server, &cli);
  loop.run();
  ASSERT_TRUE(cli.up);

  // One warm batch covers the in-flight high-water mark: segment slabs and
  // message slabs land in separate capacity classes of the pool's free
  // list (see BufferPool), the event heap's backing grows once, and the
  // peer's reassembly buffer banks its capacity.
  constexpr int kBatch = 256;
  const std::vector<std::uint8_t> msg(500, 0xAB);
  for (int i = 0; i < kBatch; ++i) ASSERT_TRUE(streams.send_message(c, msg));
  loop.run();
  ASSERT_EQ(srv.received, static_cast<std::uint64_t>(kBatch));

  const auto n = count_allocs([&] {
    for (int i = 0; i < kBatch; ++i) ASSERT_TRUE(streams.send_message(c, msg));
    loop.run();
  });
  EXPECT_EQ(n, 0u)
      << "warm send->segment->deliver->reassemble must not allocate";
  EXPECT_EQ(srv.received, 2u * kBatch);
  EXPECT_EQ(srv.bytes, 2u * kBatch * msg.size());
}

// Connection lifecycle from pools only: once one connect/close cycle has
// populated the slot free list and the event heap, every further handshake,
// message, and orderly close stays off the allocator, and the slot
// high-water mark does not move.
TEST(AllocBudget, StreamConnectionSetupComesFromPoolsOnly) {
  net::EventLoop loop;
  net::Network net{loop, 1};
  net::StreamNet& streams = net.streams();

  const net::Endpoint client{net::IPv4Addr(1, 1, 1, 1), 49152};
  const net::Endpoint server{net::IPv4Addr(2, 2, 2, 2), net::kDnsPort};
  stream_budget::CountingServer srv;
  stream_budget::QuietClient cli;
  streams.listen(server, &srv);

  const std::vector<std::uint8_t> msg(100, 0x42);
  const auto cycle = [&] {
    const net::ConnId c = streams.connect(client, server, &cli);
    loop.run();
    ASSERT_TRUE(streams.established(c));
    ASSERT_TRUE(streams.send_message(c, msg));
    streams.close(c);
    loop.run();
  };
  // A few warm cycles: slots, scratch, reassembly capacity, heap backing,
  // and slab-capacity promotion through the shared free list (see the
  // steady-state test above).
  for (int i = 0; i < 4; ++i) cycle();
  const std::size_t slots = streams.conn_slots();

  const auto n = count_allocs([&] {
    for (int i = 0; i < 32; ++i) cycle();
  });
  EXPECT_EQ(n, 0u) << "recycled connection records must serve every cycle";
  EXPECT_EQ(streams.conn_slots(), slots) << "no new slots after warm-up";
  EXPECT_EQ(streams.active_conns(), 0u);
  EXPECT_EQ(srv.received, 36u);
}

TEST(AllocBudget, ProbeNameGenerationAndKeyAreSingleAllocations) {
  const auto scheme = probe_scheme();
  DnsName name = scheme.qname({3, 1234567});
  const auto n_gen =
      count_allocs([&] { (void)scheme.qname(zone::SubdomainId{4, 7}); });
  const auto n_key = count_allocs([&] { (void)name.canonical_key(); });
  EXPECT_LE(n_gen, 1u) << "flat-name qname synthesis must build in place";
  EXPECT_LE(n_key, 1u);
}

}  // namespace
}  // namespace orp
