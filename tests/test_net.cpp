#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/buffer_pool.h"
#include "net/capture.h"
#include "net/capture_store.h"
#include "net/event_loop.h"
#include "net/ipv4.h"
#include "net/reserved.h"
#include "net/sim_time.h"
#include "net/transport.h"

namespace orp::net {
namespace {

// ---- IPv4Addr ----------------------------------------------------------------

TEST(IPv4Addr, FormatAndParseRoundTrip) {
  for (const char* s : {"0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.0.1",
                        "192.168.1.254", "132.170.3.44"}) {
    const auto parsed = IPv4Addr::parse(s);
    ASSERT_TRUE(parsed.has_value()) << s;
    EXPECT_EQ(parsed->to_string(), s);
  }
}

TEST(IPv4Addr, RejectsMalformed) {
  for (const char* s : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x",
                        "01.2.3.4", " 1.2.3.4", "1.2.3.4 ", "-1.2.3.4"}) {
    EXPECT_FALSE(IPv4Addr::parse(s).has_value()) << s;
  }
}

TEST(IPv4Addr, OctetAccess) {
  const IPv4Addr a(192, 168, 1, 254);
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(3), 254);
  EXPECT_EQ(a.value(), 0xC0A801FEu);
}

TEST(IPv4Addr, Ordering) {
  EXPECT_LT(IPv4Addr(1, 0, 0, 0), IPv4Addr(2, 0, 0, 0));
  EXPECT_EQ(IPv4Addr(0x01020304), IPv4Addr(1, 2, 3, 4));
}

// ---- Prefix --------------------------------------------------------------------

TEST(Prefix, ContainsAndSize) {
  const Prefix p(IPv4Addr(192, 168, 0, 0), 16);
  EXPECT_TRUE(p.contains(IPv4Addr(192, 168, 255, 255)));
  EXPECT_FALSE(p.contains(IPv4Addr(192, 169, 0, 0)));
  EXPECT_EQ(p.size(), 65536u);
}

TEST(Prefix, MasksBaseDown) {
  const Prefix p(IPv4Addr(10, 20, 30, 40), 8);
  EXPECT_EQ(p.base(), IPv4Addr(10, 0, 0, 0));
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const Prefix p(IPv4Addr(1, 2, 3, 4), 0);
  EXPECT_TRUE(p.contains(IPv4Addr(255, 255, 255, 255)));
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
}

TEST(Prefix, ParseRoundTrip) {
  const auto p = Prefix::parse("198.18.0.0/15");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "198.18.0.0/15");
  EXPECT_FALSE(Prefix::parse("1.2.3.4").has_value());
  EXPECT_FALSE(Prefix::parse("1.2.3.4/33").has_value());
  EXPECT_FALSE(Prefix::parse("bogus/8").has_value());
}

TEST(PrivateAddress, Rfc1918AndCgn) {
  EXPECT_TRUE(is_private_address(IPv4Addr(10, 0, 0, 1)));
  EXPECT_TRUE(is_private_address(IPv4Addr(172, 30, 1, 254)));
  EXPECT_TRUE(is_private_address(IPv4Addr(192, 168, 2, 1)));
  EXPECT_TRUE(is_private_address(IPv4Addr(100, 64, 0, 1)));
  EXPECT_FALSE(is_private_address(IPv4Addr(8, 8, 8, 8)));
  EXPECT_FALSE(is_private_address(IPv4Addr(172, 32, 0, 1)));
}

// ---- Reserved ranges (Table I) -------------------------------------------------

TEST(Reserved, TableHasSixteenBlocks) {
  EXPECT_EQ(reserved_blocks().size(), 16u);
}

TEST(Reserved, BlockSumMatchesRecomputedTotal) {
  std::uint64_t total = 0;
  for (const auto& b : reserved_blocks()) total += b.prefix.size();
  EXPECT_EQ(total, reserved_address_count());
  EXPECT_EQ(total, 592708865ULL);
}

TEST(Reserved, PaperTotalIsShortByExactlyOneSlashEight) {
  EXPECT_EQ(reserved_address_count() - paper_table1_total(), 16777216ULL);
}

TEST(Reserved, ProbeableMatchesPaperQ1) {
  // The 2018 Q1 count of Table II is exactly the non-reserved space.
  EXPECT_EQ(probeable_address_count(), 3702258432ULL);
}

struct ReservedCase {
  const char* member;
  const char* outside;
};

// Print the member address rather than gtest's byte dump of the two string
// pointers, which would name the test differently on every run.
void PrintTo(const ReservedCase& c, std::ostream* os) { *os << c.member; }

class ReservedMembership : public ::testing::TestWithParam<ReservedCase> {};

TEST_P(ReservedMembership, MemberInOutsideOut) {
  const auto& c = GetParam();
  EXPECT_TRUE(is_reserved(*IPv4Addr::parse(c.member))) << c.member;
  EXPECT_FALSE(is_reserved(*IPv4Addr::parse(c.outside))) << c.outside;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, ReservedMembership,
    ::testing::Values(ReservedCase{"0.255.255.255", "1.0.0.0"},
                      ReservedCase{"10.1.2.3", "11.0.0.0"},
                      ReservedCase{"100.64.0.0", "100.128.0.0"},
                      ReservedCase{"127.0.0.1", "128.0.0.1"},
                      ReservedCase{"169.254.17.1", "169.255.0.0"},
                      ReservedCase{"172.16.0.1", "172.32.0.0"},
                      ReservedCase{"192.0.0.8", "192.0.1.1"},
                      ReservedCase{"192.0.2.55", "192.0.3.0"},
                      ReservedCase{"192.88.99.1", "192.88.100.1"},
                      ReservedCase{"192.168.255.1", "192.169.0.0"},
                      ReservedCase{"198.19.255.255", "198.20.0.0"},
                      ReservedCase{"198.51.100.25", "198.51.101.1"},
                      ReservedCase{"203.0.113.99", "203.0.114.1"},
                      ReservedCase{"224.0.0.1", "223.255.255.255"},
                      ReservedCase{"240.0.0.1", "223.255.255.254"},
                      ReservedCase{"255.255.255.255", "8.8.8.8"}));

TEST(Reserved, OctetTableMatchesBlockScan) {
  // The first-octet fast path must agree with the full Table I block scan
  // everywhere. Sweep the 32-bit space with a coprime stride (plus each
  // block's edges) so every first octet and every partial block is hit.
  const auto slow = [](IPv4Addr a) {
    for (const auto& b : reserved_blocks())
      if (b.prefix.contains(a)) return true;
    return false;
  };
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << 32); v += 65537) {
    const IPv4Addr a(static_cast<std::uint32_t>(v));
    ASSERT_EQ(is_reserved(a), slow(a)) << a.to_string();
  }
  for (const auto& b : reserved_blocks()) {
    EXPECT_TRUE(is_reserved(IPv4Addr(b.prefix.first())));
    EXPECT_TRUE(is_reserved(IPv4Addr(b.prefix.last())));
    if (b.prefix.first() != 0) {
      EXPECT_EQ(is_reserved(IPv4Addr(b.prefix.first() - 1)),
                slow(IPv4Addr(b.prefix.first() - 1)));
    }
    if (b.prefix.last() != 0xFFFFFFFFu) {
      EXPECT_EQ(is_reserved(IPv4Addr(b.prefix.last() + 1)),
                slow(IPv4Addr(b.prefix.last() + 1)));
    }
  }
}

// ---- SimTime -------------------------------------------------------------------

TEST(SimTime, ArithmeticAndConversions) {
  const SimTime t = SimTime::seconds(1.5) + SimTime::millis(500);
  EXPECT_DOUBLE_EQ(t.as_seconds(), 2.0);
  EXPECT_EQ(SimTime::micros(3).as_nanos(), 3000);
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ((SimTime::seconds(2.0) - SimTime::seconds(0.5)).as_nanos(),
            1'500'000'000);
}

// ---- EventLoop -----------------------------------------------------------------

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  loop.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  loop.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime::millis(30));
}

TEST(EventLoop, TieBrokenByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    loop.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, ActionsCanScheduleMore) {
  EventLoop loop;
  int count = 0;
  std::function<void()> reschedule = [&]() {
    if (++count < 5) loop.schedule_in(SimTime::millis(1), reschedule);
  };
  loop.schedule_in(SimTime::millis(1), reschedule);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), SimTime::millis(5));
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  SimTime seen;
  loop.schedule_at(SimTime::millis(10), [&] {
    loop.schedule_at(SimTime::millis(1), [&] { seen = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(seen, SimTime::millis(10));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(SimTime::seconds(1.0), [&] { ++ran; });
  loop.schedule_at(SimTime::seconds(3.0), [&] { ++ran; });
  const auto executed = loop.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), SimTime::seconds(2.0));
  loop.run();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, RunUntilExecutesEventExactlyAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(SimTime::seconds(2.0), [&] { ++ran; });  // == deadline
  loop.schedule_at(SimTime::seconds(2.0) + SimTime::nanos(1), [&] { ++ran; });
  const auto executed = loop.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), SimTime::seconds(2.0));
  EXPECT_EQ(loop.pending(), 1u);
}

// Heap-order stress for the explicit binary heap: interleaved timestamps with
// heavy ties must come out sorted by (time, insertion sequence) — including
// ties created *while running*, which land after existing same-time events.
TEST(EventLoop, HeapOrdersInterleavedSchedulesByTimeThenSequence) {
  EventLoop loop;
  std::vector<std::pair<int, int>> order;  // (millis, tag)
  const int times[] = {5, 3, 5, 1, 3, 5, 2, 1, 4, 2};
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime::millis(times[i]),
                     [&order, t = times[i], i] { order.push_back({t, i}); });
  }
  // A running action scheduling at its own timestamp runs after every event
  // already queued for that time (fresh sequence number).
  loop.schedule_at(SimTime::millis(3), [&] {
    loop.schedule_at(SimTime::millis(3), [&] { order.push_back({3, 99}); });
  });
  loop.run();
  ASSERT_EQ(order.size(), 11u);
  std::vector<std::pair<int, int>> expected = order;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(order, expected);
  // Within each timestamp, tags ascend in insertion order.
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);
    }
  }
  EXPECT_EQ(order.back(), (std::pair<int, int>{5, 5}));
}

// Sharding contract: the tie-break sequence counter is a per-instance
// member. Interleaving insertions across two loops must not perturb either
// loop's "ties broken by insertion sequence" order — the property every
// shard's bit-reproducibility rests on.
TEST(EventLoop, TieBreakSequenceIsInstanceLocal) {
  EventLoop a, b;
  std::vector<int> order_a, order_b;
  for (int i = 0; i < 8; ++i) {
    a.schedule_at(SimTime::millis(7), [&order_a, i] { order_a.push_back(i); });
    b.schedule_at(SimTime::millis(7),
                  [&order_b, i] { order_b.push_back(100 + i); });
  }
  b.run();  // draining one loop first must not affect the other
  a.run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order_a[i], i);
    EXPECT_EQ(order_b[i], 100 + i);
  }
  EXPECT_EQ(a.executed(), 8u);
  EXPECT_EQ(b.executed(), 8u);
}

TEST(EventLoop, RunUntilIsInstanceLocal) {
  EventLoop a, b;
  a.schedule_at(SimTime::seconds(5.0), [] {});
  b.schedule_at(SimTime::seconds(1.0), [] {});
  a.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(a.now(), SimTime::seconds(3.0));
  EXPECT_EQ(b.now(), SimTime());  // untouched sibling shard clock
  EXPECT_EQ(a.executed(), 0u);
  b.run();
  EXPECT_EQ(b.now(), SimTime::seconds(1.0));
  EXPECT_EQ(a.pending(), 1u);
}

// ---- Network --------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  EventLoop loop;
  Network net{loop, 99};
  const Endpoint a{IPv4Addr(1, 1, 1, 1), 53};
  const Endpoint b{IPv4Addr(2, 2, 2, 2), 53};
};

TEST_F(NetworkTest, DeliversToBoundEndpoint) {
  std::vector<std::uint8_t> received;
  net.bind(b, [&](const Datagram& d) { received = d.payload.to_vector(); });
  net.send(Datagram{a, b, {1, 2, 3}});
  loop.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(net.delivered(), 1u);
}

TEST_F(NetworkTest, DropsWhenUnbound) {
  net.send(Datagram{a, b, {1}});
  loop.run();
  EXPECT_EQ(net.dropped_unbound(), 1u);
  EXPECT_EQ(net.delivered(), 0u);
}

TEST_F(NetworkTest, UnbindMidFlightDropsPacket) {
  net.bind(b, [](const Datagram&) { FAIL() << "should not deliver"; });
  net.send(Datagram{a, b, {1}});
  net.unbind(b);
  loop.run();
  EXPECT_EQ(net.dropped_unbound(), 1u);
}

TEST_F(NetworkTest, LatencyWithinConfiguredBounds) {
  net.set_latency({SimTime::millis(10), SimTime::millis(5)});
  SimTime arrival;
  net.bind(b, [&](const Datagram&) { arrival = loop.now(); });
  net.send(Datagram{a, b, {1}});
  loop.run();
  EXPECT_GE(arrival, SimTime::millis(10));
  EXPECT_LT(arrival, SimTime::millis(15));
}

TEST_F(NetworkTest, LossRateDropsEverythingAtOne) {
  net.set_loss_rate(1.0);
  net.bind(b, [](const Datagram&) { FAIL(); });
  for (int i = 0; i < 50; ++i) net.send(Datagram{a, b, {1}});
  loop.run();
  EXPECT_EQ(net.dropped_loss(), 50u);
}

TEST_F(NetworkTest, TapsSeeEveryAcceptedPacket) {
  int taps = 0;
  net.add_tap([&](SimTime, const Datagram&) { ++taps; });
  net.send(Datagram{a, b, {1}});  // unbound, still tapped
  net.bind(b, [](const Datagram&) {});
  net.send(Datagram{a, b, {2}});
  loop.run();
  EXPECT_EQ(taps, 2);
}

// Taps model the capture vantage on the sender's wire, so they observe every
// accepted packet *before* the loss coin-flip — a lossy link must not thin
// out the capture.
TEST_F(NetworkTest, TapsObservePacketsBeforeLoss) {
  net.set_loss_rate(1.0);
  net.bind(b, [](const Datagram&) { FAIL() << "loss=1.0 must drop all"; });
  int tapped = 0;
  net.add_tap([&](SimTime, const Datagram& d) {
    ++tapped;
    EXPECT_EQ(d.payload.size(), 1u);
  });
  for (int i = 0; i < 20; ++i) net.send(Datagram{a, b, {7}});
  loop.run();
  EXPECT_EQ(tapped, 20);
  EXPECT_EQ(net.dropped_loss(), 20u);
  EXPECT_EQ(net.delivered(), 0u);
}

// The payload pool recycles slabs through the send→deliver cycle: sequential
// sends reuse one buffer instead of growing the pool.
TEST_F(NetworkTest, PayloadPoolRecyclesAcrossSequentialSends) {
  net.bind(b, [](const Datagram&) {});
  const std::vector<std::uint8_t> wire{1, 2, 3, 4};
  for (int i = 0; i < 100; ++i) {
    net.send(a, b, wire);
    loop.run();  // drain: the in-flight ref releases back to the free list
  }
  EXPECT_EQ(net.delivered(), 100u);
  EXPECT_EQ(net.pool().slab_count(), 1u);
  EXPECT_EQ(net.pool().free_count(), 1u);
}

// Taps (and the capture store behind them) may retain a reference past the
// datagram's lifetime; the bytes must stay valid until the last ref drops.
TEST_F(NetworkTest, PayloadRefKeepsBytesAliveAfterDelivery) {
  PayloadRef kept;
  net.add_tap([&](SimTime, const Datagram& d) { kept = d.payload; });
  net.bind(b, [](const Datagram&) {});
  const std::vector<std::uint8_t> wire{9, 8, 7};
  net.send(a, b, wire);
  loop.run();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0], 9);
  // The slab is still checked out, so a new send gets a second slab.
  net.send(a, b, wire);
  loop.run();
  EXPECT_EQ(net.pool().slab_count(), 2u);
}

TEST_F(NetworkTest, RebindReplacesHandler) {
  int first = 0;
  int second = 0;
  net.bind(b, [&](const Datagram&) { ++first; });
  net.bind(b, [&](const Datagram&) { ++second; });
  net.send(Datagram{a, b, {1}});
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// ---- Batched dispatch ------------------------------------------------------

/// An eager sender's batch: every packet's bytes exist before the send, and
/// payload_of() hands them out by index.
struct EagerBatch {
  std::vector<PacketView> pkts;
  std::vector<std::vector<std::uint8_t>> bytes;

  void add(Endpoint src, Endpoint dst, std::vector<std::uint8_t> b) {
    pkts.push_back({src, dst});
    bytes.push_back(std::move(b));
  }
  /// The PayloadFn body for packets [first, ...) of this batch.
  auto payload_of(std::size_t first = 0) const {
    return [this, first](std::size_t i) {
      return std::span<const std::uint8_t>(bytes[first + i]);
    };
  }
};

/// A lazy sender's PayloadFn that counts how often the network (or a tap)
/// builds a packet; packet i's bytes are {i}.
struct CountingPayload {
  mutable int calls = 0;
  mutable std::vector<std::uint8_t> scratch;
  std::span<const std::uint8_t> operator()(std::size_t i) const {
    ++calls;
    scratch.assign({static_cast<std::uint8_t>(i)});
    return scratch;
  }
};

// send_batch() is *defined* as equivalent to per-packet send(): same RNG
// draw order, same delivery times, same arrival order — under loss and
// jitter. Two networks with identical seeds, one per mode, must agree.
TEST(NetworkBatch, SendBatchBitIdenticalToPerPacketSends) {
  const auto run = [](bool batched) {
    EventLoop loop;
    Network net(loop, 12345);
    net.set_latency({SimTime::millis(5), SimTime::millis(7)});
    net.set_loss_rate(0.3);
    const Endpoint src{IPv4Addr(1, 1, 1, 1), 9000};
    const Endpoint dst{IPv4Addr(2, 2, 2, 2), 53};
    std::vector<std::pair<std::int64_t, int>> arrivals;
    net.bind(dst, [&](const Datagram& d) {
      arrivals.emplace_back(loop.now().as_nanos(), d.payload[0]);
    });
    EagerBatch batch;
    for (int i = 0; i < 64; ++i)
      batch.add(src, dst, {static_cast<std::uint8_t>(i)});
    if (batched) {
      net.send_batch(batch.pkts, batch.payload_of());
    } else {
      for (const auto& p : batch.bytes) net.send(src, dst, p);
    }
    loop.run();
    return std::tuple(arrivals, net.delivered(), net.dropped_loss());
  };
  EXPECT_EQ(run(false), run(true));
}

// Each packet of a batch is its own delivery event, scheduled in span
// order: a timer scheduled before the batch fires before its packets, one
// scheduled after fires after them, and the packets keep their span order,
// all at the same simulated instant.
TEST_F(NetworkTest, BatchedSendPreservesTieBreakAcrossBoundaries) {
  net.set_latency({SimTime::millis(10), SimTime()});  // deterministic time
  std::vector<std::string> order;
  net.bind(b, [&](const Datagram& d) {
    order.push_back("packet:" + std::to_string(d.payload[0]));
  });
  loop.schedule_at(SimTime::millis(10), [&] { order.push_back("before"); });
  EagerBatch batch;
  batch.add(a, b, {1});
  batch.add(a, b, {2});
  net.send_batch(batch.pkts, batch.payload_of());
  loop.schedule_at(SimTime::millis(10), [&] { order.push_back("after"); });
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "packet:1", "packet:2",
                                             "after"}));
}

// A handler that unbinds itself on its first packet drops the rest of the
// batch: every delivery event re-checks the binding when it fires.
TEST_F(NetworkTest, SelfUnbindingHandlerDropsRestOfBatch) {
  net.set_latency({SimTime::millis(10), SimTime()});
  int got = 0;
  net.bind(b, [&](const Datagram&) {
    ++got;
    net.unbind(b);
  });
  EagerBatch batch;
  for (int i = 0; i < 3; ++i) batch.add(a, b, {7});
  net.send_batch(batch.pkts, batch.payload_of());
  loop.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.delivered(), 1u);
  EXPECT_EQ(net.dropped_unbound(), 2u);
}

// Unbound destinations in a batch never touch the payload pool — the
// dominant case of an internet-scale scan (most probes hit nothing).
TEST_F(NetworkTest, BatchSkipsPoolForUnboundDestinations) {
  EagerBatch batch;
  for (int i = 0; i < 32; ++i) batch.add(a, b, {1, 2, 3});  // b unbound
  net.send_batch(batch.pkts, batch.payload_of());
  loop.run();
  EXPECT_EQ(net.dropped_unbound(), 32u);
  EXPECT_EQ(net.pool().slab_count(), 0u);
  EXPECT_EQ(net.sent(), 32u);
}

// With no taps, a packet's bytes are built only if it will be delivered:
// three probes into unbound space and one to a bound endpoint build one
// payload, and it is the delivered packet's.
TEST_F(NetworkTest, BatchBuildsBytesOnlyForDeliveredPackets) {
  std::vector<int> seen;
  net.bind(b, [&](const Datagram& d) { seen.push_back(d.payload[0]); });
  const std::vector<PacketView> pkts = {
      {a, {IPv4Addr(3, 3, 3, 3), 53}},
      {a, {IPv4Addr(4, 4, 4, 4), 53}},
      {a, b},
      {a, {IPv4Addr(5, 5, 5, 5), 53}},
  };
  const CountingPayload payload;
  net.send_batch(pkts, payload);
  loop.run();
  EXPECT_EQ(payload.calls, 1);
  EXPECT_EQ(seen, (std::vector<int>{2}));
  EXPECT_EQ(net.dropped_unbound(), 3u);
}

// A lost packet is never built either, bound destination or not.
TEST_F(NetworkTest, BatchNeverBuildsLostPackets) {
  net.set_loss_rate(1.0);
  net.bind(b, [](const Datagram&) {});
  const std::vector<PacketView> pkts = {{a, b}, {a, b}, {a, b}, {b, a}};
  const CountingPayload payload;
  net.send_batch(pkts, payload);
  loop.run();
  EXPECT_EQ(payload.calls, 0);
  EXPECT_EQ(net.dropped_loss(), 4u);
  EXPECT_EQ(net.delivered(), 0u);
}

// A batch tap that reads bytes builds every packet it reads — delivered or
// not — and sees exactly the bytes an eager per-packet send would carry.
TEST_F(NetworkTest, ByteReadingBatchTapSeesEagerBytes) {
  net.bind(b, [](const Datagram&) {});
  const std::vector<PacketView> pkts = {
      {a, {IPv4Addr(3, 3, 3, 3), 53}},
      {a, b},
      {a, {IPv4Addr(4, 4, 4, 4), 53}},
      {a, {IPv4Addr(5, 5, 5, 5), 53}},
  };
  using Seen = std::vector<std::pair<Endpoint, std::vector<std::uint8_t>>>;
  const auto tap_into = [](Network& n, Seen& seen) {
    n.add_tap(
        [&seen](SimTime, const Datagram& d) {
          seen.emplace_back(d.dst, d.payload.to_vector());
        },
        [&seen](SimTime, std::span<const PacketView> s, PayloadFn payload_of) {
          for (std::size_t i = 0; i < s.size(); ++i) {
            const auto bytes = payload_of(i);
            seen.emplace_back(s[i].dst, std::vector<std::uint8_t>(
                                            bytes.begin(), bytes.end()));
          }
        });
  };
  Seen lazy_seen;
  tap_into(net, lazy_seen);
  const CountingPayload payload;
  net.send_batch(pkts, payload);
  loop.run();
  // Every packet once for the tap, plus the delivered one for its pool
  // buffer.
  EXPECT_EQ(payload.calls, 5);

  EventLoop eager_loop;
  Network eager_net{eager_loop, 99};
  eager_net.bind(b, [](const Datagram&) {});
  Seen eager_seen;
  tap_into(eager_net, eager_seen);
  for (std::size_t i = 0; i < pkts.size(); ++i)
    eager_net.send(pkts[i].src, pkts[i].dst,
                   std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
  eager_loop.run();
  EXPECT_EQ(lazy_seen, eager_seen);
  EXPECT_EQ(lazy_seen.size(), 4u);
}

// Batch-aware taps see the whole span once; the per-packet digest a
// single tap accumulates over the same traffic must match.
TEST_F(NetworkTest, BatchTapObservesWholeSpan) {
  std::size_t span_items = 0;
  int span_calls = 0;
  net.add_tap([](SimTime, const Datagram&) {},
              [&](SimTime, std::span<const PacketView> s, PayloadFn) {
                ++span_calls;
                span_items += s.size();
              });
  EagerBatch batch;
  batch.add(a, b, {9});
  batch.add(a, b, {9});
  net.send_batch(batch.pkts, batch.payload_of());
  loop.run();
  EXPECT_EQ(span_calls, 1);
  EXPECT_EQ(span_items, 2u);
}

// Binding and unbinding ephemeral ports on a host bound at :53 (what every
// recursive resolver's upstream queries do) leaves the binding set exact:
// another host, and an unbound port on the same host, still drop, and :53
// still delivers — by batch and by per-packet send alike.
TEST_F(NetworkTest, EphemeralPortChurnKeepsBindingsExact) {
  int at53 = 0;
  net.bind(a, [&](const Datagram&) { ++at53; });
  for (std::uint16_t port = 10000; port < 20000; ++port) {
    net.bind({a.addr, port}, [](const Datagram&) {});
    net.unbind({a.addr, port});
  }
  const Endpoint src{IPv4Addr(7, 7, 7, 7), 4000};
  const Endpoint unbound_port{a.addr, 15000};
  const std::vector<PacketView> pkts = {{src, b}, {src, unbound_port},
                                        {src, a}};
  const CountingPayload payload;
  net.send_batch(pkts, payload);
  net.send(src, b, std::vector<std::uint8_t>{1});
  net.send(src, unbound_port, std::vector<std::uint8_t>{1});
  net.send(src, a, std::vector<std::uint8_t>{1});
  loop.run();
  EXPECT_EQ(payload.calls, 1);
  EXPECT_EQ(at53, 2);
  EXPECT_EQ(net.delivered(), 2u);
  EXPECT_EQ(net.dropped_unbound(), 4u);
  EXPECT_FALSE(net.bound(unbound_port));
  EXPECT_TRUE(net.bound(a));
}

// ---- Capture ---------------------------------------------------------------------

TEST_F(NetworkTest, CaptureSplitsDirections) {
  Capture cap(b.addr);
  cap.attach(net);
  net.bind(b, [&](const Datagram& d) {
    net.send(Datagram{b, d.src, {9}});  // respond
  });
  net.bind(a, [](const Datagram&) {});
  net.send(Datagram{a, b, {1, 2}});
  loop.run();
  EXPECT_EQ(cap.inbound_count(), 1u);
  EXPECT_EQ(cap.outbound_count(), 1u);
  ASSERT_EQ(cap.inbound().size(), 1u);
  EXPECT_EQ(cap.inbound()[0].payload.size(), 2u);
}

TEST_F(NetworkTest, CaptureCountOnlyOutbound) {
  Capture cap(a.addr);
  cap.set_count_only_outbound(true);
  cap.attach(net);
  net.send(Datagram{a, b, {1}});
  loop.run();
  EXPECT_EQ(cap.outbound_count(), 1u);
  EXPECT_TRUE(cap.outbound().empty());
}

// ---- CaptureStore ----------------------------------------------------------

TEST(CaptureStore, VantageDigestsInboundCountsOutbound) {
  EventLoop loop;
  Network net{loop, 7};
  const Endpoint vantage{IPv4Addr(9, 9, 9, 9), 53};
  const Endpoint peer{IPv4Addr(8, 8, 8, 8), 53};
  net.bind(vantage, [](const Datagram&) {});
  net.bind(peer, [](const Datagram&) {});

  CaptureStore store;
  store.attach(net, vantage.addr);
  net.send(Datagram{vantage, peer, {1, 2, 3}});  // outbound: counted only
  net.send(Datagram{peer, vantage, {4, 5}});     // inbound: counted + digested
  loop.run();
  EXPECT_EQ(store.packet_count(), 2u);

  // The digest is the inbound packet's alone.
  CaptureStore inbound;
  inbound.observe(Datagram{peer, vantage, {4, 5}}, vantage.addr);
  EXPECT_NE(store.digest(), 0u);
  EXPECT_EQ(store.digest(), inbound.digest());

  // Outbound bytes never reach the digest, whatever they are.
  CaptureStore a, b;
  a.observe(Datagram{vantage, peer, {1, 2, 3}}, vantage.addr);
  b.observe(Datagram{vantage, peer, {7}}, vantage.addr);
  EXPECT_EQ(a.packet_count(), 1u);
  EXPECT_EQ(a.digest(), 0u);
  EXPECT_EQ(b.digest(), 0u);

  // Traffic between two other hosts is not this vantage's.
  CaptureStore foreign;
  foreign.observe(Datagram{peer, {IPv4Addr(7, 7, 7, 7), 53}, {1}},
                  vantage.addr);
  EXPECT_EQ(foreign.packet_count(), 0u);
  EXPECT_EQ(foreign.digest(), 0u);
}

TEST(CaptureStore, MergedDigestIsShardOrderInsensitive) {
  const IPv4Addr host(9, 9, 9, 9);
  const Datagram p1{{IPv4Addr(1, 0, 0, 1), 53}, {host, 100}, {10, 20}};
  const Datagram p2{{IPv4Addr(3, 0, 0, 3), 53}, {host, 100}, {30}};
  const Datagram p3{{IPv4Addr(5, 0, 0, 5), 53}, {host, 100}, {40, 50, 60}};
  const Datagram q1{{host, 100}, {IPv4Addr(6, 0, 0, 6), 53}, {70}};

  // The same packet set partitioned two different ways across "shards".
  CaptureStore x1, x2, y1, y2;
  x1.observe(p1, host);
  x1.observe(p2, host);
  x2.observe(p3, host);
  x2.observe(q1, host);
  y1.observe(q1, host);
  y1.observe(p3, host);
  y1.observe(p1, host);
  y2.observe(p2, host);

  x1.merge(std::move(x2));
  y1.merge(std::move(y2));
  EXPECT_NE(x1.digest(), 0u);
  EXPECT_EQ(x1.digest(), y1.digest());
  EXPECT_EQ(x1.packet_count(), 4u);
  EXPECT_EQ(y1.packet_count(), 4u);
}

// observe_batch() is the batch tap's body; these tests pin it to the
// per-packet tap, observe(), bit for bit.
namespace {

/// Apply one batch to `ref` exactly as the per-packet tap would.
void observe_singly(CaptureStore& ref, const EagerBatch& batch,
                    IPv4Addr host) {
  for (std::size_t i = 0; i < batch.pkts.size(); ++i)
    ref.observe(Datagram{batch.pkts[i].src, batch.pkts[i].dst,
                         batch.bytes[i]},
                host);
}

void expect_stores_equal(const CaptureStore& a, const CaptureStore& b) {
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.packet_count(), b.packet_count());
}

}  // namespace

TEST(CaptureStore, BatchDigestEqualsPerPacketEqualLengths) {
  // Equal-length payloads, alternating direction (even: an R2 into the
  // vantage, odd: a probe out of it), over batch sizes 1..9.
  const IPv4Addr host(9, 9, 9, 9);
  for (std::size_t n = 1; n <= 9; ++n) {
    EagerBatch batch;
    for (std::size_t i = 0; i < n; ++i) {
      const Endpoint vantage{host, 54321};
      const Endpoint peer{IPv4Addr(10, 0, 0, std::uint8_t(i + 1)), 53};
      std::vector<std::uint8_t> bytes{std::uint8_t(i), std::uint8_t(i * 3 + 1),
                                      0x55, std::uint8_t(0xF0 ^ i)};
      if (i % 2 == 0)
        batch.add(peer, vantage, std::move(bytes));
      else
        batch.add(vantage, peer, std::move(bytes));
    }
    CaptureStore lazy, single;
    lazy.observe_batch(batch.pkts, batch.payload_of(), host);
    observe_singly(single, batch, host);
    expect_stores_equal(lazy, single);
    EXPECT_EQ(lazy.packet_count(), n);
    EXPECT_NE(lazy.digest(), 0u);
  }
}

TEST(CaptureStore, BatchDigestEqualsPerPacketMixedLengthsAndDirections) {
  // Unequal lengths (including empty), inbound + outbound + foreign packets
  // interleaved: the batch path must classify and digest exactly like the
  // per-packet tap, skipping the foreign packet entirely.
  const IPv4Addr host(9, 9, 9, 9);
  const std::vector<std::uint8_t> p0;                      // empty payload
  const std::vector<std::uint8_t> p1{1};
  const std::vector<std::uint8_t> p2{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const std::vector<std::uint8_t> p3(64, 0xAB);
  const std::vector<std::uint8_t> p4(300, 0x00);           // zero-run heavy
  EagerBatch batch;
  batch.add({host, 54321}, {IPv4Addr(10, 0, 0, 1), 53}, p1);      // outbound
  batch.add({IPv4Addr(10, 0, 0, 1), 53}, {host, 54321}, p2);      // inbound
  batch.add({IPv4Addr(8, 8, 8, 8), 53}, {IPv4Addr(7, 7, 7, 7), 53},
            p3);                                                  // foreign
  batch.add({host, 54321}, {IPv4Addr(10, 0, 0, 2), 53}, p0);      // outbound
  batch.add({IPv4Addr(10, 0, 0, 3), 53}, {host, 54321}, p4);      // inbound
  batch.add({host, 54321}, {IPv4Addr(10, 0, 0, 4), 53}, p2);      // outbound
  batch.add({host, 54321}, {IPv4Addr(10, 0, 0, 5), 53}, p3);      // outbound
  CaptureStore lazy, single;
  int built = 0;
  lazy.observe_batch(
      batch.pkts,
      [&](std::size_t i) {
        ++built;
        return std::span<const std::uint8_t>(batch.bytes[i]);
      },
      host);
  observe_singly(single, batch, host);
  expect_stores_equal(lazy, single);
  EXPECT_EQ(lazy.packet_count(), 6u);  // the foreign packet is not observed
  EXPECT_EQ(built, 2);  // only the inbound packets' bytes are read
  // Only the two inbound packets are digested.
  CaptureStore inbound;
  inbound.observe(Datagram{batch.pkts[1].src, batch.pkts[1].dst, p2}, host);
  inbound.observe(Datagram{batch.pkts[4].src, batch.pkts[4].dst, p4}, host);
  EXPECT_EQ(lazy.digest(), inbound.digest());
}

TEST(CaptureStore, BatchSplitsProduceOneDigest) {
  // A batch observed whole, split in two, or packet by packet yields one
  // digest — the property that lets a sender's batch boundaries vary
  // without moving the capture digest.
  const IPv4Addr host(9, 9, 9, 9);
  EagerBatch batch;
  for (std::size_t i = 0; i < 7; ++i)
    batch.add({IPv4Addr(10, 0, 0, std::uint8_t(i + 1)), 53}, {host, 54321},
              std::vector<std::uint8_t>(17 + i, std::uint8_t(i)));
  const std::span<const PacketView> pkts(batch.pkts);

  CaptureStore whole, split, singles;
  whole.observe_batch(pkts, batch.payload_of(), host);
  split.observe_batch(pkts.first(3), batch.payload_of(), host);
  split.observe_batch(pkts.subspan(3), batch.payload_of(3), host);
  for (std::size_t i = 0; i < pkts.size(); ++i)
    singles.observe_batch(pkts.subspan(i, 1), batch.payload_of(i), host);
  EXPECT_NE(whole.digest(), 0u);
  EXPECT_EQ(whole.digest(), split.digest());
  EXPECT_EQ(whole.digest(), singles.digest());
  EXPECT_EQ(whole.packet_count(), split.packet_count());
  EXPECT_EQ(whole.packet_count(), singles.packet_count());
}

// A store attached to a network sees inbound packets of a send_batch()
// through its batch tap, reading their bytes via payload_of — and ends up
// with the digest per-packet observe() gives the same packets.
TEST(CaptureStore, InboundBatchThroughNetworkEqualsPerPacketObserve) {
  EventLoop loop;
  Network net{loop, 7};
  const IPv4Addr host(9, 9, 9, 9);
  CaptureStore tapped;
  tapped.attach(net, host);
  EagerBatch batch;
  for (std::uint8_t i = 0; i < 5; ++i)
    batch.add({IPv4Addr(10, 0, 0, std::uint8_t(i + 1)), 53}, {host, 54321},
              std::vector<std::uint8_t>(3 + i, i));
  batch.add({host, 54321}, {IPv4Addr(10, 0, 0, 9), 53}, {0xEE});  // outbound
  net.send_batch(batch.pkts, batch.payload_of());
  loop.run();

  CaptureStore singly;
  observe_singly(singly, batch, host);
  expect_stores_equal(tapped, singly);
  EXPECT_EQ(tapped.packet_count(), 6u);
  EXPECT_NE(tapped.digest(), 0u);
}

TEST(CaptureStore, DigestChangesWithContent) {
  // Payloads are shared immutable buffers now, so the one-byte variant is a
  // second datagram rather than an in-place edit.
  const Datagram p{{IPv4Addr(1, 0, 0, 1), 100}, {IPv4Addr(2, 0, 0, 2), 53},
                   {10, 20}};
  const Datagram q{{IPv4Addr(1, 0, 0, 1), 100}, {IPv4Addr(2, 0, 0, 2), 53},
                   {11, 20}};
  CaptureStore a, b;
  a.observe(p, p.dst.addr);  // inbound at 2.0.0.2
  b.observe(q, q.dst.addr);
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace orp::net
