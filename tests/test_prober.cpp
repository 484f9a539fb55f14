#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "dns/codec.h"

#include "authns/auth_server.h"
#include "prober/outstanding_ring.h"
#include "prober/permutation.h"
#include "prober/rate_limiter.h"
#include "prober/scanner.h"
#include "resolver/scripted_resolver.h"
#include "util/u64_set.h"

namespace orp::prober {
namespace {

// ---- Number theory ---------------------------------------------------------------

TEST(Permutation, PrimeFactorsOfGroupOrder) {
  const auto factors = factorize(kPermutationPrime - 1);
  std::uint64_t product_check = 1;
  for (const auto f : factors) {
    // Each factor is prime (trial division would have split it otherwise).
    EXPECT_GT(f, 1u);
    product_check *= 1;  // factors are distinct primes, multiplicity dropped
  }
  (void)product_check;
  EXPECT_FALSE(factors.empty());
  EXPECT_EQ(factors.front(), 2u);  // p-1 is even
}

TEST(Permutation, Modpow) {
  EXPECT_EQ(modpow(2, 10, 1000000007ULL), 1024u);
  EXPECT_EQ(modpow(3, 0, 97), 1u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(modpow(12345, kPermutationPrime - 1, kPermutationPrime), 1u);
}

TEST(Permutation, GeneratorDetection) {
  EXPECT_FALSE(is_generator(0));
  EXPECT_FALSE(is_generator(1));
  EXPECT_FALSE(is_generator(kPermutationPrime));
  // Any x^2 is a quadratic residue, hence not a generator of the full group.
  const std::uint64_t square = static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(1234567) * 1234567) % kPermutationPrime);
  EXPECT_FALSE(is_generator(square));
  const auto params = derive_params(99);
  EXPECT_TRUE(is_generator(params.generator));
}

TEST(Permutation, DeriveParamsDeterministic) {
  const auto a = derive_params(5);
  const auto b = derive_params(5);
  EXPECT_EQ(a.generator, b.generator);
  EXPECT_EQ(a.start, b.start);
  const auto c = derive_params(6);
  EXPECT_TRUE(c.generator != a.generator || c.start != a.start);
}

TEST(Permutation, NoRepeatsInPrefix) {
  CyclicPermutation perm(42);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 200000; ++i) {
    const auto v = perm.next_raw();
    EXPECT_GT(v, 0u);
    EXPECT_LT(v, kPermutationPrime);
    EXPECT_TRUE(seen.insert(v).second) << "repeat at step " << i;
  }
}

TEST(Permutation, RandomAccessMatchesIteration) {
  CyclicPermutation iter(7);
  const CyclicPermutation indexed(7);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(iter.next_raw(), indexed.raw_at(k)) << k;
  }
}

TEST(Permutation, SeekJumpsToAbsolutePosition) {
  CyclicPermutation walked(21);
  for (int i = 0; i < 5000; ++i) walked.next_raw();

  CyclicPermutation seeked(21);
  seeked.seek(5000);
  EXPECT_EQ(seeked.steps(), 5000u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seeked.next_raw(), walked.next_raw());
}

TEST(Permutation, ShardSlicesTileTheSequence) {
  // Shards seek to i*N/S and consume their slice; concatenated they must
  // reproduce the single-scanner walk exactly.
  const std::uint64_t total = 9973;  // deliberately not divisible by 4
  CyclicPermutation whole(33);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < total; ++i) expected.push_back(whole.next_raw());

  std::vector<std::uint64_t> tiled;
  const std::uint32_t shards = 4;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t begin = total * s / shards;
    const std::uint64_t end = total * (s + 1) / shards;
    CyclicPermutation p(33);
    p.seek(begin);
    for (std::uint64_t i = begin; i < end; ++i) tiled.push_back(p.next_raw());
  }
  EXPECT_EQ(tiled, expected);
}

TEST(Permutation, NextAddressSkipsOverflowValues) {
  CyclicPermutation perm(11);
  for (int i = 0; i < 100000; ++i) {
    const auto addr = perm.next_address();
    ASSERT_TRUE(addr.has_value());
  }
}

TEST(Permutation, AddressDistributionRoughlyUniform) {
  // First-octet histogram over 100k outputs should not be wildly skewed.
  CyclicPermutation perm(13);
  std::array<int, 4> quadrant{};
  for (int i = 0; i < 100000; ++i) {
    const auto addr = perm.next_address();
    ASSERT_TRUE(addr.has_value());
    ++quadrant[addr->octet(0) / 64];
  }
  for (const int q : quadrant) {
    EXPECT_GT(q, 22000);
    EXPECT_LT(q, 28000);
  }
}

// ---- RateLimiter ------------------------------------------------------------------

TEST(RateLimiter, GrantsWithinBurst) {
  RateLimiter limiter(1000.0, 100);
  net::SimTime ready;
  EXPECT_TRUE(limiter.try_acquire(100, net::SimTime::seconds(0), ready));
  EXPECT_FALSE(limiter.try_acquire(1, net::SimTime::seconds(0), ready));
  EXPECT_GT(ready, net::SimTime::seconds(0));
}

TEST(RateLimiter, RefillsAtRate) {
  RateLimiter limiter(1000.0, 100);
  net::SimTime ready;
  ASSERT_TRUE(limiter.try_acquire(100, net::SimTime::seconds(0), ready));
  // After 50ms, 50 tokens should be back.
  EXPECT_TRUE(limiter.try_acquire(50, net::SimTime::millis(50), ready));
  EXPECT_FALSE(limiter.try_acquire(60, net::SimTime::millis(50), ready));
}

TEST(RateLimiter, NextReadyEstimateIsSufficient) {
  RateLimiter limiter(100.0, 10);
  net::SimTime ready;
  ASSERT_TRUE(limiter.try_acquire(10, net::SimTime::seconds(0), ready));
  ASSERT_FALSE(limiter.try_acquire(10, net::SimTime::seconds(0), ready));
  EXPECT_TRUE(limiter.try_acquire(10, ready, ready));
}

TEST(RateLimiter, SustainedThroughputMatchesRate) {
  RateLimiter limiter(1000.0, 64);
  net::SimTime now;
  std::uint64_t sent = 0;
  while (now < net::SimTime::seconds(10.0)) {
    net::SimTime ready;
    if (limiter.try_acquire(64, now, ready)) {
      sent += 64;
    } else {
      now = ready;
    }
  }
  EXPECT_NEAR(static_cast<double>(sent), 10000.0, 150.0);
}

TEST(RateLimiter, RejectsNonPositiveRate) {
  EXPECT_THROW(RateLimiter(0.0), std::invalid_argument);
}

// ---- Outstanding ring and its live-id set ----------------------------------

std::vector<std::uint64_t> reap_ids(OutstandingRing& ring, net::SimTime cutoff) {
  std::vector<std::uint64_t> out;
  ring.reap(cutoff, [&](std::uint64_t id) { out.push_back(id); });
  return out;
}

TEST(OutstandingRing, GrowsAcrossWrapAroundAndReapsInSendOrder) {
  OutstandingRing ring;
  const auto push_range = [&](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t id = from; id < to; ++id)
      ring.push(id, net::SimTime::millis(static_cast<std::int64_t>(id)));
  };
  const auto range = [](std::uint64_t from, std::uint64_t to) {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t id = from; id < to; ++id) ids.push_back(id);
    return ids;
  };
  // Advance the head, then push past the 16-entry start capacity while the
  // live span wraps the end of the array: growth must unwrap it in order.
  push_range(0, 12);
  EXPECT_EQ(reap_ids(ring, net::SimTime::millis(9)), range(0, 10));
  push_range(12, 60);
  EXPECT_EQ(ring.size(), 50u);
  // The cutoff is inclusive and stops at the first younger entry.
  EXPECT_EQ(reap_ids(ring, net::SimTime::millis(30)), range(10, 31));
  EXPECT_EQ(reap_ids(ring, net::SimTime::millis(59)), range(31, 60));
  EXPECT_TRUE(ring.empty());
}

TEST(OutstandingRing, ReapSkipsAnsweredEntriesAndAnswersCountOnce) {
  OutstandingRing ring;
  EXPECT_FALSE(ring.answer(0));  // empty ring
  for (std::uint64_t id : {5u, 0u, 9u, 3u, 7u})  // id 0 is subdomain (0, 0)
    ring.push(id, net::SimTime::millis(1));
  EXPECT_FALSE(ring.answer(4));   // never sent
  EXPECT_TRUE(ring.answer(0));
  EXPECT_FALSE(ring.answer(0));   // a duplicate response
  EXPECT_TRUE(ring.answer(3));
  EXPECT_EQ(ring.size(), 3u);     // unanswered
  EXPECT_EQ(reap_ids(ring, net::SimTime::millis(1)),
            (std::vector<std::uint64_t>{5, 9, 7}));
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.answer(9));   // a late response after the sweep
  // Answered entries stay in the ring until a sweep pops them.
  ring.push(11, net::SimTime::millis(2));
  EXPECT_TRUE(ring.answer(11));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.empty());
  EXPECT_TRUE(reap_ids(ring, net::SimTime::millis(2)).empty());
  EXPECT_TRUE(ring.empty());
}

TEST(U64Set, EraseFromTheMiddleOfAProbeRunKeepsTheRunReachable) {
  // Six keys sharing one home slot of the 16-slot table form a single
  // linear-probe run; erasing inside it must shift the tail back.
  util::U64Set set;
  set.reserve(8);
  const auto home = [](std::uint64_t k) { return (k * 0x9E3779B97F4A7C15ull) >> 60; };
  std::vector<std::uint64_t> run;
  for (std::uint64_t k = 1; run.size() < 6; ++k)
    if (home(k) == home(1)) run.push_back(k);
  for (const std::uint64_t k : run) EXPECT_TRUE(set.insert(k));
  EXPECT_TRUE(set.erase(run[2]));
  EXPECT_FALSE(set.erase(run[2]));
  for (std::size_t i = 0; i < run.size(); ++i)
    EXPECT_EQ(set.contains(run[i]), i != 2) << i;
  EXPECT_EQ(set.size(), 5u);

  // Random churn against a reference set over a small key range (zero
  // included), so runs keep forming, wrapping and shrinking.
  set.clear();
  std::unordered_set<std::uint64_t> ref;
  std::uint64_t rng = 11;
  for (int step = 0; step < 20000; ++step) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t k = (rng >> 33) % 48;
    if ((rng >> 20) % 2 == 0) {
      ASSERT_EQ(set.insert(k), ref.insert(k).second) << step;
    } else {
      ASSERT_EQ(set.erase(k), ref.erase(k) == 1) << step;
    }
    ASSERT_EQ(set.size(), ref.size()) << step;
  }
  for (std::uint64_t k = 0; k < 48; ++k)
    EXPECT_EQ(set.contains(k), ref.count(k) == 1) << k;
}

// ---- Scanner over a tiny handcrafted internet --------------------------------------

class ScannerFixture : public ::testing::Test {
 protected:
  ScannerFixture()
      : net(loop, 5),
        scheme(dns::DnsName::must_parse("ucfsealresearch.net"), 64, 7),
        auth(net, net::IPv4Addr(45, 76, 18, 21), scheme,
             net::SimTime::nanos(0)),
        hierarchy(resolver::build_hierarchy(net, scheme.sld(),
                                            scheme.sld().child("ns1"),
                                            auth.address(), 1)) {
    net.set_latency({net::SimTime::millis(2), net::SimTime::millis(1)});
    engine_config.hints = hierarchy.hints;
  }

  /// Plant a host at the k-th scan position (must be < raw_steps).
  net::IPv4Addr plant(std::uint64_t scan_seed, std::uint64_t k,
                      resolver::BehaviorProfile profile) {
    const auto params = derive_params(scan_seed);
    const CyclicPermutation perm(params.generator, params.start);
    std::uint64_t raw = perm.raw_at(k);
    while (raw >= (std::uint64_t{1} << 32) ||
           net::is_reserved(net::IPv4Addr(static_cast<std::uint32_t>(raw))) ||
           net.bound(net::Endpoint{
               net::IPv4Addr(static_cast<std::uint32_t>(raw)), net::kDnsPort}))
      raw = perm.raw_at(++k);
    const net::IPv4Addr addr(static_cast<std::uint32_t>(raw));
    hosts.push_back(std::make_unique<resolver::ResolverHost>(
        net, addr, std::move(profile), engine_config, hosts.size() + 1));
    return addr;
  }

  ScanConfig scan_config(std::uint64_t seed, std::uint64_t raw_steps) {
    ScanConfig cfg;
    cfg.seed = seed;
    cfg.rate_pps = 100000;
    cfg.raw_steps = raw_steps;
    cfg.response_timeout = net::SimTime::seconds(2.0);
    cfg.reap_interval = net::SimTime::millis(500);
    return cfg;
  }

  net::EventLoop loop;
  net::Network net;
  zone::SubdomainScheme scheme;
  authns::AuthServer auth;
  resolver::SimHierarchy hierarchy;
  resolver::EngineConfig engine_config;
  std::vector<std::unique_ptr<resolver::ResolverHost>> hosts;
};

// The scanner's patched-template fast path must emit wire bytes identical
// to the full make_query/encode path for every probe.
TEST_F(ScannerFixture, ProbeWireMatchesFullEncodePath) {
  resolver::BehaviorProfile honest;
  honest.answer = resolver::AnswerMode::kRecursive;
  plant(1, 100, honest);

  // Tap every accepted probe and re-encode it from its own decoded form:
  // the template patch must be byte-invisible.
  std::size_t probes_checked = 0;
  net.add_tap([&](net::SimTime, const net::Datagram& d) {
    if (d.src.addr != net::IPv4Addr(132, 170, 3, 44)) return;
    const auto decoded = dns::decode(d.payload);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->questions.size(), 1u);
    const dns::Message rebuilt = dns::make_query(decoded->header.id,
                                                 decoded->questions[0].qname,
                                                 decoded->questions[0].qtype);
    EXPECT_EQ(d.payload.to_vector(), dns::encode(rebuilt));
    ++probes_checked;
  });

  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), scan_config(1, 2000),
                  scheme);
  scanner.start([] {});
  loop.run();
  EXPECT_EQ(probes_checked, scanner.stats().q1_sent);
  EXPECT_GT(probes_checked, 1000u);
}

TEST_F(ScannerFixture, CountsProbesAndSkipsReserved) {
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), scan_config(1, 5000),
                  scheme);
  bool done = false;
  scanner.start([&] { done = true; });
  loop.run();
  EXPECT_TRUE(done);
  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.q1_sent + s.skipped_reserved + s.skipped_overflow, 5000u);
  // Roughly 13.8% of the space is reserved.
  EXPECT_GT(s.skipped_reserved, 500u);
  EXPECT_LT(s.skipped_reserved, 1000u);
  EXPECT_EQ(s.r2_received, 0u);  // nothing planted
}

TEST_F(ScannerFixture, CollectsAndMatchesResponses) {
  resolver::BehaviorProfile honest;
  honest.answer = resolver::AnswerMode::kRecursive;
  plant(1, 100, honest);
  plant(1, 200, honest);
  resolver::BehaviorProfile refuser;
  refuser.answer = resolver::AnswerMode::kNone;
  refuser.rcode = dns::Rcode::kRefused;
  plant(1, 300, refuser);

  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), scan_config(1, 5000),
                  scheme);
  scanner.start([] {});
  loop.run();
  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.r2_received, 3u);
  EXPECT_EQ(s.r2_matched, 3u);
  EXPECT_EQ(s.r2_empty_question, 0u);
  EXPECT_EQ(scanner.responses().size(), 3u);
  // Two honest resolvers contacted the auth server; the refuser did not.
  EXPECT_EQ(auth.stats().queries_received, 2u);
}

TEST_F(ScannerFixture, EmptyQuestionResponsesCountedSeparately) {
  resolver::BehaviorProfile eq;
  eq.answer = resolver::AnswerMode::kNone;
  eq.omit_question = true;
  eq.rcode = dns::Rcode::kServFail;
  plant(1, 50, eq);
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), scan_config(1, 2000),
                  scheme);
  scanner.start([] {});
  loop.run();
  EXPECT_EQ(scanner.stats().r2_received, 1u);
  EXPECT_EQ(scanner.stats().r2_empty_question, 1u);
  EXPECT_EQ(scanner.stats().r2_matched, 0u);
}

TEST_F(ScannerFixture, SubdomainsOfSilentTargetsAreReused) {
  // Cluster size 64 but 4000+ probes: without reuse this would rotate ~60
  // times; with reuse the unanswered names cycle back. Reuse requires the
  // in-flight window (rate x timeout = 40 names) to fit inside one cluster
  // (64), the same headroom the paper engineered: 100k pps x 30s = 3M
  // in-flight vs 5M names per cluster.
  ScanConfig cfg = scan_config(1, 5000);
  cfg.rate_pps = 20;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  int rotations = 0;
  scanner.set_rotate_callback([&](std::uint32_t c) {
    ++rotations;
    auth.load_cluster(c);
  });
  scanner.start([] {});
  loop.run();
  EXPECT_GT(scanner.clusters().stats().subdomains_reused, 3000u);
  EXPECT_LT(rotations, 10);
}

TEST_F(ScannerFixture, DeterministicAcrossRuns) {
  auto run_once = [this](std::uint64_t seed) {
    net::EventLoop l2;
    net::Network n2(l2, 5);
    authns::AuthServer a2(n2, net::IPv4Addr(45, 76, 18, 21), scheme,
                          net::SimTime::nanos(0));
    ScanConfig cfg = scan_config(seed, 3000);
    Scanner s(n2, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
    s.start([] {});
    l2.run();
    return s.stats().q1_sent;
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_NE(run_once(9), run_once(10));  // different permutation slice
}

TEST_F(ScannerFixture, ScanDurationMatchesRateArithmetic) {
  ScanConfig cfg = scan_config(1, 50000);
  cfg.rate_pps = 10000;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  scanner.start([] {});
  loop.run();
  // ~43k probes at 10k pps ~= 4.3s, plus the 2s drain window.
  const double dur = scanner.stats().duration().as_seconds();
  EXPECT_GT(dur, 4.0);
  EXPECT_LT(dur, 8.0);
}

// ---- DoTCP fallback (TC=1 retry over the stream transport) -----------------
//
// The invariant under test everywhere below: EXACTLY one classified flow per
// answering target, no matter how the TCP retry settles (answer, refusal,
// SYN loss, duplicate UDP racing the retry).

/// A profile whose UDP answer is cut (question survives, answer section
/// does not): header 12 + probe question ~39 bytes fits in 55, the fixed A
/// record does not. Fabricated rather than recursive so the answer content
/// does not depend on zone-rotation timing at the fixture's auth server.
resolver::BehaviorProfile truncating_profile(bool tcp) {
  resolver::BehaviorProfile p;
  p.answer = resolver::AnswerMode::kFixedIp;
  p.fixed_answer = net::IPv4Addr(203, 0, 113, 77);
  p.udp_limit = 55;
  p.tcp = tcp;
  return p;
}

TEST_F(ScannerFixture, TcRetryClassifiesTheFullTcpAnswerOnce) {
  const net::IPv4Addr target = plant(1, 100, truncating_profile(true));
  ScanConfig cfg = scan_config(1, 2000);
  cfg.tcp_fallback = true;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  bool done = false;
  scanner.start([&] { done = true; });
  loop.run();

  EXPECT_TRUE(done);
  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.r2_matched, 1u);
  EXPECT_EQ(s.tc_seen, 1u);
  EXPECT_EQ(s.tcp_retries, 1u);
  EXPECT_EQ(s.tcp_answers, 1u);
  EXPECT_EQ(s.tcp_failures, 0u);
  ASSERT_EQ(scanner.responses().size(), 1u);
  EXPECT_EQ(scanner.responses()[0].resolver, target);
  // The classified payload is the full TCP answer: TC clear, answer present.
  const auto decoded = dns::decode(scanner.responses()[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->header.flags.tc);
  EXPECT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(net.streams().active_conns(), 0u);  // retry closed cleanly
}

TEST_F(ScannerFixture, TcThenConnectionRefusedClassifiesTheTruncatedUdp) {
  // The host truncates but does not listen on TCP (the CPE story): the
  // retry is refused and the held truncated payload is what gets classified.
  const net::IPv4Addr target = plant(1, 100, truncating_profile(false));
  ScanConfig cfg = scan_config(1, 2000);
  cfg.tcp_fallback = true;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  scanner.start([] {});
  loop.run();

  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.tc_seen, 1u);
  EXPECT_EQ(s.tcp_retries, 1u);
  EXPECT_EQ(s.tcp_answers, 0u);
  EXPECT_EQ(s.tcp_failures, 1u);
  ASSERT_EQ(scanner.responses().size(), 1u);
  EXPECT_EQ(scanner.responses()[0].resolver, target);
  const auto decoded = dns::decode(scanner.responses()[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);
  EXPECT_TRUE(decoded->answers.empty());
}

TEST_F(ScannerFixture, TcThenSynLossTimesOutAndStillFinishes) {
  plant(1, 100, truncating_profile(true));
  // Kill every SYN on the stream substream only — UDP is untouched, so the
  // truncated R2 still arrives and opens the retry.
  net.streams().set_loss_rate(1.0);
  ScanConfig cfg = scan_config(1, 2000);
  cfg.tcp_fallback = true;
  cfg.tcp_timeout = net::SimTime::seconds(3.0);
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  bool done = false;
  scanner.start([&] { done = true; });
  loop.run();

  // The scan must not finish until the orphaned retry times out.
  EXPECT_TRUE(done);
  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.tc_seen, 1u);
  EXPECT_EQ(s.tcp_retries, 1u);
  EXPECT_EQ(s.tcp_answers, 0u);
  EXPECT_EQ(s.tcp_failures, 1u);
  EXPECT_EQ(net.streams().stats().syn_lost, 1u);
  ASSERT_EQ(scanner.responses().size(), 1u);
  const auto decoded = dns::decode(scanner.responses()[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);
  EXPECT_EQ(net.streams().active_conns(), 0u);
}

TEST_F(ScannerFixture, DuplicateR2WhileRetryPendsIsCountedNeverClassified) {
  const net::IPv4Addr target = plant(1, 100, truncating_profile(true));
  // Replay the truncated R2 at the scanner while its TCP retry is pending
  // (the retry takes ~40 ms of handshake + resolver delay; the duplicate
  // lands ~2 ms after the original).
  bool duplicated = false;
  net.add_tap([&](net::SimTime, const net::Datagram& d) {
    if (duplicated || d.src.addr != target) return;
    const auto p = d.payload.span();
    if (p.size() < 12 || (p[2] & 0x02) == 0) return;  // not the TC answer
    duplicated = true;
    net.send(d.src, d.dst, p);
  });
  ScanConfig cfg = scan_config(1, 2000);
  cfg.tcp_fallback = true;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  scanner.start([] {});
  loop.run();

  ASSERT_TRUE(duplicated);
  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.r2_received, 2u);  // original + duplicate
  EXPECT_EQ(s.tc_seen, 1u);
  EXPECT_EQ(s.tcp_retries, 1u);
  EXPECT_EQ(s.tcp_duplicate_r2, 1u);
  EXPECT_EQ(s.tcp_answers, 1u);
  // Exactly one classified flow: the TCP answer. The duplicate was only
  // counted.
  ASSERT_EQ(scanner.responses().size(), 1u);
  const auto decoded = dns::decode(scanner.responses()[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->header.flags.tc);
}

TEST_F(ScannerFixture, FallbackDisabledTreatsTcAnswersAsFinal) {
  // Control: same truncation budget, fallback off — the truncated answer is
  // classified as-is and no stream machinery is touched. The host does not
  // listen on TCP either, so the StreamNet is never even constructed.
  plant(1, 100, truncating_profile(false));
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), scan_config(1, 2000),
                  scheme);
  scanner.start([] {});
  loop.run();

  const ScanStats& s = scanner.stats();
  EXPECT_EQ(s.tc_seen, 0u);
  EXPECT_EQ(s.tcp_retries, 0u);
  ASSERT_EQ(scanner.responses().size(), 1u);
  const auto decoded = dns::decode(scanner.responses()[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);
  // The scanner never even forked the stream substream.
  EXPECT_EQ(net.streams_or_null(), nullptr);
}

TEST_F(ScannerFixture, FallbackScanIsDeterministic) {
  auto run_once = [this](std::uint64_t seed) {
    net::EventLoop l2;
    net::Network n2(l2, 5);
    n2.set_latency({net::SimTime::millis(2), net::SimTime::millis(1)});
    authns::AuthServer a2(n2, net::IPv4Addr(45, 76, 18, 21), scheme,
                          net::SimTime::nanos(0));
    auto h2 = resolver::build_hierarchy(n2, scheme.sld(),
                                        scheme.sld().child("ns1"),
                                        a2.address(), 1);
    resolver::EngineConfig ec;
    ec.hints = h2.hints;
    const auto params = derive_params(seed);
    const CyclicPermutation perm(params.generator, params.start);
    std::uint64_t k = 100, raw = perm.raw_at(k);
    while (raw >= (std::uint64_t{1} << 32) ||
           net::is_reserved(net::IPv4Addr(static_cast<std::uint32_t>(raw))) ||
           n2.bound(net::Endpoint{net::IPv4Addr(static_cast<std::uint32_t>(raw)),
                                  net::kDnsPort}))
      raw = perm.raw_at(++k);
    resolver::ResolverHost host(n2, net::IPv4Addr(static_cast<std::uint32_t>(raw)),
                                truncating_profile(true), ec, 1);
    ScanConfig cfg = scan_config(seed, 2000);
    cfg.tcp_fallback = true;
    Scanner s(n2, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
    s.start([] {});
    l2.run();
    std::vector<std::uint8_t> bytes;
    for (const R2Record& r : s.responses())
      bytes.insert(bytes.end(), r.payload.begin(), r.payload.end());
    return std::tuple{s.stats().tcp_answers, l2.now().as_seconds(), bytes};
  };
  EXPECT_EQ(run_once(9), run_once(9));
}

TEST_F(ScannerFixture, ReusedSubdomainsComeBackInReverseSendOrder) {
  // Nothing answers, so every probe times out. Each sweep releases the
  // expired probes in send order onto the LIFO reuse pool, which makes the
  // pool sorted by last send; between two sweeps, reused ids therefore
  // come back newest first.
  ScanConfig cfg = scan_config(1, 5000);
  cfg.rate_pps = 20;
  Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
  scanner.set_rotate_callback([&](std::uint32_t c) { auth.load_cluster(c); });
  const std::int64_t sweep = cfg.reap_interval.as_nanos();
  std::map<zone::SubdomainId, std::uint64_t> last_seq;  // id -> last Q1 #
  std::uint64_t seq = 0, pairs = 0, ascents = 0;
  std::int64_t prev_at = 0;     // send time of the previous reuse...
  std::uint64_t prev_from = 0;  // ...and the Q1 # whose id it reused
  net.add_tap([&](net::SimTime at, const net::Datagram& d) {
    if (d.src.addr != scanner.address()) return;
    const auto id = scheme.parse(dns::DecodeView::parse(d.payload).qname);
    ASSERT_TRUE(id.has_value());
    const auto [it, fresh] = last_seq.try_emplace(*id, seq++);
    if (fresh) return;
    // Compare reuses strictly inside one inter-sweep window (a send at the
    // sweep's own instant could fall on either side of it).
    const std::int64_t t = at.as_nanos();
    if (t % sweep != 0 && prev_at % sweep != 0 && t / sweep == prev_at / sweep) {
      ++pairs;
      if (prev_from < it->second) ++ascents;
    }
    prev_at = t;
    prev_from = it->second;
    it->second = seq - 1;
  });
  scanner.start([] {});
  loop.run();
  ASSERT_EQ(seq, scanner.stats().q1_sent);
  EXPECT_GT(pairs, 1000u);
  EXPECT_EQ(ascents, 0u);
}

// Every probe ends exactly one way — answered or reaped — and nothing is
// left in flight once the final sweep has run, with or without the TCP
// retry path (which retires answered ids itself).
TEST_F(ScannerFixture, FinalSweepEmptiesTheRingAndEveryProbeIsAccounted) {
  resolver::BehaviorProfile honest;
  honest.answer = resolver::AnswerMode::kRecursive;
  plant(1, 100, honest);
  plant(1, 200, truncating_profile(true));
  plant(1, 300, truncating_profile(false));
  for (const bool fallback : {false, true}) {
    SCOPED_TRACE(fallback);
    ScanConfig cfg = scan_config(1, 5000);
    cfg.rate_pps = 2000;
    cfg.tcp_fallback = fallback;
    Scanner scanner(net, net::IPv4Addr(132, 170, 3, 44), cfg, scheme);
    scanner.set_rotate_callback([&](std::uint32_t c) { auth.load_cluster(c); });
    bool done = false;
    scanner.start([&] { done = true; });
    loop.run();
    ASSERT_TRUE(done);
    const ScanStats& s = scanner.stats();
    EXPECT_TRUE(scanner.outstanding().empty());
    EXPECT_EQ(s.r2_matched, 3u);
    EXPECT_EQ(s.tcp_retries, fallback ? 2u : 0u);
    EXPECT_GT(s.timeouts_reaped, 3000u);
    EXPECT_EQ(s.q1_sent, s.r2_matched + s.timeouts_reaped);
  }
}

}  // namespace
}  // namespace orp::prober
