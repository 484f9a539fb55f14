#include <gtest/gtest.h>

#include "authns/auth_server.h"
#include "dns/builder.h"
#include "resolver/root_tld.h"
#include "resolver/rrl.h"
#include "resolver/scripted_resolver.h"

namespace orp::resolver {
namespace {

// ---- ResponseRateLimiter unit behavior ------------------------------------------

TEST(Rrl, DisabledAlwaysSends) {
  ResponseRateLimiter limiter(RrlConfig{});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(limiter.check(net::IPv4Addr(1, 1, 1, 1), net::SimTime()),
              RrlAction::kSend);
  EXPECT_EQ(limiter.sent(), 100u);
}

TEST(Rrl, BurstThenSuppression) {
  RrlConfig cfg;
  cfg.enabled = true;
  cfg.responses_per_second = 1;
  cfg.burst = 5;
  cfg.slip = 2;
  ResponseRateLimiter limiter(cfg);
  const net::IPv4Addr client(1, 1, 1, 1);
  int sent = 0;
  int suppressed = 0;
  for (int i = 0; i < 20; ++i) {
    const auto action = limiter.check(client, net::SimTime::millis(i));
    if (action == RrlAction::kSend)
      ++sent;
    else
      ++suppressed;
  }
  EXPECT_EQ(sent, 5);  // the burst
  EXPECT_EQ(suppressed, 15);
  // slip=2: every second suppressed response is a slip.
  EXPECT_EQ(limiter.slipped(), 7u);
  EXPECT_EQ(limiter.dropped(), 8u);
}

TEST(Rrl, TokensRefillOverTime) {
  RrlConfig cfg;
  cfg.enabled = true;
  cfg.responses_per_second = 10;
  cfg.burst = 2;
  ResponseRateLimiter limiter(cfg);
  const net::IPv4Addr client(1, 1, 1, 1);
  EXPECT_EQ(limiter.check(client, net::SimTime::seconds(0)), RrlAction::kSend);
  EXPECT_EQ(limiter.check(client, net::SimTime::seconds(0)), RrlAction::kSend);
  EXPECT_NE(limiter.check(client, net::SimTime::seconds(0)), RrlAction::kSend);
  // 100ms at 10 rps refills one token.
  EXPECT_EQ(limiter.check(client, net::SimTime::millis(150)),
            RrlAction::kSend);
}

TEST(Rrl, BudgetsArePerClient) {
  RrlConfig cfg;
  cfg.enabled = true;
  cfg.responses_per_second = 1;
  cfg.burst = 1;
  ResponseRateLimiter limiter(cfg);
  EXPECT_EQ(limiter.check(net::IPv4Addr(1, 1, 1, 1), net::SimTime()),
            RrlAction::kSend);
  EXPECT_NE(limiter.check(net::IPv4Addr(1, 1, 1, 1), net::SimTime()),
            RrlAction::kSend);
  // A different client has its own bucket.
  EXPECT_EQ(limiter.check(net::IPv4Addr(2, 2, 2, 2), net::SimTime()),
            RrlAction::kSend);
}

TEST(Rrl, SlipZeroDropsEverything) {
  RrlConfig cfg;
  cfg.enabled = true;
  cfg.responses_per_second = 1;
  cfg.burst = 1;
  cfg.slip = 0;
  ResponseRateLimiter limiter(cfg);
  const net::IPv4Addr client(1, 1, 1, 1);
  (void)limiter.check(client, net::SimTime());
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(limiter.check(client, net::SimTime()), RrlAction::kDrop);
  EXPECT_EQ(limiter.slipped(), 0u);
}

// ---- version.bind fingerprinting --------------------------------------------------

class ChaosFixture : public ::testing::Test {
 protected:
  ChaosFixture() : net(loop, 3) {
    net.set_latency({net::SimTime::millis(1), net::SimTime::nanos(0)});
  }

  std::optional<dns::Message> chaos_query(net::IPv4Addr host) {
    std::optional<dns::Message> response;
    const net::Endpoint prober{net::IPv4Addr(9, 9, 9, 9), 4000};
    net.bind(prober, [&](const net::Datagram& d) {
      if (const auto decoded = dns::decode(d.payload)) response = *decoded;
    });
    dns::Message q =
        dns::make_query(5, dns::DnsName::must_parse("version.bind"),
                        dns::RRType::kTXT);
    q.questions[0].qclass = dns::RRClass::kCH;
    net.send(net::Datagram{prober, net::Endpoint{host, net::kDnsPort},
                           dns::encode(q)});
    loop.run();
    net.unbind(prober);
    return response;
  }

  net::EventLoop loop;
  net::Network net;
  resolver::EngineConfig engine_config;
};

TEST_F(ChaosFixture, BannerDisclosedWhenConfigured) {
  BehaviorProfile p;
  p.answer = AnswerMode::kRecursive;
  p.version = "9.10.3-P4-Ubuntu";
  ResolverHost host(net, net::IPv4Addr(7, 7, 7, 7), p, engine_config, 1);
  const auto r = chaos_query(host.address());
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->has_answer());
  EXPECT_EQ(r->answers[0].rrclass, dns::RRClass::kCH);
  const auto* txt = std::get_if<dns::TxtRdata>(&r->answers[0].rdata);
  ASSERT_NE(txt, nullptr);
  EXPECT_EQ(txt->strings[0], "9.10.3-P4-Ubuntu");
}

TEST_F(ChaosFixture, HiddenVersionIsRefused) {
  BehaviorProfile p;
  p.answer = AnswerMode::kRecursive;  // version left empty
  ResolverHost host(net, net::IPv4Addr(7, 7, 7, 7), p, engine_config, 1);
  const auto r = chaos_query(host.address());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.flags.rcode, dns::Rcode::kRefused);
  EXPECT_FALSE(r->has_answer());
}

TEST_F(ChaosFixture, ChaosQueryNeverTriggersRecursion) {
  // A CH-class query must not reach the IN-class resolution machinery.
  BehaviorProfile p;
  p.answer = AnswerMode::kRecursive;
  p.version = "named";
  ResolverHost host(net, net::IPv4Addr(7, 7, 7, 7), p, engine_config, 1);
  (void)chaos_query(host.address());
  EXPECT_EQ(host.stats().recursions, 0u);
}

TEST_F(ChaosFixture, OtherChaosNamesRefused) {
  BehaviorProfile p;
  p.version = "named";
  p.answer = AnswerMode::kNone;
  ResolverHost host(net, net::IPv4Addr(7, 7, 7, 7), p, engine_config, 1);
  std::optional<dns::Message> response;
  const net::Endpoint prober{net::IPv4Addr(9, 9, 9, 9), 4001};
  net.bind(prober, [&](const net::Datagram& d) {
    if (const auto decoded = dns::decode(d.payload)) response = *decoded;
  });
  dns::Message q = dns::make_query(
      5, dns::DnsName::must_parse("hostname.bind"), dns::RRType::kTXT);
  q.questions[0].qclass = dns::RRClass::kCH;
  net.send(net::Datagram{prober, net::Endpoint{host.address(), net::kDnsPort},
                         dns::encode(q)});
  loop.run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.flags.rcode, dns::Rcode::kRefused);
}

}  // namespace
}  // namespace orp::resolver
