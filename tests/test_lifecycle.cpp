// Just-in-time resolver hosts (core/internet_builder.h): every planted host
// is built once, before its probe reaches the network, and destroyed only
// once its response window has passed and nothing can call into it any
// more. Retirement must be invisible: the campaign outputs and the
// orp_resolver_* totals equal those of a run that keeps every host to
// teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/internet_builder.h"
#include "core/paper_data.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "obs/export.h"
#include "util/rng.h"

namespace orp::core {
namespace {

InternetConfig campaign_net(int year, std::uint64_t seed, double loss) {
  InternetConfig net;
  net.seed = seed;
  net.scan_seed = util::mix64(seed + static_cast<std::uint64_t>(year));
  net.loss_rate = loss;
  return net;
}

prober::ScanConfig campaign_scan(const PopulationSpec& spec,
                                 const InternetConfig& net) {
  prober::ScanConfig sc;
  sc.seed = net.scan_seed;
  sc.rate_pps = spec.rate_pps;
  sc.raw_steps = spec.raw_steps;
  sc.rotate_pause = net::SimTime::seconds(spec.zone_load_seconds);
  return sc;
}

/// Takes over the scanner's reap hook: at every tick it retires exactly as
/// ShardContext does, and checks that no host with work left (a scheduled
/// response, a bound port, a pending engine timeout) was destroyed by the
/// call. It follows the just-in-time hosts, i.e. the planted addresses not
/// bound when the checker is installed.
class RetireChecker {
 public:
  RetireChecker(SimulatedInternet& internet, prober::Scanner& scanner,
                const std::vector<net::IPv4Addr>& planted)
      : internet_(internet) {
    for (const net::IPv4Addr a : planted)
      if (!internet.network().bound({a, net::kDnsPort}))
        jit_.insert(a.value());
    const net::IPv4Addr prober = internet.prober_address();
    internet.network().add_tap([this, prober](net::SimTime t,
                                              const net::Datagram& d) {
      if (d.src.addr != prober || d.dst.port != net::kDnsPort ||
          !jit_.contains(d.dst.addr.value()))
        return;
      probed_at_[d.dst.addr.value()] = t;
      pending_.push_back(d.dst.addr.value());
    });
    scanner.set_reap_callback(
        [this](net::SimTime probed_by) { tick(probed_by); });
  }

  void tick(net::SimTime probed_by) {
    std::vector<std::uint32_t> busy;
    std::erase_if(pending_, [&](std::uint32_t a) {
      const resolver::ResolverHost* h =
          internet_.find_host(net::IPv4Addr(a));
      if (h == nullptr) return true;  // retired at an earlier tick
      if (!h->quiescent()) {
        busy.push_back(a);
        if (probed_at_[a] <= probed_by) busy_past_window_.insert(a);
      }
      return false;
    });
    internet_.retire_quiescent(probed_by);
    for (const std::uint32_t a : busy) {
      if (internet_.find_host(net::IPv4Addr(a)) == nullptr) {
        ADD_FAILURE() << "retired with work left: "
                      << net::IPv4Addr(a).to_string();
        ++violations_;
      }
    }
  }

  std::size_t jit_count() const noexcept { return jit_.size(); }
  std::size_t violations() const noexcept { return violations_; }
  /// Hosts seen busy at a tick that was already past their window.
  bool was_busy_past_window(net::IPv4Addr a) const {
    return busy_past_window_.contains(a.value());
  }
  std::size_t busy_past_window_count() const noexcept {
    return busy_past_window_.size();
  }

 private:
  SimulatedInternet& internet_;
  std::unordered_set<std::uint32_t> jit_;
  std::map<std::uint32_t, net::SimTime> probed_at_;
  std::vector<std::uint32_t> pending_;  // probed, not yet seen retired
  std::unordered_set<std::uint32_t> busy_past_window_;
  std::size_t violations_ = 0;
};

std::vector<net::IPv4Addr> planted_addresses(const InternetPlan& plan) {
  std::vector<net::IPv4Addr> out;
  for (const PlannedHost& ph : plan.hosts) out.push_back(ph.addr);
  return out;
}

TEST(HostLifecycle, PlanIsCompactAndInternsProfiles) {
  static_assert(sizeof(PlannedHost) <= 32);
  const PopulationSpec spec = build_population(paper_2013(), 4096, 42);
  const InternetPlan plan = plan_internet(spec, campaign_net(2013, 42, 0));
  ASSERT_EQ(plan.hosts.size(), spec.hosts.size());
  EXPECT_LT(plan.profiles.size(), spec.hosts.size());
  for (std::size_t h = 0; h < plan.hosts.size(); ++h) {
    const PlannedHost& ph = plan.hosts[h];
    ASSERT_LT(ph.profile_id, plan.profiles.size());
    const resolver::BehaviorProfile& p = plan.profiles[ph.profile_id];
    EXPECT_EQ(p.upstream.value(), 0u);
    // A forwarder's behavior is its spec profile plus its drawn upstream;
    // every other host's is its spec profile.
    EXPECT_EQ(p, spec.hosts[h].profile) << h;
    EXPECT_EQ(ph.upstream.value() != 0, p.forwarder) << h;
    EXPECT_EQ(ph.geo_asn != 0, !spec.hosts[h].country.empty()) << h;
  }
}

class BuildOrder
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(BuildOrder, EverySliceHostIsBuiltOnceBeforeItsProbe) {
  const auto [shard, shards] = GetParam();
  const PopulationSpec spec = build_population(paper_2013(), 16384, 42);
  const InternetConfig net = campaign_net(2013, 42, 0);
  const InternetPlan plan = plan_internet(spec, net);
  ShardContext ctx(spec, net, plan, shard, shards, campaign_scan(spec, net));
  SimulatedInternet& internet = ctx.internet();

  const ShardSlice slice = shard_slice(spec.raw_steps, shard, shards);
  std::unordered_set<std::uint32_t> in_slice, upstreams;
  for (const PlannedHost& ph : plan.hosts) {
    if (!slice.contains(ph.perm_index)) continue;
    in_slice.insert(ph.addr.value());
    if (ph.upstream.value() != 0) upstreams.insert(ph.upstream.value());
  }
  std::size_t replicas = 0;
  for (const std::uint32_t u : upstreams) replicas += !in_slice.contains(u);

  // Only the resident hosts exist before the scan starts.
  EXPECT_EQ(internet.hosts_built(), internet.resident_host_count());
  EXPECT_LT(internet.hosts_built(), in_slice.size());

  std::size_t probed = 0, unbound_at_probe = 0;
  net::Network& network = internet.network();
  const net::IPv4Addr prober = internet.prober_address();
  network.add_tap([&](net::SimTime, const net::Datagram& d) {
    if (d.src.addr != prober || d.dst.port != net::kDnsPort ||
        !in_slice.contains(d.dst.addr.value()))
      return;
    ++probed;
    if (!network.bound(d.dst)) ++unbound_at_probe;
  });
  ctx.run();

  EXPECT_EQ(probed, in_slice.size());
  EXPECT_EQ(unbound_at_probe, 0u);
  // Each slice host once, plus one replica per upstream planted elsewhere.
  EXPECT_EQ(internet.hosts_built(), in_slice.size() + replicas);
  EXPECT_EQ(internet.hosts_retired() + internet.live_host_count() +
                internet.resident_host_count(),
            internet.hosts_built());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BuildOrder,
    ::testing::Values(std::pair{0u, 1u}, std::pair{1u, 4u}),
    [](const auto& info) {
      return "shard" + std::to_string(info.param.first) + "of" +
             std::to_string(info.param.second);
    });

TEST(HostLifecycle, LiveHostWindowStaysSmall) {
  const PopulationSpec spec = build_population(paper_2013(), 1024, 42);
  const InternetConfig net = campaign_net(2013, 42, 0);
  const InternetPlan plan = plan_internet(spec, net);
  ShardContext ctx(spec, net, plan, 0, 1, campaign_scan(spec, net));
  ctx.run();
  const SimulatedInternet& internet = ctx.internet();
  const std::size_t jit =
      internet.hosts_built() - internet.resident_host_count();
  EXPECT_GT(jit, 10000u);
  // About one response window of hosts at a time, not the population.
  EXPECT_GT(internet.peak_live_hosts(), 0u);
  EXPECT_LT(internet.peak_live_hosts() * 50, jit);
  // Lossless: the final reap finds every host drained.
  EXPECT_EQ(internet.live_host_count(), 0u);
  EXPECT_EQ(internet.hosts_retired(), jit);
}

/// A hand-built population, one host per kind of work that can outlast a
/// one-second response window once the authoritative server stops
/// answering (each recursion then takes three 5 s timeouts):
PopulationSpec busy_spec() {
  PopulationSpec spec;
  spec.year = 2018;
  spec.raw_steps = 4000;
  spec.rate_pps = 400;  // about 10 s of sending
  spec.cluster_size = 8192;  // more names than probes: no zone rotation
  spec.zone_load_seconds = 0.001;
  HostSpec delayed;  // a response scheduled 5 s out
  delayed.profile.answer = resolver::AnswerMode::kFixedIp;
  delayed.profile.fixed_answer = net::IPv4Addr(192, 0, 2, 7);
  delayed.profile.response_delay = net::SimTime::seconds(5.0);
  HostSpec upstream;  // resident: the forwarder's upstream
  upstream.upstream_candidate = true;
  HostSpec forwarder;  // a forwarded-query port open for the upstream's 15 s
  forwarder.profile.forwarder = true;
  HostSpec recursive;  // an open engine resolution for 15 s
  spec.hosts = {delayed, upstream, forwarder, recursive};
  return spec;
}

TEST(HostLifecycle, BusyHostsOutliveTheirWindow) {
  const PopulationSpec spec = busy_spec();
  const InternetConfig net = campaign_net(2018, 9, 0);
  const InternetPlan plan = plan_internet(spec, net);
  SimulatedInternet internet(spec, net);
  internet.network().unbind({internet.auth_address(), net::kDnsPort});

  prober::ScanConfig sc = campaign_scan(spec, net);
  sc.response_timeout = net::SimTime::seconds(1.0);
  sc.reap_interval = net::SimTime::seconds(1.0);
  prober::Scanner scanner(internet.network(), internet.prober_address(), sc,
                          internet.scheme());
  scanner.set_advance_callback(
      [&internet](std::uint64_t end) { internet.build_hosts_below(end); });
  RetireChecker checker(internet, scanner, planted_addresses(plan));
  EXPECT_EQ(checker.jit_count(), 3u);  // the upstream is resident
  scanner.start({});
  internet.loop().run();

  EXPECT_EQ(checker.violations(), 0u);
  for (const std::size_t h : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    const net::IPv4Addr a = plan.hosts[h].addr;
    EXPECT_TRUE(checker.was_busy_past_window(a)) << "host " << h;
  }
  // Drained now: one more sweep retires all three; the upstream stays.
  internet.retire_quiescent(internet.loop().now());
  EXPECT_EQ(internet.hosts_retired(), 3u);
  EXPECT_EQ(internet.live_host_count(), 0u);
  EXPECT_NE(internet.find_host(plan.hosts[1].addr), nullptr);
  // The totals still count the retired hosts' work: four probes and the
  // forwarded query, each answered (the late answers land after the
  // scanner closed its port), and the upstream recursed for its own probe
  // and for the forwarder.
  const SimulatedInternet::ResolverTotals t = internet.resolver_totals();
  EXPECT_EQ(t.stats.queries, 5u);
  EXPECT_EQ(t.stats.responses, 5u);
  EXPECT_EQ(t.stats.forwarded, 1u);
  EXPECT_EQ(t.stats.recursions, 3u);
  EXPECT_GT(t.upstream_queries, 0u);
}

TEST(HostLifecycle, LeakedForwarderPortKeepsItsHost) {
  // At 2% loss some forwarders lose their upstream exchange; the forwarded
  // port then stays bound for good, and so must the host.
  const PopulationSpec spec = build_population(paper_2013(), 4096, 42);
  const InternetConfig net = campaign_net(2013, 42, 0.02);
  const InternetPlan plan = plan_internet(spec, net);
  ShardContext ctx(spec, net, plan, 0, 1, campaign_scan(spec, net));
  SimulatedInternet& internet = ctx.internet();
  RetireChecker checker(internet, ctx.scanner(), planted_addresses(plan));
  ctx.run();
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_GT(checker.busy_past_window_count(), 0u);

  // The loop is empty, so no callback is pending anywhere: a host that is
  // still busy holds a port nothing will ever answer.
  internet.retire_quiescent(internet.loop().now());
  std::size_t leaked = 0;
  for (const PlannedHost& ph : plan.hosts) {
    const resolver::ResolverHost* h = internet.find_host(ph.addr);
    if (h == nullptr || h->quiescent()) continue;
    ++leaked;
    EXPECT_TRUE(h->profile().forwarder) << ph.addr.to_string();
  }
  EXPECT_GT(leaked, 0u);
  EXPECT_EQ(internet.live_host_count(), leaked);
}

/// The orp_resolver_* lines of a campaign's Prometheus export.
std::string resolver_metrics(const ScanOutcome& o) {
  std::istringstream in(obs::to_prometheus(o.metrics));
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("orp_resolver_", 0) == 0) out += line + "\n";
  return out;
}

TEST(HostLifecycle, ResolverTotalsMatchAllHostsResident) {
  // Pinned from the build that kept every host to teardown (seed 42,
  // scale 1/4096). 2013 at 2% loss leaks forwarder ports; three shards add
  // upstream replicas.
  struct Case {
    int year;
    double loss;
    unsigned threads;
    std::uint64_t digest, r2, events;
    std::uint64_t queries, responses, recursions, forwarded, cache_bypass,
        upstream_queries, template_stamped;
  };
  const Case cases[] = {
      {2013, 0.02, 1, 0xab6fa29fabb53293ULL, 3882, 186559, 4390, 4375, 9043,
       419, 9043, 26816, 1203},
      {2013, 0.02, 3, 0x8f50386b0ad37125ULL, 3886, 309701, 4403, 4389, 9075,
       423, 9075, 27825, 1203},
      {2018, 0.0, 2, 0x893424d1730653a1ULL, 1589, 67598, 1688, 1688, 3150, 99,
       3150, 8962, 926},
  };
  for (const Case& c : cases) {
    PipelineConfig cfg;
    cfg.scale = 4096;
    cfg.seed = 42;
    cfg.threads = c.threads;
    cfg.loss_rate = c.loss;
    cfg.obs.metrics = true;
    const ScanOutcome o = run_measurement(
        c.year == 2013 ? paper_2013() : paper_2018(), cfg);
    SCOPED_TRACE(std::to_string(c.year) + " t" + std::to_string(c.threads));
    EXPECT_EQ(o.capture_digest, c.digest);
    EXPECT_EQ(o.scan.r2_received, c.r2);
    EXPECT_EQ(o.events_executed, c.events);
    const auto line = [](const char* name, std::uint64_t v) {
      return std::string("orp_resolver_") + name + " " + std::to_string(v) +
             "\n";
    };
    EXPECT_EQ(resolver_metrics(o),
              line("queries", c.queries) + line("responses", c.responses) +
                  line("recursions", c.recursions) +
                  line("forwarded", c.forwarded) + line("truncated", 0) +
                  line("rrl_dropped", 0) + line("rrl_slipped", 0) +
                  line("cache_bypass", c.cache_bypass) +
                  line("upstream_queries", c.upstream_queries) +
                  line("template_stamped", c.template_stamped) +
                  line("template_fallback", 0));
  }
}

}  // namespace
}  // namespace orp::core
