#include "core/internet_builder.h"

#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "net/reserved.h"
#include "util/rng.h"

namespace orp::core {
namespace {

const dns::DnsName& measurement_sld() {
  static const dns::DnsName sld =
      dns::DnsName::must_parse("ucfsealresearch.net");
  return sld;
}

// Infrastructure addresses (mirroring the paper's setup: the authoritative
// server on a public cloud, the prober in the university network).
constexpr net::IPv4Addr kAuthAddr(45, 76, 18, 21);     // "Vultr" instance
constexpr net::IPv4Addr kProberAddr(132, 170, 3, 44);  // campus prober

}  // namespace

net::IPv4Addr measurement_auth_address() noexcept { return kAuthAddr; }
net::IPv4Addr measurement_prober_address() noexcept { return kProberAddr; }

InternetPlan plan_internet(const PopulationSpec& spec,
                           const InternetConfig& config) {
  // The one builder RNG, consumed in the exact order the pre-shard
  // constructor consumed it — this is what keeps shard (0, 1) bit-identical
  // to the legacy construction.
  util::Rng rng(util::mix64(config.seed ^ 0x17e12e7b01dULL));

  InternetPlan plan;
  plan.scan_params = prober::derive_params(config.scan_seed);
  const prober::CyclicPermutation perm(plan.scan_params.generator,
                                       plan.scan_params.start);

  // Endpoints the live builder would have found bound while drawing:
  // the hierarchy (roots + TLD) and the authoritative server.
  std::unordered_set<std::uint32_t> infra;
  for (const net::IPv4Addr a : resolver::hierarchy_addresses(config.root_count))
    infra.insert(a.value());
  infra.insert(kAuthAddr.value());

  std::unordered_set<std::uint64_t> used_indices;
  std::unordered_set<std::uint32_t> used_addrs;
  struct Drawn {
    std::uint64_t index;
    net::IPv4Addr addr;
  };
  std::vector<Drawn> drawn;
  drawn.reserve(spec.hosts.size());

  if (spec.raw_steps < spec.hosts.size() * 4)
    throw std::invalid_argument(
        "scan slice too small to host the population");
  const std::uint64_t slice = spec.raw_steps;
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    while (true) {
      const std::uint64_t i = rng.bounded(slice);
      if (!used_indices.insert(i).second) continue;
      const std::uint64_t raw = perm.raw_at(i);
      if (raw >= (std::uint64_t{1} << 32)) continue;
      const net::IPv4Addr addr(static_cast<std::uint32_t>(raw));
      if (net::is_reserved(addr)) continue;
      if (addr == kProberAddr || addr == kAuthAddr) continue;
      if (infra.contains(addr.value())) continue;
      if (!used_addrs.insert(addr.value()).second) continue;
      drawn.push_back(Drawn{i, addr});
      break;
    }
  }

  // Upstream pool for forwarders (honest recursive, non-forwarding hosts).
  std::vector<net::IPv4Addr> upstreams;
  for (std::size_t h = 0; h < spec.hosts.size(); ++h)
    if (spec.hosts[h].upstream_candidate) upstreams.push_back(drawn[h].addr);

  plan.hosts.reserve(spec.hosts.size());
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    const HostSpec& hs = spec.hosts[h];
    PlannedHost ph;
    ph.spec_index = h;
    ph.perm_index = drawn[h].index;
    ph.addr = drawn[h].addr;
    ph.profile = hs.profile;
    if (ph.profile.forwarder) {
      if (upstreams.empty()) {
        ph.profile.forwarder = false;  // degenerate tiny population
      } else {
        ph.profile.upstream = upstreams[rng.bounded(upstreams.size())];
        if (ph.profile.upstream == ph.addr && upstreams.size() > 1)
          ph.profile.upstream = upstreams[(rng.bounded(upstreams.size() - 1))];
      }
    }
    ph.engine_seed = rng.fork(h)();
    if (!hs.country.empty())
      ph.geo_asn = 64500 + static_cast<std::uint32_t>(rng.bounded(1000));
    plan.hosts.push_back(std::move(ph));
  }
  return plan;
}

IntelBundle build_intel(const PopulationSpec& spec, const InternetPlan& plan,
                        net::IPv4Addr auth_addr) {
  IntelBundle intel;
  // Geo registration: malicious resolvers carry their calibrated country.
  for (const PlannedHost& ph : plan.hosts) {
    const HostSpec& hs = spec.hosts[ph.spec_index];
    if (!hs.country.empty())
      intel.geo.add_range(ph.addr, ph.addr, hs.country, ph.geo_asn,
                          "AS-" + hs.country);
  }
  for (const ThreatEntry& e : spec.threat_entries)
    intel.threats.add_report(e.addr, e.category, e.source, e.reports);
  // Fig. 4 flavor: the ransomware-tracker address carries multi-category
  // community reports, exactly what the paper screenshots from Cymon.
  if (const auto fig4 = net::IPv4Addr::parse("208.91.197.91");
      fig4 && intel.threats.is_reported(*fig4)) {
    intel.threats.add_report(*fig4, intel::ThreatCategory::kPhishing,
                             "community", 3);
    intel.threats.add_report(*fig4, intel::ThreatCategory::kBotnet,
                             "community", 2);
  }
  for (const OrgEntry& e : spec.org_entries)
    intel.orgs.add_range(e.addr, e.addr, e.org);
  intel.orgs.add_range(auth_addr, auth_addr, "Vultr Holdings");
  intel.orgs.build();
  intel.geo.build();
  return intel;
}

SimulatedInternet::SimulatedInternet(const PopulationSpec& spec,
                                     const InternetConfig& config)
    : SimulatedInternet(spec, config, plan_internet(spec, config),
                        /*shard_id=*/0, /*shard_count=*/1) {}

SimulatedInternet::SimulatedInternet(const PopulationSpec& spec,
                                     const InternetConfig& config,
                                     const InternetPlan& plan,
                                     std::uint32_t shard_id,
                                     std::uint32_t shard_count)
    : shard_id_(shard_id), shard_count_(shard_count) {
  if (shard_count == 0 || shard_id >= shard_count)
    throw std::invalid_argument("bad shard id/count");
  if (config.loop_batch_cap != 0 || config.delivery_group_cap != 0)
    throw std::invalid_argument("batch-dispatch caps are retired; only 0 "
                                "is accepted");

  network_ = std::make_unique<net::Network>(
      loop_, shard_seed(config.seed, shard_id));
  network_->set_latency(config.latency);
  network_->set_loss_rate(config.loss_rate);

  auth_addr_ = kAuthAddr;
  prober_addr_ = kProberAddr;

  scheme_ = std::make_unique<zone::SubdomainScheme>(
      measurement_sld(), spec.cluster_size, util::mix64(config.seed));

  const dns::DnsName auth_ns_name = measurement_sld().child("ns1");
  hierarchy_ = resolver::build_hierarchy(*network_, measurement_sld(),
                                         auth_ns_name, auth_addr_,
                                         config.root_count);
  auth_ = std::make_unique<authns::AuthServer>(
      *network_, auth_addr_, *scheme_,
      net::SimTime::seconds(spec.zone_load_seconds), &codec_scratch_,
      config.wire_templates);

  // Engine configuration for honest resolvers: real root hints.
  resolver::EngineConfig engine_config;
  engine_config.hints = hierarchy_.hints;

  // Response templates are a pure function of the profile's shaping fields
  // (everything that reaches the response bytes), so hosts sharing a shape
  // share one derived set. Profiles the fast path can't serve get null.
  using ShapeKey = std::tuple<int, bool, bool, int, bool, std::uint32_t,
                              std::string>;
  std::map<ShapeKey, const resolver::ResponseTemplates*> tpl_cache;
  const auto templates_for = [&](const resolver::BehaviorProfile& p)
      -> const resolver::ResponseTemplates* {
    if (!config.wire_templates || !p.respond || p.forwarder ||
        p.answer == resolver::AnswerMode::kRecursive)
      return nullptr;
    const ShapeKey key{static_cast<int>(p.answer), p.ra, p.aa,
                       static_cast<int>(p.rcode), p.omit_question,
                       p.fixed_answer.value(), p.text_answer};
    auto it = tpl_cache.find(key);
    if (it == tpl_cache.end()) {
      response_templates_.push_back(
          std::make_unique<resolver::ResponseTemplates>(
              resolver::build_response_templates(
                  p,
                  [this](std::uint32_t c, std::uint32_t i) {
                    return scheme_->qname({c, i});
                  },
                  codec_scratch_)));
      it = tpl_cache.emplace(key, response_templates_.back().get()).first;
    }
    return it->second;
  };

  // Stream-transport shaping: applied identically in both plant loops below
  // (owned hosts and upstream replicas), so a host's shaped profile — and
  // therefore its observable behavior — is independent of the shard layout.
  // Forwarders keep their planned knobs: CPE proxies rarely listen on TCP,
  // so their truncated answers stay terminal (no DoTCP escape hatch).
  const auto shaped = [&config](resolver::BehaviorProfile p) {
    if (p.respond && !p.forwarder) {
      if (config.udp_limit != 0) p.udp_limit = config.udp_limit;
      if (config.tcp) p.tcp = true;
    }
    return p;
  };

  // ---- Plant this shard's slice of the planned population -----------------
  const ShardSlice slice = shard_slice(spec.raw_steps, shard_id, shard_count);
  std::unordered_set<std::uint32_t> planted;
  hosts_.reserve(shard_count == 1 ? plan.hosts.size()
                                  : plan.hosts.size() / shard_count + 8);
  for (const PlannedHost& ph : plan.hosts) {
    if (shard_count > 1 && !slice.contains(ph.perm_index)) continue;
    const resolver::BehaviorProfile profile = shaped(ph.profile);
    hosts_.push_back(std::make_unique<resolver::ResolverHost>(
        *network_, ph.addr, profile, engine_config, ph.engine_seed,
        &codec_scratch_, templates_for(profile)));
    planted.insert(ph.addr.value());
  }

  // Replicate forwarder upstreams planted in other shards: a forwarder's
  // observable behavior must not depend on where its upstream's permutation
  // index landed. Upstreams are honest recursives whose responses are a
  // pure function of (profile, seed), so a replica answers exactly as the
  // home-shard original would. Replicas are never probed here.
  if (shard_count > 1) {
    std::unordered_set<std::uint32_t> needed;
    for (const auto& host : hosts_) {
      const resolver::BehaviorProfile& p = host->profile();
      if (p.forwarder && !planted.contains(p.upstream.value()))
        needed.insert(p.upstream.value());
    }
    for (const PlannedHost& ph : plan.hosts) {
      if (!needed.contains(ph.addr.value())) continue;
      const resolver::BehaviorProfile profile = shaped(ph.profile);
      hosts_.push_back(std::make_unique<resolver::ResolverHost>(
          *network_, ph.addr, profile, engine_config, ph.engine_seed,
          &codec_scratch_, templates_for(profile)));
      needed.erase(ph.addr.value());
    }
  }

  // ---- Intel databases ----------------------------------------------------
  intel_ = build_intel(spec, plan, auth_addr_);
}

}  // namespace orp::core
