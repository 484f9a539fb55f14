#include "core/internet_builder.h"

#include <algorithm>
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

// Hashes the fields that tell the population's profiles apart; equality
// (the defaulted operator==) settles the rest.
struct ProfileHash {
  std::size_t operator()(const resolver::BehaviorProfile& p) const noexcept {
    std::uint64_t h = util::mix64(
        (std::uint64_t{p.fixed_answer.value()} << 32) |
        (static_cast<std::uint64_t>(p.answer) << 24) |
        (static_cast<std::uint64_t>(p.rcode) << 16) |
        (std::uint64_t{p.respond} << 7) | (std::uint64_t{p.ra} << 6) |
        (std::uint64_t{p.aa} << 5) | (std::uint64_t{p.omit_question} << 4) |
        (std::uint64_t{p.forwarder} << 3) | (std::uint64_t{p.dnssec_ok} << 2) |
        (static_cast<std::uint64_t>(p.backend_fan) & 3));
    h ^= std::hash<std::string>{}(p.text_answer);
    return util::mix64(h ^ std::hash<std::string>{}(p.version));
  }
};

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

  // Intern the profiles: a campaign has far fewer distinct behaviors than
  // hosts, and a PlannedHost names its behavior by index.
  std::unordered_map<resolver::BehaviorProfile, std::uint32_t, ProfileHash>
      interned;
  const auto intern = [&](const resolver::BehaviorProfile& p) {
    const auto [it, added] = interned.try_emplace(
        p, static_cast<std::uint32_t>(plan.profiles.size()));
    if (added) plan.profiles.push_back(p);
    return it->second;
  };

  plan.hosts.reserve(spec.hosts.size());
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    const HostSpec& hs = spec.hosts[h];
    PlannedHost ph;
    ph.perm_index = drawn[h].index;
    ph.addr = drawn[h].addr;
    if (hs.profile.forwarder && upstreams.empty()) {
      resolver::BehaviorProfile demoted = hs.profile;
      demoted.forwarder = false;  // degenerate tiny population
      ph.profile_id = intern(demoted);
    } else {
      ph.profile_id = intern(hs.profile);
      if (hs.profile.forwarder) {
        ph.upstream = upstreams[rng.bounded(upstreams.size())];
        if (ph.upstream == ph.addr && upstreams.size() > 1)
          ph.upstream = upstreams[(rng.bounded(upstreams.size() - 1))];
      }
    }
    ph.engine_seed = rng.fork(h)();
    if (!hs.country.empty())
      ph.geo_asn = 64500 + static_cast<std::uint32_t>(rng.bounded(1000));
    plan.hosts.push_back(ph);
  }
  return plan;
}

IntelBundle build_intel(const PopulationSpec& spec, const InternetPlan& plan,
                        net::IPv4Addr auth_addr) {
  IntelBundle intel;
  // Geo registration: malicious resolvers carry their calibrated country.
  for (std::size_t h = 0; h < plan.hosts.size(); ++h) {
    const PlannedHost& ph = plan.hosts[h];
    const HostSpec& hs = spec.hosts[h];
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
  engine_config_.hints = hierarchy_.hints;

  // Stream-transport shaping, applied to the profile table, so a host's
  // shaped profile — and therefore its observable behavior — is independent
  // of the shard layout and of whether it is built at construction or just
  // in time. Forwarders keep their planned knobs: CPE proxies rarely listen
  // on TCP, so their truncated answers stay terminal (no DoTCP escape hatch).
  profiles_.reserve(plan.profiles.size());
  for (resolver::BehaviorProfile p : plan.profiles) {
    if (p.respond && !p.forwarder) {
      if (config.udp_limit != 0) p.udp_limit = config.udp_limit;
      if (config.tcp) p.tcp = true;
    }
    profiles_.push_back(std::move(p));
  }
  profile_templates_.assign(profiles_.size(), nullptr);

  // Response templates are a pure function of the profile's shaping fields
  // (everything that reaches the response bytes), so hosts sharing a shape
  // share one derived set. Profiles the fast path can't serve get null.
  using ShapeKey = std::tuple<int, bool, bool, int, bool, std::uint32_t,
                              std::string>;
  std::map<ShapeKey, const resolver::ResponseTemplates*> tpl_cache;
  std::vector<bool> derived(profiles_.size(), false);
  const auto derive_templates = [&](std::uint32_t id) {
    if (derived[id]) return;
    derived[id] = true;
    const resolver::BehaviorProfile& p = profiles_[id];
    if (!config.wire_templates || !p.respond || p.forwarder ||
        p.answer == resolver::AnswerMode::kRecursive)
      return;
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
    profile_templates_[id] = it->second;
  };

  // ---- This shard's slice of the planned population -----------------------
  const ShardSlice slice = shard_slice(spec.raw_steps, shard_id, shard_count);
  std::vector<PlannedHost> mine;
  mine.reserve(shard_count == 1 ? plan.hosts.size()
                                : plan.hosts.size() / shard_count + 8);
  for (const PlannedHost& ph : plan.hosts) {
    if (shard_count > 1 && !slice.contains(ph.perm_index)) continue;
    mine.push_back(ph);
    derive_templates(ph.profile_id);
  }

  // Resident hosts: what other hosts reach, and what may be contacted after
  // its probe. Every upstream one of this shard's forwarders chose stays
  // from construction to teardown, whether planted here or a replica of one
  // planted in another shard (an upstream answers as a pure function of its
  // profile and seed, so a replica answers exactly as the home-shard
  // original would; replicas are never probed here). TCP listeners stay
  // too: a scanner's DoTCP retry can reach one after it went quiescent.
  std::unordered_set<std::uint32_t> upstreams;
  for (const PlannedHost& ph : mine)
    if (ph.upstream.value() != 0) upstreams.insert(ph.upstream.value());
  for (const PlannedHost& ph : mine) {
    const resolver::BehaviorProfile& p = profiles_[ph.profile_id];
    const bool listens_tcp = p.tcp && p.respond && !p.forwarder;
    if (upstreams.erase(ph.addr.value()) != 0 || listens_tcp)
      resident_.push_back(make_host(ph));
    else
      jit_plan_.push_back(ph);
  }
  if (!upstreams.empty()) {
    for (const PlannedHost& ph : plan.hosts) {
      if (upstreams.erase(ph.addr.value()) == 0) continue;
      derive_templates(ph.profile_id);
      resident_.push_back(make_host(ph));
    }
  }
  std::sort(jit_plan_.begin(), jit_plan_.end(),
            [](const PlannedHost& a, const PlannedHost& b) {
              return a.perm_index < b.perm_index;
            });

  // ---- Intel databases ----------------------------------------------------
  intel_ = build_intel(spec, plan, auth_addr_);
}

std::unique_ptr<resolver::ResolverHost> SimulatedInternet::make_host(
    const PlannedHost& ph) {
  resolver::BehaviorProfile profile = profiles_[ph.profile_id];
  profile.upstream = ph.upstream;
  ++built_;
  return std::make_unique<resolver::ResolverHost>(
      *network_, ph.addr, std::move(profile), engine_config_, ph.engine_seed,
      &codec_scratch_, profile_templates_[ph.profile_id]);
}

void SimulatedInternet::build_hosts_below(std::uint64_t end_index) {
  // A host's probe leaves in the batch that consumed its index, at this
  // very sim time — the send time its retirement is measured from.
  const net::SimTime now = loop_.now();
  for (; next_jit_ < jit_plan_.size() &&
         jit_plan_[next_jit_].perm_index < end_index;
       ++next_jit_)
    live_.push_back(LiveHost{now, make_host(jit_plan_[next_jit_])});
  peak_live_ = std::max(peak_live_, live_host_count());
}

void SimulatedInternet::retire(std::unique_ptr<resolver::ResolverHost> host) {
  retired_totals_.add(*host);
  ++retired_count_;
}

void SimulatedInternet::retire_quiescent(net::SimTime probed_by) {
  while (!live_.empty() && live_.front().probed_at <= probed_by) {
    std::unique_ptr<resolver::ResolverHost> host =
        std::move(live_.front().host);
    live_.pop_front();
    if (host->quiescent())
      retire(std::move(host));
    else
      lingering_.push_back(std::move(host));
  }
  std::erase_if(lingering_,
                [this](std::unique_ptr<resolver::ResolverHost>& host) {
                  if (!host->quiescent()) return false;
                  retire(std::move(host));
                  return true;
                });
}

void SimulatedInternet::ResolverTotals::add(
    const resolver::ResolverHost& host) {
  stats += host.stats();
  if (const resolver::IterativeEngine* eng = host.engine()) {
    cache_bypasses += eng->cache_bypasses();
    upstream_queries += eng->upstream_queries();
  }
}

SimulatedInternet::ResolverTotals SimulatedInternet::resolver_totals() const {
  ResolverTotals t = retired_totals_;
  for (const auto& host : resident_) t.add(*host);
  for (const LiveHost& live : live_) t.add(*live.host);
  for (const auto& host : lingering_) t.add(*host);
  return t;
}

const resolver::ResolverHost* SimulatedInternet::find_host(
    net::IPv4Addr addr) const {
  for (const auto& host : resident_)
    if (host->address() == addr) return host.get();
  for (const LiveHost& live : live_)
    if (live.host->address() == addr) return live.host.get();
  for (const auto& host : lingering_)
    if (host->address() == addr) return host.get();
  return nullptr;
}

}  // namespace orp::core
