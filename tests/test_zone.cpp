#include <gtest/gtest.h>

#include <set>

#include "net/reserved.h"
#include "zone/cluster.h"
#include "zone/zone.h"

namespace orp::zone {
namespace {

dns::SoaRdata test_soa() {
  dns::SoaRdata soa;
  soa.mname = dns::DnsName::must_parse("ns1.sld.net");
  soa.rname = dns::DnsName::must_parse("hostmaster.sld.net");
  return soa;
}

// ---- Zone -------------------------------------------------------------------

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest() : zone(dns::DnsName::must_parse("sld.net"), test_soa()) {
    zone.add(dns::ResourceRecord{dns::DnsName::must_parse("www.sld.net"),
                                 dns::RRType::kA, dns::RRClass::kIN, 300,
                                 dns::ARdata{net::IPv4Addr(1, 2, 3, 4)}});
    zone.add(dns::ResourceRecord{
        dns::DnsName::must_parse("www.sld.net"), dns::RRType::kTXT,
        dns::RRClass::kIN, 300, dns::TxtRdata{{"hello"}}});
  }
  Zone zone;
};

TEST_F(ZoneTest, AnswerForExistingRecord) {
  const auto r = zone.lookup(dns::DnsName::must_parse("www.sld.net"),
                             dns::RRType::kA);
  EXPECT_EQ(r.status, LookupStatus::kAnswer);
  ASSERT_EQ(r.records.size(), 1u);
}

TEST_F(ZoneTest, NoDataForWrongType) {
  const auto r = zone.lookup(dns::DnsName::must_parse("www.sld.net"),
                             dns::RRType::kMX);
  EXPECT_EQ(r.status, LookupStatus::kNoData);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(ZoneTest, NXDomainForMissingName) {
  const auto r = zone.lookup(dns::DnsName::must_parse("nope.sld.net"),
                             dns::RRType::kA);
  EXPECT_EQ(r.status, LookupStatus::kNXDomain);
}

TEST_F(ZoneTest, OutOfZoneRefused) {
  const auto r =
      zone.lookup(dns::DnsName::must_parse("example.com"), dns::RRType::kA);
  EXPECT_EQ(r.status, LookupStatus::kOutOfZone);
}

TEST_F(ZoneTest, AnyCollectsAllTypes) {
  const auto r = zone.lookup(dns::DnsName::must_parse("www.sld.net"),
                             dns::RRType::kANY);
  EXPECT_EQ(r.status, LookupStatus::kAnswer);
  EXPECT_EQ(r.records.size(), 2u);  // A + TXT: the amplification payload
}

TEST_F(ZoneTest, ApexHasSoa) {
  const auto r =
      zone.lookup(dns::DnsName::must_parse("sld.net"), dns::RRType::kSOA);
  EXPECT_EQ(r.status, LookupStatus::kAnswer);
}

TEST_F(ZoneTest, CaseInsensitiveLookup) {
  const auto r = zone.lookup(dns::DnsName::must_parse("WWW.SLD.NET"),
                             dns::RRType::kA);
  EXPECT_EQ(r.status, LookupStatus::kAnswer);
}

TEST_F(ZoneTest, RejectsOutOfZoneAdd) {
  EXPECT_THROW(
      zone.add(dns::ResourceRecord{dns::DnsName::must_parse("other.org"),
                                   dns::RRType::kA, dns::RRClass::kIN, 60,
                                   dns::ARdata{net::IPv4Addr(1, 1, 1, 1)}}),
      std::invalid_argument);
}

TEST_F(ZoneTest, BulkAddAndSerial) {
  const auto before = zone.serial();
  zone.add_a_records({{dns::DnsName::must_parse("h1.sld.net"),
                       net::IPv4Addr(9, 9, 9, 9)},
                      {dns::DnsName::must_parse("h2.sld.net"),
                       net::IPv4Addr(9, 9, 9, 10)}},
                     120);
  zone.bump_serial();
  EXPECT_EQ(zone.serial(), before + 1);
  EXPECT_EQ(zone.lookup(dns::DnsName::must_parse("h2.sld.net"),
                        dns::RRType::kA)
                .status,
            LookupStatus::kAnswer);
}

// ---- SubdomainScheme -----------------------------------------------------------

class SchemeTest : public ::testing::Test {
 protected:
  SubdomainScheme scheme{dns::DnsName::must_parse("ucfsealresearch.net"),
                         5'000'000, 77};
};

TEST_F(SchemeTest, QnameFormatMatchesPaperFigure3) {
  // Fig. 3: or<3-digit cluster>.<7-digit index>.<sld>
  EXPECT_EQ(scheme.qname({0, 0}).to_string(),
            "or000.0000000.ucfsealresearch.net");
  EXPECT_EQ(scheme.qname({12, 34567}).to_string(),
            "or012.0034567.ucfsealresearch.net");
}

TEST_F(SchemeTest, ParseRoundTrip) {
  for (const SubdomainId id : {SubdomainId{0, 0}, SubdomainId{3, 4999999},
                               SubdomainId{999, 1234567}}) {
    const auto parsed = scheme.parse(scheme.qname(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
}

TEST_F(SchemeTest, ParseRejectsForeignNames) {
  for (const char* s :
       {"www.ucfsealresearch.net", "or0x1.0000001.ucfsealresearch.net",
        "or001.abc.ucfsealresearch.net", "or001.0000001.example.net",
        "deep.or001.0000001.ucfsealresearch.net", "ucfsealresearch.net"}) {
    EXPECT_FALSE(scheme.parse(dns::DnsName::must_parse(s)).has_value()) << s;
  }
}

// canonical_key() must reproduce DnsName::canonical_key() exactly —
// including at the wire template's width boundaries (cluster 999 -> 1000,
// index overflow), where snprintf("%03u") grows naturally.
TEST_F(SchemeTest, RenderedKeyMatchesCanonicalAcrossWidthBoundary) {
  const SubdomainId ids[] = {
      {0, 0},      {12, 34567},     {999, 0},  {999, 9999999},
      {1000, 0},   {1000, 9999999}, {1500, 7}, {999, 10000000},
      {4294967295u, 4294967295u},
  };
  for (const SubdomainId id : ids) {
    char buf[SubdomainScheme::kKeyCapacity];
    const std::string_view key = scheme.canonical_key(id, buf);
    EXPECT_EQ(key, scheme.qname(id).canonical_key())
        << id.cluster << "/" << id.index;
    EXPECT_EQ(scheme.parse_key(key), id) << key;
  }
}

TEST_F(SchemeTest, ParseKeyAcceptsOnlyCanonicalRenders) {
  // Every key parse() would accept but canonical_key() never renders is
  // rejected: the strict round trip is what keeps R2 grouping exact.
  for (const char* s :
       {"or1.0000001.ucfsealresearch.net", "or001.1.ucfsealresearch.net",
        "or0001.0000001.ucfsealresearch.net", "OR001.0000001.ucfsealresearch.net",
        "or001.0000001.ucfsealresearch.net.", "or001.0000001.example.net",
        "or001..ucfsealresearch.net", "or.0000001.ucfsealresearch.net",
        "or001.00000x1.ucfsealresearch.net", "or4294967296.0000001.ucfsealresearch.net",
        "or001.0000001", "", "or"}) {
    EXPECT_FALSE(scheme.parse_key(s).has_value()) << s;
  }
  EXPECT_EQ(scheme.parse_key("or001.0000001.ucfsealresearch.net"),
            (SubdomainId{1, 1}));
}

TEST_F(SchemeTest, GroundTruthDeterministicAndPublic) {
  const auto a = scheme.ground_truth({1, 2});
  EXPECT_EQ(a, scheme.ground_truth({1, 2}));
  EXPECT_NE(a, scheme.ground_truth({1, 3}));
  for (std::uint32_t i = 0; i < 500; ++i)
    EXPECT_FALSE(net::is_reserved(scheme.ground_truth({0, i})));
}

TEST_F(SchemeTest, GroundTruthDependsOnSeed) {
  SubdomainScheme other{dns::DnsName::must_parse("ucfsealresearch.net"),
                        5'000'000, 78};
  int differ = 0;
  for (std::uint32_t i = 0; i < 100; ++i)
    if (scheme.ground_truth({0, i}) != other.ground_truth({0, i})) ++differ;
  EXPECT_GT(differ, 95);
}

// ---- ClusterManager --------------------------------------------------------------

TEST(ClusterManager, SequentialFreshAllocation) {
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 4, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  EXPECT_EQ(mgr.acquire(), (SubdomainId{0, 0}));
  EXPECT_EQ(mgr.acquire(), (SubdomainId{0, 1}));
  EXPECT_EQ(mgr.stats().clusters_loaded, 1u);
}

TEST(ClusterManager, PrefersReuseOverRotation) {
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 2, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  const auto a = mgr.acquire();
  const auto b = mgr.acquire();
  mgr.release_unanswered(a);
  mgr.retire_answered(b);
  const auto c = mgr.acquire();  // must reuse a, not rotate
  EXPECT_EQ(c, a);
  EXPECT_EQ(mgr.current_cluster(), 0u);
  EXPECT_EQ(mgr.stats().subdomains_reused, 1u);
}

TEST(ClusterManager, RotatesWhenEverythingConsumed) {
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 2, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  mgr.retire_answered(mgr.acquire());
  mgr.retire_answered(mgr.acquire());
  const auto c = mgr.acquire();
  EXPECT_EQ(c, (SubdomainId{1, 0}));
  EXPECT_EQ(mgr.stats().clusters_loaded, 2u);
}

TEST(ClusterManager, AcceptsReleasesFromPreviousResidentCluster) {
  // The auth server keeps the current and previous cluster resident, so a
  // name from cluster N-1 is still reusable after one rotation...
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 1, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  const auto a = mgr.acquire();        // cluster 0 exhausted
  mgr.retire_answered(a);
  const auto b = mgr.acquire();        // rotates to cluster 1
  EXPECT_EQ(b.cluster, 1u);
  mgr.release_unanswered(a);           // previous cluster: still reusable
  mgr.retire_answered(b);
  EXPECT_EQ(mgr.acquire(), a);
}

TEST(ClusterManager, DropsReleasesFromUnloadedClusters) {
  // ...but after two rotations the cluster-0 name has left residency and a
  // late release must be discarded.
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 1, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  const auto a = mgr.acquire();
  mgr.retire_answered(a);
  const auto b = mgr.acquire();  // cluster 1
  mgr.retire_answered(b);
  const auto c = mgr.acquire();  // cluster 2
  EXPECT_EQ(c.cluster, 2u);
  mgr.release_unanswered(a);     // two rotations stale: ignored
  mgr.retire_answered(c);
  EXPECT_EQ(mgr.acquire().cluster, 3u);
}

TEST(ClusterManager, ReuseNeverReturnsAnsweredNames) {
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 8, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(1.0));
  std::vector<SubdomainId> issued;
  for (int i = 0; i < 8; ++i) issued.push_back(mgr.acquire());
  // Answer even indices, release odd ones.
  std::set<std::uint32_t> answered;
  for (std::size_t i = 0; i < issued.size(); ++i) {
    if (i % 2 == 0) {
      mgr.retire_answered(issued[i]);
      answered.insert(issued[i].index);
    } else {
      mgr.release_unanswered(issued[i]);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto id = mgr.acquire();
    EXPECT_EQ(id.cluster, 0u);
    EXPECT_FALSE(answered.contains(id.index));
  }
}

TEST(ClusterManager, LoadTimeAccumulates) {
  SubdomainScheme scheme{dns::DnsName::must_parse("s.net"), 1, 1};
  ClusterManager mgr(scheme, net::SimTime::seconds(60.0));
  mgr.retire_answered(mgr.acquire());
  mgr.retire_answered(mgr.acquire());
  EXPECT_EQ(mgr.stats().load_time_total, net::SimTime::seconds(120.0));
}

}  // namespace
}  // namespace orp::zone
