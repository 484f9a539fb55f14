#include "zone/cluster.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "net/reserved.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace orp::zone {
namespace {

/// Shared by the DnsName and NameView overloads of parse(): checks the
/// "or<cluster>.<index>.<sld>" shape and extracts the two numeric labels.
/// `Name` only needs label_count() / label(i) returning a string_view.
template <typename Name>
std::optional<SubdomainId> parse_probe_name(const Name& qname,
                                            const dns::DnsName& sld) {
  if (qname.label_count() != sld.label_count() + 2) return std::nullopt;
  for (std::size_t i = 0; i < sld.label_count(); ++i)
    if (!dns::label_equals_ci(qname.label(i + 2), sld.label(i)))
      return std::nullopt;
  const std::string_view first = qname.label(0);
  const std::string_view second = qname.label(1);
  if (first.size() < 3 || first.compare(0, 2, "or") != 0) return std::nullopt;
  if (!util::all_digits(first.substr(2)) || !util::all_digits(second))
    return std::nullopt;
  SubdomainId id;
  std::from_chars(first.data() + 2, first.data() + first.size(), id.cluster);
  std::from_chars(second.data(), second.data() + second.size(), id.index);
  return id;
}

/// Zero-padded decimal, widening past `min_width` when the value needs it —
/// exactly snprintf("%0*u")'s behavior, which qname() renders with.
char* write_decimal(char* p, std::uint32_t v, int min_width) {
  char tmp[10];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (int pad = min_width - n; pad > 0; --pad) *p++ = '0';
  while (n > 0) *p++ = tmp[--n];
  return p;
}

}  // namespace

SubdomainScheme::SubdomainScheme(dns::DnsName sld, std::uint32_t cluster_size,
                                 std::uint64_t seed)
    : sld_(std::move(sld)), cluster_size_(cluster_size), seed_(seed) {
  // qname() always renders the "or000.0000000" head for id (0, 0); what
  // follows it is the same for every id.
  key_suffix_ = qname({0, 0}).canonical_key().substr(13);
}

dns::DnsName SubdomainScheme::qname(SubdomainId id) const {
  // Both labels rendered into stack buffers; prefixed() builds the final
  // name in a single allocation (the old child().child() chain took ~6).
  char cluster_label[16];
  char index_label[16];
  const int cn = std::snprintf(cluster_label, sizeof(cluster_label), "or%03u",
                               id.cluster);
  const int in = std::snprintf(index_label, sizeof(index_label), "%07u",
                               id.index);
  return sld_.prefixed({std::string_view(cluster_label, cn),
                        std::string_view(index_label, in)});
}

std::string_view SubdomainScheme::canonical_key(
    SubdomainId id, std::span<char, kKeyCapacity> buf) const noexcept {
  char* p = buf.data();
  *p++ = 'o';
  *p++ = 'r';
  p = write_decimal(p, id.cluster, 3);
  *p++ = '.';
  p = write_decimal(p, id.index, 7);
  std::memcpy(p, key_suffix_.data(), key_suffix_.size());
  p += key_suffix_.size();
  return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

std::uint64_t SubdomainScheme::flow_key(SubdomainId id) const noexcept {
  char buf[kKeyCapacity];
  return util::Fnv1a{}.bytes(canonical_key(id, buf)).value();
}

std::optional<SubdomainId> SubdomainScheme::parse_key(
    std::string_view key) const {
  if (!key.starts_with("or")) return std::nullopt;
  const char* const end = key.data() + key.size();
  SubdomainId id;
  const auto [dot, cerr] = std::from_chars(key.data() + 2, end, id.cluster);
  if (cerr != std::errc{} || dot == end || *dot != '.') return std::nullopt;
  if (std::from_chars(dot + 1, end, id.index).ec != std::errc{})
    return std::nullopt;
  // The digit runs parsed; re-rendering settles padding and the suffix.
  char buf[kKeyCapacity];
  if (canonical_key(id, buf) != key) return std::nullopt;
  return id;
}

std::optional<SubdomainId> SubdomainScheme::parse(
    const dns::DnsName& qname) const {
  return parse_probe_name(qname, sld_);
}

std::optional<SubdomainId> SubdomainScheme::parse(
    const dns::NameView& qname) const {
  return parse_probe_name(qname, sld_);
}

net::IPv4Addr SubdomainScheme::ground_truth(SubdomainId id) const {
  // Deterministic pseudo-random mapping, avoiding reserved space so that a
  // "correct" answer is never confusable with the private-network redirects
  // the analysis flags (Table VIII).
  std::uint64_t h = util::mix64(
      seed_ ^ (static_cast<std::uint64_t>(id.cluster) << 32) ^ id.index);
  net::IPv4Addr addr(static_cast<std::uint32_t>(h));
  while (net::is_reserved(addr)) {
    h = util::mix64(h + 0x9e3779b97f4a7c15ULL);
    addr = net::IPv4Addr(static_cast<std::uint32_t>(h));
  }
  return addr;
}

ClusterManager::ClusterManager(SubdomainScheme scheme,
                               net::SimTime load_latency)
    : scheme_(std::move(scheme)), load_latency_(load_latency) {
  rotate();  // initial zone load
  current_cluster_ = 0;
}

SubdomainId ClusterManager::acquire() {
  if (next_index_ < scheme_.cluster_size()) {
    ++stats_.subdomains_issued;
    return SubdomainId{current_cluster_, next_index_++};
  }
  if (!reusable_.empty()) {
    const SubdomainId id = reusable_.back();
    reusable_.pop_back();
    ++stats_.subdomains_reused;
    return id;
  }
  ++current_cluster_;
  next_index_ = 0;
  rotate();
  ++stats_.subdomains_issued;
  return SubdomainId{current_cluster_, next_index_++};
}

void ClusterManager::release_unanswered(SubdomainId id) {
  // Only names the auth server still serves can be reused (it keeps the
  // current and the previous cluster resident); a name from an older,
  // unloaded cluster would draw NXDomain.
  if (id.cluster + 1 < current_cluster_) return;
  reusable_.push_back(id);
}

void ClusterManager::retire_answered(SubdomainId) {
  // Answered subdomains may live in resolver caches; never reuse them.
}

void ClusterManager::rotate() {
  ++stats_.clusters_loaded;
  stats_.load_time_total += load_latency_;
  // Names whose cluster just lost residency can no longer be reused.
  std::erase_if(reusable_, [this](SubdomainId id) {
    return id.cluster + 1 < current_cluster_;
  });
}

}  // namespace orp::zone
