// R2 classification and Q1/Q2/R1/R2 flow grouping — the front end of the
// paper's behavioral analysis (§III-B, §IV).
//
// Every collected R2 is re-decoded from wire bytes and reduced to the
// features the paper's tables are built from: header flags, rcode, answer
// presence/form, correctness against the ground truth derivable from the
// probe qname, and decodability.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/codec.h"
#include "net/capture.h"
#include "net/ipv4.h"
#include "net/sim_time.h"
#include "util/strings.h"
#include "zone/cluster.h"

namespace orp::analysis {

/// Answer-section form, Table VII rows.
enum class AnswerForm : std::uint8_t {
  kNone = 0,     // no answer section
  kIp,           // A record
  kUrl,          // name-valued answer (CNAME/NS/PTR)
  kString,       // text/garbage answer
  kUndecodable,  // ancount > 0 but bytes do not parse (Table VII "N/A")
};

std::string_view to_string(AnswerForm f) noexcept;

/// One decoded-and-judged R2.
struct R2View {
  net::IPv4Addr resolver;
  net::SimTime time;

  bool header_decoded = true;
  bool has_question = false;

  // Header fields under study.
  bool ra = false;
  bool aa = false;
  dns::Rcode rcode = dns::Rcode::kNoError;

  AnswerForm form = AnswerForm::kNone;
  bool has_answer() const noexcept { return form != AnswerForm::kNone; }

  std::optional<net::IPv4Addr> answer_ip;  // for kIp
  std::string answer_text;                 // for kUrl / kString

  std::optional<zone::SubdomainId> subdomain;  // parsed from the question
  /// For kIp with a matchable question: does the answer equal the ground
  /// truth the authoritative server published for that subdomain?
  bool correct = false;
};

/// One captured R2 as raw bytes (the classifier re-decodes, because decode
/// *failure* is itself a measured behavior). `payload` borrows the caller's
/// buffer.
struct R2Record {
  net::SimTime time;
  net::IPv4Addr resolver;
  std::span<const std::uint8_t> payload;
};

/// Decode + judge one captured R2 against the probe subdomain scheme.
R2View classify_r2(const R2Record& record,
                   const zone::SubdomainScheme& scheme);

/// The same classification written into a caller-owned scratch view. `out`
/// is fully reset first, but its string keeps its capacity — the streaming
/// analyzer reuses one scratch per shard so the steady-state per-R2 cost is
/// zero allocations (text answers build in place; the alloc-budget suite
/// pins this).
void classify_r2_into(std::span<const std::uint8_t> payload,
                      net::IPv4Addr resolver, net::SimTime time,
                      const zone::SubdomainScheme& scheme, R2View& out);

/// A grouped measurement flow (Fig. 2): the probe (Q1), the recursive
/// queries observed at the authoritative server (Q2/R1), and the resolver's
/// response (R2), all keyed by the probe qname.
struct Flow {
  std::string qname_key;
  std::optional<net::IPv4Addr> probed_target;  // Q1 destination
  std::uint64_t q2_count = 0;                  // auth-side queries seen
  std::uint64_t r1_count = 0;                  // auth-side responses seen
  bool has_r2 = false;
  std::optional<R2View> r2;
};

/// Groups prober- and authns-side captures by qname. Used by the Fig. 2
/// bench and integration tests to validate the capture architecture; the
/// statistical tables only need the R2 views.
class FlowGrouper {
 public:
  /// Heterogeneous map: lookups take a string_view key built in a stack
  /// buffer, so grouping a packet allocates nothing unless it opens a flow.
  using FlowMap = std::unordered_map<std::string, Flow,
                                     util::TransparentStringHash,
                                     std::equal_to<>>;

  explicit FlowGrouper(const zone::SubdomainScheme& scheme)
      : scheme_(scheme) {}

  void add_probe(const dns::DnsName& qname, net::IPv4Addr target);
  /// Feed one authns-side packet payload (inbound = Q2, outbound = R1).
  void add_auth_packet(std::span<const std::uint8_t> payload, bool inbound);
  void add_auth_packet(const net::CapturedPacket& pkt, bool inbound) {
    add_auth_packet(std::span<const std::uint8_t>(pkt.payload), inbound);
  }
  void add_r2(const R2View& view, const dns::DnsName& qname);

  const FlowMap& flows() const noexcept { return flows_; }

  /// Flows where the resolver answered without ever contacting the
  /// authoritative server — the paper's manipulation discriminator (§IV-C2):
  /// a fresh subdomain cannot be in any cache, so an answer with no Q2 is a
  /// fabrication.
  std::vector<const Flow*> answered_without_recursion() const;

 private:
  const zone::SubdomainScheme& scheme_;
  FlowMap flows_;
};

}  // namespace orp::analysis
