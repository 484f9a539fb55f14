#include <gtest/gtest.h>

#include <algorithm>

#include "dns/builder.h"
#include "dns/codec.h"
#include "dns/truncate.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/types.h"

namespace orp::dns {
namespace {

// ---- DnsName -------------------------------------------------------------------

TEST(DnsName, ParseAndFormat) {
  const auto n = DnsName::parse("www.Example.COM");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->label_count(), 3u);
  EXPECT_EQ(n->to_string(), "www.Example.COM");
  EXPECT_EQ(n->canonical_key(), "www.example.com");
}

TEST(DnsName, TrailingDotAccepted) {
  EXPECT_EQ(DnsName::must_parse("example.com.").label_count(), 2u);
}

TEST(DnsName, RootForms) {
  EXPECT_TRUE(DnsName::must_parse(".").is_root());
  EXPECT_TRUE(DnsName().is_root());
  EXPECT_EQ(DnsName().to_string(), ".");
  EXPECT_EQ(DnsName().wire_length(), 1u);
}

TEST(DnsName, RejectsEmptyLabels) {
  EXPECT_FALSE(DnsName::parse("a..b").has_value());
  EXPECT_FALSE(DnsName::parse(".a").has_value());
}

TEST(DnsName, CaseInsensitiveEquality) {
  EXPECT_EQ(DnsName::must_parse("A.B.c"), DnsName::must_parse("a.b.C"));
  EXPECT_FALSE(DnsName::must_parse("a.b") == DnsName::must_parse("a.c"));
}

TEST(DnsName, SubdomainRelation) {
  const auto sld = DnsName::must_parse("ucfsealresearch.net");
  EXPECT_TRUE(DnsName::must_parse("or000.0000001.ucfsealresearch.net")
                  .is_subdomain_of(sld));
  EXPECT_TRUE(sld.is_subdomain_of(sld));
  EXPECT_TRUE(sld.is_subdomain_of(DnsName()));  // everything under root
  EXPECT_FALSE(DnsName::must_parse("example.net").is_subdomain_of(sld));
  EXPECT_FALSE(DnsName::must_parse("net").is_subdomain_of(sld));
  EXPECT_FALSE(DnsName::must_parse("evilucfsealresearch.net")
                   .is_subdomain_of(sld));
}

TEST(DnsName, ParentAndChild) {
  const auto n = DnsName::must_parse("a.b.c");
  EXPECT_EQ(n.parent().to_string(), "b.c");
  EXPECT_EQ(n.parent(2).to_string(), "c");
  EXPECT_TRUE(n.parent(3).is_root());
  EXPECT_TRUE(n.parent(9).is_root());
  EXPECT_EQ(n.child("x").to_string(), "x.a.b.c");
}

class LabelLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LabelLengthSweep, SixtyThreeIsTheLimit) {
  const std::string label(GetParam(), 'a');
  const auto parsed = DnsName::parse(label + ".com");
  if (GetParam() >= 1 && GetParam() <= kMaxLabelLength)
    EXPECT_TRUE(parsed.has_value());
  else
    EXPECT_FALSE(parsed.has_value());
}

INSTANTIATE_TEST_SUITE_P(Lengths, LabelLengthSweep,
                         ::testing::Values(1, 2, 32, 62, 63, 64, 100));

TEST(DnsName, TotalLengthLimit) {
  // Four 62-char labels plus dots: wire length 4*63+1 = 253 -> ok.
  const std::string l62(62, 'x');
  const std::string ok = l62 + "." + l62 + "." + l62 + "." + l62;
  EXPECT_TRUE(DnsName::parse(ok).has_value());
  // Adding one more label of length 2 exceeds 255.
  EXPECT_FALSE(DnsName::parse(ok + ".ab").has_value());
}

// ---- Flags ----------------------------------------------------------------------

TEST(Flags, PackUnpackRoundTripAllBitPatterns) {
  // Exhaustive over the whole 16-bit flags word: unpack -> pack must be the
  // identity on every field we model (z keeps only its defined bit).
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    const Flags f = Flags::unpack(static_cast<std::uint16_t>(raw));
    const Flags g = Flags::unpack(f.pack());
    EXPECT_EQ(f, g) << raw;
  }
}

TEST(Flags, KnownEncodings) {
  Flags f;
  f.qr = true;
  f.ra = true;
  f.rd = true;
  EXPECT_EQ(f.pack(), 0x8180);  // standard answer header
  f.aa = true;
  EXPECT_EQ(f.pack(), 0x8580);
  f.rcode = Rcode::kNXDomain;
  EXPECT_EQ(f.pack(), 0x8583);
}

// ---- Types -----------------------------------------------------------------------

TEST(Types, RcodeNames) {
  EXPECT_EQ(to_string(Rcode::kNoError), "NoError");
  EXPECT_EQ(to_string(Rcode::kRefused), "Refused");
  EXPECT_EQ(to_string(Rcode::kNotAuth), "NotAuth");
  Rcode rc;
  EXPECT_TRUE(rcode_from_string("ServFail", rc));
  EXPECT_EQ(rc, Rcode::kServFail);
  EXPECT_FALSE(rcode_from_string("NotARcode", rc));
}

TEST(Types, RRTypeNames) {
  EXPECT_EQ(to_string(RRType::kA), "A");
  EXPECT_EQ(to_string(RRType::kANY), "ANY");
  EXPECT_EQ(to_string(RRType::kOPT), "OPT");
}

// ---- Codec round trips -------------------------------------------------------------

Message sample_message() {
  Message m = make_query(0x1234, DnsName::must_parse("or001.0000042.ucfsealresearch.net"));
  m.header.flags.qr = true;
  m.header.flags.ra = true;
  m.answers.push_back(ResourceRecord{
      m.questions[0].qname, RRType::kA, RRClass::kIN, 300,
      ARdata{net::IPv4Addr(93, 184, 216, 34)}});
  m.authority.push_back(ResourceRecord{
      DnsName::must_parse("ucfsealresearch.net"), RRType::kNS, RRClass::kIN,
      172800, NameRdata{DnsName::must_parse("ns1.ucfsealresearch.net")}});
  m.additional.push_back(ResourceRecord{
      DnsName::must_parse("ns1.ucfsealresearch.net"), RRType::kA,
      RRClass::kIN, 172800, ARdata{net::IPv4Addr(45, 76, 18, 21)}});
  return m;
}

void expect_equal(const Message& a, const Message& b) {
  EXPECT_EQ(a.header.id, b.header.id);
  EXPECT_EQ(a.header.flags, b.header.flags);
  ASSERT_EQ(a.questions.size(), b.questions.size());
  for (std::size_t i = 0; i < a.questions.size(); ++i) {
    EXPECT_EQ(a.questions[i].qname, b.questions[i].qname);
    EXPECT_EQ(a.questions[i].qtype, b.questions[i].qtype);
  }
  ASSERT_EQ(a.answers.size(), b.answers.size());
  ASSERT_EQ(a.authority.size(), b.authority.size());
  ASSERT_EQ(a.additional.size(), b.additional.size());
  auto rr_equal = [](const ResourceRecord& x, const ResourceRecord& y) {
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.ttl, y.ttl);
    EXPECT_EQ(to_string(x), to_string(y));
  };
  for (std::size_t i = 0; i < a.answers.size(); ++i)
    rr_equal(a.answers[i], b.answers[i]);
  for (std::size_t i = 0; i < a.authority.size(); ++i)
    rr_equal(a.authority[i], b.authority[i]);
  for (std::size_t i = 0; i < a.additional.size(); ++i)
    rr_equal(a.additional[i], b.additional[i]);
}

TEST(Codec, RoundTripCompressed) {
  const Message m = sample_message();
  const auto wire = encode(m, {.compress = true});
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value()) << to_string(decoded.error());
  expect_equal(m, *decoded);
}

TEST(Codec, RoundTripUncompressed) {
  const Message m = sample_message();
  const auto wire = encode(m, {.compress = false});
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  expect_equal(m, *decoded);
}

TEST(Codec, CompressionShrinksRepeatedNames) {
  const Message m = sample_message();
  EXPECT_LT(encode(m, {.compress = true}).size(),
            encode(m, {.compress = false}).size());
}

// Regression: while a name is being written, its earlier labels are recorded
// as compression candidates before the name has a terminator. A name whose
// remaining suffix matches those earlier labels (a.a.example, b.a.b.a) used
// to walk the matcher off the write frontier — never match against the
// unfinished current name, and never emit a self-referential pointer.
TEST(Codec, SelfSuffixNamesNeverSelfCompress) {
  for (const char* s : {"a.a", "a.a.example", "example.example.com",
                        "a.b.a.b", "aa.aa", "x.x.x.x.x"}) {
    Message m = make_query(0x42, DnsName::must_parse(s));
    m.header.flags.qr = true;
    m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kA,
                                       RRClass::kIN, 60,
                                       ARdata{net::IPv4Addr(1, 2, 3, 4)}});
    const auto wire = encode(m, {.compress = true});
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value())
        << s << ": " << to_string(decoded.error());
    EXPECT_EQ(decoded->questions[0].qname, m.questions[0].qname) << s;
    EXPECT_EQ(decoded->answers[0].name, m.answers[0].name) << s;
  }
}

TEST(Codec, SelfSuffixNameDeterministicOnWarmBuffer) {
  // A warm EncodeBuffer holds stale bytes from the previous message past the
  // current write frontier. Encoding "a.a": the offset recorded for the whole
  // name (12) matches the remaining suffix "a" exactly, and the matcher's
  // walk lands on the frontier at offset 14 — where the *previous* message
  // (query for single-label "x") left a stale root byte. A frontier overrun
  // reads that 0x00, declares a match, and emits a pointer to the name's own
  // start — a compression loop every decoder rejects.
  Message m = make_query(0x42, DnsName::must_parse("a.a"));
  const auto cold = encode(m, {.compress = true});
  EncodeBuffer scratch;
  // Previous message: single-label qname "x" (root byte at offset 14) plus
  // an answer so the scratch capacity already covers the next encode and is
  // not reallocated away along with the stale bytes.
  Message prev = make_query(0x41, DnsName::must_parse("x"));
  prev.header.flags.qr = true;
  prev.answers.push_back(ResourceRecord{prev.questions[0].qname, RRType::kA,
                                        RRClass::kIN, 60,
                                        ARdata{net::IPv4Addr(1, 2, 3, 4)}});
  (void)encode_into(prev, scratch, {.compress = true});
  const auto warm = encode_into(m, scratch, {.compress = true});
  EXPECT_TRUE(std::equal(cold.begin(), cold.end(), warm.begin(), warm.end()));
  const auto decoded = decode(warm);
  ASSERT_TRUE(decoded.has_value()) << to_string(decoded.error());
  EXPECT_EQ(decoded->questions[0].qname, m.questions[0].qname);
}

struct RdataCase {
  const char* label;
  Rdata rdata;
  RRType type;
};

// Print the label rather than gtest's byte dump, which holds heap and string
// addresses and so would name the test differently on every run.
void PrintTo(const RdataCase& c, std::ostream* os) { *os << c.label; }

class RdataRoundTrip : public ::testing::TestWithParam<RdataCase> {};

TEST_P(RdataRoundTrip, EncodesAndDecodes) {
  Message m = make_query(7, DnsName::must_parse("x.example.net"));
  m.header.flags.qr = true;
  m.answers.push_back(ResourceRecord{m.questions[0].qname, GetParam().type,
                                     RRClass::kIN, 60, GetParam().rdata});
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(to_string(decoded->answers[0]), to_string(m.answers[0]));
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataRoundTrip,
    ::testing::Values(
        RdataCase{"a", ARdata{net::IPv4Addr(8, 8, 8, 8)}, RRType::kA},
        RdataCase{"cname", NameRdata{DnsName::must_parse("u.dcoin.co")},
                  RRType::kCNAME},
        RdataCase{"ns", NameRdata{DnsName::must_parse("ns1.example.net")},
                  RRType::kNS},
        RdataCase{"ptr", NameRdata{DnsName::must_parse("host.example.net")},
                  RRType::kPTR},
        RdataCase{"soa",
                  SoaRdata{DnsName::must_parse("ns1.example.net"),
                           DnsName::must_parse("hostmaster.example.net"),
                           2018042601, 7200, 900, 1209600, 300},
                  RRType::kSOA},
        RdataCase{"mx", MxRdata{10, DnsName::must_parse("mail.example.net")},
                  RRType::kMX},
        RdataCase{"txt", TxtRdata{{"wild", "OK"}}, RRType::kTXT},
        RdataCase{"raw", RawRdata{99, {0xDE, 0xAD, 0xBE, 0xEF}},
                  static_cast<RRType>(99)}));

// ---- Malformed input ---------------------------------------------------------------

TEST(Codec, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> wire{0x12, 0x34, 0x01};
  const auto decoded = decode(wire);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), DecodeError::kTruncatedHeader);
}

TEST(Codec, EmptyPayloadRejected) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}).has_value());
}

TEST(Codec, LyingAncountDetected) {
  // The deviant-resolver trick: header claims one answer, none present.
  Message m = make_query(9, DnsName::must_parse("q.example.net"));
  m.header.flags.qr = true;
  m.header.qdcount = 1;
  m.header.ancount = 1;
  const auto wire = encode_raw_counts(m);
  const auto decoded = decode(wire);
  ASSERT_FALSE(decoded.has_value());
  const PartialDecode partial = decode_partial(wire);
  EXPECT_EQ(partial.failed_at, DecodeStage::kAnswer);
  ASSERT_EQ(partial.message.questions.size(), 1u);  // question survived
}

TEST(Codec, ForwardCompressionPointerRejected) {
  // Header + a name that is a pointer to itself (offset 12).
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;  // qdcount = 1
  wire.push_back(0xC0);
  wire.push_back(12);  // pointer to its own first byte
  wire.push_back(0);
  wire.push_back(1);
  wire.push_back(0);
  wire.push_back(1);
  const auto decoded = decode(wire);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), DecodeError::kForwardPointer);
}

TEST(Codec, TruncatedNameRejected) {
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;        // qdcount = 1
  wire.push_back(30);  // label length 30, but no bytes follow
  wire.push_back('a');
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, BadRdataLengthRejected) {
  Message m = make_query(9, DnsName::must_parse("q.example.net"));
  m.header.flags.qr = true;
  m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kA,
                                     RRClass::kIN, 60,
                                     ARdata{net::IPv4Addr(1, 2, 3, 4)}});
  auto wire = encode(m);
  wire.resize(wire.size() - 2);  // chop the tail of the A rdata
  const auto decoded = decode(wire);
  ASSERT_FALSE(decoded.has_value());
}

TEST(Codec, UnsupportedLabelTypeRejected) {
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;
  wire.push_back(0x40);  // 01xxxxxx: extended label type, unsupported
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, CompressedPointerIntoQuestionWorks) {
  // Craft: question "a.b", answer name = pointer to question name.
  Message m = make_query(5, DnsName::must_parse("a.b"));
  m.header.flags.qr = true;
  m.answers.push_back(ResourceRecord{DnsName::must_parse("a.b"), RRType::kA,
                                     RRClass::kIN, 60,
                                     ARdata{net::IPv4Addr(9, 9, 9, 9)}});
  const auto wire = encode(m, {.compress = true});
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers[0].name, DnsName::must_parse("a.b"));
}

TEST(Codec, DecodePartialCompleteOnGoodMessage) {
  const auto wire = encode(sample_message());
  const PartialDecode partial = decode_partial(wire);
  EXPECT_TRUE(partial.complete());
  EXPECT_EQ(partial.message.answers.size(), 1u);
}

TEST(Codec, EncodeNameMatchesWireLength) {
  const auto n = DnsName::must_parse("www.example.com");
  EXPECT_EQ(encode_name(n).size(), n.wire_length());
}

// ---- Builders ------------------------------------------------------------------------

TEST(Builder, QueryShape) {
  const Message q = make_query(42, DnsName::must_parse("probe.example.net"),
                               RRType::kANY);
  EXPECT_FALSE(q.header.flags.qr);
  EXPECT_TRUE(q.header.flags.rd);
  ASSERT_EQ(q.questions.size(), 1u);
  EXPECT_EQ(q.questions[0].qtype, RRType::kANY);
}

TEST(Builder, ResponseEchoesQuestionAndId) {
  const Message q = make_query(42, DnsName::must_parse("probe.example.net"));
  const Message r = make_a_response(q, net::IPv4Addr(1, 2, 3, 4));
  EXPECT_TRUE(r.header.flags.qr);
  EXPECT_EQ(r.header.id, 42);
  ASSERT_TRUE(r.first_a_answer().has_value());
  EXPECT_EQ(r.first_a_answer()->to_string(), "1.2.3.4");
}

TEST(Builder, ErrorResponseHasNoAnswer) {
  const Message q = make_query(1, DnsName::must_parse("x.example.net"));
  const Message r = make_error_response(q, Rcode::kRefused, false);
  EXPECT_EQ(r.header.flags.rcode, Rcode::kRefused);
  EXPECT_FALSE(r.has_answer());
  EXPECT_FALSE(r.header.flags.ra);
}

TEST(Builder, ReferralCarriesGlue) {
  const Message q = make_query(1, DnsName::must_parse("x.sld.net"));
  const Message r = make_referral(
      q, DnsName::must_parse("sld.net"),
      {{DnsName::must_parse("ns1.sld.net"), net::IPv4Addr(5, 6, 7, 8)}});
  ASSERT_EQ(r.authority.size(), 1u);
  ASSERT_EQ(r.additional.size(), 1u);
  EXPECT_EQ(r.authority[0].type, RRType::kNS);
  EXPECT_EQ(r.additional[0].type, RRType::kA);
}

TEST(Message, FirstAAnswerSkipsNonA) {
  Message m = make_query(1, DnsName::must_parse("x.y"));
  m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kCNAME,
                                     RRClass::kIN, 60,
                                     NameRdata{DnsName::must_parse("z.y")}});
  EXPECT_FALSE(m.first_a_answer().has_value());
  m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kA,
                                     RRClass::kIN, 60,
                                     ARdata{net::IPv4Addr(4, 4, 4, 4)}});
  EXPECT_TRUE(m.first_a_answer().has_value());
}

TEST(Message, ToStringMentionsSections) {
  const std::string s = sample_message().to_string();
  EXPECT_NE(s.find("ANSWER"), std::string::npos);
  EXPECT_NE(s.find("AUTHORITY"), std::string::npos);
  EXPECT_NE(s.find("flags:"), std::string::npos);
}

// ---- Truncator (wire-level whole-record cut, TC=1) -----------------------------

/// A response with `answers` A records on one question (compressed names, so
/// every cut point exercises the backward-pointer property).
Message fat_response(int answers) {
  Message m = make_query(0x7A7A, DnsName::must_parse("big.ucfsealresearch.net"));
  m.header.flags.qr = true;
  for (int i = 0; i < answers; ++i)
    m.answers.push_back(ResourceRecord{m.questions[0].qname, RRType::kA,
                                       RRClass::kIN, 300,
                                       ARdata{net::IPv4Addr(10, 0, 0, 1 + i)}});
  return m;
}

TEST(Truncator, FittingPacketIsUntouched) {
  auto wire = encode(fat_response(3));
  const auto original = wire;
  const TruncationCut cut = Truncator::plan(wire, wire.size());
  EXPECT_TRUE(cut.valid);
  EXPECT_FALSE(cut.needed);
  EXPECT_EQ(Truncator::truncate(wire, wire.size()), original.size());
  EXPECT_EQ(wire, original);
}

TEST(Truncator, BudgetOfExactlyHeaderKeepsOnlyHeader) {
  auto wire = encode(fat_response(2));
  const std::size_t len = Truncator::truncate(wire, Truncator::kHeaderSize);
  EXPECT_EQ(len, Truncator::kHeaderSize);
  const auto decoded = decode(std::span(wire.data(), len));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);
  EXPECT_TRUE(decoded->questions.empty());
  EXPECT_TRUE(decoded->answers.empty());
}

TEST(Truncator, BudgetBelowHeaderIsInvalidAndLeavesThePacketAlone) {
  auto wire = encode(fat_response(1));
  const auto original = wire;
  EXPECT_FALSE(Truncator::plan(wire, Truncator::kHeaderSize - 1).valid);
  EXPECT_EQ(Truncator::truncate(wire, Truncator::kHeaderSize - 1),
            original.size());
  EXPECT_EQ(wire, original);
}

TEST(Truncator, CutNeverSplitsTheQuestion) {
  Message q = fat_response(0);
  auto wire = encode(q);
  // Any budget inside the question section keeps only the header.
  for (std::size_t b = Truncator::kHeaderSize; b < wire.size(); ++b) {
    const TruncationCut cut = Truncator::plan(wire, b);
    ASSERT_TRUE(cut.valid) << b;
    EXPECT_EQ(cut.len, Truncator::kHeaderSize) << b;
    EXPECT_EQ(cut.qdcount, 0u) << b;
  }
}

TEST(Truncator, FirstAnswerBoundaryIsExact) {
  // The wire of (question + 1 answer) is a length-prefix of (question + 2):
  // only header count bytes differ. That gives the exact first-RR edge.
  const std::size_t one_answer_len = encode(fat_response(1)).size();
  auto wire = encode(fat_response(2));
  ASSERT_GT(wire.size(), one_answer_len);

  const TruncationCut keep = Truncator::plan(wire, one_answer_len);
  EXPECT_TRUE(keep.valid);
  EXPECT_EQ(keep.len, one_answer_len);
  EXPECT_EQ(keep.qdcount, 1u);
  EXPECT_EQ(keep.ancount, 1u);

  // One byte short of the boundary: the whole first answer goes.
  const TruncationCut drop = Truncator::plan(wire, one_answer_len - 1);
  EXPECT_TRUE(drop.valid);
  EXPECT_EQ(drop.ancount, 0u);
  EXPECT_EQ(drop.len, encode(fat_response(0)).size());

  auto copy = wire;
  const std::size_t len = Truncator::truncate(copy, one_answer_len);
  const auto decoded = decode(std::span(copy.data(), len));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.flags.tc);
  ASSERT_EQ(decoded->answers.size(), 1u);
}

TEST(Truncator, MalformedCountsAreRejected) {
  auto wire = encode(fat_response(2));
  wire[7] = 9;  // ANCOUNT low byte lies: claims 9 answers, payload has 2
  EXPECT_FALSE(Truncator::plan(wire, 12).valid);
  const auto original = wire;
  EXPECT_EQ(Truncator::truncate(wire, 12), original.size());
  EXPECT_EQ(wire, original);
}

TEST(Truncator, EdnsBudgetsCutDecodablyAndMonotonically) {
  // A ~6 KB TXT answer so even the 4096 budget has to cut.
  Message m = make_query(0x600D, DnsName::must_parse("txt.ucfsealresearch.net"));
  m.header.flags.qr = true;
  for (int i = 0; i < 30; ++i)
    m.answers.push_back(ResourceRecord{
        m.questions[0].qname, RRType::kTXT, RRClass::kIN, 60,
        TxtRdata{{std::string(200, static_cast<char>('a' + i % 26))}}});
  const auto full = encode(m);
  ASSERT_GT(full.size(), 4096u);

  std::size_t prev_survivors = 0;
  for (const std::size_t budget : {std::size_t{512}, std::size_t{1232},
                                   std::size_t{4096}}) {
    auto wire = full;
    const TruncationCut cut = Truncator::plan(wire, budget);
    ASSERT_TRUE(cut.valid) << budget;
    EXPECT_TRUE(cut.needed) << budget;
    const std::size_t len = Truncator::truncate(wire, budget);
    EXPECT_LE(len, budget) << budget;
    const auto decoded = decode(std::span(wire.data(), len));
    ASSERT_TRUE(decoded.has_value()) << budget;
    EXPECT_TRUE(decoded->header.flags.tc) << budget;
    EXPECT_EQ(decoded->answers.size(), cut.ancount) << budget;
    EXPECT_GE(decoded->answers.size(), prev_survivors) << budget;
    prev_survivors = decoded->answers.size();
  }
  EXPECT_GT(prev_survivors, 0u);  // 4096 keeps a non-trivial prefix
}

TEST(Truncator, EveryBudgetYieldsADecodablePrefix) {
  const auto full = encode(sample_message());
  for (std::size_t b = Truncator::kHeaderSize; b <= full.size(); ++b) {
    auto wire = full;
    const std::size_t len = Truncator::truncate(wire, b);
    ASSERT_LE(len, b) << b;
    const auto decoded = decode(std::span(wire.data(), len));
    ASSERT_TRUE(decoded.has_value()) << "budget " << b;
    if (len < full.size()) {
      EXPECT_TRUE(decoded->header.flags.tc) << b;
    }
  }
}

}  // namespace
}  // namespace orp::dns
