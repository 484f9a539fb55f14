// Microbenchmarks: DNS wire codec throughput — the per-packet cost floor of
// both the prober (3.7B encodes per campaign) and the analysis re-decode.
//
// Besides the google-benchmark suite, the binary measures ns/op and
// allocations/op for the hot wire operations — encode, decode, classify,
// and template stamping — on both the full path ("before": fresh buffers
// per encode, decode_partial into a Message, Message-walking classifier,
// build+encode per packet) and the fast path ("after": per-shard
// EncodeBuffer scratch, zero-copy DecodeView, view-walking classifier,
// WireTemplate::stamp), and writes BENCH_codec.json so the delta is
// machine-readable.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <variant>

#include "analysis/flow.h"
#include "dns/builder.h"
#include "dns/codec.h"
#include "dns/decode_view.h"
#include "dns/edns.h"
#include "dns/wire_template.h"
#include "zone/cluster.h"

// ---- allocation counter ---------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
}  // namespace

// The replacements stay out of line. Inlined into a container, a malloc
// behind operator new meeting a free behind operator delete (or the other
// way round) looks to GCC like mismatched allocation functions
// (-Wmismatched-new-delete), though the pair is consistent.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace orp;

dns::Message probe_query() {
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  return dns::make_query(0x4242, scheme.qname({3, 1234567}));
}

dns::Message full_response() {
  dns::Message m = probe_query();
  m.header.flags.qr = true;
  m.header.flags.ra = true;
  m.answers.push_back(dns::ResourceRecord{
      m.questions[0].qname, dns::RRType::kA, dns::RRClass::kIN, 300,
      dns::ARdata{net::IPv4Addr(93, 184, 216, 34)}});
  m.authority.push_back(dns::ResourceRecord{
      dns::DnsName::must_parse("ucfsealresearch.net"), dns::RRType::kNS,
      dns::RRClass::kIN, 172800,
      dns::NameRdata{dns::DnsName::must_parse("ns1.ucfsealresearch.net")}});
  m.additional.push_back(dns::ResourceRecord{
      dns::DnsName::must_parse("ns1.ucfsealresearch.net"), dns::RRType::kA,
      dns::RRClass::kIN, 172800, dns::ARdata{net::IPv4Addr(45, 76, 18, 21)}});
  return m;
}

dns::Message txt_response() {
  dns::Message m = probe_query();
  m.header.flags.qr = true;
  m.answers.push_back(dns::ResourceRecord{
      m.questions[0].qname, dns::RRType::kTXT, dns::RRClass::kIN, 60,
      dns::TxtRdata{{"a deliberately long garbage answer", "second chunk"}}});
  return m;
}

// ---- google-benchmark suite ----------------------------------------------

void BM_EncodeQuery(benchmark::State& state) {
  const dns::Message q = probe_query();
  for (auto _ : state) benchmark::DoNotOptimize(dns::encode(q));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeQuery);

void BM_EncodeQueryWarmScratch(benchmark::State& state) {
  const dns::Message q = probe_query();
  dns::EncodeBuffer scratch;
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::encode_into(q, scratch).size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeQueryWarmScratch);

void BM_EncodeResponseCompressed(benchmark::State& state) {
  const dns::Message r = full_response();
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::encode(r, {.compress = true}));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeResponseCompressed);

void BM_EncodeResponseWarmScratch(benchmark::State& state) {
  const dns::Message r = full_response();
  dns::EncodeBuffer scratch;
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::encode_into(r, scratch).size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeResponseWarmScratch);

void BM_EncodeResponseUncompressed(benchmark::State& state) {
  const dns::Message r = full_response();
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::encode(r, {.compress = false}));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeResponseUncompressed);

void BM_DecodeResponse(benchmark::State& state) {
  const auto wire = dns::encode(full_response());
  for (auto _ : state) {
    auto decoded = dns::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeResponse);

void BM_DecodeViewResponse(benchmark::State& state) {
  const auto wire = dns::encode(full_response());
  for (auto _ : state) {
    const dns::DecodeView v = dns::DecodeView::parse(wire);
    benchmark::DoNotOptimize(v.answers_parsed);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeViewResponse);

void BM_DecodePartialMalformed(benchmark::State& state) {
  dns::Message r = probe_query();
  r.header.flags.qr = true;
  r.header.qdcount = 1;
  r.header.ancount = 1;  // lies: the undecodable-answer shape
  const auto wire = dns::encode_raw_counts(r);
  for (auto _ : state) {
    auto decoded = dns::decode_partial(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodePartialMalformed);

void BM_ClassifyR2(benchmark::State& state) {
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  const auto wire = dns::encode(full_response());
  const analysis::R2Record rec{net::SimTime{}, net::IPv4Addr(8, 8, 8, 8),
                               wire};
  for (auto _ : state) {
    const auto view = analysis::classify_r2(rec, scheme);
    benchmark::DoNotOptimize(view.correct);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyR2);

void BM_StampProbeQuery(benchmark::State& state) {
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  dns::EncodeBuffer scratch;
  const dns::WireTemplate tpl = dns::WireTemplate::derive(
      [&](const dns::StampVars& v) {
        return dns::make_query(v.txn, scheme.qname({v.cluster, v.index}));
      },
      scratch);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const dns::StampVars v{static_cast<std::uint16_t>(i), i % 1000,
                           i % 5'000'000, 0, 0};
    benchmark::DoNotOptimize(tpl.stamp(v, scratch).back());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StampProbeQuery);

void BM_QnameRoundTrip(benchmark::State& state) {
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto name = scheme.qname({i & 0x3FF, i % 5'000'000});
    auto parsed = scheme.parse(name);
    benchmark::DoNotOptimize(parsed);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QnameRoundTrip);

// ---- before/after alloc+latency table ------------------------------------

/// The pre-refactor classifier, retained verbatim as the "before" reference:
/// materialize a Message via decode_partial, then judge the first answer by
/// walking the rdata variant. (classify_r2 in src/analysis now produces the
/// same R2View from a DecodeView; the differential fuzz suite pins the
/// equivalence.)
analysis::R2View classify_r2_materialized(
    const analysis::R2Record& record, const zone::SubdomainScheme& scheme) {
  analysis::R2View view;
  view.resolver = record.resolver;
  view.time = record.time;
  const dns::PartialDecode partial = dns::decode_partial(record.payload);
  if (partial.failed_at == dns::DecodeStage::kHeader) {
    view.header_decoded = false;
    return view;
  }
  const dns::Message& m = partial.message;
  view.ra = m.header.flags.ra;
  view.aa = m.header.flags.aa;
  view.rcode = m.header.flags.rcode;
  view.has_question = !m.questions.empty();
  if (view.has_question) view.subdomain = scheme.parse(m.questions[0].qname);
  if (partial.failed_at == dns::DecodeStage::kQuestion) {
    view.has_question = false;
    return view;
  }
  if (partial.failed_at == dns::DecodeStage::kAnswer) {
    view.form = analysis::AnswerForm::kUndecodable;
    return view;
  }
  if (m.answers.empty()) {
    view.form = analysis::AnswerForm::kNone;
    return view;
  }
  const dns::ResourceRecord& rr = m.answers.front();
  if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
    view.form = analysis::AnswerForm::kIp;
    view.answer_ip = a->addr;
    if (view.subdomain)
      view.correct = (a->addr == scheme.ground_truth(*view.subdomain));
  } else if (const auto* n = std::get_if<dns::NameRdata>(&rr.rdata)) {
    view.form = analysis::AnswerForm::kUrl;
    view.answer_text = n->name.to_string();
  } else if (const auto* t = std::get_if<dns::TxtRdata>(&rr.rdata)) {
    view.form = analysis::AnswerForm::kString;
    for (const auto& s : t->strings) {
      if (!view.answer_text.empty()) view.answer_text += " ";
      view.answer_text += s;
    }
  } else if (const auto* raw = std::get_if<dns::RawRdata>(&rr.rdata)) {
    view.form = analysis::AnswerForm::kString;
    static constexpr char kHex[] = "0123456789abcdef";
    for (const std::uint8_t b : raw->bytes) {
      view.answer_text.push_back(kHex[b >> 4]);
      view.answer_text.push_back(kHex[b & 0xF]);
    }
  } else {
    view.form = analysis::AnswerForm::kString;
  }
  return view;
}

struct OpCost {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// Time + count allocations over `iters` calls of `f`.
template <typename F>
OpCost measure(int iters, F&& f) {
  f();  // warm caches and any lazy buffers before the clock starts
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  g_counting.store(false, std::memory_order_relaxed);
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return OpCost{ns / iters,
                static_cast<double>(g_alloc_count.load()) / iters};
}

void write_bench_codec_json(const char* path) {
  constexpr int kIters = 200'000;
  const zone::SubdomainScheme scheme(
      dns::DnsName::must_parse("ucfsealresearch.net"), 5'000'000, 7);
  const dns::Message query = probe_query();
  const dns::Message response = full_response();
  const auto response_wire = dns::encode(response);
  const analysis::R2Record rec_a{net::SimTime{}, net::IPv4Addr(8, 8, 8, 8),
                                 response_wire};
  const auto txt_wire = dns::encode(txt_response());
  const analysis::R2Record rec_txt{
      net::SimTime{}, net::IPv4Addr(8, 8, 8, 8), txt_wire};
  dns::EncodeBuffer scratch;

  // The wire templates this PR's producers stamp from: the scanner's probe
  // query, and the auth server's A answer to a Q2 (RD=0 + EDNS) query.
  // "Before" is the warm full path those call sites previously ran — build
  // the message (qname render included) and encode into warm scratch.
  const auto probe_factory = [&scheme](const dns::StampVars& v) {
    return dns::make_query(v.txn, scheme.qname({v.cluster, v.index}));
  };
  const auto q2_factory = [&scheme](const dns::StampVars& v) {
    dns::Message q =
        dns::make_query(v.txn, scheme.qname({v.cluster, v.index}));
    q.header.flags.rd = false;
    dns::set_edns(q, dns::EdnsInfo{.udp_payload_size = 4096});
    return q;
  };
  const auto answer_factory = [&](const dns::StampVars& v) {
    dns::Message r = dns::make_a_response(q2_factory(v), net::IPv4Addr{v.addr},
                                          v.ttl, /*ra=*/false, /*aa=*/true);
    dns::set_edns(r, dns::EdnsInfo{.udp_payload_size = 4096});
    return r;
  };
  const dns::WireTemplate probe_tpl =
      dns::WireTemplate::derive(probe_factory, scratch);
  const dns::WireTemplate answer_tpl =
      dns::WireTemplate::derive(answer_factory, scratch);
  const auto vars_at = [](std::uint32_t i) {
    return dns::StampVars{static_cast<std::uint16_t>(i), i % 1000,
                          i % 5'000'000, 300, 0xC0A80000u + i};
  };

  struct Row {
    const char* op;
    OpCost before, after;
  };
  std::uint8_t sink = 0;
  std::uint32_t seq_a = 0, seq_b = 0, seq_c = 0, seq_d = 0;
  const Row rows[] = {
      {"encode_probe_query",
       measure(kIters, [&] { sink ^= dns::encode(query).back(); }),
       measure(kIters,
               [&] { sink ^= dns::encode_into(query, scratch).back(); })},
      {"encode_full_response",
       measure(kIters, [&] { sink ^= dns::encode(response).back(); }),
       measure(kIters,
               [&] { sink ^= dns::encode_into(response, scratch).back(); })},
      {"decode_full_response",
       measure(kIters,
               [&] {
                 sink ^= static_cast<std::uint8_t>(
                     dns::decode_partial(response_wire).message.answers.size());
               }),
       measure(kIters,
               [&] {
                 sink ^= static_cast<std::uint8_t>(
                     dns::DecodeView::parse(response_wire).answers_parsed);
               })},
      {"classify_r2_a_answer",
       measure(kIters,
               [&] { sink ^= classify_r2_materialized(rec_a, scheme).correct; }),
       measure(kIters,
               [&] { sink ^= analysis::classify_r2(rec_a, scheme).correct; })},
      {"stamp_probe_query",
       measure(kIters,
               [&] {
                 sink ^=
                     dns::encode_into(probe_factory(vars_at(seq_a++)), scratch)
                         .back();
               }),
       measure(kIters,
               [&] { sink ^= probe_tpl.stamp(vars_at(seq_b++), scratch).back(); })},
      {"stamp_full_response",
       measure(kIters,
               [&] {
                 sink ^=
                     dns::encode_into(answer_factory(vars_at(seq_c++)), scratch)
                         .back();
               }),
       measure(kIters,
               [&] {
                 sink ^= answer_tpl.stamp(vars_at(seq_d++), scratch).back();
               })},
      {"classify_r2_txt_answer",
       measure(kIters,
               [&] {
                 sink ^= static_cast<std::uint8_t>(
                     classify_r2_materialized(rec_txt, scheme).answer_text.size());
               }),
       measure(kIters,
               [&] {
                 sink ^= static_cast<std::uint8_t>(
                     analysis::classify_r2(rec_txt, scheme).answer_text.size());
               })},
  };

  std::string json =
      "{\n  \"bench\": \"codec_alloc\",\n  \"iters\": " +
      std::to_string(kIters) +
      ",\n  \"before\": \"cold buffers / decode_partial / Message walk\","
      "\n  \"after\": \"shard scratch / DecodeView / view walk\","
      "\n  \"rows\": [\n";
  const std::size_t n_rows = sizeof(rows) / sizeof(rows[0]);
  for (std::size_t i = 0; i < n_rows; ++i) {
    const Row& r = rows[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"before_ns\": %.1f, "
                  "\"before_allocs\": %.2f, \"after_ns\": %.1f, "
                  "\"after_allocs\": %.2f, \"speedup\": %.2f, "
                  "\"alloc_reduction\": %.1f}%s\n",
                  r.op, r.before.ns_per_op, r.before.allocs_per_op,
                  r.after.ns_per_op, r.after.allocs_per_op,
                  r.before.ns_per_op / r.after.ns_per_op,
                  r.after.allocs_per_op > 0
                      ? r.before.allocs_per_op / r.after.allocs_per_op
                      : r.before.allocs_per_op,
                  i + 1 == n_rows ? "" : ",");
    json += line;
    std::printf("%-24s before %8.1f ns %6.2f allocs | after %8.1f ns "
                "%6.2f allocs\n",
                r.op, r.before.ns_per_op, r.before.allocs_per_op,
                r.after.ns_per_op, r.after.allocs_per_op);
  }
  json += "  ]\n}\n";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (sink=%u)\n", path, sink);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_codec_json("BENCH_codec.json");
  return 0;
}
