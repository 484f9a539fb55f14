#include "analysis/flow.h"

#include "dns/decode_view.h"

namespace orp::analysis {

std::string_view to_string(AnswerForm f) noexcept {
  switch (f) {
    case AnswerForm::kNone: return "none";
    case AnswerForm::kIp: return "IP";
    case AnswerForm::kUrl: return "URL";
    case AnswerForm::kString: return "string";
    case AnswerForm::kUndecodable: return "N/A";
  }
  return "?";
}

R2View classify_r2(const R2Record& record,
                   const zone::SubdomainScheme& scheme) {
  R2View view;
  classify_r2_into(record.payload, record.resolver, record.time, scheme, view);
  return view;
}

void classify_r2_into(std::span<const std::uint8_t> payload,
                      net::IPv4Addr resolver, net::SimTime time,
                      const zone::SubdomainScheme& scheme, R2View& view) {
  view.resolver = resolver;
  view.time = time;
  view.header_decoded = true;
  view.has_question = false;
  view.ra = false;
  view.aa = false;
  view.rcode = dns::Rcode::kNoError;
  view.form = AnswerForm::kNone;
  view.answer_ip.reset();
  view.answer_text.clear();  // keeps capacity — the scratch-reuse contract
  view.subdomain.reset();
  view.correct = false;

  // Zero-copy decode: same validation rules and stages as decode_partial
  // (the differential fuzz suite pins the equivalence), but nothing is
  // materialized — names and rdata stay offsets into the payload.
  const dns::DecodeView v = dns::DecodeView::parse(payload);
  if (v.failed_at == dns::DecodeStage::kHeader) {
    view.header_decoded = false;
    return;
  }
  view.ra = v.header.flags.ra;
  view.aa = v.header.flags.aa;
  view.rcode = v.header.flags.rcode;
  view.has_question = v.questions_parsed > 0;

  if (view.has_question) view.subdomain = scheme.parse(v.qname);

  // Answer-section failure after a clean question: the Table VII N/A class.
  if (v.failed_at == dns::DecodeStage::kQuestion) {
    view.has_question = false;
    return;
  }
  if (v.failed_at == dns::DecodeStage::kAnswer) {
    view.form = AnswerForm::kUndecodable;
    return;
  }

  if (v.answers_parsed == 0) {
    view.form = AnswerForm::kNone;
    return;
  }

  // Judge the first answer record, as the paper's single-question probes do.
  const dns::AnswerRecordView& rr = v.first_answer;
  switch (rr.type) {
    case dns::RRType::kA: {
      view.form = AnswerForm::kIp;
      view.answer_ip = net::IPv4Addr(
          (static_cast<std::uint32_t>(rr.rdata[0]) << 24) |
          (static_cast<std::uint32_t>(rr.rdata[1]) << 16) |
          (static_cast<std::uint32_t>(rr.rdata[2]) << 8) | rr.rdata[3]);
      if (view.subdomain)
        view.correct = (*view.answer_ip == scheme.ground_truth(*view.subdomain));
      return;
    }
    case dns::RRType::kNS:
    case dns::RRType::kCNAME:
    case dns::RRType::kPTR: {
      view.form = AnswerForm::kUrl;
      // Presentation form built in place, byte-identical to
      // NameView::to_string (labels joined by '.', "." for the root) but
      // reusing the scratch string's capacity.
      if (rr.rdata_name.is_root()) {
        view.answer_text.assign(1, '.');
        return;
      }
      view.answer_text.reserve(rr.rdata_name.wire_length() - 2);
      for (std::size_t i = 0; i < rr.rdata_name.label_count(); ++i) {
        if (!view.answer_text.empty()) view.answer_text.push_back('.');
        const std::string_view label = rr.rdata_name.label(i);
        view.answer_text.append(label.data(), label.size());
      }
      return;
    }
    case dns::RRType::kTXT: {
      view.form = AnswerForm::kString;
      // Space-join the character-strings; size the result first so the
      // join is a single allocation. A separator lands exactly where the
      // accumulated text is already non-empty.
      std::size_t joined = 0;
      for (std::size_t p = 0; p < rr.rdata.size();) {
        const std::uint8_t len = rr.rdata[p];
        if (joined > 0) ++joined;
        joined += len;
        p += 1 + static_cast<std::size_t>(len);
      }
      view.answer_text.reserve(joined);
      for (std::size_t p = 0; p < rr.rdata.size();) {
        const std::uint8_t len = rr.rdata[p];
        if (!view.answer_text.empty()) view.answer_text += ' ';
        view.answer_text.append(
            reinterpret_cast<const char*>(rr.rdata.data() + p + 1), len);
        p += 1 + static_cast<std::size_t>(len);
      }
      return;
    }
    case dns::RRType::kSOA:
    case dns::RRType::kMX:
    case dns::RRType::kAAAA: {
      // Structured but non-text rdata: a string-form answer with no text,
      // exactly as the Message-based classifier judged these.
      view.form = AnswerForm::kString;
      return;
    }
    default: {
      // Anything else (raw bytes, OPT, ...) is a garbage-string answer.
      view.form = AnswerForm::kString;
      static constexpr char kHex[] = "0123456789abcdef";
      view.answer_text.reserve(rr.rdata.size() * 2);
      for (const std::uint8_t b : rr.rdata) {
        view.answer_text.push_back(kHex[b >> 4]);
        view.answer_text.push_back(kHex[b & 0xF]);
      }
      return;
    }
  }
}

void FlowGrouper::add_probe(const dns::DnsName& qname, net::IPv4Addr target) {
  char key_buf[dns::kMaxNameLength];
  const std::string_view key = qname.canonical_key_into(key_buf);
  auto it = flows_.find(key);
  if (it == flows_.end())
    it = flows_.emplace(std::string(key), Flow{}).first;
  Flow& flow = it->second;
  if (flow.qname_key.empty()) flow.qname_key = it->first;
  flow.probed_target = target;
}

void FlowGrouper::add_auth_packet(std::span<const std::uint8_t> payload,
                                  bool inbound) {
  const dns::DecodeView v = dns::DecodeView::parse(payload);
  if (v.questions_parsed == 0) return;
  char key_buf[dns::kMaxNameLength];
  const auto it = flows_.find(v.qname.canonical_key_into(key_buf));
  // Auth-side traffic for unknown qnames (background noise) is not a flow.
  if (it == flows_.end()) return;
  if (inbound)
    ++it->second.q2_count;
  else
    ++it->second.r1_count;
}

void FlowGrouper::add_r2(const R2View& view, const dns::DnsName& qname) {
  char key_buf[dns::kMaxNameLength];
  const auto it = flows_.find(qname.canonical_key_into(key_buf));
  if (it == flows_.end()) return;
  it->second.has_r2 = true;
  it->second.r2 = view;
}

std::vector<const Flow*> FlowGrouper::answered_without_recursion() const {
  std::vector<const Flow*> result;
  for (const auto& [key, flow] : flows_) {
    if (flow.has_r2 && flow.r2 && flow.r2->has_answer() && flow.q2_count == 0)
      result.push_back(&flow);
  }
  return result;
}

}  // namespace orp::analysis
