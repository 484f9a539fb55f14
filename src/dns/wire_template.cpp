#include "dns/wire_template.h"

#include <cstring>

namespace orp::dns {
namespace {

/// One fingerprint per field, each with pairwise-distinct bytes, none of
/// which equals its base-point byte (digits avoid '0', the others avoid
/// 0x00) — so moving one field to its fingerprint changes *every* byte the
/// field occupies, and each changed byte's value names the byte's position
/// within the field.
constexpr std::uint16_t kFpTxn = 0xA5C3;
constexpr std::uint32_t kFpCluster = 123;       // digits 1 2 3
constexpr std::uint32_t kFpIndex = 4'567'891;   // digits 4 5 6 7 8 9 1
constexpr std::uint32_t kFpTtl = 0xB1B2B3B4;
constexpr std::uint32_t kFpAddr = 0xC1C2C3C4;

// The verification point: unrelated to base and fingerprints, exercising
// every field at once.
constexpr StampVars kVerify{0x7E31, 987, 1'029'384, 0x00015180, 0x0A141E28};

std::uint8_t digit_char(std::uint32_t v, int width, int pos) noexcept {
  for (int i = width - 1 - pos; i > 0; --i) v /= 10;
  return static_cast<std::uint8_t>('0' + v % 10);
}

std::uint8_t be_byte(std::uint32_t v, int pos) noexcept {
  return static_cast<std::uint8_t>(v >> (8 * (3 - pos)));
}

/// The byte field `f` places at position `pos` under assignment `v`.
std::uint8_t field_byte(const StampVars& v, int f, int pos) noexcept {
  switch (f) {
    case 0:
      return static_cast<std::uint8_t>(pos == 0 ? v.txn >> 8 : v.txn & 0xff);
    case 1:
      return digit_char(v.cluster, 3, pos);
    case 2:
      return digit_char(v.index, 7, pos);
    case 3:
      return be_byte(v.ttl, pos);
    default:
      return be_byte(v.addr, pos);
  }
}

constexpr int kFieldWidth[5] = {2, 3, 7, 4, 4};

}  // namespace

WireTemplate WireTemplate::derive(const Factory& make, EncodeBuffer& scratch,
                                  bool raw_counts) {
  WireTemplate t;
  const auto encode = [&](const StampVars& v) {
    const Message m = make(v);
    const auto wire = raw_counts ? encode_raw_counts_into(m, scratch)
                                 : encode_into(m, scratch);
    return std::vector<std::uint8_t>(wire.begin(), wire.end());
  };

  const StampVars base{};
  t.bytes_ = encode(base);

  // One fingerprint encoding per field; diff against base.
  for (int f = 0; f < 5; ++f) {
    StampVars fp = base;
    switch (f) {
      case 0: fp.txn = kFpTxn; break;
      case 1: fp.cluster = kFpCluster; break;
      case 2: fp.index = kFpIndex; break;
      case 3: fp.ttl = kFpTtl; break;
      case 4: fp.addr = kFpAddr; break;
    }
    const std::vector<std::uint8_t> wire = encode(fp);
    if (wire.size() != t.bytes_.size()) return t;  // shape not stampable
    for (std::size_t off = 0; off < wire.size(); ++off) {
      if (wire[off] == t.bytes_[off]) continue;
      // Which byte of the field moved here? The fingerprint's bytes are
      // pairwise distinct, so at most one position can match — and its
      // base-point byte must match what the base encoding shows.
      int found = -1;
      for (int pos = 0; pos < kFieldWidth[f]; ++pos) {
        if (field_byte(fp, f, pos) == wire[off] &&
            field_byte(base, f, pos) == t.bytes_[off]) {
          found = pos;
          break;
        }
      }
      if (found < 0) return t;  // byte changed in an unexplained way
      t.patches_.push_back(Patch{static_cast<std::uint16_t>(off),
                                 static_cast<Field>(f),
                                 static_cast<std::uint8_t>(found)});
    }
  }

  // Full differential verification at an unrelated point. Any factory
  // nonlinearity the probing missed (a var steering compression layout, a
  // length change, byte coupling) fails here and the template declines.
  const std::vector<std::uint8_t> expect = encode(kVerify);
  if (expect.size() != t.bytes_.size()) return t;
  std::vector<std::uint8_t> got(t.bytes_);
  t.stamp_at(kVerify, got.data());
  if (std::memcmp(got.data(), expect.data(), expect.size()) != 0) return t;

  t.build_segments();
  t.ok_ = true;
  return t;
}

void WireTemplate::build_segments() {
  std::vector<std::uint8_t> patched(bytes_.size(), 0);
  for (const Patch& p : patches_) patched[p.off] = 1;
  segments_.clear();
  std::size_t i = 0;
  while (i < bytes_.size()) {
    if (patched[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < bytes_.size() && !patched[j]) ++j;
    segments_.push_back(Segment{static_cast<std::uint16_t>(i),
                                static_cast<std::uint16_t>(j - i)});
    i = j;
  }
}

void WireTemplate::stamp_at(const StampVars& v, std::uint8_t* out) const {
  for (const Patch& p : patches_)
    out[p.off] = field_byte(v, static_cast<int>(p.field), p.pos);
}

std::span<const std::uint8_t> WireTemplate::stamp(const StampVars& v,
                                                  EncodeBuffer& scratch) const {
  scratch.out.assign(bytes_.begin(), bytes_.end());
  stamp_at(v, scratch.out.data());
  return scratch.out;
}

bool WireTemplate::match(std::span<const std::uint8_t> wire,
                         StampVars& out) const {
  if (!ok_ || wire.size() != bytes_.size()) return false;
  // Literal bytes first: one memcmp per unpatched run.
  for (const Segment& s : segments_)
    if (std::memcmp(wire.data() + s.off, bytes_.data() + s.off, s.len) != 0)
      return false;
  out = StampVars{};
  std::uint32_t seen[5] = {};  // bitmask of positions recovered per field
  for (const Patch& p : patches_) {
    const std::uint8_t b = wire[p.off];
    const int f = static_cast<int>(p.field);
    if (f == 1 || f == 2) {
      if (b < '0' || b > '9') return false;
    }
    const std::uint32_t bit = 1u << p.pos;
    if (seen[f] & bit) {
      // A compression-duplicated copy: must agree with the first one.
      if (field_byte(out, f, p.pos) != b) return false;
      continue;
    }
    seen[f] |= bit;
    switch (p.field) {
      case Field::kTxn:
        out.txn |= static_cast<std::uint16_t>(b << (p.pos == 0 ? 8 : 0));
        break;
      case Field::kCluster:
        out.cluster += static_cast<std::uint32_t>(b - '0') *
                       (p.pos == 0 ? 100u : p.pos == 1 ? 10u : 1u);
        break;
      case Field::kIndex: {
        std::uint32_t scale = 1;
        for (int i = 6 - p.pos; i > 0; --i) scale *= 10;
        out.index += static_cast<std::uint32_t>(b - '0') * scale;
        break;
      }
      case Field::kTtl:
        out.ttl |= static_cast<std::uint32_t>(b) << (8 * (3 - p.pos));
        break;
      case Field::kAddr:
        out.addr |= static_cast<std::uint32_t>(b) << (8 * (3 - p.pos));
        break;
    }
  }
  return true;
}

}  // namespace orp::dns
