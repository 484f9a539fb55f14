// Pre-encoded wire templates for hot message shapes.
//
// PR 6 moved the per-event cost floor onto per-packet work; the largest
// producer-side term left is running the full wire encoder for messages
// whose bytes are almost entirely invariant: every probe query, every
// authoritative A answer/NXDOMAIN, and every scripted-resolver response of
// one behavior profile differ from their siblings only in the transaction
// id, the two digit runs of the probe subdomain, and (for the auth answer)
// the TTL and A rdata. A WireTemplate captures that: the full encoding of
// one representative message plus a *patch plan* — the byte offsets where
// those fields live — so producing the next packet of the same shape is a
// memcpy plus a handful of byte pokes.
//
// The plan is not hand-derived from wire-format knowledge; it is *learned*
// by differential probing at derive() time and then verified:
//
//   1. encode the factory's message at a base point (all vars zero);
//   2. re-encode with one var at a time moved to a fingerprint value whose
//      bytes are pairwise distinct — every byte that changed belongs to
//      that var, and the changed byte's value identifies *which* byte of
//      the var lives there (compression may duplicate a field; each copy
//      gets its own patch entry);
//   3. stamp an unrelated assignment and memcmp it against the factory's
//      full encoding of the same assignment.
//
// Any ambiguity, length change, or verification mismatch marks the template
// not-ok and callers keep the full encode path — a template can therefore
// never produce bytes that differ from `encode_into`, it can only decline.
//
// match() runs the plan in reverse: recognize a wire packet as a stamped
// instance of this template and recover its vars without a DNS decode. The
// auth server and scripted resolvers use this to classify probe queries at
// memcmp cost.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dns/codec.h"
#include "dns/message.h"

namespace orp::dns {

/// The fields a template instance can vary in. Digit runs are the probe
/// subdomain's zero-padded decimal labels ("or<CCC>.<NNNNNNN>"); ttl/addr
/// cover an answer record's TTL and A rdata. A factory that ignores a var
/// simply yields a template with no patches of that kind.
struct StampVars {
  std::uint16_t txn = 0;
  std::uint32_t cluster = 0;  // 3-digit run
  std::uint32_t index = 0;    // 7-digit run
  std::uint32_t ttl = 0;
  std::uint32_t addr = 0;     // A rdata, host order (poked big-endian)
};

class WireTemplate {
 public:
  static constexpr std::uint32_t kClusterLimit = 1000;       // 3 digits
  static constexpr std::uint32_t kIndexLimit = 10'000'000;   // 7 digits

  using Factory = std::function<Message(const StampVars&)>;

  WireTemplate() = default;

  /// Learn a template for `make`'s message shape (see file comment). With
  /// `raw_counts`, encodings go through encode_raw_counts_into — for shapes
  /// whose header counts deliberately lie (AnswerMode::kUndecodable).
  static WireTemplate derive(const Factory& make, EncodeBuffer& scratch,
                             bool raw_counts = false);

  bool ok() const noexcept { return ok_; }
  std::size_t size() const noexcept { return bytes_.size(); }

  /// Whether `v` fits the patchable widths. Out-of-width ids (cluster >=
  /// 1000, index >= 10^7) widen the rendered name and need the full path.
  bool covers(const StampVars& v) const noexcept {
    return ok_ && v.cluster < kClusterLimit && v.index < kIndexLimit;
  }

  /// Stamp into `scratch.out` (cleared first, like encode_into); the span
  /// aliases scratch and is valid until its next use.
  std::span<const std::uint8_t> stamp(const StampVars& v,
                                      EncodeBuffer& scratch) const;

  /// Recognize `wire` as a stamped instance of this template: every byte
  /// outside the patch plan must equal the template, every patched byte
  /// must be a plausible var byte (digits in digit runs, consistent across
  /// compression-duplicated copies). On success the recovered vars are the
  /// unique assignment with stamp(out) == wire.
  bool match(std::span<const std::uint8_t> wire, StampVars& out) const;

 private:
  // kind/pos of one patched byte. pos counts from the most significant
  // byte/digit of the var (txn pos 0 = high byte; cluster pos 0 = hundreds).
  enum class Field : std::uint8_t { kTxn, kCluster, kIndex, kTtl, kAddr };
  struct Patch {
    std::uint16_t off = 0;
    Field field = Field::kTxn;
    std::uint8_t pos = 0;
  };

  void stamp_at(const StampVars& v, std::uint8_t* out) const;
  void build_segments();

  std::vector<std::uint8_t> bytes_;
  std::vector<Patch> patches_;
  /// Maximal literal (unpatched) runs, for match()'s memcmp sweep.
  struct Segment {
    std::uint16_t off = 0;
    std::uint16_t len = 0;
  };
  std::vector<Segment> segments_;
  bool ok_ = false;
};

}  // namespace orp::dns
