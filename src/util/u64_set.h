// Flat open-addressed set of 64-bit keys.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace orp::util {

/// One Fibonacci multiply spreads the keys over a power-of-two slot array
/// probed linearly — no per-element nodes, no malloc on the insert path
/// once reserve() (or the high-water mark) has sized the array. Two users:
/// the flow tracer's marked-flow set (FNV-1a digests; tens of thousands of
/// inserts and a membership probe per packet at every downstream vantage)
/// and the scanner's set of unanswered probe ids (packed SubdomainIds).
///
/// Key 0 is the empty-slot sentinel; a real zero key (subdomain (0, 0), or
/// a 1-in-2^64 FNV digest) is carried in a side flag rather than a slot.
/// erase() backward-shifts the rest of the probe run, so no tombstones
/// accumulate under insert/erase churn.
class U64Set {
 public:
  /// Size the slot array for `n` keys (load factor <= 7/8). Never shrinks.
  void reserve(std::size_t n) { rehash(n); }

  /// Insert `key`; returns true if it was not already present.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      const bool fresh = !has_zero_;
      has_zero_ = true;
      if (fresh) ++size_;
      return fresh;
    }
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(size_ + 1);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key);
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const noexcept {
    if (key == 0) return has_zero_;
    return find(key) != kNone;
  }

  /// Remove `key`; returns true if it was present.
  bool erase(std::uint64_t key) noexcept {
    if (key == 0) {
      const bool had = has_zero_;
      has_zero_ = false;
      if (had) --size_;
      return had;
    }
    std::size_t hole = find(key);
    if (hole == kNone) return false;
    // Backward shift: walk the run after the hole and move up every key
    // whose home slot is not inside (hole, j] — it may then sit at the
    // hole without breaking its own probe path.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
      const std::size_t home = slot_of(slots_[j]);
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = 0;
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }

  /// Visit every key (order unspecified — callers needing a canonical
  /// order sort what they build from the visit).
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0});
    for (const std::uint64_t k : slots_)
      if (k != 0) f(k);
  }

  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
    has_zero_ = false;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot holding non-zero `key`, or kNone.
  std::size_t find(std::uint64_t key) const noexcept {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(key); slots_[i] != 0; i = (i + 1) & mask)
      if (slots_[i] == key) return i;
    return kNone;
  }

  /// Grow (never shrink) so `need` keys fit under the 7/8 load bound.
  void rehash(std::size_t need) {
    std::size_t cap = slots_.empty() ? 16 : slots_.size();
    while (cap * 7 < need * 8) cap *= 2;
    if (cap == slots_.size()) return;
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(cap, 0);
    shift_ = 64 - std::countr_zero(cap);
    const std::size_t mask = cap - 1;
    for (const std::uint64_t k : old) {
      if (k == 0) continue;
      std::size_t i = slot_of(k);
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = k;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;  // distinct keys, including a real zero key
  unsigned shift_ = 64;   // 64 - log2(slots_.size())
  bool has_zero_ = false;
};

}  // namespace orp::util
