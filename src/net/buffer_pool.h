// Shard-local recycled payload buffers.
//
// A campaign pushes millions of datagrams through Network::send, and before
// this pool every hop — the in-flight event, each tap, the receiving handler —
// held its own std::vector copy of the payload. A PayloadRef is a ref-counted
// handle to one PayloadSlab; the sender's bytes are written once and shared by
// everyone on the path. When the last reference drops, a pooled slab returns
// to its BufferPool's free list with its vector capacity intact, so the
// steady-state send path stops touching the allocator entirely.
//
// Threading: shards are single-threaded by construction (one event loop per
// shard, pool owned by the shard's Network), so the refcount is a plain
// integer. A PayloadRef must never cross shards; what a shard hands to the
// merge (counts, digests, partial tables) holds no payload bytes at all.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace orp::net {

class BufferPool;

/// One payload buffer plus its intrusive refcount. `owner == nullptr` marks a
/// standalone heap slab (from the vector-adopting PayloadRef constructors);
/// it is deleted at the last release instead of recycled.
struct PayloadSlab {
  std::vector<std::uint8_t> bytes;
  std::uint32_t refs = 0;
  BufferPool* owner = nullptr;
};

/// Shared immutable view of a payload. Copy = refcount bump; the bytes
/// themselves are never duplicated. Implicitly constructible from a vector or
/// initializer list so one-shot senders (tests, examples, client hosts) can
/// keep writing `Datagram{src, dst, dns::encode(q)}` — the vector is adopted,
/// not copied.
class PayloadRef {
 public:
  PayloadRef() noexcept = default;

  PayloadRef(std::vector<std::uint8_t> bytes)  // NOLINT: implicit by design
      : slab_(new PayloadSlab{std::move(bytes), 1, nullptr}) {}

  PayloadRef(std::initializer_list<std::uint8_t> bytes)  // NOLINT
      : PayloadRef(std::vector<std::uint8_t>(bytes)) {}

  PayloadRef(const PayloadRef& o) noexcept : slab_(o.slab_) {
    if (slab_) ++slab_->refs;
  }
  PayloadRef(PayloadRef&& o) noexcept : slab_(std::exchange(o.slab_, nullptr)) {}
  PayloadRef& operator=(const PayloadRef& o) noexcept {
    if (this != &o) {
      release();
      slab_ = o.slab_;
      if (slab_) ++slab_->refs;
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
      release();
      slab_ = std::exchange(o.slab_, nullptr);
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  const std::uint8_t* data() const noexcept {
    return slab_ ? slab_->bytes.data() : nullptr;
  }
  std::size_t size() const noexcept { return slab_ ? slab_->bytes.size() : 0; }
  bool empty() const noexcept { return size() == 0; }
  const std::uint8_t* begin() const noexcept { return data(); }
  const std::uint8_t* end() const noexcept { return data() + size(); }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

  std::span<const std::uint8_t> span() const noexcept {
    return {data(), size()};
  }
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return span();
  }

  std::vector<std::uint8_t> to_vector() const {
    return {begin(), end()};
  }

 private:
  friend class BufferPool;
  explicit PayloadRef(PayloadSlab* slab) noexcept : slab_(slab) {}
  void release() noexcept;

  PayloadSlab* slab_ = nullptr;
};

/// Free-list of PayloadSlabs. acquire() copies the caller's bytes into a
/// recycled slab (no allocation once the free lists cover the in-flight
/// high-water mark).
///
/// The free list is segregated into power-of-two capacity classes
/// (256 B … 64 KiB). Mixed traffic — mss-sized stream segments interleaved
/// with whole reassembled DNS messages — would otherwise churn a single LIFO
/// list: a large acquire that pops a small-capacity slab regrows it, paying
/// an allocation that warm-up can never fully retire. With classes, an
/// acquire only ever pops a slab whose capacity already fits, and a new slab
/// reserves its whole class up front, so the steady state is allocation-free
/// regardless of how sizes interleave.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  PayloadRef acquire(std::span<const std::uint8_t> bytes);

  /// Total slabs ever created (bounded by the per-class in-flight
  /// high-water marks).
  std::size_t slab_count() const noexcept { return slabs_.size(); }
  std::size_t free_count() const noexcept {
    std::size_t n = 0;
    for (const auto& f : free_) n += f.size();
    return n;
  }
  /// Slabs currently referenced somewhere on the packet path.
  std::size_t in_flight_count() const noexcept {
    return slabs_.size() - free_count();
  }
  /// Total recycle events (last reference dropped, slab back on the list).
  std::uint64_t recycled_count() const noexcept { return recycled_; }
  /// Process-wide count of slabs orphaned by pool destruction while still
  /// referenced (see ~BufferPool) — a standing observatory watches this for
  /// teardown-ordering leaks.
  static std::uint64_t orphaned_total() noexcept;

 private:
  friend class PayloadRef;

  /// Capacity classes 256 << 0 … 256 << 8 (= 64 KiB, the DNS/TCP message
  /// ceiling). Sizes above the last class are clamped into it; the giant
  /// slab keeps its real capacity and may regrow on reuse (no such payload
  /// exists on the simulated wire today).
  static constexpr std::size_t kMinClass = 256;
  static constexpr std::size_t kNumClasses = 9;

  static constexpr std::size_t class_size(std::size_t b) noexcept {
    return kMinClass << b;
  }
  /// Smallest class that holds `n` bytes.
  static constexpr std::size_t class_for_size(std::size_t n) noexcept {
    const auto b = static_cast<std::size_t>(std::countr_zero(
                       std::bit_ceil(n < kMinClass ? kMinClass : n))) -
                   8;
    return b < kNumClasses ? b : kNumClasses - 1;
  }
  /// Largest class whose size a slab of `cap` capacity covers — the
  /// invariant: every slab on free_[b] has capacity >= class_size(b).
  static constexpr std::size_t class_for_capacity(std::size_t cap) noexcept {
    const auto b = static_cast<std::size_t>(std::countr_zero(
                       std::bit_floor(cap < kMinClass ? kMinClass : cap))) -
                   8;
    return b < kNumClasses ? b : kNumClasses - 1;
  }

  void recycle(PayloadSlab* s) {
    free_[class_for_capacity(s->bytes.capacity())].push_back(s);
    ++recycled_;
  }

  std::vector<std::unique_ptr<PayloadSlab>> slabs_;
  std::array<std::vector<PayloadSlab*>, kNumClasses> free_;
  std::uint64_t recycled_ = 0;
};

inline void PayloadRef::release() noexcept {
  if (!slab_) return;
  if (--slab_->refs == 0) {
    if (slab_->owner != nullptr)
      slab_->owner->recycle(slab_);
    else
      delete slab_;
  }
  slab_ = nullptr;
}

}  // namespace orp::net
