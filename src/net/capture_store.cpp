#include "net/capture_store.h"

#include "util/hash.h"
#include "util/rng.h"

namespace orp::net {

void CaptureStore::attach(Network& net, IPv4Addr host) {
  net.add_tap(
      [this, host](SimTime, const Datagram& d) { observe(d, host); },
      [this, host](SimTime, std::span<const PacketView> pkts) {
        observe_batch(pkts, host);
      });
}

std::uint64_t CaptureStore::packet_hash(
    Endpoint src, Endpoint dst, std::span<const std::uint8_t> payload) noexcept {
  // Mixed so that the wrapping sum in observe() — commutative and
  // associative — cannot be moved by merge order or shard layout.
  return util::mix64(util::Fnv1a()
                         .word_bytes(src.addr.value())
                         .word_bytes(src.port)
                         .word_bytes(dst.addr.value())
                         .word_bytes(dst.port)
                         .bytes(payload)
                         .value());
}

}  // namespace orp::net
