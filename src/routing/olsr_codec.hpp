// OLSR (RFC 3626) message formats.
//
// Subset: HELLO (link sensing + neighbor/MPR signalling) and TC (topology
// dissemination). Each message carries a trailing length-prefixed extension
// block -- the MANET SLP piggyback attachment point. For the proactive
// protocol this is where service advertisements ride: on HELLO they reach
// the 1-hop neighborhood, on TC they are MPR-flooded through the whole
// network, which is how every node's SLP cache converges without any
// dedicated SLP traffic (paper Figure 4).
//
// Receive side (RFC 3626 §3.4 order): scan() checks the CRC and walks the
// packet's structure in place, without allocating, and accepts and rejects
// exactly what decode() does (decode is scan plus materialisation). The
// daemon reads message headers off the resulting views, so a duplicate copy
// is dropped before anything is copied, and encode_relay() forwards a view's
// wire bytes with only TTL and hop count patched.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/address.hpp"

namespace siphoc::routing::olsr {

enum class MsgType : std::uint8_t {
  kHello = 1,
  kTc = 2,
};

/// Neighbor status codes advertised in HELLO (condensed link codes).
enum class LinkCode : std::uint8_t {
  kAsym = 0,  // heard them, symmetry not confirmed
  kSym = 1,   // bidirectional link confirmed
  kMpr = 2,   // symmetric + selected as our multipoint relay
};

struct Hello {
  std::uint8_t willingness = 3;  // WILL_DEFAULT
  struct LinkGroup {
    LinkCode code = LinkCode::kSym;
    std::vector<net::Address> neighbors;
  };
  std::vector<LinkGroup> links;
};

struct Tc {
  std::uint16_t ansn = 0;  // advertised neighbor sequence number
  std::vector<net::Address> advertised;  // MPR selectors
};

struct Message {
  MsgType type = MsgType::kHello;
  std::uint16_t vtime_ms = 6000;  // validity of the carried information
  net::Address originator;
  std::uint8_t ttl = 1;
  std::uint8_t hop_count = 0;
  std::uint16_t msg_seq = 0;
  Hello hello;  // valid when type == kHello
  Tc tc;        // valid when type == kTc
  Bytes extension;
};

struct Packet {
  std::uint16_t pkt_seq = 0;
  std::vector<Message> messages;
};

/// One message of a scanned packet, read in place. The spans point into
/// the packet buffer and are valid while it lives.
struct MessageView {
  MsgType type = MsgType::kHello;
  std::uint16_t vtime_ms = 0;
  net::Address originator;
  std::uint8_t ttl = 0;
  std::uint8_t hop_count = 0;
  std::uint16_t msg_seq = 0;
  std::span<const std::uint8_t> wire;  // the whole message, header included
  std::span<const std::uint8_t> body;  // HELLO or TC body, scan()-checked
  std::span<const std::uint8_t> extension;
};

/// A packet whose CRC and structure scan() accepted.
struct PacketView {
  std::uint16_t pkt_seq = 0;
  std::uint8_t message_count = 0;
  std::span<const std::uint8_t> messages;  // message_count messages, then
                                           // any trailing bytes
};

/// Checks the CRC trailer and walks every message, allocating nothing.
/// Accepts exactly the packets decode() accepts, failing with the same
/// error text otherwise.
Result<PacketView> scan(std::span<const std::uint8_t> data);

/// Calls fn(const MessageView&) for each message of `packet` in wire order.
template <typename Fn>
void for_each_message(const PacketView& packet, Fn&& fn);

/// HELLO body of `m`: calls fn(LinkCode, net::Address) for every listed
/// neighbor in wire order.
template <typename Fn>
void for_each_hello_neighbor(const MessageView& m, Fn&& fn);

/// TC body of `m`: its ANSN, and fn(net::Address) per advertised neighbor.
inline std::uint16_t tc_ansn(const MessageView& m);
template <typename Fn>
void for_each_tc_neighbor(const MessageView& m, Fn&& fn);

Bytes encode(const Packet& packet);
Result<Packet> decode(std::span<const std::uint8_t> data);

/// The packet a relay sends for `m`: byte-identical to encoding
/// Packet{pkt_seq, {m with ttl - 1 and hop_count + 1}}, built by copying
/// m.wire and patching two bytes.
Bytes encode_relay(std::uint16_t pkt_seq, const MessageView& m);

std::string describe(const Message& message);

// --------------------------------------------------------------------------
// Unchecked readers over spans scan() has already validated.
// --------------------------------------------------------------------------

namespace detail {

inline std::uint16_t load16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint32_t load32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
/// The message starting at `at` (a scan()-validated message boundary).
MessageView read_message(std::span<const std::uint8_t> at);

}  // namespace detail

template <typename Fn>
void for_each_message(const PacketView& packet, Fn&& fn) {
  std::span<const std::uint8_t> rest = packet.messages;
  for (std::uint8_t i = 0; i < packet.message_count; ++i) {
    const MessageView m = detail::read_message(rest);
    rest = rest.subspan(m.wire.size());
    fn(m);
  }
}

template <typename Fn>
void for_each_hello_neighbor(const MessageView& m, Fn&& fn) {
  const std::uint8_t* p = m.body.data() + 1;  // past willingness
  const std::uint8_t groups = *p++;
  for (std::uint8_t g = 0; g < groups; ++g) {
    const auto code = static_cast<LinkCode>(*p);
    const std::uint16_t count = detail::load16(p + 1);
    p += 3;
    for (std::uint16_t i = 0; i < count; ++i, p += 4) {
      fn(code, net::Address{detail::load32(p)});
    }
  }
}

inline std::uint16_t tc_ansn(const MessageView& m) {
  return detail::load16(m.body.data());
}

template <typename Fn>
void for_each_tc_neighbor(const MessageView& m, Fn&& fn) {
  const std::uint8_t* p = m.body.data() + 2;  // past the ANSN
  const std::uint16_t count = detail::load16(p);
  p += 2;
  for (std::uint16_t i = 0; i < count; ++i, p += 4) {
    fn(net::Address{detail::load32(p)});
  }
}

}  // namespace siphoc::routing::olsr
