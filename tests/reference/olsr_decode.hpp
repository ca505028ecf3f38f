// Reference model of the OLSR packet decoder: the field-by-field
// BufferReader decode the codec ran before its receive side moved to the
// allocation-free scan(). Every field is read with a bounds-checked reader
// into an owning Packet -- slow but obviously correct, so it is the oracle
// the codec equivalence test checks olsr::scan and olsr::decode against
// (accept/reject, error text and content). Not part of any library.
#pragma once

#include <span>
#include <string>
#include <utility>

#include "routing/olsr_codec.hpp"

namespace siphoc::routing::reference {

inline Result<olsr::Message> olsr_decode_message(BufferReader& r) {
  using olsr::LinkCode;
  using olsr::MsgType;
  olsr::Message m;
  auto type = r.u8();
  if (!type) return type.error();
  if (*type != static_cast<std::uint8_t>(MsgType::kHello) &&
      *type != static_cast<std::uint8_t>(MsgType::kTc)) {
    return fail("olsr: unknown message type " + std::to_string(*type));
  }
  m.type = static_cast<MsgType>(*type);
  auto vtime = r.u16();
  if (!vtime) return vtime.error();
  m.vtime_ms = *vtime;
  auto orig = r.u32();
  if (!orig) return orig.error();
  m.originator = net::Address{*orig};
  auto ttl = r.u8();
  if (!ttl) return ttl.error();
  m.ttl = *ttl;
  auto hops = r.u8();
  if (!hops) return hops.error();
  m.hop_count = *hops;
  auto seq = r.u16();
  if (!seq) return seq.error();
  m.msg_seq = *seq;

  switch (m.type) {
    case MsgType::kHello: {
      auto will = r.u8();
      if (!will) return will.error();
      m.hello.willingness = *will;
      auto groups = r.u8();
      if (!groups) return groups.error();
      for (std::uint8_t g = 0; g < *groups; ++g) {
        olsr::Hello::LinkGroup group;
        auto code = r.u8();
        if (!code) return code.error();
        group.code = static_cast<LinkCode>(*code);
        auto count = r.u16();
        if (!count) return count.error();
        for (std::uint16_t i = 0; i < *count; ++i) {
          auto addr = r.u32();
          if (!addr) return addr.error();
          group.neighbors.push_back(net::Address{*addr});
        }
        m.hello.links.push_back(std::move(group));
      }
      break;
    }
    case MsgType::kTc: {
      auto ansn = r.u16();
      if (!ansn) return ansn.error();
      m.tc.ansn = *ansn;
      auto count = r.u16();
      if (!count) return count.error();
      for (std::uint16_t i = 0; i < *count; ++i) {
        auto addr = r.u32();
        if (!addr) return addr.error();
        m.tc.advertised.push_back(net::Address{*addr});
      }
      break;
    }
  }

  auto ext_len = r.u16();
  if (!ext_len) return ext_len.error();
  auto ext = r.raw(*ext_len);
  if (!ext) return ext.error();
  m.extension = std::move(*ext);
  return m;
}

inline Result<olsr::Packet> olsr_decode(std::span<const std::uint8_t> data) {
  if (data.size() < 4) return fail("olsr: packet shorter than CRC trailer");
  const std::span<const std::uint8_t> head = data.first(data.size() - 4);
  BufferReader trailer(data.subspan(data.size() - 4));
  if (const auto want = trailer.u32(); !want || *want != crc32(head)) {
    return fail("olsr: CRC mismatch");
  }
  BufferReader r(head);
  olsr::Packet p;
  auto seq = r.u16();
  if (!seq) return seq.error();
  p.pkt_seq = *seq;
  auto count = r.u8();
  if (!count) return count.error();
  for (std::uint8_t i = 0; i < *count; ++i) {
    auto m = olsr_decode_message(r);
    if (!m) return m.error();
    p.messages.push_back(std::move(*m));
  }
  return p;
}

}  // namespace siphoc::routing::reference
