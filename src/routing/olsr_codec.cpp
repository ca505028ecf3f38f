#include "routing/olsr_codec.hpp"

namespace siphoc::routing::olsr {

namespace {

// Message layout: an 11-byte header (type, vtime, originator, ttl, hop
// count, msg_seq), the HELLO or TC body, then the length-prefixed
// extension.
constexpr std::size_t kMessageHeaderSize = 11;
constexpr std::size_t kTtlOffset = 7;
constexpr std::size_t kHopCountOffset = 8;

std::size_t encoded_size(const Message& m) {
  std::size_t body = 0;
  switch (m.type) {
    case MsgType::kHello:
      body = 2;
      for (const auto& group : m.hello.links) {
        body += 3 + 4 * group.neighbors.size();
      }
      break;
    case MsgType::kTc:
      body = 4 + 4 * m.tc.advertised.size();
      break;
  }
  return kMessageHeaderSize + body + 2 + m.extension.size();
}

void encode_message(BufferWriter& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u16(m.vtime_ms);
  w.u32(m.originator.value());
  w.u8(m.ttl);
  w.u8(m.hop_count);
  w.u16(m.msg_seq);
  switch (m.type) {
    case MsgType::kHello: {
      w.u8(m.hello.willingness);
      w.u8(static_cast<std::uint8_t>(m.hello.links.size()));
      for (const auto& group : m.hello.links) {
        w.u8(static_cast<std::uint8_t>(group.code));
        w.u16(static_cast<std::uint16_t>(group.neighbors.size()));
        for (const auto& n : group.neighbors) w.u32(n.value());
      }
      break;
    }
    case MsgType::kTc: {
      w.u16(m.tc.ansn);
      w.u16(static_cast<std::uint16_t>(m.tc.advertised.size()));
      for (const auto& n : m.tc.advertised) w.u32(n.value());
      break;
    }
  }
  w.u16(static_cast<std::uint16_t>(m.extension.size()));
  w.raw(m.extension);
}

/// Skips `count` addresses; fails like reading them one u32 at a time.
Result<void> skip_addresses(BufferReader& r, std::size_t count) {
  if (r.remaining() < 4 * count) return fail("u32: buffer underrun");
  return r.skip(4 * count);
}

/// Walks one message at r's position: the reads a field-by-field decode
/// makes, in its order, failing where it fails with its error text.
Result<void> check_message(BufferReader& r) {
  const auto type = r.u8();
  if (!type) return type.error();
  if (*type != static_cast<std::uint8_t>(MsgType::kHello) &&
      *type != static_cast<std::uint8_t>(MsgType::kTc)) {
    return fail("olsr: unknown message type " + std::to_string(*type));
  }
  // vtime, originator, ttl, hop count, msg_seq.
  if (const auto f = r.u16(); !f) return f.error();
  if (const auto f = r.u32(); !f) return f.error();
  if (const auto f = r.u8(); !f) return f.error();
  if (const auto f = r.u8(); !f) return f.error();
  if (const auto f = r.u16(); !f) return f.error();

  if (*type == static_cast<std::uint8_t>(MsgType::kHello)) {
    if (const auto will = r.u8(); !will) return will.error();
    const auto groups = r.u8();
    if (!groups) return groups.error();
    for (std::uint8_t g = 0; g < *groups; ++g) {
      if (const auto code = r.u8(); !code) return code.error();
      const auto count = r.u16();
      if (!count) return count.error();
      if (auto s = skip_addresses(r, *count); !s) return s;
    }
  } else {
    if (const auto ansn = r.u16(); !ansn) return ansn.error();
    const auto count = r.u16();
    if (!count) return count.error();
    if (auto s = skip_addresses(r, *count); !s) return s;
  }

  const auto ext_len = r.u16();
  if (!ext_len) return ext_len.error();
  if (r.remaining() < *ext_len) return fail("raw: buffer underrun");
  return r.skip(*ext_len);
}

/// The owning form of a scanned message.
Message to_message(const MessageView& v) {
  Message m;
  m.type = v.type;
  m.vtime_ms = v.vtime_ms;
  m.originator = v.originator;
  m.ttl = v.ttl;
  m.hop_count = v.hop_count;
  m.msg_seq = v.msg_seq;
  if (v.type == MsgType::kHello) {
    m.hello.willingness = v.body[0];
    m.hello.links.resize(v.body[1]);
    // Groups appear in wire order; walk them alongside the neighbor list.
    std::size_t at = 2;
    for (auto& group : m.hello.links) {
      group.code = static_cast<LinkCode>(v.body[at]);
      const std::uint16_t n = detail::load16(v.body.data() + at + 1);
      at += 3;
      group.neighbors.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i, at += 4) {
        group.neighbors.emplace_back(detail::load32(v.body.data() + at));
      }
    }
  } else {
    m.tc.ansn = tc_ansn(v);
    for_each_tc_neighbor(v, [&](net::Address a) {
      m.tc.advertised.push_back(a);
    });
  }
  m.extension.assign(v.extension.begin(), v.extension.end());
  return m;
}

}  // namespace

namespace detail {

MessageView read_message(std::span<const std::uint8_t> at) {
  const std::uint8_t* p = at.data();
  MessageView m;
  m.type = static_cast<MsgType>(p[0]);
  m.vtime_ms = load16(p + 1);
  m.originator = net::Address{load32(p + 3)};
  m.ttl = p[kTtlOffset];
  m.hop_count = p[kHopCountOffset];
  m.msg_seq = load16(p + 9);
  std::size_t body = 0;
  if (m.type == MsgType::kHello) {
    const std::uint8_t groups = p[kMessageHeaderSize + 1];
    body = 2;
    for (std::uint8_t g = 0; g < groups; ++g) {
      body += 3 + 4 * std::size_t{load16(p + kMessageHeaderSize + body + 1)};
    }
  } else {
    body = 4 + 4 * std::size_t{load16(p + kMessageHeaderSize + 2)};
  }
  const std::size_t ext_at = kMessageHeaderSize + body;
  const std::size_t ext_len = load16(p + ext_at);
  m.body = at.subspan(kMessageHeaderSize, body);
  m.extension = at.subspan(ext_at + 2, ext_len);
  m.wire = at.first(ext_at + 2 + ext_len);
  return m;
}

}  // namespace detail

Result<PacketView> scan(std::span<const std::uint8_t> data) {
  if (data.size() < 4) return fail("olsr: packet shorter than CRC trailer");
  const std::span<const std::uint8_t> head = data.first(data.size() - 4);
  if (detail::load32(data.data() + head.size()) != crc32(head)) {
    return fail("olsr: CRC mismatch");
  }
  BufferReader r(head);
  PacketView p;
  const auto seq = r.u16();
  if (!seq) return seq.error();
  p.pkt_seq = *seq;
  const auto count = r.u8();
  if (!count) return count.error();
  p.message_count = *count;
  p.messages = head.subspan(r.position());
  for (std::uint8_t i = 0; i < *count; ++i) {
    if (auto m = check_message(r); !m) return m.error();
  }
  return p;
}

Bytes encode(const Packet& packet) {
  std::size_t size = 3 + 4;
  for (const auto& m : packet.messages) size += encoded_size(m);
  Bytes out;
  out.reserve(size);
  BufferWriter w(out);
  w.u16(packet.pkt_seq);
  w.u8(static_cast<std::uint8_t>(packet.messages.size()));
  for (const auto& m : packet.messages) encode_message(w, m);
  // Integrity trailer (see aodv_codec.cpp): corrupted packets must fail
  // decode as a whole rather than poison the topology set.
  w.u32(crc32(out));
  return out;
}

Result<Packet> decode(std::span<const std::uint8_t> data) {
  const auto view = scan(data);
  if (!view) return view.error();
  Packet p;
  p.pkt_seq = view->pkt_seq;
  p.messages.reserve(view->message_count);
  for_each_message(*view, [&](const MessageView& m) {
    p.messages.push_back(to_message(m));
  });
  return p;
}

Bytes encode_relay(std::uint16_t pkt_seq, const MessageView& m) {
  Bytes out;
  out.reserve(3 + m.wire.size() + 4);
  BufferWriter w(out);
  w.u16(pkt_seq);
  w.u8(1);
  w.raw(m.wire);
  out[3 + kTtlOffset] = static_cast<std::uint8_t>(m.ttl - 1);
  out[3 + kHopCountOffset] = static_cast<std::uint8_t>(m.hop_count + 1);
  w.u32(crc32(out));
  return out;
}

std::string describe(const Message& m) {
  switch (m.type) {
    case MsgType::kHello: {
      std::string s = "HELLO from " + m.originator.to_string() + " links={";
      for (const auto& g : m.hello.links) {
        for (const auto& n : g.neighbors) {
          s += n.to_string();
          s += g.code == LinkCode::kMpr   ? "(mpr),"
               : g.code == LinkCode::kSym ? "(sym),"
                                          : "(asym),";
        }
      }
      s += "}";
      return s;
    }
    case MsgType::kTc: {
      std::string s = "TC from " + m.originator.to_string() +
                      " ansn=" + std::to_string(m.tc.ansn) + " adv={";
      for (const auto& n : m.tc.advertised) s += n.to_string() + ",";
      s += "}";
      return s;
    }
  }
  return "?";
}

}  // namespace siphoc::routing::olsr
