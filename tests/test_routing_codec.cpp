// Unit tests: AODV and OLSR wire codecs, including fuzz-style robustness.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "routing/aodv_codec.hpp"
#include "routing/olsr_codec.hpp"
#include "reference/olsr_decode.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

TEST(AodvCodecTest, RreqRoundTrip) {
  aodv::Rreq m;
  m.hop_count = 3;
  m.ttl = 12;
  m.rreq_id = 77;
  m.dst = Address(10, 0, 0, 9);
  m.dst_seqno = 42;
  m.unknown_seqno = false;
  m.orig = Address(10, 0, 0, 1);
  m.orig_seqno = 100;

  Bytes ext = {1, 2, 3};
  const Bytes wire = aodv::encode(m, ext);
  auto decoded = aodv::decode(wire);
  ASSERT_TRUE(decoded);
  const auto* rreq = std::get_if<aodv::Rreq>(&decoded->message);
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(rreq->hop_count, 3);
  EXPECT_EQ(rreq->ttl, 12);
  EXPECT_EQ(rreq->rreq_id, 77u);
  EXPECT_EQ(rreq->dst, m.dst);
  EXPECT_EQ(rreq->dst_seqno, 42u);
  EXPECT_FALSE(rreq->unknown_seqno);
  EXPECT_EQ(rreq->orig, m.orig);
  EXPECT_EQ(rreq->orig_seqno, 100u);
  EXPECT_EQ(decoded->extension, ext);
}

TEST(AodvCodecTest, RrepRoundTrip) {
  aodv::Rrep m;
  m.hop_count = 2;
  m.dst = Address(10, 0, 0, 5);
  m.dst_seqno = 9;
  m.orig = Address(10, 0, 0, 1);
  m.lifetime_ms = 6000;
  const auto decoded = aodv::decode(aodv::encode(m, {}));
  ASSERT_TRUE(decoded);
  const auto* rrep = std::get_if<aodv::Rrep>(&decoded->message);
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(rrep->lifetime_ms, 6000u);
  EXPECT_FALSE(rrep->is_hello);
  EXPECT_TRUE(decoded->extension.empty());
}

TEST(AodvCodecTest, HelloFlagSurvives) {
  aodv::Rrep hello;
  hello.is_hello = true;
  hello.dst = Address(10, 0, 0, 2);
  const auto decoded = aodv::decode(aodv::encode(hello, {}));
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(std::get<aodv::Rrep>(decoded->message).is_hello);
}

TEST(AodvCodecTest, RerrRoundTrip) {
  aodv::Rerr m;
  m.destinations.push_back({Address(10, 0, 0, 3), 11});
  m.destinations.push_back({Address(10, 0, 0, 4), 12});
  const auto decoded = aodv::decode(aodv::encode(m, {}));
  ASSERT_TRUE(decoded);
  const auto& rerr = std::get<aodv::Rerr>(decoded->message);
  ASSERT_EQ(rerr.destinations.size(), 2u);
  EXPECT_EQ(rerr.destinations[1].seqno, 12u);
}

TEST(AodvCodecTest, EmptyAndUnknownTypeRejected) {
  EXPECT_FALSE(aodv::decode(Bytes{}));
  EXPECT_FALSE(aodv::decode(Bytes{0x99}));
}

TEST(AodvCodecTest, TruncationRejectedAtEveryLength) {
  aodv::Rreq m;
  m.dst = Address(10, 0, 0, 9);
  const Bytes ext = {7, 7, 7};
  const Bytes wire = aodv::encode(m, ext);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(aodv::decode(std::span(wire.data(), len)))
        << "length " << len << " should not decode";
  }
  EXPECT_TRUE(aodv::decode(wire));
}

TEST(AodvCodecTest, RandomBytesNeverCrash) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)aodv::decode(junk);  // must return error or garbage, never UB
  }
  SUCCEED();
}

TEST(AodvCodecTest, Describe) {
  aodv::Rreq service;
  service.rreq_id = 5;
  service.orig = Address(10, 0, 0, 1);
  EXPECT_NE(aodv::describe(service).find("<service-discovery>"),
            std::string::npos);
}

TEST(OlsrCodecTest, HelloRoundTrip) {
  olsr::Message m;
  m.type = olsr::MsgType::kHello;
  m.originator = Address(10, 0, 0, 1);
  m.vtime_ms = 6000;
  m.msg_seq = 42;
  m.hello.willingness = 3;
  m.hello.links.push_back(
      {olsr::LinkCode::kSym, {Address(10, 0, 0, 2), Address(10, 0, 0, 3)}});
  m.hello.links.push_back({olsr::LinkCode::kMpr, {Address(10, 0, 0, 4)}});
  m.extension = {9, 8, 7};

  olsr::Packet p;
  p.pkt_seq = 1;
  p.messages.push_back(m);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->messages.size(), 1u);
  const auto& h = decoded->messages.front();
  EXPECT_EQ(h.originator, m.originator);
  EXPECT_EQ(h.msg_seq, 42);
  ASSERT_EQ(h.hello.links.size(), 2u);
  EXPECT_EQ(h.hello.links[0].neighbors.size(), 2u);
  EXPECT_EQ(h.hello.links[1].code, olsr::LinkCode::kMpr);
  EXPECT_EQ(h.extension, m.extension);
}

TEST(OlsrCodecTest, TcRoundTrip) {
  olsr::Message m;
  m.type = olsr::MsgType::kTc;
  m.originator = Address(10, 0, 0, 7);
  m.ttl = 255;
  m.tc.ansn = 17;
  m.tc.advertised = {Address(10, 0, 0, 1), Address(10, 0, 0, 2)};
  olsr::Packet p;
  p.messages.push_back(m);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  const auto& tc = decoded->messages.front();
  EXPECT_EQ(tc.tc.ansn, 17);
  ASSERT_EQ(tc.tc.advertised.size(), 2u);
}

TEST(OlsrCodecTest, MultiMessagePacket) {
  olsr::Packet p;
  olsr::Message hello;
  hello.type = olsr::MsgType::kHello;
  hello.originator = Address(10, 0, 0, 1);
  olsr::Message tc;
  tc.type = olsr::MsgType::kTc;
  tc.originator = Address(10, 0, 0, 1);
  p.messages.push_back(hello);
  p.messages.push_back(tc);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->messages.size(), 2u);
  EXPECT_EQ(decoded->messages[1].type, olsr::MsgType::kTc);
}

TEST(OlsrCodecTest, UnknownMessageTypeRejected) {
  Bytes wire;
  BufferWriter w(wire);
  w.u16(1);  // pkt seq
  w.u8(1);   // one message
  w.u8(0x7f);  // bogus type
  EXPECT_FALSE(olsr::decode(wire));
}

TEST(OlsrCodecTest, RandomBytesNeverCrash) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)olsr::decode(junk);
  }
  SUCCEED();
}

// Codec equivalence: the allocation-free olsr::scan (and decode, built on
// it) against the field-by-field reference decoder, on real HELLO and TC
// packets under every truncation and random bit flips -- both as received
// (the CRC decides) and with the CRC recomputed (the structural walk
// decides). Accepted packets must decode to the same content, and
// encode_relay must produce the bytes of the old copy-and-encode relay.
std::vector<olsr::Packet> sample_olsr_packets() {
  const auto hello = [](std::vector<olsr::Hello::LinkGroup> groups,
                        Bytes extension) {
    olsr::Message m;
    m.type = olsr::MsgType::kHello;
    m.originator = Address(10, 0, 0, 7);
    m.msg_seq = 513;
    m.hello.links = std::move(groups);
    m.extension = std::move(extension);
    return m;
  };
  const auto tc = [](std::vector<Address> advertised, Bytes extension,
                     std::uint8_t ttl, std::uint8_t hops) {
    olsr::Message m;
    m.type = olsr::MsgType::kTc;
    m.vtime_ms = 15000;
    m.originator = Address(10, 0, 0, 9);
    m.ttl = ttl;
    m.hop_count = hops;
    m.msg_seq = 65535;
    m.tc.ansn = 300;
    m.tc.advertised = std::move(advertised);
    m.extension = std::move(extension);
    return m;
  };
  const Address a(10, 0, 0, 1), b(10, 0, 0, 2), c(10, 0, 0, 3);
  Bytes ext(37);
  for (std::size_t i = 0; i < ext.size(); ++i) ext[i] = static_cast<std::uint8_t>(i * 7);

  std::vector<olsr::Packet> out;
  const auto add = [&](std::vector<olsr::Message> messages) {
    olsr::Packet p;
    p.pkt_seq = static_cast<std::uint16_t>(out.size() * 4099);
    p.messages = std::move(messages);
    out.push_back(std::move(p));
  };
  add({hello({{olsr::LinkCode::kMpr, {a}},
              {olsr::LinkCode::kSym, {b, c}},
              {olsr::LinkCode::kAsym, {Address(10, 0, 0, 4)}}},
             {})});
  add({hello({{olsr::LinkCode::kSym, {a, b}}}, ext)});
  add({hello({}, {})});
  add({hello({{olsr::LinkCode::kSym, {}}}, {1})});
  add({tc({}, {}, 255, 0)});
  add({tc({a, b, c}, ext, 200, 54)});
  add({tc({a}, {}, 2, 255)});  // hop count wraps on relay
  add({hello({{olsr::LinkCode::kSym, {c}}}, ext), tc({a, b}, {}, 9, 3),
       tc({}, {5, 6}, 255, 1)});
  return out;
}

Bytes with_crc(std::span<const std::uint8_t> head) {
  Bytes out(head.begin(), head.end());
  BufferWriter(out).u32(crc32(head));
  return out;
}

struct Verdicts {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

void expect_scan_matches_reference(std::span<const std::uint8_t> data,
                                   Verdicts& verdicts) {
  const auto want = reference::olsr_decode(data);
  const auto view = olsr::scan(data);
  const auto got = olsr::decode(data);
  ASSERT_EQ(view.has_value(), want.has_value());
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) {
    ++verdicts.rejected;
    EXPECT_EQ(view.error().message, want.error().message);
    EXPECT_EQ(got.error().message, want.error().message);
    return;
  }
  ++verdicts.accepted;
  EXPECT_EQ(view->pkt_seq, want->pkt_seq);
  ASSERT_EQ(view->message_count, want->messages.size());
  EXPECT_EQ(olsr::encode(*got), olsr::encode(*want));
  std::size_t i = 0;
  olsr::for_each_message(*view, [&](const olsr::MessageView& m) {
    const olsr::Message& w = want->messages[i++];
    EXPECT_EQ(m.type, w.type);
    EXPECT_EQ(m.vtime_ms, w.vtime_ms);
    EXPECT_EQ(m.originator, w.originator);
    EXPECT_EQ(m.ttl, w.ttl);
    EXPECT_EQ(m.hop_count, w.hop_count);
    EXPECT_EQ(m.msg_seq, w.msg_seq);
    EXPECT_EQ(Bytes(m.extension.begin(), m.extension.end()), w.extension);
    if (w.type == olsr::MsgType::kHello) {
      std::vector<std::pair<olsr::LinkCode, Address>> listed, expected;
      olsr::for_each_hello_neighbor(m, [&](olsr::LinkCode code, Address n) {
        listed.emplace_back(code, n);
      });
      for (const auto& g : w.hello.links) {
        for (const Address n : g.neighbors) expected.emplace_back(g.code, n);
      }
      EXPECT_EQ(listed, expected);
    } else {
      EXPECT_EQ(olsr::tc_ansn(m), w.tc.ansn);
      std::vector<Address> advertised;
      olsr::for_each_tc_neighbor(m, [&](Address n) { advertised.push_back(n); });
      EXPECT_EQ(advertised, w.tc.advertised);
    }
    // The relay the daemon used to send: copy, patch, encode.
    olsr::Message fwd = w;
    fwd.ttl -= 1;
    fwd.hop_count += 1;
    olsr::Packet relay;
    relay.pkt_seq = 4242;
    relay.messages.push_back(fwd);
    EXPECT_EQ(olsr::encode_relay(4242, m), olsr::encode(relay));
  });
}

TEST(OlsrCodecEquivalence, ScanAcceptsAndRejectsLikeReferenceDecode) {
  Rng rng(7);
  Verdicts as_received, crc_fixed;
  for (const auto& packet : sample_olsr_packets()) {
    const Bytes wire = olsr::encode(packet);
    const std::span<const std::uint8_t> head(wire.data(), wire.size() - 4);
    ASSERT_NO_FATAL_FAILURE(expect_scan_matches_reference(wire, as_received));
    for (std::size_t k = 0; k < wire.size(); ++k) {
      ASSERT_NO_FATAL_FAILURE(expect_scan_matches_reference(
          std::span<const std::uint8_t>(wire.data(), k), as_received));
    }
    for (std::size_t k = 0; k <= head.size(); ++k) {
      ASSERT_NO_FATAL_FAILURE(
          expect_scan_matches_reference(with_crc(head.first(k)), crc_fixed));
    }
    // Bytes after the last message are ignored.
    Bytes padded(head.begin(), head.end());
    padded.insert(padded.end(), {0xde, 0xad});
    ASSERT_NO_FATAL_FAILURE(
        expect_scan_matches_reference(with_crc(padded), crc_fixed));
    for (int trial = 0; trial < 300; ++trial) {
      Bytes flipped = wire;
      const int flips = static_cast<int>(rng.uniform_int(1, 3));
      for (int f = 0; f < flips; ++f) {
        const std::uint32_t bit = rng.uniform_int(
            0, static_cast<std::uint32_t>(flipped.size() * 8 - 1));
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      ASSERT_NO_FATAL_FAILURE(expect_scan_matches_reference(flipped, as_received));
      ASSERT_NO_FATAL_FAILURE(expect_scan_matches_reference(
          with_crc(std::span<const std::uint8_t>(flipped.data(),
                                                 flipped.size() - 4)),
          crc_fixed));
    }
  }
  // Both sides of the walk were exercised, with and without a valid CRC.
  EXPECT_GT(as_received.accepted, 0u);
  EXPECT_GT(as_received.rejected, 1000u);
  EXPECT_GT(crc_fixed.accepted, 500u);
  EXPECT_GT(crc_fixed.rejected, 500u);
}

// Property: encode/decode is the identity for arbitrary valid RREQs.
class AodvRreqProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AodvRreqProperty, RoundTripIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    aodv::Rreq m;
    m.hop_count = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    m.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    m.rreq_id = rng.uniform_int(0, 0xffffffff);
    m.dst = Address{rng.uniform_int(0, 0xffffffff)};
    m.dst_seqno = rng.uniform_int(0, 0xffffffff);
    m.unknown_seqno = rng.chance(0.5);
    m.orig = Address{rng.uniform_int(0, 0xffffffff)};
    m.orig_seqno = rng.uniform_int(0, 0xffffffff);
    Bytes ext(rng.uniform_int(0, 32));
    for (auto& b : ext) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

    const auto decoded = aodv::decode(aodv::encode(m, ext));
    ASSERT_TRUE(decoded);
    const auto& r = std::get<aodv::Rreq>(decoded->message);
    EXPECT_EQ(r.hop_count, m.hop_count);
    EXPECT_EQ(r.ttl, m.ttl);
    EXPECT_EQ(r.rreq_id, m.rreq_id);
    EXPECT_EQ(r.dst, m.dst);
    EXPECT_EQ(r.dst_seqno, m.dst_seqno);
    EXPECT_EQ(r.unknown_seqno, m.unknown_seqno);
    EXPECT_EQ(r.orig, m.orig);
    EXPECT_EQ(r.orig_seqno, m.orig_seqno);
    EXPECT_EQ(decoded->extension, ext);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AodvRreqProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace siphoc::routing
