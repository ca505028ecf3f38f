// Unit tests: addressing, packets, radio medium, mobility, host stack.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "net/host.hpp"
#include "net/internet.hpp"
#include "reference/linear_fib.hpp"

namespace siphoc::net {
namespace {

TEST(AddressTest, ParseAndFormat) {
  const auto a = Address::parse("10.0.0.5");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "10.0.0.5");
  EXPECT_EQ(a->value(), 0x0a000005u);
  EXPECT_FALSE(Address::parse("10.0.0"));
  EXPECT_FALSE(Address::parse("10.0.0.256"));
  EXPECT_FALSE(Address::parse("10.0.0.x"));
  EXPECT_FALSE(Address::parse(""));
}

TEST(AddressTest, Predicates) {
  EXPECT_TRUE(kBroadcastAddress.is_broadcast());
  EXPECT_TRUE(kLoopbackAddress.is_loopback());
  EXPECT_TRUE(Address{}.is_unspecified());
  EXPECT_TRUE(Address(10, 0, 0, 7).in_prefix(kManetPrefix, kManetPrefixLen));
  EXPECT_FALSE(
      Address(10, 8, 0, 7).in_prefix(kManetPrefix, kManetPrefixLen));
  EXPECT_TRUE(Address(10, 8, 0, 7).in_prefix(kTunnelPrefix, kTunnelPrefixLen));
  EXPECT_TRUE(Address(1, 2, 3, 4).in_prefix(Address{}, 0));
}

TEST(EndpointTest, ParseAndFormat) {
  const auto e = Endpoint::parse("192.0.2.10:5060");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->address, Address(192, 0, 2, 10));
  EXPECT_EQ(e->port, 5060);
  EXPECT_EQ(e->to_string(), "192.0.2.10:5060");
  EXPECT_FALSE(Endpoint::parse("192.0.2.10"));
  EXPECT_FALSE(Endpoint::parse("192.0.2.10:99999"));
}

TEST(DatagramTest, EncodeDecodeRoundTrip) {
  Datagram d;
  d.src = Address(10, 0, 0, 1);
  d.dst = Address(10, 0, 0, 2);
  d.src_port = 5060;
  d.dst_port = 8000;
  d.ttl = 7;
  d.payload = {1, 2, 3, 4, 5};
  const auto decoded = Datagram::decode(d.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->src, d.src);
  EXPECT_EQ(decoded->dst, d.dst);
  EXPECT_EQ(decoded->src_port, d.src_port);
  EXPECT_EQ(decoded->dst_port, d.dst_port);
  EXPECT_EQ(decoded->ttl, d.ttl);
  EXPECT_EQ(decoded->payload, d.payload);
}

TEST(DatagramTest, DecodeTruncatedFails) {
  Datagram d;
  d.payload = {1, 2, 3};
  auto wire = d.encode();
  wire.pop_back();
  EXPECT_FALSE(Datagram::decode(wire));
}

// Differential test: Host's FIB (/32 routes in a sorted index, the rest in
// a vector) against the linear table it replaced, over seeded random add,
// remove, clear and lookup sequences. Overlapping prefixes, equal metrics
// and re-added routes make the longest-prefix / lowest-metric /
// earliest-insertion order decide often.
class FibDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibDifferential, HostFibMatchesLinearReference) {
  std::mt19937_64 rng(GetParam());
  sim::Simulator sim(1);
  Host host(sim, 0, "h");
  reference::LinearFib ref;
  ASSERT_EQ(host.route_count(), 0u);

  const auto address = [&] {
    // A handful of /24s and a few hosts in each: many overlaps.
    const std::uint32_t net = std::uniform_int_distribution<std::uint32_t>(0, 2)(rng);
    const std::uint32_t host_part = std::uniform_int_distribution<std::uint32_t>(0, 11)(rng);
    return Address{(10u << 24) | (net << 8) | host_part};
  };
  const auto prefix_len = [&] {
    static constexpr int kLens[] = {0, 8, 16, 22, 24, 30, 32, 32, 32, 32};
    return kLens[std::uniform_int_distribution<std::size_t>(0, 9)(rng)];
  };
  const auto iface = [&] {
    return static_cast<Interface>(std::uniform_int_distribution<int>(0, 3)(rng));
  };
  std::size_t hits = 0;
  for (int step = 0; step < 20000; ++step) {
    const int op = std::uniform_int_distribution<int>(0, 99)(rng);
    if (op < 45) {
      RouteEntry e{address(), prefix_len(), std::nullopt, iface(),
                   std::uniform_int_distribution<int>(1, 3)(rng)};
      if (std::bernoulli_distribution(0.5)(rng)) e.next_hop = address();
      host.add_route(e);
      ref.add_route(e);
    } else if (op < 60) {
      const Address a = address();
      const int len = prefix_len();
      host.remove_route(a, len);
      ref.remove_route(a, len);
    } else if (op < 61) {
      const Interface i = iface();
      host.clear_routes(i);
      ref.clear_routes(i);
    } else {
      const Address dst = address();
      const auto got = host.lookup_route(dst);
      const auto want = ref.lookup_route(dst);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (!want) continue;
      ++hits;
      ASSERT_EQ(got->prefix, want->prefix) << "step " << step;
      ASSERT_EQ(got->prefix_len, want->prefix_len) << "step " << step;
      ASSERT_EQ(got->next_hop, want->next_hop) << "step " << step;
      ASSERT_EQ(got->iface, want->iface) << "step " << step;
      ASSERT_EQ(got->metric, want->metric) << "step " << step;
    }
    ASSERT_EQ(host.route_count(), ref.size()) << "step " << step;
  }
  EXPECT_GT(hits, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(MobilityTest, StaticStaysPut) {
  StaticMobility m({3, 4});
  EXPECT_DOUBLE_EQ(m.position_at(TimePoint{} + seconds(100)).x, 3);
}

TEST(MobilityTest, RandomWaypointStaysInArea) {
  RandomWaypointConfig config;
  config.width = 100;
  config.height = 50;
  RandomWaypointMobility m({10, 10}, config, Rng(5));
  for (int i = 0; i < 500; ++i) {
    const auto p = m.position_at(TimePoint{} + seconds(i));
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 100);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 50);
  }
}

TEST(MobilityTest, RandomWaypointActuallyMoves) {
  RandomWaypointConfig config;
  RandomWaypointMobility m({0, 0}, config, Rng(5));
  const auto p0 = m.position_at(TimePoint{} + seconds(10));
  const auto p1 = m.position_at(TimePoint{} + seconds(60));
  EXPECT_GT(distance(p0, p1), 0.0);
}

TEST(MobilityTest, TopologyHelpers) {
  const auto chain = chain_positions(4, 50);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_DOUBLE_EQ(chain[3].x, 150);
  const auto grid = grid_positions(9, 10);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_DOUBLE_EQ(grid[4].x, 10);
  EXPECT_DOUBLE_EQ(grid[4].y, 10);
}

// --- medium + host fixtures ------------------------------------------------

class TwoNodeFixture : public ::testing::Test {
 protected:
  TwoNodeFixture()
      : sim_(1), medium_(sim_, RadioConfig{}),
        a_(sim_, 0, "a"), b_(sim_, 1, "b") {
    a_.attach_radio(medium_, Address(10, 0, 0, 1),
                    std::make_shared<StaticMobility>(Position{0, 0}));
    b_.attach_radio(medium_, Address(10, 0, 0, 2),
                    std::make_shared<StaticMobility>(Position{50, 0}));
  }
  sim::Simulator sim_;
  RadioMedium medium_;
  Host a_, b_;
};

TEST_F(TwoNodeFixture, UnicastInRangeDelivers) {
  std::string got;
  b_.bind(9000, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kRadio);
    EXPECT_EQ(info.prev_hop_mac, 0u);
  });
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("hi"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, "hi");
  EXPECT_EQ(medium_.stats().frames_delivered, 1u);
}

TEST_F(TwoNodeFixture, BroadcastReachesNeighbors) {
  int got = 0;
  b_.bind(9000, [&](const Datagram& d, const RxInfo&) {
    EXPECT_TRUE(d.dst.is_broadcast());
    ++got;
  });
  a_.send_broadcast(9000, 9000, to_bytes("hello"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 1);
}

TEST_F(TwoNodeFixture, OutOfRangeNotDelivered) {
  // Move b beyond the 120 m default range.
  b_.attach_radio(medium_, Address(10, 0, 0, 2),
                  std::make_shared<StaticMobility>(Position{500, 0}));
  int got = 0;
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  a_.send_broadcast(9000, 9000, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 0);
}

TEST_F(TwoNodeFixture, UnicastFailureFeedback) {
  int failures = 0;
  a_.set_link_failure_listener([&](const Frame&) { ++failures; });
  // No route entry needed: on-link /24. Send to a host that is not there.
  a_.send_udp(9000, {Address(10, 0, 0, 99), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  // Unresolvable ARP -> drop, not link failure; now use an out-of-range mac:
  b_.attach_radio(medium_, Address(10, 0, 0, 2),
                  std::make_shared<StaticMobility>(Position{500, 0}));
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(medium_.stats().unicast_unreachable, 1u);
}

TEST_F(TwoNodeFixture, LinkFilterForcesMultihop) {
  // The paper's firewall trick: forbid the direct a<->b link.
  medium_.set_link_filter([](NodeId x, NodeId y) {
    return !((x == 0 && y == 1) || (x == 1 && y == 0));
  });
  int got = 0;
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  a_.send_broadcast(9000, 9000, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 0);
  EXPECT_FALSE(medium_.connected(0, 1));
}

TEST_F(TwoNodeFixture, LoopbackDelivery) {
  std::string got;
  a_.bind(5060, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kLoopback);
  });
  a_.send_udp(5070, {kLoopbackAddress, 5060}, to_bytes("local"));
  sim_.run_for(milliseconds(1));
  EXPECT_EQ(got, "local");
}

TEST_F(TwoNodeFixture, LossyMediumDropsSometimes) {
  sim::Simulator sim2(7);
  RadioConfig lossy;
  lossy.loss_probability = 0.5;
  RadioMedium medium2(sim2, lossy);
  Host x(sim2, 0, "x"), y(sim2, 1, "y");
  x.attach_radio(medium2, Address(10, 0, 0, 1),
                 std::make_shared<StaticMobility>(Position{0, 0}));
  y.attach_radio(medium2, Address(10, 0, 0, 2),
                 std::make_shared<StaticMobility>(Position{10, 0}));
  int got = 0;
  y.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  for (int i = 0; i < 200; ++i) {
    x.send_broadcast(9000, 9000, to_bytes("x"));
    sim2.run_for(milliseconds(5));
  }
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
}

// The spatial grid in RadioMedium is an exactness-preserving index: for any
// mix of fixed and mobile nodes, disabled radios, and detachments, the
// broadcast delivery set must equal what a brute-force all-pairs range scan
// computes. Loss is disabled so delivery is deterministic.
TEST(RadioMediumTest, GridMatchesBruteForceDeliverySets) {
  sim::Simulator sim(3);
  RadioConfig config;
  config.loss_probability = 0;
  RadioMedium medium(sim, config);

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> coord(0.0, 600.0);

  constexpr int kNodes = 40;
  constexpr int kDisabled = 5;
  constexpr int kDetached = 7;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::shared_ptr<MobilityModel>> mobility;
  std::vector<int> received(kNodes, 0);
  for (int i = 0; i < kNodes; ++i) {
    hosts.push_back(
        std::make_unique<Host>(sim, i, "n" + std::to_string(i)));
    std::shared_ptr<MobilityModel> m;
    if (i % 2 == 0) {
      m = std::make_shared<StaticMobility>(Position{coord(rng), coord(rng)});
    } else {
      RandomWaypointConfig rw;
      rw.width = 600;
      rw.height = 600;
      m = std::make_shared<RandomWaypointMobility>(
          Position{coord(rng), coord(rng)}, rw, Rng(1000 + i));
    }
    mobility.push_back(m);
    hosts[i]->attach_radio(medium, Address(10, 0, 0, i + 1), m);
    hosts[i]->bind(9000, [&received, i](const Datagram&, const RxInfo&) {
      ++received[i];
    });
  }
  medium.set_enabled(kDisabled, false);

  bool detached = false;
  for (int round = 0; round < 20; ++round) {
    if (round == 10) {
      medium.detach(kDetached);
      detached = true;
    }
    const int s = round % kNodes;
    // Brute-force expectation from positions at transmit time (transmit is
    // synchronous inside send_broadcast, so these are the exact positions
    // the medium sees).
    std::vector<Position> pos(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      pos[i] = mobility[i]->position_at(sim.now());
    }
    const bool sender_up = s != kDisabled && !(detached && s == kDetached);
    std::vector<int> expected(kNodes, 0);
    if (sender_up) {
      for (int i = 0; i < kNodes; ++i) {
        if (i == s || i == kDisabled) continue;
        if (detached && i == kDetached) continue;
        if (distance(pos[s], pos[i]) <= config.range) expected[i] = 1;
      }
    }
    std::vector<int> before = received;
    hosts[s]->send_broadcast(9000, 9000, to_bytes("probe"));
    sim.run_for(milliseconds(20));
    for (int i = 0; i < kNodes; ++i) {
      EXPECT_EQ(received[i] - before[i], expected[i])
          << "round " << round << " sender " << s << " receiver " << i;
    }
    // Let the mobile half wander between rounds.
    sim.run_for(seconds(5));
  }
  // Guard against a vacuous pass: the topology must produce deliveries.
  int total = 0;
  for (int i = 0; i < kNodes; ++i) total += received[i];
  EXPECT_GT(total, 0);
  EXPECT_GT(medium.stats().frames_delivered, 0u);
}

TEST_F(TwoNodeFixture, ForwardingDecrementsTtl) {
  // Three hosts in a chain with explicit routes: a -> b -> c.
  Host c(sim_, 2, "c");
  c.attach_radio(medium_, Address(10, 0, 0, 3),
                 std::make_shared<StaticMobility>(Position{100, 0}));
  a_.add_route({Address(10, 0, 0, 3), 32, Address(10, 0, 0, 2),
                Interface::kRadio, 2});
  std::uint8_t seen_ttl = 0;
  c.bind(9000, [&](const Datagram& d, const RxInfo&) { seen_ttl = d.ttl; });
  a_.send_udp(9000, {Address(10, 0, 0, 3), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(seen_ttl, kDefaultTtl - 1);
  EXPECT_EQ(b_.stats().forwarded, 1u);
}

TEST_F(TwoNodeFixture, LongestPrefixMatchWins) {
  a_.add_route({Address(10, 0, 0, 0), 24, std::nullopt, Interface::kRadio, 5});
  a_.add_route({Address(10, 0, 0, 2), 32, Address(10, 0, 0, 2),
                Interface::kRadio, 9});
  const auto r = a_.lookup_route(Address(10, 0, 0, 2));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->prefix_len, 32);
}

TEST_F(TwoNodeFixture, RouteResolverClaimsUnroutable) {
  int claimed = 0;
  a_.set_route_resolver([&](Datagram) {
    ++claimed;
    return true;
  });
  a_.send_udp(9000, {Address(172, 16, 0, 1), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(1));
  EXPECT_EQ(claimed, 1);
  EXPECT_EQ(a_.stats().no_route_drops, 0u);
}

TEST(InternetTest, DeliversByAddressWithLatency) {
  sim::Simulator sim;
  Internet internet(sim, milliseconds(30));
  Datagram got;
  int count = 0;
  internet.attach(Address(192, 0, 2, 1), [&](const Datagram& d) {
    got = d;
    ++count;
  });
  Datagram d;
  d.src = Address(192, 0, 2, 2);
  d.dst = Address(192, 0, 2, 1);
  d.payload = to_bytes("web");
  internet.send(d);
  sim.run_for(milliseconds(10));
  EXPECT_EQ(count, 0);  // still in flight
  sim.run_for(milliseconds(25));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(to_string(got.payload), "web");
}

TEST(InternetTest, UnknownAddressDropped) {
  sim::Simulator sim;
  Internet internet(sim);
  Datagram d;
  d.dst = Address(192, 0, 2, 99);
  internet.send(d);
  sim.run_to_completion();
  EXPECT_EQ(internet.datagrams_dropped(), 1u);
}

TEST(InternetTest, DnsResolution) {
  sim::Simulator sim;
  Internet internet(sim);
  internet.register_domain("voicehoc.ch", Address(192, 0, 2, 10));
  const auto a = internet.resolve("voicehoc.ch");
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, Address(192, 0, 2, 10));
  EXPECT_FALSE(internet.resolve("unknown.example"));
}

TEST(InternetTest, WiredHostSendsAndReceives) {
  sim::Simulator sim;
  Internet internet(sim);
  Host a(sim, 0, "a"), b(sim, 1, "b");
  a.attach_wired(internet, Address(192, 0, 2, 1));
  b.attach_wired(internet, Address(192, 0, 2, 2));
  std::string got;
  b.bind(5060, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kWired);
  });
  a.send_udp(5060, {Address(192, 0, 2, 2), 5060}, to_bytes("sip"));
  sim.run_for(milliseconds(100));
  EXPECT_EQ(got, "sip");
}

}  // namespace
}  // namespace siphoc::net
