// Behavioral tests: OLSR daemon -- link sensing, MPR selection, topology
// dissemination, route computation.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <numeric>
#include <random>
#include <unordered_map>

#include "routing/olsr.hpp"
#include "scenario/scenario.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

// The compact duplicate set against the hash map plus key FIFO it
// replaced, over random inserts (a narrow key range, key 0 included, so
// probe runs collide and wrap), relay marks and expiry sweeps.
TEST(OlsrDuplicateSetTest, MatchesMapReference) {
  std::mt19937_64 rng(3);
  OlsrDuplicateSet set;
  struct Entry {
    TimePoint expires;
    bool relayed = false;
  };
  std::unordered_map<std::uint64_t, Entry> ref;
  std::deque<std::uint64_t> ref_order;
  TimePoint t{};
  std::size_t duplicates = 0;
  for (int step = 0; step < 200000; ++step) {
    t += milliseconds(std::uniform_int_distribution<int>(0, 3)(rng));
    if (std::uniform_int_distribution<int>(0, 99)(rng) < 2) {
      set.expire(t);
      while (!ref_order.empty() && ref.at(ref_order.front()).expires <= t) {
        ref.erase(ref_order.front());
        ref_order.pop_front();
      }
      ASSERT_EQ(set.size(), ref.size()) << "step " << step;
      continue;
    }
    // Originators in a /24, a few msg_seq values: keys collide in the
    // table's low bits; originator 0 / seq 0 makes key 0.
    const std::uint64_t originator =
        std::uniform_int_distribution<std::uint64_t>(0, 40)(rng);
    const std::uint64_t seq = std::uniform_int_distribution<std::uint64_t>(0, 60)(rng);
    const std::uint64_t key = originator == 0 ? seq : ((0x0a000000 + originator) << 16) | seq;
    const TimePoint expires = t + seconds(30);
    bool inserted = false;
    const std::size_t slot = set.find_or_insert(key, expires, inserted);
    const auto [it, fresh] = ref.try_emplace(key, Entry{expires, false});
    if (fresh) ref_order.push_back(key);
    ASSERT_EQ(inserted, fresh) << "step " << step;
    ASSERT_EQ(set.find(key), slot);
    ASSERT_EQ(set.relayed(slot), it->second.relayed) << "step " << step;
    if (!fresh) ++duplicates;
    if (!it->second.relayed && std::bernoulli_distribution(0.3)(rng)) {
      set.set_relayed(slot);
      it->second.relayed = true;
    }
  }
  EXPECT_GT(duplicates, 10000u);
}

class OlsrNet : public ::testing::Test {
 protected:
  void build(const std::vector<net::Position>& positions,
             OlsrConfig config = {}) {
    sim_ = std::make_unique<sim::Simulator>(11);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(*medium_, addr(i),
                         std::make_shared<net::StaticMobility>(positions[i]));
      hosts_.push_back(std::move(host));
      daemons_.push_back(std::make_unique<Olsr>(*hosts_.back(), config));
      daemons_.back()->start();
    }
  }

  static Address addr(std::size_t i) {
    return Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                   1};
  }

  bool probe(std::size_t from, std::size_t to, Duration wait = seconds(1)) {
    bool got = false;
    hosts_[to]->bind(9000, [&](const net::Datagram&, const net::RxInfo&) {
      got = true;
    });
    hosts_[from]->send_udp(9000, {addr(to), 9000}, to_bytes("probe"));
    const TimePoint deadline = sim_->now() + wait;
    while (!got && sim_->now() < deadline) sim_->run_for(milliseconds(10));
    hosts_[to]->unbind(9000);
    return got;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<Olsr>> daemons_;
};

TEST_F(OlsrNet, SymmetricNeighborsAfterHelloExchange) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(6));
  EXPECT_TRUE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  EXPECT_FALSE(daemons_[0]->symmetric_neighbors().contains(addr(2)));
  EXPECT_EQ(daemons_[1]->symmetric_neighbors().size(), 2u);
}

TEST_F(OlsrNet, MiddleNodeBecomesMpr) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(8));
  // n0 must reach two-hop n2 through n1: n1 is n0's only possible MPR.
  EXPECT_TRUE(daemons_[0]->mpr_set().contains(addr(1)));
  EXPECT_TRUE(daemons_[1]->mpr_selectors().contains(addr(0)));
}

TEST_F(OlsrNet, RoutesConvergeOnChain) {
  build(net::chain_positions(5, 100));
  sim_->run_for(seconds(15));
  // Every node can reach every other node.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(daemons_[i]->has_route(addr(j)))
          << "n" << i << " has no route to n" << j;
    }
  }
  EXPECT_TRUE(probe(0, 4));
  EXPECT_TRUE(probe(4, 0));
}

TEST_F(OlsrNet, HopCountsAreShortestPath) {
  build(net::chain_positions(5, 100));
  sim_->run_for(seconds(15));
  const auto route = hosts_[0]->lookup_route(addr(4));
  ASSERT_TRUE(route);
  EXPECT_EQ(route->metric, 4);  // metric carries the hop count
  EXPECT_EQ(route->next_hop, addr(1));
}

TEST_F(OlsrNet, GridConvergesAndRoutesAreUsable) {
  build(net::grid_positions(9, 100));
  sim_->run_for(seconds(20));
  EXPECT_TRUE(probe(0, 8));  // corner to corner
  EXPECT_TRUE(probe(2, 6));
  // Full coverage from node 0.
  for (std::size_t j = 1; j < 9; ++j) {
    EXPECT_TRUE(daemons_[0]->has_route(addr(j))) << "no route to n" << j;
  }
}

TEST_F(OlsrNet, MprCountStaysSmallInDenseNetwork) {
  // All 8 nodes within range of each other: no two-hop nodes, so no MPRs
  // are needed at all.
  std::vector<net::Position> cluster;
  for (int i = 0; i < 8; ++i) {
    cluster.push_back({static_cast<double>(i) * 10.0, 0});
  }
  build(cluster);
  sim_->run_for(seconds(15));
  for (const auto& d : daemons_) {
    EXPECT_TRUE(d->mpr_set().empty());
    EXPECT_EQ(d->symmetric_neighbors().size(), 7u);
  }
}

TEST_F(OlsrNet, DeadNeighborExpires) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(10));
  ASSERT_TRUE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  medium_->set_enabled(1, false);
  sim_->run_for(seconds(10));  // neighbor_hold = 6 s
  EXPECT_FALSE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  EXPECT_FALSE(daemons_[0]->has_route(addr(2)));
}

TEST_F(OlsrNet, TopologyRepairsAfterNodeReturns) {
  build(net::chain_positions(4, 100));
  sim_->run_for(seconds(15));
  ASSERT_TRUE(probe(0, 3));
  medium_->set_enabled(1, false);
  sim_->run_for(seconds(12));
  EXPECT_FALSE(probe(0, 3, seconds(1)));
  medium_->set_enabled(1, true);
  sim_->run_for(seconds(15));
  EXPECT_TRUE(probe(0, 3));
}

TEST_F(OlsrNet, PiggybackSeamFiresOnHelloAndTc) {
  struct Recorder final : RoutingHandler {
    int hello_out = 0, tc_out = 0, hello_in = 0;
    Bytes on_outgoing(const PacketInfo& info) override {
      if (info.kind == PacketKind::kOlsrHello) {
        ++hello_out;
        return to_bytes("H");
      }
      ++tc_out;
      return to_bytes("T");
    }
    HandlerVerdict on_incoming(const PacketInfo& info,
                               std::span<const std::uint8_t>,
                               net::Address) override {
      if (info.kind == PacketKind::kOlsrHello) ++hello_in;
      return {};
    }
  };
  build(net::chain_positions(2, 100));
  Recorder recorder;
  daemons_[0]->set_handler(&recorder);
  sim_->run_for(seconds(10));
  EXPECT_GT(recorder.hello_out, 2);
  EXPECT_GT(recorder.tc_out, 0);  // payload forces TC even without selectors
  EXPECT_GT(recorder.hello_in, 2);
  daemons_[0]->set_handler(nullptr);
}

TEST_F(OlsrNet, TcExtensionFloodsNetworkWide) {
  struct Sink final : RoutingHandler {
    std::string seen;
    Bytes on_outgoing(const PacketInfo&) override { return {}; }
    HandlerVerdict on_incoming(const PacketInfo& info,
                               std::span<const std::uint8_t> ext,
                               net::Address) override {
      if (info.kind == PacketKind::kOlsrTc && !ext.empty()) {
        seen = siphoc::to_string(ext);  // routing::to_string shadows it
      }
      return {};
    }
  };
  struct Source final : RoutingHandler {
    Bytes on_outgoing(const PacketInfo& info) override {
      return info.kind == PacketKind::kOlsrTc ? to_bytes("adv-from-n0")
                                              : Bytes{};
    }
    HandlerVerdict on_incoming(const PacketInfo&,
                               std::span<const std::uint8_t>,
                               net::Address) override {
      return {};
    }
  };
  build(net::chain_positions(5, 100));
  Source source;
  Sink sink;
  daemons_[0]->set_handler(&source);
  daemons_[4]->set_handler(&sink);
  sim_->run_for(seconds(25));
  // Four hops away, reachable only through MPR forwarding of TC messages.
  EXPECT_EQ(sink.seen, "adv-from-n0");
  daemons_[0]->set_handler(nullptr);
  daemons_[4]->set_handler(nullptr);
}

TEST_F(OlsrNet, NudgeAdvertisementEmitsImmediately) {
  build(net::chain_positions(2, 100));
  sim_->run_for(seconds(5));
  const auto before = daemons_[0]->stats().control_packets_sent;
  daemons_[0]->nudge_advertisement();
  EXPECT_GT(daemons_[0]->stats().control_packets_sent, before);
}

// Route recalculation skips the BFS while its inputs are unchanged. An
// input can also lapse by time alone, with no packet changing any state:
// these cases drive a daemon (n0) from a scripted neighbor (n1, a bare host
// that sends hand-built OLSR packets) and check that the route changes at
// the first recalculation after the lapse.
class OlsrLapse : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>(5);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < 2; ++i) {
      hosts_.push_back(std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
      hosts_.back()->attach_radio(
          *medium_, addr(i),
          std::make_shared<net::StaticMobility>(
              net::Position{100.0 * static_cast<double>(i), 0}));
    }
    daemon_ = std::make_unique<Olsr>(*hosts_[0]);
    daemon_->start();
  }

  static Address addr(std::size_t i) {
    return Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                   1};
  }

  /// n1 broadcasts one HELLO, listing n0 as a symmetric neighbor or not,
  /// and `others` as further symmetric neighbors (n0's two-hop nodes).
  void hello_from_n1(bool lists_n0, std::vector<Address> others = {}) {
    olsr::Message m;
    m.type = olsr::MsgType::kHello;
    m.originator = addr(1);
    m.msg_seq = ++msg_seq_;
    if (lists_n0) others.insert(others.begin(), addr(0));
    if (!others.empty()) {
      m.hello.links.push_back({olsr::LinkCode::kSym, std::move(others)});
    }
    send(std::move(m));
  }

  /// n1 broadcasts one TC advertising `advertised`.
  void tc_from_n1(std::vector<Address> advertised) {
    olsr::Message m;
    m.type = olsr::MsgType::kTc;
    m.originator = addr(1);
    m.ttl = 255;
    m.msg_seq = ++msg_seq_;
    m.tc.ansn = 1;
    m.tc.advertised = std::move(advertised);
    send(std::move(m));
  }

  void send(olsr::Message m) {
    olsr::Packet p;
    p.pkt_seq = msg_seq_;
    p.messages.push_back(std::move(m));
    hosts_[1]->send_broadcast(net::kOlsrPort, net::kOlsrPort, olsr::encode(p));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::unique_ptr<Olsr> daemon_;
  std::uint16_t msg_seq_ = 0;
};

TEST_F(OlsrLapse, SymmetryLapsesWhileNeighborKeepsTalking) {
  // Three HELLOs that list n0 make n1 symmetric (neighbor_hold 6 s after
  // the last one, at 4 s); from then on n1 keeps sending HELLOs that do
  // not list n0, so the link stays heard but its symmetry lapses at 10 s.
  // No packet changes any routing input; only the clock does.
  for (int i = 0; i < 8; ++i) {
    hello_from_n1(/*lists_n0=*/i < 3);
    if (i == 2) {
      sim_->run_for(milliseconds(100));
      ASSERT_TRUE(daemon_->has_route(addr(1)));
      sim_->run_for(milliseconds(1900));
    } else {
      sim_->run_for(seconds(2));
    }
    if (i == 3) {  // t = 8 s: still symmetric until the lapse
      EXPECT_TRUE(daemon_->symmetric_neighbors().contains(addr(1)));
      EXPECT_TRUE(daemon_->has_route(addr(1)));
    }
  }
  // t = 16 s: HELLOs at 10, 12 and 14 s each triggered a recalculation
  // after the lapse.
  EXPECT_FALSE(daemon_->symmetric_neighbors().contains(addr(1)));
  EXPECT_FALSE(daemon_->has_route(addr(1)));
  EXPECT_FALSE(hosts_[0]->lookup_route(addr(1)));  // gone from the FIB too
}

TEST_F(OlsrLapse, LapsedNeighborLeavesMprSet) {
  // n1 lists n0 and a far node n9 that only n1 reaches, so n1 is n0's MPR.
  // From t = 1 s on n1 reports the same two-hop list but no longer lists
  // n0: no HELLO marks the selection dirty, and only the clock ends n1's
  // symmetry (neighbor_hold 6 s after the HELLO at t = 0). The selection
  // run by the first HELLO after that must drop n1.
  hello_from_n1(true, {addr(9)});
  sim_->run_for(seconds(1));
  ASSERT_TRUE(daemon_->mpr_set().contains(addr(1)));
  for (int i = 0; i < 4; ++i) {  // HELLOs at t = 1, 3, 5 and 7 s
    hello_from_n1(false, {addr(9)});
    sim_->run_for(seconds(2));
    if (i == 2) {  // t = 7 s: lapsed, but no selection has run since
      EXPECT_FALSE(daemon_->symmetric_neighbors().contains(addr(1)));
    }
  }
  EXPECT_FALSE(daemon_->symmetric_neighbors().contains(addr(1)));
  EXPECT_TRUE(daemon_->mpr_set().empty());
}

TEST_F(OlsrLapse, TopologyEdgeExpiresBetweenHousekeepingTicks) {
  // n1 stays a symmetric neighbor throughout; one TC at 1.23 s advertises
  // a far node n9 through it. topology_hold is 15 s, so the edge lapses
  // at 16.23 s, between two 500 ms housekeeping ticks.
  hello_from_n1(true);
  sim_->run_for(milliseconds(1230));
  tc_from_n1({addr(9)});
  sim_->run_for(milliseconds(100));
  ASSERT_TRUE(daemon_->has_route(addr(9)));
  const auto via = hosts_[0]->lookup_route(addr(9));
  ASSERT_TRUE(via);
  EXPECT_EQ(via->next_hop, addr(1));
  EXPECT_EQ(via->metric, 2);
  for (int i = 0; i < 9; ++i) {  // t = 1.33 s .. 19.33 s
    hello_from_n1(true);
    sim_->run_for(seconds(2));
    if (sim_->now() < TimePoint{} + milliseconds(16230)) {
      EXPECT_TRUE(daemon_->has_route(addr(9))) << format_time(sim_->now());
    }
  }
  EXPECT_TRUE(daemon_->has_route(addr(1)));
  EXPECT_FALSE(daemon_->has_route(addr(9)));
}

// Route completeness across kernels: on a static random placement, once
// OLSR has settled every node must hold a FIB route to every node in its
// unit-disk component. A TC that an MPR drops because its first copy
// arrived from a non-selector leaves such holes, and only some kernels
// (event interleavings) expose them, so the check runs on the sequential
// kernel and on two sharded region counts.
class OlsrRouteCompleteness : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OlsrRouteCompleteness, EveryConnectedPairHasARoute) {
  SimContext context;
  scenario::Options o;
  o.context = &context;
  o.seed = 8;
  o.nodes = 120;
  o.topology = scenario::Topology::kRandomArea;
  o.area = 75.0 * std::sqrt(120.0);
  o.routing = RoutingKind::kOlsr;
  o.sim_regions = GetParam();
  scenario::Testbed bed(o);
  bed.start();
  bed.settle(seconds(40));

  // Unit-disk components (union-find over in-range pairs).
  std::vector<std::size_t> parent(bed.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto root = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (std::size_t i = 0; i < bed.size(); ++i) {
    for (std::size_t j = i + 1; j < bed.size(); ++j) {
      if (bed.medium().connected(static_cast<net::NodeId>(i),
                                 static_cast<net::NodeId>(j))) {
        parent[root(i)] = root(j);
      }
    }
  }

  std::size_t pairs = 0;
  std::size_t missing = 0;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    for (std::size_t j = 0; j < bed.size(); ++j) {
      if (i == j || root(i) != root(j)) continue;
      ++pairs;
      const auto route =
          bed.host(i).lookup_route(scenario::Testbed::manet_address(j));
      if (!route || route->prefix_len != 32) {
        if (++missing <= 5) ADD_FAILURE() << "n" << i << " has no route to n" << j;
      }
    }
  }
  EXPECT_GT(pairs, 10000u) << "placement should be mostly connected";
  EXPECT_EQ(missing, 0u) << missing << " of " << pairs
                         << " connected pairs lack a route";
}

INSTANTIATE_TEST_SUITE_P(Kernels, OlsrRouteCompleteness,
                         ::testing::Values(0u, 2u, 8u),
                         [](const auto& info) {
                           return "regions" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace siphoc::routing
