// Behavioral tests: OLSR daemon -- link sensing, MPR selection, topology
// dissemination, route computation.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "routing/olsr.hpp"
#include "scenario/scenario.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

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
