// Differential test: the daemon's dense-id route computation
// (compute_olsr_routes) against the Address-keyed reference BFS in
// tests/reference/olsr_routes.hpp, on seeded random graphs rich in
// equal-length ties, edges touching self and destinations advertised by
// several originators. Every dst -> (next_hop, metric) must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "reference/olsr_routes.hpp"
#include "routing/olsr.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

struct Graph {
  Address self;
  std::vector<Address> sym;  // ascending, as the daemon seeds the BFS
  std::vector<std::pair<Address, Address>> edges;  // scan order
  std::vector<Address> nodes;                      // every address, self too
};

Graph random_graph(std::mt19937_64& rng) {
  Graph g;
  const std::size_t n = std::uniform_int_distribution<std::size_t>(2, 80)(rng);
  std::set<Address> seen;
  while (g.nodes.size() < n) {
    // A narrow address range, so ascending-address order and id order
    // disagree often and neighbors interleave.
    const Address a{net::kManetPrefix.value() +
                    std::uniform_int_distribution<std::uint32_t>(1, 200)(rng)};
    if (seen.insert(a).second) g.nodes.push_back(a);
  }
  g.self = g.nodes[0];
  auto pick = [&] {
    return g.nodes[std::uniform_int_distribution<std::size_t>(
        0, g.nodes.size() - 1)(rng)];
  };

  const double sym_share = std::uniform_real_distribution<double>(0, 0.5)(rng);
  for (std::size_t i = 1; i < n; ++i) {
    if (std::bernoulli_distribution(sym_share)(rng)) g.sym.push_back(g.nodes[i]);
  }
  std::sort(g.sym.begin(), g.sym.end());

  // A few hot destinations that many originators advertise, so paths of
  // equal length through different first hops are common.
  std::vector<Address> hot;
  for (int i = 0; i < 3; ++i) hot.push_back(pick());
  const std::size_t edge_count =
      std::uniform_int_distribution<std::size_t>(0, 3 * n)(rng);
  for (std::size_t i = 0; i < edge_count; ++i) {
    const Address origin = pick();
    const Address dest =
        std::bernoulli_distribution(0.3)(rng)
            ? hot[std::uniform_int_distribution<std::size_t>(0, 2)(rng)]
            : pick();
    g.edges.emplace_back(origin, dest);
  }
  return g;
}

/// Destinations reached at the same shortest distance through two or more
/// seeds: the ties whose next hop the scan order decides.
std::size_t count_ties(const Graph& g) {
  std::map<Address, std::vector<Address>> adj;
  for (const auto& [a, b] : g.edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::map<Address, std::pair<int, int>> best;  // dst -> (distance, seeds)
  for (const Address s : g.sym) {
    std::map<Address, int> dist{{s, 1}};
    std::vector<Address> queue{s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Address u = queue[head];
      for (const Address v : adj[u]) {
        if (v == g.self || dist.contains(v)) continue;
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
    for (const auto& [dst, d] : dist) {
      auto [it, fresh] = best.try_emplace(dst, d, 1);
      if (fresh) continue;
      if (d < it->second.first) {
        it->second = {d, 1};
      } else if (d == it->second.first) {
        ++it->second.second;
      }
    }
  }
  return static_cast<std::size_t>(std::count_if(
      best.begin(), best.end(), [](const auto& kv) { return kv.second.second > 1; }));
}

class OlsrRoutesDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OlsrRoutesDifferential, DenseRoutesMatchReferenceModel) {
  std::mt19937_64 rng(GetParam());
  std::size_t ties = 0;
  std::size_t self_edges = 0;
  std::size_t routes_checked = 0;
  std::vector<OlsrHop> out;
  for (int graph = 0; graph < 1000; ++graph) {
    const Graph g = random_graph(rng);
    const auto expected = reference::olsr_routes(g.self, g.sym, g.edges);

    // Dense ids in a random order, unrelated to address order, plus some
    // ids no edge mentions.
    std::vector<OlsrNodeId> ids(g.nodes.size() + 5);
    std::iota(ids.begin(), ids.end(), OlsrNodeId{0});
    std::shuffle(ids.begin(), ids.end(), rng);
    std::map<Address, OlsrNodeId> id_of;
    std::vector<Address> address_of(ids.size());
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      id_of[g.nodes[i]] = ids[i];
      address_of[ids[i]] = g.nodes[i];
    }
    std::vector<OlsrNodeId> seeds;
    for (const Address a : g.sym) seeds.push_back(id_of.at(a));
    std::vector<OlsrEdge> edges;
    for (const auto& [a, b] : g.edges) {
      edges.push_back({id_of.at(a), id_of.at(b)});
      if (a == g.self || b == g.self) ++self_edges;
    }

    compute_olsr_routes(id_of.at(g.self), seeds, edges, ids.size(), out);
    ASSERT_EQ(out.size(), ids.size());
    reference::OlsrRoutes actual;
    for (std::size_t id = 0; id < out.size(); ++id) {
      if (out[id].distance == 0) continue;
      actual.emplace(address_of[id], std::make_pair(address_of[out[id].next_hop],
                                                    out[id].distance));
    }
    ASSERT_EQ(actual, expected) << "seed " << GetParam() << " graph " << graph;
    routes_checked += expected.size();
    ties += count_ties(g);
  }
  // The graphs must exercise what the dense layout could get wrong.
  EXPECT_GT(ties, 1000u);
  EXPECT_GT(self_edges, 1000u);
  EXPECT_GT(routes_checked, 10000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OlsrRoutesDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace siphoc::routing
