// Reference model of OLSR route computation: the Address-keyed hop-count
// BFS the daemon ran before its routing state moved to dense ids. Hash
// maps, a std::queue and an ordered result map -- slow but obviously
// correct, so it is the oracle the differential test checks
// compute_olsr_routes against. Not part of any library.
#pragma once

#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/address.hpp"

namespace siphoc::routing::reference {

/// dst -> (next_hop, hop count).
using OlsrRoutes = std::map<net::Address, std::pair<net::Address, int>>;

/// `sym` are the symmetric neighbors in seed order (the daemon sorts them
/// by address); `edges` are the live (last_hop, dest) topology edges in
/// scan order. Each edge is usable in both directions.
inline OlsrRoutes olsr_routes(
    net::Address self, const std::vector<net::Address>& sym,
    const std::vector<std::pair<net::Address, net::Address>>& edges) {
  struct Hop {
    net::Address next_hop;
    int distance = 0;
  };
  std::unordered_map<net::Address, std::vector<net::Address>> adjacency;
  for (const auto& [last_hop, dest] : edges) {
    adjacency[last_hop].push_back(dest);
    adjacency[dest].push_back(last_hop);
  }

  std::unordered_map<net::Address, Hop> reach;
  std::queue<net::Address> frontier;
  for (const auto& n : sym) {
    reach[n] = {n, 1};
    frontier.push(n);
  }
  while (!frontier.empty()) {
    const net::Address u = frontier.front();
    frontier.pop();
    const Hop hop = reach.at(u);
    const auto adj = adjacency.find(u);
    if (adj == adjacency.end()) continue;
    for (const net::Address v : adj->second) {
      if (v == self || reach.contains(v)) continue;
      reach[v] = {hop.next_hop, hop.distance + 1};
      frontier.push(v);
    }
  }

  OlsrRoutes routes;
  for (const auto& [dst, hop] : reach) {
    routes.emplace(dst, std::make_pair(hop.next_hop, hop.distance));
  }
  return routes;
}

}  // namespace siphoc::routing::reference
