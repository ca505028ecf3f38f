// Reference model of OLSR MPR selection: the Address-keyed greedy the
// daemon ran before its neighbor tables moved to dense ids. Ordered sets
// and a hash map of two-hop sets, rebuilt on every call -- slow but
// obviously correct, so it is the oracle the differential test checks
// select_olsr_mprs against. Not part of any library.
#pragma once

#include <set>
#include <unordered_map>

#include "net/address.hpp"

namespace siphoc::routing::reference {

/// `neighbors` are the symmetric neighbors; `two_hop` maps a neighbor to
/// the symmetric neighbors it reported (a neighbor may have no entry).
inline std::set<net::Address> olsr_mprs(
    net::Address self, const std::set<net::Address>& neighbors,
    const std::unordered_map<net::Address, std::set<net::Address>>& two_hop) {
  // Two-hop nodes strictly two hops away.
  std::set<net::Address> uncovered;
  for (const auto& n : neighbors) {
    const auto it = two_hop.find(n);
    if (it == two_hop.end()) continue;
    for (const auto& t : it->second) {
      if (t != self && !neighbors.contains(t)) uncovered.insert(t);
    }
  }

  std::set<net::Address> mprs;
  // First: neighbors that are the only path to some two-hop node.
  for (const auto& t : uncovered) {
    net::Address only;
    int count = 0;
    for (const auto& n : neighbors) {
      const auto it = two_hop.find(n);
      if (it != two_hop.end() && it->second.contains(t)) {
        only = n;
        ++count;
      }
    }
    if (count == 1) mprs.insert(only);
  }
  for (const auto& n : mprs) {
    const auto it = two_hop.find(n);
    if (it == two_hop.end()) continue;
    for (const auto& t : it->second) uncovered.erase(t);
  }
  // Greedy: repeatedly pick the neighbor covering the most remaining.
  while (!uncovered.empty()) {
    net::Address best;
    std::size_t best_cover = 0;
    for (const auto& n : neighbors) {
      if (mprs.contains(n)) continue;
      const auto it = two_hop.find(n);
      if (it == two_hop.end()) continue;
      std::size_t cover = 0;
      for (const auto& t : it->second) {
        if (uncovered.contains(t)) ++cover;
      }
      if (cover > best_cover) {
        best_cover = cover;
        best = n;
      }
    }
    if (best_cover == 0) break;  // leftover two-hop nodes are unreachable
    mprs.insert(best);
    for (const auto& t : two_hop.at(best)) uncovered.erase(t);
  }
  return mprs;
}

}  // namespace siphoc::routing::reference
