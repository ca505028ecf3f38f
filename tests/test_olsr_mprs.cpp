// Differential test: the daemon's dense-id MPR selection
// (select_olsr_mprs) against the Address-keyed greedy in
// tests/reference/olsr_mprs.hpp, on seeded random neighborhoods rich in
// cover-count ties, two-hop nodes that are also neighbors, `self` in
// two-hop lists and neighbors with no two-hop list. The selected sets must
// be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <unordered_map>

#include "reference/olsr_mprs.hpp"
#include "routing/olsr.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

struct Neighborhood {
  Address self;
  std::vector<Address> pool;  // every address, self too
  std::set<Address> neighbors;
  std::unordered_map<Address, std::set<Address>> two_hop;
};

/// What makes a neighborhood interesting, tallied over all trials so the
/// test can show each case was exercised.
struct Coverage {
  std::size_t self_listed = 0;      // self appears in a two-hop list
  std::size_t neighbor_listed = 0;  // a neighbor appears in a two-hop list
  std::size_t unlisted = 0;         // a neighbor without a two-hop list
  std::size_t twins = 0;            // two neighbors with equal lists
  std::size_t nonempty = 0;         // the reference selected something
};

Neighborhood random_neighborhood(std::mt19937_64& rng, Coverage& cov) {
  Neighborhood g;
  const std::size_t n = std::uniform_int_distribution<std::size_t>(2, 60)(rng);
  std::set<Address> seen;
  while (g.pool.size() < n) {
    // A narrow range, so address order and id order disagree often.
    const Address a{net::kManetPrefix.value() +
                    std::uniform_int_distribution<std::uint32_t>(1, 150)(rng)};
    if (seen.insert(a).second) g.pool.push_back(a);
  }
  g.self = g.pool[0];
  const auto pick = [&] {
    return g.pool[std::uniform_int_distribution<std::size_t>(
        0, g.pool.size() - 1)(rng)];
  };

  const std::size_t degree =
      std::uniform_int_distribution<std::size_t>(0, std::min<std::size_t>(n - 1, 16))(rng);
  while (g.neighbors.size() < degree) {
    const Address a = pick();
    if (a != g.self) g.neighbors.insert(a);
  }
  // A few hot two-hop nodes that many neighbors list: equal cover counts.
  std::vector<Address> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(pick());
  const std::vector<Address> neighbors(g.neighbors.begin(), g.neighbors.end());
  for (const Address nb : neighbors) {
    if (std::bernoulli_distribution(0.15)(rng)) {
      ++cov.unlisted;
      continue;
    }
    if (!g.two_hop.empty() && std::bernoulli_distribution(0.15)(rng)) {
      // Copy another neighbor's list: a guaranteed tie.
      auto other = g.two_hop.begin();
      std::advance(other, std::uniform_int_distribution<std::size_t>(
                              0, g.two_hop.size() - 1)(rng));
      g.two_hop[nb] = std::set<Address>(other->second);
      ++cov.twins;
      continue;
    }
    std::set<Address>& list = g.two_hop[nb];
    const std::size_t size =
        std::uniform_int_distribution<std::size_t>(0, 10)(rng);
    for (std::size_t i = 0; i < size; ++i) {
      const int kind = std::uniform_int_distribution<int>(0, 9)(rng);
      list.insert(kind < 4   ? hot[std::uniform_int_distribution<std::size_t>(
                                   0, hot.size() - 1)(rng)]
                  : kind == 4 ? g.self
                              : pick());
    }
  }
  for (const auto& [nb, list] : g.two_hop) {
    if (list.contains(g.self)) ++cov.self_listed;
    for (const Address t : list) {
      if (g.neighbors.contains(t)) ++cov.neighbor_listed;
    }
  }
  return g;
}

std::set<Address> dense_mprs(const Neighborhood& g, std::mt19937_64& rng) {
  // Ids in a random order, unrelated to address order.
  std::vector<OlsrNodeId> ids(g.pool.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::unordered_map<Address, OlsrNodeId> id_of;
  for (std::size_t i = 0; i < g.pool.size(); ++i) id_of[g.pool[i]] = ids[i];

  std::vector<std::vector<OlsrNodeId>> lists;
  std::vector<Address> order(g.neighbors.begin(), g.neighbors.end());
  for (const Address nb : order) {
    std::vector<OlsrNodeId> list;
    if (const auto it = g.two_hop.find(nb); it != g.two_hop.end()) {
      for (const Address t : it->second) list.push_back(id_of.at(t));
    }
    std::shuffle(list.begin(), list.end(), rng);  // any order will do
    lists.push_back(std::move(list));
  }
  std::vector<OlsrMprCandidate> candidates;
  for (std::size_t i = 0; i < order.size(); ++i) {
    candidates.push_back({id_of.at(order[i]), lists[i]});
  }
  std::vector<std::uint8_t> selected;
  select_olsr_mprs(id_of.at(g.self), candidates, g.pool.size(), selected);
  EXPECT_EQ(selected.size(), order.size());
  std::set<Address> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (selected[i] != 0) out.insert(order[i]);
  }
  return out;
}

class OlsrMprsDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OlsrMprsDifferential, DenseSelectionMatchesReferenceModel) {
  std::mt19937_64 rng(GetParam());
  Coverage cov;
  constexpr int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Neighborhood g = random_neighborhood(rng, cov);
    const std::set<Address> want =
        reference::olsr_mprs(g.self, g.neighbors, g.two_hop);
    if (!want.empty()) ++cov.nonempty;
    const std::set<Address> got = dense_mprs(g, rng);
    ASSERT_EQ(got, want) << "seed " << GetParam() << " trial " << trial;
  }
  // Every tricky case showed up many times.
  EXPECT_GT(cov.self_listed, 100u);
  EXPECT_GT(cov.neighbor_listed, 100u);
  EXPECT_GT(cov.unlisted, 100u);
  EXPECT_GT(cov.twins, 100u);
  EXPECT_GT(cov.nonempty, kTrials / 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OlsrMprsDifferential,
                         ::testing::Values(1u, 2u, 3u, 7u, 29u, 1234u));

}  // namespace
}  // namespace siphoc::routing
