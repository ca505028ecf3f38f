// Allocation guard for the OLSR receive path. A counting global operator
// new (this binary only) measures heap allocations per delivered radio
// frame on a 49-node OLSR grid in steady state. Only OLSR runs, so every
// delivered frame is an OLSR packet, and most deliveries are duplicate TC
// copies that the header-first receive path drops without allocating.
//
// What remains per delivery is outside OLSR: the medium schedules one
// delivery closure per receiver, and each HELLO and TC a node sends builds
// its packet. The bound sits halfway between the count before the receive
// path stopped decoding every copy and the count after (see CHANGES.md),
// so a regression that brings back a per-copy allocation fails here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "routing/olsr.hpp"

namespace {

std::uint64_t g_allocations = 0;  // the simulation runs on this thread only

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace siphoc::routing {
namespace {

// Allocations per delivered OLSR frame over the measured window, on this
// grid (gcc 12.2, RelWithDebInfo): 8.74 when every received copy was fully
// decoded and every relay copied its Message, 1.70 with the header-first
// receive path and the compact duplicate set. The bound is the midpoint.
constexpr double kMaxAllocationsPerDelivery = 5.2;

TEST(OlsrAllocation, SteadyStateReceiveStaysUnderBound) {
  sim::Simulator sim(5);
  net::RadioMedium medium(sim, net::RadioConfig{});
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<Olsr>> daemons;
  const auto positions = net::grid_positions(49, 100);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    hosts.push_back(std::make_unique<net::Host>(
        sim, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
    hosts.back()->attach_radio(
        medium,
        net::Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) + 1},
        std::make_shared<net::StaticMobility>(positions[i]));
    daemons.push_back(std::make_unique<Olsr>(*hosts.back()));
    daemons.back()->start();
  }
  sim.run_for(seconds(40));  // converge: links, MPRs, topology, routes

  const std::uint64_t delivered_before = medium.stats().frames_delivered;
  const std::uint64_t allocations_before = g_allocations;
  sim.run_for(seconds(30));
  const std::uint64_t deliveries =
      medium.stats().frames_delivered - delivered_before;
  const std::uint64_t allocations = g_allocations - allocations_before;

  ASSERT_GT(deliveries, 10000u);
  const double per_delivery =
      static_cast<double>(allocations) / static_cast<double>(deliveries);
  std::printf("allocations per delivered OLSR frame: %.3f (%llu / %llu)\n",
              per_delivery, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(deliveries));
  EXPECT_LT(per_delivery, kMaxAllocationsPerDelivery);
  // Every node still has a route to every other: the window was steady.
  for (const auto& d : daemons) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (&d - daemons.data() == static_cast<std::ptrdiff_t>(j)) continue;
      EXPECT_TRUE(d->has_route(hosts[j]->manet_address()));
    }
  }
}

}  // namespace
}  // namespace siphoc::routing
