// Unit tests: per-simulation contexts (common/context.hpp).
//
// The regression surface here is exactly what the singleton era could not
// express: two simulations in one process, each with its own registry, log
// sink and time source, with no cross-talk in either construction order.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/context.hpp"
#include "common/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace siphoc {
namespace {

TEST(SimContextTest, DeriveSeedIsDeterministicDistinctAndNonZero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {std::uint64_t{0}, std::uint64_t{42},
                             std::uint64_t{0xdeadbeefULL}}) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      const auto s = SimContext::derive_seed(root, k);
      EXPECT_NE(s, 0u);
      EXPECT_EQ(s, SimContext::derive_seed(root, k));
      EXPECT_TRUE(seen.insert(s).second)
          << "collision at root=" << root << " k=" << k;
    }
  }
}

TEST(SimContextTest, CurrentIsNullWhenUnboundAndBindNests) {
  EXPECT_EQ(SimContext::current(), nullptr);
  SimContext a, b;
  {
    SimContext::Bind bind_a(a);
    EXPECT_EQ(SimContext::current(), &a);
    {
      SimContext::Bind bind_b(b);
      EXPECT_EQ(SimContext::current(), &b);
    }
    EXPECT_EQ(SimContext::current(), &a);
  }
  EXPECT_EQ(SimContext::current(), nullptr);
}

TEST(SimContextTest, SimulatorsWithoutContextDoNotShareARegistry) {
  // A simulator built without a context owns a fresh one: nothing one run
  // records can show up in another run's registry.
  sim::Simulator a(1);
  sim::Simulator b(2);
  EXPECT_NE(&a.ctx(), &b.ctx());
  EXPECT_NE(&a.ctx().metrics(), &b.ctx().metrics());
  a.schedule(milliseconds(1), [] {
    SimContext::current()->metrics().counter("test.ticks_total").add();
  });
  a.run_for(milliseconds(2));
  EXPECT_EQ(a.ctx().metrics().counter_total("test.ticks_total"), 1u);
  EXPECT_EQ(b.ctx().metrics().counter_total("test.ticks_total"), 0u);
}

TEST(SimContextTest, TwoSimulatorsCoexistOnOneThread) {
  SimContext ctx_a, ctx_b;
  sim::Simulator sim_a(7, &ctx_a);
  sim::Simulator sim_b(9, &ctx_b);

  // Interleave: run A a bit, then B, then A again. Each simulation's
  // events must land in its own registry only.
  sim_a.schedule(milliseconds(1), [&] {
    SimContext::current()->metrics().counter("test.ticks_total", "a").add();
  });
  sim_b.schedule(milliseconds(1), [&] {
    SimContext::current()->metrics().counter("test.ticks_total", "b").add(2);
  });
  sim_a.schedule(milliseconds(5), [&] {
    SimContext::current()->metrics().counter("test.ticks_total", "a").add();
  });

  sim_a.run_for(milliseconds(2));
  sim_b.run_for(milliseconds(2));
  sim_a.run_for(milliseconds(10));

  EXPECT_EQ(ctx_a.metrics().counter_total("test.ticks_total"), 2u);
  EXPECT_EQ(ctx_b.metrics().counter_total("test.ticks_total"), 2u);
  EXPECT_EQ(SimContext::current(), nullptr) << "run loops must unbind";
}

TEST(SimContextTest, TimeSourceSurvivesEarlierOwnerDestruction) {
  // Regression: before owner-tagged adoption, destroying the *first*
  // simulator cleared the shared time source out from under the second one,
  // freezing every later timestamp at epoch.
  SimContext ctx;
  auto first = std::make_unique<sim::Simulator>(1, &ctx);
  sim::Simulator second(2, &ctx);
  second.schedule(milliseconds(30), [] {});
  second.run_to_completion();
  first.reset();  // must not clobber `second`'s adoption

  EXPECT_EQ(ctx.metrics().now(), second.now());
  EXPECT_EQ(ctx.metrics().now(), TimePoint{} + milliseconds(30));

  // And a clean release: once the active owner dies, the hook resets
  // instead of dangling into a destroyed simulator.
  {
    sim::Simulator third(3, &ctx);
    third.schedule(milliseconds(5), [] {});
    third.run_to_completion();
    EXPECT_EQ(ctx.metrics().now(), TimePoint{} + milliseconds(5));
  }
  EXPECT_EQ(ctx.metrics().now(), TimePoint{});
}

// Builds a small chain testbed in `ctx`, runs a fixed workload, and returns
// the registry's CSV export (deterministic, unlike JSON's emitted_at_us
// header which samples the time source at export time).
std::string run_cell_csv(SimContext& ctx, std::uint64_t seed,
                         std::size_t nodes) {
  scenario::Options o;
  o.context = &ctx;
  o.seed = seed;
  o.nodes = nodes;
  scenario::Testbed bed(o);
  bed.start();
  bed.settle(seconds(3));
  return ctx.metrics().to_csv();
}

TEST(SimContextTest, CellResultsIndependentOfExecutionOrder) {
  // Two different cells, run A-then-B and B-then-A: each cell's sidecar
  // must be byte-identical across orders (no leakage through globals).
  std::string a1, b1, a2, b2;
  {
    SimContext ca, cb;
    a1 = run_cell_csv(ca, 11, 3);
    b1 = run_cell_csv(cb, 12, 4);
  }
  {
    SimContext ca, cb;
    b2 = run_cell_csv(cb, 12, 4);
    a2 = run_cell_csv(ca, 11, 3);
  }
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(a1, b1);  // different (seed, size) cells measure differently
}

}  // namespace
}  // namespace siphoc
