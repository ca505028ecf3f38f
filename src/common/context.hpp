// Per-simulation context: the bundle of process services a simulation
// observes -- metrics registry, log sink, virtual-time source, root RNG
// seed.
//
// There is no process-wide context. Each Simulator/Testbed owns one (a
// simulator built without a context creates a fresh one) or borrows one
// its caller owns, and every layer reaches the registry through its
// simulator's context. Two simulators therefore never share a registry
// unless their caller hands both the same context on purpose.
//
// Two access paths coexist deliberately:
//   * explicit: components that hold a Host/Simulator reach
//     sim.ctx().metrics() and capture instrument references at
//     construction. This is the primary path; it is what makes per-cell
//     isolation deterministic rather than dependent on runtime state.
//   * thread-bound: SimContext::current() resolves a thread_local pointer
//     installed by SimContext::Bind (the Simulator binds its context for
//     the duration of every run loop, the parallel cell runner binds it
//     around a whole cell). Leaf code with no path to a simulator (Logger,
//     ScopedSpan default) resolves through it and does nothing when no
//     context is bound.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/time.hpp"

namespace siphoc {

class Logging;
class MetricsRegistry;

class SimContext {
 public:
  /// A fresh, fully isolated context: its own registry and log sink.
  SimContext();
  ~SimContext();

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The context bound to this thread (via Bind), or null when none.
  static SimContext* current();

  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  Logging& log() { return *log_; }

  /// Root seed of the simulation this context belongs to; the parallel
  /// cell runner records the derived per-cell seed here.
  std::uint64_t root_seed() const { return root_seed_; }
  void set_root_seed(std::uint64_t seed) { root_seed_ = seed; }

  /// Deterministic per-cell seed derivation (splitmix64 over root+index):
  /// cell k of a sweep always simulates with derive_seed(root, k),
  /// independent of thread count or completion order. Never returns 0, so
  /// derived seeds are always valid mt19937_64 seeds distinct per index.
  static std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index);

  /// The simulator registers its virtual clock on both the registry and
  /// the log sink through this, tagged by owner, so a simulator being
  /// destroyed only clears the time source if no later simulator has taken
  /// it over (the pre-context code clobbered it unconditionally).
  void adopt_time_source(const void* owner, std::function<TimePoint()> now);
  void release_time_source(const void* owner);

  /// RAII thread-local binding: while alive, SimContext::current() on this
  /// thread resolves to the bound context. Nests (restores the previous
  /// binding on destruction).
  class Bind {
   public:
    explicit Bind(SimContext& context);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    SimContext* previous_;
  };

 private:
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Logging> log_;
  std::uint64_t root_seed_ = 0;
  const void* time_owner_ = nullptr;
};

}  // namespace siphoc
