// OLSR daemon (RFC 3626 subset) over the emulated host stack.
//
// Implements link sensing with symmetry confirmation via HELLO, two-hop
// neighborhood tracking, greedy MPR selection, TC origination by nodes with
// MPR selectors, MPR-based default forwarding with duplicate suppression,
// a topology set with validity times, and hop-count shortest-path (BFS)
// route computation mirrored into the host FIB.
//
// Routing state lives on dense per-daemon node ids (OlsrNodeId): every
// address the daemon hears of gets the next id, never reused. The topology
// set is one flat vector in insertion order -- the scan order the BFS
// adjacency is built in, so equal-distance next-hop ties fall the same way
// whatever happens to the storage -- with erased edges left as tombstones
// until the next compaction, and a per-originator chain through it so a TC
// touches only its originator's edges. Route recalculation is gated in
// O(1): a dirty bit (an edge inserted, erased while live or revived; a link
// turned symmetric; stop()) plus the earliest expiry among the inputs of
// the last full run, so an input that lapses by time alone is still seen.
// The BFS itself (compute_olsr_routes) is a pure function over ids whose
// per-call buffers are thread_local, not per daemon.
//
// SIPHoc integration: the RoutingHandler seam fires for every originated
// HELLO and TC, and for every *first* reception of a message carrying an
// extension (forwarded copies keep the original extension, so a TC floods
// the advertisement to every node -- the proactive piggyback channel).
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "routing/olsr_codec.hpp"
#include "routing/protocol.hpp"

namespace siphoc::routing {

struct OlsrConfig {
  Duration hello_interval = seconds(2);
  Duration tc_interval = seconds(5);
  Duration neighbor_hold = seconds(6);
  Duration topology_hold = seconds(15);
  Duration route_recalc_delay = milliseconds(20);
};

/// Dense node id inside one OLSR daemon's routing state.
using OlsrNodeId = std::uint32_t;

/// One topology edge as route computation sees it: TC originator
/// (`last_hop`) and one neighbor it advertised (`dest`).
struct OlsrEdge {
  OlsrNodeId last_hop = 0;
  OlsrNodeId dest = 0;
};

/// Route to one node: next hop and hop count. `distance` 0 = unreachable.
struct OlsrHop {
  OlsrNodeId next_hop = 0;
  int distance = 0;

  friend bool operator==(const OlsrHop&, const OlsrHop&) = default;
};

/// Hop-count shortest paths from `self` (BFS, i.e. Dijkstra with unit
/// weights). `seeds` are the symmetric one-hop neighbors in the order they
/// are queued (the daemon passes ascending address order); `edges` are the
/// live topology edges in scan order, each usable in both directions. On
/// return `out[v]` (sized `node_count`; every id must be below it) is the
/// route to v. Equal-distance ties go to whichever path the BFS queues
/// first: the earlier seed, then the earlier edge. Never routes through or
/// to `self` unless it is a seed.
void compute_olsr_routes(OlsrNodeId self, std::span<const OlsrNodeId> seeds,
                         std::span<const OlsrEdge> edges,
                         std::size_t node_count, std::vector<OlsrHop>& out);

class Olsr final : public Protocol {
 public:
  Olsr(net::Host& host, OlsrConfig config = {});
  ~Olsr() override;

  std::string_view name() const override { return "olsr"; }
  void start() override;
  void stop() override;
  void set_handler(RoutingHandler* handler) override { handler_ = handler; }

  /// OLSR is proactive: there is no on-demand flood; lookups are served
  /// from converged caches. Returns false so callers fall back to waiting.
  bool flood_query(Bytes) override { return false; }

  /// Early advertisement round: emit HELLO and TC now instead of waiting
  /// for the next period (used right after a registration so the new SIP
  /// binding propagates promptly).
  void nudge_advertisement() override;

  const RoutingStats& stats() const override { return stats_; }

  // Introspection for tests.
  std::set<net::Address> symmetric_neighbors() const;
  const std::set<net::Address>& mpr_set() const { return mprs_; }
  const std::set<net::Address>& mpr_selectors() const { return selectors_; }
  bool has_route(net::Address dst) const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct LinkInfo {
    TimePoint last_heard{};
    TimePoint sym_until{};  // symmetric while now < sym_until
    bool is_mpr_of_us = false;
    OlsrNodeId id = 0;
  };
  /// Duplicate-set entry (RFC 3626 §3.4): a TC seen from one originator
  /// with one msg_seq (the key packs both), and whether this node has
  /// relayed it yet. Entries expire in insertion order, so a FIFO of keys
  /// drives expiry instead of a scan.
  struct Duplicate {
    TimePoint expires{};
    bool forwarded = false;
  };
  struct TopologyEdge {
    OlsrNodeId last_hop = 0;  // TC originator
    OlsrNodeId dest = 0;      // advertised neighbor
    std::uint32_t next = kNoSlot;  // next live edge of the same originator
    std::uint16_t ansn = 0;
    bool erased = false;  // tombstone until the next compaction
    TimePoint expires{};
  };

  struct Metrics {
    Metrics(MetricsRegistry& registry, std::string_view node);
    RoutingMetrics routing;
    Counter& hello_tx;
    Counter& tc_tx;
    Counter& tc_forwarded;
  };

  net::Address self() const { return host_.manet_address(); }
  TimePoint now() const { return host_.sim().now(); }

  void send_hello();
  void send_tc();
  void transmit(olsr::Message message);
  void on_packet(const net::Datagram& d, const net::RxInfo& rx);
  void process_hello(const olsr::Message& m, net::Address from);
  void process_tc(const olsr::Message& m);
  /// Relays `m` when `prev_hop` selected us as MPR; true when it did.
  bool maybe_forward(const olsr::Message& m, net::Address prev_hop);

  void select_mprs();
  void schedule_route_calc();
  void calculate_routes();
  void expire_state();

  using IdIndex = std::vector<std::pair<net::Address, OlsrNodeId>>;

  /// Where `a` sits in ids_by_address_, or would be inserted.
  IdIndex::const_iterator find_id(net::Address a) const;
  /// The dense id of `a`, assigning the next one on first sight.
  OlsrNodeId intern(net::Address a);
  /// Drops tombstones and every edge with `expires <= cutoff`, keeping
  /// the survivors' order, and rebuilds the per-originator chains.
  /// Returns how many live (not tombstoned) edges it dropped.
  std::size_t compact_topology(TimePoint cutoff);

  bool is_symmetric(net::Address n) const {
    const auto it = links_.find(n);
    return it != links_.end() && it->second.sym_until > now();
  }

  net::Host& host_;
  OlsrConfig config_;
  Logger log_;
  RoutingHandler* handler_ = nullptr;
  bool running_ = false;

  std::uint16_t pkt_seq_ = 0;
  std::uint16_t msg_seq_ = 0;
  std::uint16_t ansn_ = 0;

  std::unordered_map<net::Address, LinkInfo> links_;
  // neighbor -> its symmetric neighbors (from HELLO) = two-hop candidates.
  std::unordered_map<net::Address, std::set<net::Address>> two_hop_;
  std::set<net::Address> mprs_;       // we relay through these
  std::set<net::Address> selectors_;  // these relay through us
  std::unordered_map<std::uint64_t, Duplicate> duplicates_;
  std::deque<std::uint64_t> duplicate_order_;  // keys, oldest first

  // Dense ids: id -> address, and (address, id) sorted by address for
  // lookups and for FIB writes in ascending address order.
  std::vector<net::Address> addresses_;
  IdIndex ids_by_address_;
  // Topology set in insertion (= scan) order, tombstones included;
  // topology_head_[id] starts the chain of id's edges as TC originator.
  std::vector<TopologyEdge> topology_;
  std::vector<std::uint32_t> topology_head_;
  std::size_t topology_tombstones_ = 0;
  TimePoint topology_min_expiry_ = TimePoint::max();  // lower bound
  // Route mirrored into the host FIB per id; lets recalculation skip FIB
  // writes for unchanged entries.
  std::vector<OlsrHop> installed_routes_;
  // Early-out state: inputs changed since the last full run, and the
  // earliest time one of that run's inputs lapses by itself.
  bool routes_dirty_ = true;
  TimePoint routes_next_expiry_ = TimePoint::max();

  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer tc_timer_;
  sim::PeriodicTimer housekeeping_timer_;
  sim::EventHandle route_calc_;
  bool route_calc_pending_ = false;
  RoutingStats stats_;
  Metrics metrics_;
};

}  // namespace siphoc::routing
