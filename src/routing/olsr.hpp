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
// MPR selection follows the same pattern. Each link holds the sorted ids of
// the neighbor's own symmetric neighbors (its last HELLO). The greedy
// selection (select_olsr_mprs) is a pure function over ids with
// thread_local flat scratch, and it is gated by a dirty bit: a new link, a
// link turned symmetric or erased, or a changed two-hop list. A second gate
// is the earliest sym_until among the last run's symmetric neighbors.
// mprs_ is replaced only when the selected set differs.
//
// Receive path (RFC 3626 §3.4 order): olsr::scan checks the CRC and the
// packet structure in place, the duplicate set is consulted from the
// message header, and HELLO and TC bodies are read straight off the wire
// bytes. A relayed TC is the received message's bytes with TTL and hop
// count patched (olsr::encode_relay). A duplicate copy therefore costs no
// heap allocation at all.
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

/// One symmetric neighbor as MPR selection sees it: its id and the ids it
/// reported as its own symmetric neighbors (no duplicates, any order).
struct OlsrMprCandidate {
  OlsrNodeId id = 0;
  std::span<const OlsrNodeId> two_hop;
};

/// Greedy MPR selection (RFC 3626 §8.3.1 heuristic). `neighbors` are the
/// distinct symmetric neighbors, none of them `self`, in ascending address
/// order. The nodes to cover are the ids in some neighbor's two_hop that are
/// neither `self` nor a neighbor. First every neighbor that is the only one
/// covering some node is selected; then, while nodes stay uncovered, the
/// neighbor covering the most of them is, the earliest on a tie. On return
/// `selected[i]` is 1 iff neighbors[i] was chosen. Every id must be below
/// `node_count`.
void select_olsr_mprs(OlsrNodeId self,
                      std::span<const OlsrMprCandidate> neighbors,
                      std::size_t node_count,
                      std::vector<std::uint8_t>& selected);

/// Duplicate set (RFC 3626 §3.4): the TC messages seen, each keyed by
/// originator and msg_seq (48 bits), with whether this node relayed it.
/// Entries expire in insertion order. The table is compact: key and flag
/// share one 8-byte slot (open addressing, linear probing, load <= 1/2),
/// and the expiry times live only in the FIFO that drives expiry.
class OlsrDuplicateSet {
 public:
  /// Index of `key`'s slot, inserting it (not relayed, expiring at
  /// `expires`) when absent; `inserted` says which. The index stays valid
  /// until the next insert or expire.
  std::size_t find_or_insert(std::uint64_t key, TimePoint expires,
                             bool& inserted);
  /// Index of `key`'s slot; `key` must be present.
  std::size_t find(std::uint64_t key) const;
  bool relayed(std::size_t slot) const { return (slots_[slot] & kRelayed) != 0; }
  void set_relayed(std::size_t slot) { slots_[slot] |= kRelayed; }
  /// Drops every entry whose expiry is at or before `now`.
  void expire(TimePoint now);
  std::size_t size() const { return order_.size(); }

 private:
  static constexpr std::uint64_t kUsed = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kRelayed = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << 48) - 1;

  std::size_t home(std::uint64_t key) const;
  void grow();
  void erase_slot(std::size_t slot);

  std::vector<std::uint64_t> slots_;  // 0 = empty, else kUsed | flag | key
  std::deque<std::pair<std::uint64_t, TimePoint>> order_;  // oldest first
};

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
    // The neighbor's symmetric neighbors from its last HELLO, us excluded:
    // ids, sorted, no duplicates.
    std::vector<OlsrNodeId> two_hop;
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
  /// Broadcasts one encoded packet and counts it.
  void send(Bytes wire, std::size_t extension_bytes);
  void on_packet(const net::Datagram& d, const net::RxInfo& rx);
  void process_hello(const olsr::MessageView& m, net::Address from);
  void process_tc(const olsr::MessageView& m);
  /// Relays `m` when `prev_hop` selected us as MPR; true when it did.
  bool maybe_forward(const olsr::MessageView& m, net::Address prev_hop);

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

  net::Host& host_;
  OlsrConfig config_;
  Logger log_;
  RoutingHandler* handler_ = nullptr;
  bool running_ = false;

  std::uint16_t pkt_seq_ = 0;
  std::uint16_t msg_seq_ = 0;
  std::uint16_t ansn_ = 0;

  std::unordered_map<net::Address, LinkInfo> links_;
  std::set<net::Address> mprs_;       // we relay through these
  std::set<net::Address> selectors_;  // these relay through us
  OlsrDuplicateSet duplicates_;

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
  // The same for MPR selection.
  bool mprs_dirty_ = true;
  TimePoint mprs_next_expiry_ = TimePoint::max();

  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer tc_timer_;
  sim::PeriodicTimer housekeeping_timer_;
  sim::EventHandle route_calc_;
  bool route_calc_pending_ = false;
  RoutingStats stats_;
  Metrics metrics_;
};

}  // namespace siphoc::routing
