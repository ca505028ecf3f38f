#include "routing/olsr.hpp"

#include <algorithm>

namespace siphoc::routing {

using olsr::Hello;
using olsr::LinkCode;
using olsr::Message;
using olsr::MsgType;
using olsr::Packet;
using olsr::Tc;

Olsr::Metrics::Metrics(MetricsRegistry& r, std::string_view node)
    : routing(r, "olsr", node),
      hello_tx(r.counter("olsr.hello_tx_total", node, "olsr")),
      tc_tx(r.counter("olsr.tc_tx_total", node, "olsr")),
      tc_forwarded(r.counter("olsr.tc_forwarded_total", node, "olsr")) {}

Olsr::Olsr(net::Host& host, OlsrConfig config)
    : host_(host), config_(config), log_("olsr", host.name()),
      metrics_(host.sim().ctx().metrics(), host.name()) {}

Olsr::~Olsr() { stop(); }

void Olsr::start() {
  if (running_) return;
  running_ = true;
  // The daemon owns the FIB (see Aodv::start): drop the on-link /24 so
  // only computed routes are used.
  host_.remove_route(net::kManetPrefix, net::kManetPrefixLen);
  host_.bind(net::kOlsrPort, [this](const net::Datagram& d,
                                    const net::RxInfo& rx) { on_packet(d, rx); });
  hello_timer_.start(host_.sim(), config_.hello_interval,
                     [this] { send_hello(); }, milliseconds(200));
  tc_timer_.start(host_.sim(), config_.tc_interval, [this] { send_tc(); },
                  milliseconds(400));
  housekeeping_timer_.start(host_.sim(), milliseconds(500),
                            [this] { expire_state(); });
}

void Olsr::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.stop();
  tc_timer_.stop();
  housekeeping_timer_.stop();
  route_calc_.cancel();
  route_calc_pending_ = false;
  host_.unbind(net::kOlsrPort);
  for (const auto& [dst, id] : ids_by_address_) {
    if (installed_routes_[id].distance != 0) host_.remove_route(dst, 32);
  }
  std::fill(installed_routes_.begin(), installed_routes_.end(), OlsrHop{});
  // The empty FIB no longer matches the inputs: a restart must not
  // early-out of its first recalculation.
  routes_dirty_ = true;
  host_.add_route({net::kManetPrefix, net::kManetPrefixLen, std::nullopt,
                   net::Interface::kRadio, /*metric=*/100});
}

void Olsr::nudge_advertisement() {
  if (!running_) return;
  send_hello();
  send_tc();
}

std::set<net::Address> Olsr::symmetric_neighbors() const {
  std::set<net::Address> out;
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now()) out.insert(addr);
  }
  return out;
}

bool Olsr::has_route(net::Address dst) const {
  const auto it = find_id(dst);
  return it != ids_by_address_.end() && it->first == dst &&
         installed_routes_[it->second].distance != 0;
}

Olsr::IdIndex::const_iterator Olsr::find_id(net::Address a) const {
  return std::lower_bound(
      ids_by_address_.begin(), ids_by_address_.end(), a,
      [](const auto& entry, net::Address x) { return entry.first < x; });
}

OlsrNodeId Olsr::intern(net::Address a) {
  const auto it = find_id(a);
  if (it != ids_by_address_.end() && it->first == a) return it->second;
  const auto id = static_cast<OlsrNodeId>(addresses_.size());
  ids_by_address_.insert(it, {a, id});
  addresses_.push_back(a);
  topology_head_.push_back(kNoSlot);
  installed_routes_.emplace_back();
  return id;
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

void Olsr::send_hello() {
  Message m;
  m.type = MsgType::kHello;
  m.vtime_ms = static_cast<std::uint16_t>(to_millis(config_.neighbor_hold));
  m.originator = self();
  m.ttl = 1;  // HELLO never leaves the 1-hop neighborhood
  m.msg_seq = ++msg_seq_;

  Hello::LinkGroup sym{LinkCode::kSym, {}};
  Hello::LinkGroup mpr{LinkCode::kMpr, {}};
  Hello::LinkGroup asym{LinkCode::kAsym, {}};
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now()) {
      (mprs_.contains(addr) ? mpr : sym).neighbors.push_back(addr);
    } else if (link.last_heard + config_.neighbor_hold > now()) {
      asym.neighbors.push_back(addr);
    }
  }
  for (auto* g : {&mpr, &sym, &asym}) {
    if (!g->neighbors.empty()) m.hello.links.push_back(*g);
  }

  if (handler_ != nullptr) {
    m.extension = handler_->on_outgoing(
        PacketInfo{PacketKind::kOlsrHello, self(), net::Address{}});
  }
  metrics_.hello_tx.add();
  transmit(std::move(m));
}

void Olsr::send_tc() {
  // RFC 3626 9.3: TC only when we have MPR selectors (someone routes
  // through us) -- but SIPHoc-style piggybacking still needs the proactive
  // channel, so we also emit a TC when the handler has payload to ship.
  Bytes ext;
  if (handler_ != nullptr) {
    ext = handler_->on_outgoing(
        PacketInfo{PacketKind::kOlsrTc, self(), net::Address{}});
  }
  if (selectors_.empty() && ext.empty()) return;

  Message m;
  m.type = MsgType::kTc;
  m.vtime_ms = static_cast<std::uint16_t>(to_millis(config_.topology_hold));
  m.originator = self();
  m.ttl = 255;
  m.msg_seq = ++msg_seq_;
  m.tc.ansn = ++ansn_;
  m.tc.advertised.assign(selectors_.begin(), selectors_.end());
  m.extension = std::move(ext);
  metrics_.tc_tx.add();
  transmit(std::move(m));
}

void Olsr::transmit(Message message) {
  Packet p;
  p.pkt_seq = ++pkt_seq_;
  stats_.extension_bytes_sent += message.extension.size();
  metrics_.routing.piggyback_bytes.add(message.extension.size());
  p.messages.push_back(std::move(message));
  Bytes wire = olsr::encode(p);
  ++stats_.control_packets_sent;
  stats_.control_bytes_sent += wire.size();
  metrics_.routing.control_packets.add();
  metrics_.routing.control_bytes.add(wire.size());
  host_.send_broadcast(net::kOlsrPort, net::kOlsrPort, std::move(wire));
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void Olsr::on_packet(const net::Datagram& d, const net::RxInfo&) {
  auto packet = olsr::decode(d.payload);
  if (!packet) {
    metrics_.routing.decode_errors.add();
    log_.warn("malformed OLSR packet from ", d.src.to_string(), ": ",
              packet.error().message);
    return;
  }
  if (d.corrupted) {
    // Chaos-engine ground truth: corruption survived the CRC trailer; the
    // chaos soak asserts this counter stays zero.
    host_.sim().ctx().metrics()
        .counter("chaos.corrupt_accepted_total", host_.name(), "olsr")
        .add();
  }
  const net::Address prev_hop = d.src;
  for (const auto& m : packet->messages) {
    if (m.originator == self()) continue;

    if (m.type == MsgType::kHello) {
      process_hello(m, prev_hop);
      if (handler_ != nullptr) {
        handler_->on_incoming(
            PacketInfo{PacketKind::kOlsrHello, m.originator, net::Address{}},
            m.extension, m.originator);
      }
      continue;
    }

    // TC: processed once, on the first copy; relayed once, on the first
    // copy that arrives from an MPR selector (RFC 3626 §3.4.1). The two
    // differ when the first copy comes from a non-selector: an MPR must
    // still relay the selector's later copy, or the flood has a hole.
    const std::uint64_t key =
        (std::uint64_t{m.originator.value()} << 16) | m.msg_seq;
    const auto [dup, first] =
        duplicates_.try_emplace(key, Duplicate{now() + seconds(30), false});
    if (first) {
      duplicate_order_.push_back(key);
      process_tc(m);
      if (handler_ != nullptr) {
        handler_->on_incoming(
            PacketInfo{PacketKind::kOlsrTc, m.originator, net::Address{}},
            m.extension, m.originator);
      }
    }
    if (!dup->second.forwarded) {
      dup->second.forwarded = maybe_forward(m, prev_hop);
    }
  }
}

void Olsr::process_hello(const Message& m, net::Address from) {
  const auto [link_it, new_link] = links_.try_emplace(from);
  auto& link = link_it->second;
  if (new_link) link.id = intern(from);
  link.last_heard = now();

  // Symmetry check: do they list us in any group?
  bool lists_us = false;
  bool selects_us_mpr = false;
  for (const auto& g : m.hello.links) {
    for (const auto& n : g.neighbors) {
      if (n == self()) {
        lists_us = true;
        if (g.code == LinkCode::kMpr) selects_us_mpr = true;
      }
    }
  }
  if (lists_us) {
    if (link.sym_until <= now()) routes_dirty_ = true;  // turns symmetric
    link.sym_until = now() + config_.neighbor_hold;
  }
  link.is_mpr_of_us = selects_us_mpr;
  if (selects_us_mpr) {
    selectors_.insert(from);
  } else {
    selectors_.erase(from);
  }

  // Two-hop neighborhood: their symmetric neighbors (excluding us).
  std::set<net::Address> their_neighbors;
  for (const auto& g : m.hello.links) {
    if (g.code == LinkCode::kAsym) continue;
    for (const auto& n : g.neighbors) {
      if (n != self()) their_neighbors.insert(n);
    }
  }
  two_hop_[from] = std::move(their_neighbors);

  select_mprs();
  schedule_route_calc();
}

void Olsr::process_tc(const Message& m) {
  // RFC 9.5: keep only the newest advertisement set per originator.
  // Refresh surviving edges in place first, then drop the stale-ANSN
  // remainder: a periodic TC that re-advertises the same neighbor set
  // leaves the routing inputs untouched (same edges, same scan order), so
  // it does not mark routes dirty. Only the originator's own chain is
  // walked.
  const TimePoint t = now();
  const TimePoint expires = t + config_.topology_hold;
  const OlsrNodeId origin = intern(m.originator);
  for (const auto& dest_address : m.tc.advertised) {
    const OlsrNodeId dest = intern(dest_address);
    std::uint32_t slot = topology_head_[origin];
    while (slot != kNoSlot && topology_[slot].dest != dest) {
      slot = topology_[slot].next;
    }
    if (slot != kNoSlot) {
      TopologyEdge& e = topology_[slot];
      if (e.expires <= t) routes_dirty_ = true;  // revives an expired edge
      e.ansn = m.tc.ansn;
      e.expires = expires;
    } else {
      topology_.push_back({origin, dest, topology_head_[origin], m.tc.ansn,
                           false, expires});
      topology_head_[origin] = static_cast<std::uint32_t>(topology_.size() - 1);
      topology_min_expiry_ = std::min(topology_min_expiry_, expires);
      routes_dirty_ = true;
    }
  }
  for (std::uint32_t* link = &topology_head_[origin]; *link != kNoSlot;) {
    TopologyEdge& e = topology_[*link];
    if (static_cast<std::int16_t>(m.tc.ansn - e.ansn) > 0) {
      if (e.expires > t) routes_dirty_ = true;
      e.erased = true;
      *link = e.next;
      ++topology_tombstones_;
    } else {
      link = &e.next;
    }
  }
  if (topology_tombstones_ * 2 > topology_.size()) {
    compact_topology(TimePoint::min());
  }
  schedule_route_calc();
}

std::size_t Olsr::compact_topology(TimePoint cutoff) {
  std::size_t expired = 0;
  std::size_t kept = 0;
  TimePoint min_expiry = TimePoint::max();
  for (const TopologyEdge& e : topology_) {
    if (e.erased) continue;
    if (e.expires <= cutoff) {
      ++expired;
      continue;
    }
    min_expiry = std::min(min_expiry, e.expires);
    topology_[kept++] = e;
  }
  topology_.resize(kept);
  topology_tombstones_ = 0;
  topology_min_expiry_ = min_expiry;
  std::fill(topology_head_.begin(), topology_head_.end(), kNoSlot);
  for (std::uint32_t i = 0; i < kept; ++i) {
    topology_[i].next = topology_head_[topology_[i].last_hop];
    topology_head_[topology_[i].last_hop] = i;
  }
  return expired;
}

bool Olsr::maybe_forward(const Message& m, net::Address prev_hop) {
  // Default forwarding algorithm: retransmit only if the previous hop has
  // selected us as MPR, the link is symmetric, and TTL allows it.
  if (m.ttl <= 1) return false;
  if (!is_symmetric(prev_hop)) return false;
  const auto it = links_.find(prev_hop);
  if (it == links_.end() || !it->second.is_mpr_of_us) return false;

  Message fwd = m;
  fwd.ttl -= 1;
  fwd.hop_count += 1;
  metrics_.tc_forwarded.add();
  transmit(std::move(fwd));
  return true;
}

// --------------------------------------------------------------------------
// MPR selection (RFC 8.3.1, greedy heuristic)
// --------------------------------------------------------------------------

void Olsr::select_mprs() {
  std::set<net::Address> neighbors = symmetric_neighbors();

  // Two-hop nodes strictly two hops away.
  std::set<net::Address> uncovered;
  for (const auto& n : neighbors) {
    const auto it = two_hop_.find(n);
    if (it == two_hop_.end()) continue;
    for (const auto& t : it->second) {
      if (t != self() && !neighbors.contains(t)) uncovered.insert(t);
    }
  }

  std::set<net::Address> mprs;
  // First: neighbors that are the only path to some two-hop node.
  for (const auto& t : uncovered) {
    net::Address only;
    int count = 0;
    for (const auto& n : neighbors) {
      const auto it = two_hop_.find(n);
      if (it != two_hop_.end() && it->second.contains(t)) {
        only = n;
        ++count;
      }
    }
    if (count == 1) mprs.insert(only);
  }
  for (const auto& n : mprs) {
    const auto it = two_hop_.find(n);
    if (it == two_hop_.end()) continue;
    for (const auto& t : it->second) uncovered.erase(t);
  }
  // Greedy: repeatedly pick the neighbor covering the most remaining.
  while (!uncovered.empty()) {
    net::Address best;
    std::size_t best_cover = 0;
    for (const auto& n : neighbors) {
      if (mprs.contains(n)) continue;
      const auto it = two_hop_.find(n);
      if (it == two_hop_.end()) continue;
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
    for (const auto& t : two_hop_.at(best)) uncovered.erase(t);
  }
  mprs_ = std::move(mprs);
}

// --------------------------------------------------------------------------
// Route calculation (hop-count Dijkstra == BFS over links + topology)
// --------------------------------------------------------------------------

void Olsr::schedule_route_calc() {
  if (route_calc_pending_) return;
  route_calc_pending_ = true;
  route_calc_ = host_.sim().schedule(config_.route_recalc_delay, [this] {
    route_calc_pending_ = false;
    calculate_routes();
  });
}

void compute_olsr_routes(OlsrNodeId self, std::span<const OlsrNodeId> seeds,
                         std::span<const OlsrEdge> edges,
                         std::size_t node_count, std::vector<OlsrHop>& out) {
  // Per-call buffers are per thread, not per daemon: hundreds of daemons
  // share one worker thread, and a copy each would cost memory for nothing.
  thread_local std::vector<std::uint32_t> offsets;
  thread_local std::vector<OlsrNodeId> adjacency;
  thread_local std::vector<OlsrNodeId> frontier;

  // CSR adjacency, both directions (links are bidirectional once
  // symmetric), each node's list in edge scan order.
  offsets.assign(node_count + 1, 0);
  for (const OlsrEdge& e : edges) {
    ++offsets[e.last_hop + 1];
    ++offsets[e.dest + 1];
  }
  for (std::size_t i = 1; i <= node_count; ++i) offsets[i] += offsets[i - 1];
  adjacency.resize(2 * edges.size());
  for (const OlsrEdge& e : edges) {
    adjacency[offsets[e.last_hop]++] = e.dest;
    adjacency[offsets[e.dest]++] = e.last_hop;
  }
  // The fill advanced each offset to its list's end: shift back by one.
  for (std::size_t i = node_count; i > 0; --i) offsets[i] = offsets[i - 1];
  offsets[0] = 0;

  out.assign(node_count, OlsrHop{});
  frontier.clear();
  for (const OlsrNodeId n : seeds) {
    out[n] = {n, 1};
    frontier.push_back(n);
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const OlsrNodeId u = frontier[head];
    const OlsrHop hop = out[u];
    for (std::uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const OlsrNodeId v = adjacency[i];
      if (v == self || out[v].distance != 0) continue;
      out[v] = {hop.next_hop, hop.distance + 1};
      frontier.push_back(v);
    }
  }
}

void Olsr::calculate_routes() {
  if (!running_) return;
  // Routes are a pure function of the symmetric neighbor set and the live
  // topology edges in scan order. Unless one of those changed (dirty) or
  // lapsed by time since the last full run, the BFS would reproduce
  // installed_routes_ bit-for-bit -- skip it. That is by far the common
  // case: every HELLO and TC debounces into a recalc, but a converged
  // network's periodic refreshes leave the inputs untouched.
  const TimePoint t = now();
  if (!routes_dirty_ && t < routes_next_expiry_) return;
  routes_dirty_ = false;

  thread_local std::vector<std::pair<net::Address, OlsrNodeId>> sym;
  thread_local std::vector<OlsrNodeId> seeds;
  thread_local std::vector<OlsrEdge> edges;
  thread_local std::vector<OlsrHop> routes;
  TimePoint next_expiry = TimePoint::max();
  sym.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= t) continue;
    sym.emplace_back(addr, link.id);
    next_expiry = std::min(next_expiry, link.sym_until);
  }
  std::sort(sym.begin(), sym.end());  // BFS seeds in address order
  seeds.clear();
  for (const auto& entry : sym) seeds.push_back(entry.second);
  edges.clear();
  for (const TopologyEdge& e : topology_) {
    if (e.erased || e.expires <= t) continue;
    edges.push_back({e.last_hop, e.dest});
    next_expiry = std::min(next_expiry, e.expires);
  }
  routes_next_expiry_ = next_expiry;

  const OlsrNodeId self_id = intern(self());
  compute_olsr_routes(self_id, seeds, edges, addresses_.size(), routes);

  // Mirror into the host FIB in ascending address order: touch only
  // routes whose next hop or metric actually changed, then drop vanished
  // ones. A recalculation with unchanged routes costs zero FIB writes.
  for (const auto& [dst, id] : ids_by_address_) {
    const OlsrHop& hop = routes[id];
    if (hop.distance == 0 || hop == installed_routes_[id]) continue;
    host_.add_route({dst, 32, addresses_[hop.next_hop], net::Interface::kRadio,
                     hop.distance});
  }
  for (const auto& [dst, id] : ids_by_address_) {
    if (installed_routes_[id].distance != 0 && routes[id].distance == 0) {
      host_.remove_route(dst, 32);
    }
  }
  std::copy(routes.begin(), routes.end(), installed_routes_.begin());
}

void Olsr::expire_state() {
  const TimePoint t = now();
  bool changed = false;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.last_heard + config_.neighbor_hold <= t) {
      selectors_.erase(it->first);
      two_hop_.erase(it->first);
      it = links_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  // Nothing in the topology set can have expired before its earliest
  // expiry; only then is the sweep worth its O(E) pass.
  if (t >= topology_min_expiry_ && compact_topology(t) > 0) changed = true;
  while (!duplicate_order_.empty()) {
    const auto dup = duplicates_.find(duplicate_order_.front());
    if (dup->second.expires > t) break;
    duplicates_.erase(dup);
    duplicate_order_.pop_front();
  }
  if (changed) {
    select_mprs();
    schedule_route_calc();
  }
}

}  // namespace siphoc::routing
