#include "routing/olsr.hpp"

#include <algorithm>
#include <bit>

namespace siphoc::routing {

using olsr::Hello;
using olsr::LinkCode;
using olsr::Message;
using olsr::MessageView;
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
  const std::size_t extension_bytes = message.extension.size();
  p.messages.push_back(std::move(message));
  send(olsr::encode(p), extension_bytes);
}

void Olsr::send(Bytes wire, std::size_t extension_bytes) {
  stats_.extension_bytes_sent += extension_bytes;
  metrics_.routing.piggyback_bytes.add(extension_bytes);
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
  // Header first (RFC 3626 §3.4): the scan checks the CRC and structure in
  // place, so a duplicate copy is dropped without copying anything.
  const auto packet = olsr::scan(d.payload);
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
  olsr::for_each_message(*packet, [&](const MessageView& m) {
    if (m.originator == self()) return;

    if (m.type == MsgType::kHello) {
      process_hello(m, prev_hop);
      if (handler_ != nullptr) {
        handler_->on_incoming(
            PacketInfo{PacketKind::kOlsrHello, m.originator, net::Address{}},
            m.extension, m.originator);
      }
      return;
    }

    // TC: processed once, on the first copy; relayed once, on the first
    // copy that arrives from an MPR selector (RFC 3626 §3.4.1). The two
    // differ when the first copy comes from a non-selector: an MPR must
    // still relay the selector's later copy, or the flood has a hole.
    const std::uint64_t key =
        (std::uint64_t{m.originator.value()} << 16) | m.msg_seq;
    bool first = false;
    std::size_t slot =
        duplicates_.find_or_insert(key, now() + seconds(30), first);
    if (first) {
      process_tc(m);
      if (handler_ != nullptr) {
        handler_->on_incoming(
            PacketInfo{PacketKind::kOlsrTc, m.originator, net::Address{}},
            m.extension, m.originator);
      }
      slot = duplicates_.find(key);  // a slot index lasts until an insert
    }
    if (!duplicates_.relayed(slot) && maybe_forward(m, prev_hop)) {
      duplicates_.set_relayed(slot);
    }
  });
}

void Olsr::process_hello(const MessageView& m, net::Address from) {
  const TimePoint t = now();
  const auto [link_it, new_link] = links_.try_emplace(from);
  auto& link = link_it->second;
  if (new_link) {
    link.id = intern(from);
    mprs_dirty_ = true;
  }
  link.last_heard = t;

  // Symmetry check (do they list us in any group?) and the two-hop
  // neighborhood: their symmetric neighbors, us excluded.
  const net::Address me = self();
  bool lists_us = false;
  bool selects_us_mpr = false;
  thread_local std::vector<OlsrNodeId> two_hop;
  two_hop.clear();
  olsr::for_each_hello_neighbor(m, [&](LinkCode code, net::Address n) {
    if (n == me) {
      lists_us = true;
      if (code == LinkCode::kMpr) selects_us_mpr = true;
    } else if (code != LinkCode::kAsym) {
      two_hop.push_back(intern(n));
    }
  });
  if (lists_us) {
    if (link.sym_until <= t) {  // turns symmetric
      routes_dirty_ = true;
      mprs_dirty_ = true;
    }
    link.sym_until = t + config_.neighbor_hold;
  }
  link.is_mpr_of_us = selects_us_mpr;
  if (selects_us_mpr) {
    selectors_.insert(from);
  } else {
    selectors_.erase(from);
  }

  std::sort(two_hop.begin(), two_hop.end());
  two_hop.erase(std::unique(two_hop.begin(), two_hop.end()), two_hop.end());
  if (two_hop != link.two_hop) {
    link.two_hop.assign(two_hop.begin(), two_hop.end());
    mprs_dirty_ = true;
  }

  select_mprs();
  schedule_route_calc();
}

void Olsr::process_tc(const MessageView& m) {
  // RFC 9.5: keep only the newest advertisement set per originator.
  // Refresh surviving edges in place first, then drop the stale-ANSN
  // remainder: a periodic TC that re-advertises the same neighbor set
  // leaves the routing inputs untouched (same edges, same scan order), so
  // it does not mark routes dirty. Only the originator's own chain is
  // walked.
  const TimePoint t = now();
  const TimePoint expires = t + config_.topology_hold;
  const std::uint16_t ansn = olsr::tc_ansn(m);
  const OlsrNodeId origin = intern(m.originator);
  olsr::for_each_tc_neighbor(m, [&](net::Address dest_address) {
    const OlsrNodeId dest = intern(dest_address);
    std::uint32_t slot = topology_head_[origin];
    while (slot != kNoSlot && topology_[slot].dest != dest) {
      slot = topology_[slot].next;
    }
    if (slot != kNoSlot) {
      TopologyEdge& e = topology_[slot];
      if (e.expires <= t) routes_dirty_ = true;  // revives an expired edge
      e.ansn = ansn;
      e.expires = expires;
    } else {
      topology_.push_back(
          {origin, dest, topology_head_[origin], ansn, false, expires});
      topology_head_[origin] = static_cast<std::uint32_t>(topology_.size() - 1);
      topology_min_expiry_ = std::min(topology_min_expiry_, expires);
      routes_dirty_ = true;
    }
  });
  for (std::uint32_t* link = &topology_head_[origin]; *link != kNoSlot;) {
    TopologyEdge& e = topology_[*link];
    if (static_cast<std::int16_t>(ansn - e.ansn) > 0) {
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

bool Olsr::maybe_forward(const MessageView& m, net::Address prev_hop) {
  // Default forwarding algorithm: retransmit only if the previous hop has
  // selected us as MPR, the link is symmetric, and TTL allows it.
  if (m.ttl <= 1) return false;
  const auto it = links_.find(prev_hop);
  if (it == links_.end() || it->second.sym_until <= now() ||
      !it->second.is_mpr_of_us) {
    return false;
  }
  metrics_.tc_forwarded.add();
  send(olsr::encode_relay(++pkt_seq_, m), m.extension.size());
  return true;
}

// --------------------------------------------------------------------------
// Duplicate set
// --------------------------------------------------------------------------

std::size_t OlsrDuplicateSet::home(std::uint64_t key) const {
  // Fibonacci hashing: originator and msg_seq both reach the top bits.
  const int bits = std::countr_zero(slots_.size());
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

std::size_t OlsrDuplicateSet::find(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    if ((slots_[i] & kKeyMask) == key && slots_[i] != 0) return i;
  }
}

std::size_t OlsrDuplicateSet::find_or_insert(std::uint64_t key,
                                             TimePoint expires,
                                             bool& inserted) {
  if (2 * (order_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    if ((slots_[i] & kKeyMask) == key) {
      inserted = false;
      return i;
    }
  }
  slots_[i] = kUsed | key;
  order_.emplace_back(key, expires);
  inserted = true;
  return i;
}

void OlsrDuplicateSet::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t s : old) {
    if (s == 0) continue;
    std::size_t i = home(s & kKeyMask);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void OlsrDuplicateSet::erase_slot(std::size_t slot) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = slot;;) {
    slots_[slot] = 0;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j] == 0) return;
      const std::size_t h = home(slots_[j] & kKeyMask);
      const bool stays = slot <= j ? (slot < h && h <= j) : (slot < h || h <= j);
      if (!stays) break;
    }
    slots_[slot] = slots_[j];
    slot = j;
  }
}

void OlsrDuplicateSet::expire(TimePoint now) {
  while (!order_.empty() && order_.front().second <= now) {
    erase_slot(find(order_.front().first));
    order_.pop_front();
  }
}

// --------------------------------------------------------------------------
// MPR selection (RFC 8.3.1, greedy heuristic)
// --------------------------------------------------------------------------

void select_olsr_mprs(OlsrNodeId self,
                      std::span<const OlsrMprCandidate> neighbors,
                      std::size_t node_count,
                      std::vector<std::uint8_t>& selected) {
  enum : std::uint8_t { kOther, kNeighbor, kUncovered, kCovered };
  // Per-call scratch is per thread, not per daemon (see
  // compute_olsr_routes).
  thread_local std::vector<std::uint8_t> state;
  thread_local std::vector<std::uint32_t> coverers;
  state.assign(node_count, kOther);
  coverers.assign(node_count, 0);
  for (const auto& n : neighbors) state[n.id] = kNeighbor;

  // Two-hop nodes strictly two hops away, and how many neighbors reach each.
  // Only these ever leave kOther, so later passes need not test for self.
  std::size_t uncovered = 0;
  for (const auto& n : neighbors) {
    for (const OlsrNodeId t : n.two_hop) {
      if (t == self || state[t] == kNeighbor) continue;
      if (state[t] == kOther) {
        state[t] = kUncovered;
        ++uncovered;
      }
      ++coverers[t];
    }
  }
  const auto cover = [&](const OlsrMprCandidate& n) {
    for (const OlsrNodeId t : n.two_hop) {
      if (state[t] == kUncovered) {
        state[t] = kCovered;
        --uncovered;
      }
    }
  };

  // First: neighbors that are the only path to some two-hop node.
  selected.assign(neighbors.size(), 0);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (const OlsrNodeId t : neighbors[i].two_hop) {
      if (state[t] == kUncovered && coverers[t] == 1) {
        selected[i] = 1;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (selected[i] != 0) cover(neighbors[i]);
  }
  // Greedy: repeatedly pick the neighbor covering the most remaining.
  while (uncovered > 0) {
    std::size_t best = 0;
    std::size_t best_cover = 0;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (selected[i] != 0) continue;
      std::size_t c = 0;
      for (const OlsrNodeId t : neighbors[i].two_hop) {
        if (state[t] == kUncovered) ++c;
      }
      if (c > best_cover) {
        best_cover = c;
        best = i;
      }
    }
    if (best_cover == 0) break;  // leftover two-hop nodes are unreachable
    selected[best] = 1;
    cover(neighbors[best]);
  }
}

void Olsr::select_mprs() {
  // The selection is a pure function of the symmetric neighbor set and
  // their two-hop lists; unless one of those changed (dirty) or a
  // symmetric neighbor lapsed since the last run, it would reproduce mprs_.
  const TimePoint t = now();
  if (!mprs_dirty_ && t < mprs_next_expiry_) return;
  mprs_dirty_ = false;

  thread_local std::vector<std::pair<net::Address, const LinkInfo*>> sym;
  thread_local std::vector<OlsrMprCandidate> candidates;
  thread_local std::vector<std::uint8_t> selected;
  TimePoint next_expiry = TimePoint::max();
  sym.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= t) continue;
    sym.emplace_back(addr, &link);
    next_expiry = std::min(next_expiry, link.sym_until);
  }
  mprs_next_expiry_ = next_expiry;
  std::sort(sym.begin(), sym.end());  // ascending address: the tie-break
  candidates.clear();
  for (const auto& [addr, link] : sym) {
    candidates.push_back({link->id, link->two_hop});
  }
  select_olsr_mprs(intern(self()), candidates, addresses_.size(), selected);

  // `sym` is in address order, so the selection comes out sorted.
  auto it = mprs_.begin();
  bool same = true;
  for (std::size_t i = 0; i < sym.size() && same; ++i) {
    if (selected[i] == 0) continue;
    same = it != mprs_.end() && *it == sym[i].first;
    if (same) ++it;
  }
  if (same && it == mprs_.end()) return;
  mprs_.clear();
  for (std::size_t i = 0; i < sym.size(); ++i) {
    if (selected[i] != 0) mprs_.insert(mprs_.end(), sym[i].first);
  }
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
      it = links_.erase(it);
      changed = true;
      mprs_dirty_ = true;
    } else {
      ++it;
    }
  }
  // Nothing in the topology set can have expired before its earliest
  // expiry; only then is the sweep worth its O(E) pass.
  if (t >= topology_min_expiry_ && compact_topology(t) > 0) changed = true;
  duplicates_.expire(t);
  if (changed) {
    select_mprs();
    schedule_route_calc();
  }
}

}  // namespace siphoc::routing
