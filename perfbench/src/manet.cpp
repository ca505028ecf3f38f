// The two simulated workloads: olsr-city (large fixed OLSR networks on the
// sharded kernel) and aodv-mobile-voice (a mobile AODV network on the
// sequential kernel with rounds of always-on calls).
//
// One run of a topology ("rep") executes the closed-loop script on it:
// build the testbed, settle, register every phone, place the calls, talk,
// hang up. Topology k of a run is seeded from (seed, k), so every run of it
// simulates the same content; only host time differs, and the run reports
// host medians per topology. Several topologies average out how much work
// one random placement happens to cost. The virtual-time outputs of each
// rep feed a digest, and a rep whose digest differs from the first rep of
// its topology fails the run.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace siphoc;

struct ManetSpec {
  const char* name;
  std::size_t topologies;   // independent placements, one pass
  std::size_t nodes;
  RoutingKind routing;
  std::uint32_t regions;    // 0 = sequential kernel
  unsigned threads;         // simulation worker threads
  bool mobile;
  std::size_t pairs;
  int rounds;               // call every pair, talk, hang up
  Duration settle;
  Duration spread;          // after registration: bindings propagate
  Duration talk;
  Duration drain;           // after hanging up: BYE transactions finish
  Duration call_wait;       // a call not established by then failed
  bool always_on_voice;
  bool corner_pairs;        // pick pairs on opposite corners of the area
};

// Eight placements of 300 fixed OLSR nodes at constant density on 8 region
// lanes, 8 corner-to-corner pairs each: OLSR convergence during the settle
// dominates. The script is short (about 5 host s per placement) so that a
// run covers many placements: one placement's cost moves by about 7 % from
// the next, eight of them average that out. 2 rounds of short calls give
// 128 call attempts per pass, enough for a p90 with ten samples beyond it. A
// call set up within 2 s succeeds (they take about 40 ms); the short wait
// keeps a failed call from adding seconds of simulated OLSR traffic.
const ManetSpec kOlsrCity{"olsr-city", 8, 300, RoutingKind::kOlsr, 8, 2, false,
                          8, 2, seconds(15), seconds(5), seconds(1), seconds(1),
                          seconds(2), false, true};

// 100 random-waypoint nodes, AODV, one lane, 20 pairs of always-on G.711,
// 5 rounds: reactive discovery, SIP transactions and RTP unicast dominate.
const ManetSpec kAodvMobileVoice{"aodv-mobile-voice", 1, 100, RoutingKind::kAodv,
                                 0, 1, true, 20, 5, seconds(5), seconds(2),
                                 seconds(20), seconds(2), seconds(15), true, false};

constexpr std::size_t kSetupsPerRep = 4;  // setup is cheap; many samples steady its median
constexpr Duration kRegisterWait = seconds(10);

std::int64_t virt_us(scenario::Testbed& bed) {
  return bed.sim().now().time_since_epoch().count();
}

/// Layer counters readable between run calls through public stats.
std::map<std::string, double> layer_counts(scenario::Testbed& bed) {
  std::map<std::string, double> c;
  auto& sim = bed.sim();
  c["sim.events"] = static_cast<double>(sim.events_executed());
  c["sim.windows"] = static_cast<double>(sim.windows_run());
  c["sim.windows_serialized"] = static_cast<double>(sim.windows_serialized());

  const net::MediumStats& m = bed.medium().stats();
  const auto frames = [&m](net::TrafficClass k) {
    const auto it = m.by_class.find(k);
    return it == m.by_class.end() ? 0.0 : static_cast<double>(it->second.frames);
  };
  c["net.frames_sent"] = static_cast<double>(m.frames_sent);
  c["net.frames_delivered"] = static_cast<double>(m.frames_delivered);
  c["net.frames_lost"] = static_cast<double>(m.frames_lost);
  c["net.unicast_unreachable"] = static_cast<double>(m.unicast_unreachable);
  c["net.routing_frames"] = frames(net::TrafficClass::kRouting);
  c["net.sip_frames"] = frames(net::TrafficClass::kSip);
  c["net.rtp_frames"] = frames(net::TrafficClass::kRtp);

  double packets = 0, bytes = 0, piggyback = 0, discoveries = 0, failures = 0;
  double lookups = 0, local = 0, remote = 0, misses = 0;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    if (!bed.node_alive(i)) continue;
    const routing::RoutingStats& r = bed.stack(i).routing().stats();
    packets += static_cast<double>(r.control_packets_sent);
    bytes += static_cast<double>(r.control_bytes_sent);
    piggyback += static_cast<double>(r.extension_bytes_sent);
    discoveries += static_cast<double>(r.route_discoveries);
    failures += static_cast<double>(r.discovery_failures);
    const auto& s = bed.stack(i).slp().stats();
    lookups += static_cast<double>(s.lookups);
    local += static_cast<double>(s.hits_local);
    remote += static_cast<double>(s.hits_remote);
    misses += static_cast<double>(s.misses);
  }
  c["routing.control_packets"] = packets;
  c["routing.control_bytes"] = bytes;
  c["routing.piggyback_bytes"] = piggyback;
  c["routing.route_discoveries"] = discoveries;
  c["routing.discovery_failures"] = failures;
  c["slp.lookups"] = lookups;
  c["slp.hits_local"] = local;
  c["slp.hits_remote"] = remote;
  c["slp.misses"] = misses;
  return c;
}

/// Caller/callee nodes for `pairs` corner-to-corner pairs: even pairs span
/// the x+y diagonal, odd pairs the x-y diagonal, each pair one rank further
/// in from its corners. Only nodes of the largest connected component of
/// the (fixed) unit-disk graph are used, so a failed call is a protocol
/// outcome, not a partition.
std::vector<std::pair<std::size_t, std::size_t>> corner_pairs(
    scenario::Testbed& bed, double range, std::size_t pairs) {
  const std::size_t n = bed.size();
  std::vector<net::Position> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = bed.host(i).position();
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> best;
  for (std::size_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    std::vector<std::size_t> members{root};
    seen[root] = true;
    for (std::size_t k = 0; k < members.size(); ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!seen[j] && net::distance(pos[members[k]], pos[j]) <= range) {
          seen[j] = true;
          members.push_back(j);
        }
      }
    }
    if (members.size() > best.size()) best = std::move(members);
  }
  const auto sorted_by = [&](double sign) {
    std::vector<std::size_t> order = best;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double ka = pos[a].x + sign * pos[a].y, kb = pos[b].x + sign * pos[b].y;
      return ka != kb ? ka < kb : a < b;
    });
    return order;
  };
  const std::vector<std::size_t> diagonals[2] = {sorted_by(1.0), sorted_by(-1.0)};
  std::vector<bool> used(n, false);
  std::vector<std::pair<std::size_t, std::size_t>> result;
  std::size_t rank[2][2] = {{0, 0}, {0, 0}};  // [diagonal][low end, high end]
  const auto take = [&](const std::vector<std::size_t>& order, std::size_t& r,
                        bool from_high) {
    for (;; ++r) {
      const std::size_t node = order[from_high ? order.size() - 1 - r : r];
      if (!used[node]) {
        used[node] = true;
        return node;
      }
    }
  };
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t d = p % 2;
    const std::size_t caller = take(diagonals[d], rank[d][0], false);
    result.emplace_back(caller, take(diagonals[d], rank[d][1], true));
  }
  return result;
}

struct Rep {
  std::vector<double> setup_s;  // one per topology
  double wall_s = 0;            // host seconds after setup
  std::map<std::string, double> phase_s;       // host seconds per phase
  std::map<std::string, double> phase_events;  // events per phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> call_setup_ms;           // established calls, virtual
  std::vector<rtp::Session::Report> reports;   // both ends of each call
  std::map<std::string, double> counts;        // end-of-run layer counts
  std::vector<std::string> check_failures;
  std::string digest_text;
};

/// Folds one topology's outcome into a pass over all of them: times and
/// counts add up, samples and failures concatenate.
void merge(Rep& into, Rep&& part) {
  into.setup_s.insert(into.setup_s.end(), part.setup_s.begin(), part.setup_s.end());
  into.wall_s += part.wall_s;
  for (const auto& [k, v] : part.phase_s) into.phase_s[k] += v;
  for (const auto& [k, v] : part.phase_events) into.phase_events[k] += v;
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.call_setup_ms.insert(into.call_setup_ms.end(), part.call_setup_ms.begin(),
                            part.call_setup_ms.end());
  into.reports.insert(into.reports.end(), part.reports.begin(), part.reports.end());
  for (const auto& [k, v] : part.counts) into.counts[k] += v;
  for (auto& failure : part.check_failures) {
    into.check_failures.push_back(std::move(failure));
  }
  into.digest_text += part.digest_text;
}

/// Times one scripted phase: host seconds and events go to the rep; a
/// traced rep also gets a phase span and a layer-count snapshot.
class Phases {
 public:
  Phases(scenario::Testbed& bed, Rep& rep, Tracer* tracer, std::uint64_t parent)
      : bed_(bed), rep_(rep), tracer_(tracer), parent_(parent) {}

  template <typename Body>
  void run(const std::string& phase, Body&& body) {
    ScopedSpan span(tracer_, phase, parent_, 0, virt_us(bed_));
    const auto events0 = bed_.sim().events_executed();
    const double t0 = host_s();
    body(span.id());
    rep_.phase_s[phase] += host_s() - t0;
    rep_.phase_events[phase] +=
        static_cast<double>(bed_.sim().events_executed() - events0);
    const std::uint64_t id = span.id();
    span.close(virt_us(bed_));
    if (tracer_ != nullptr) tracer_->snapshot(id, phase, layer_counts(bed_));
  }

 private:
  scenario::Testbed& bed_;
  Rep& rep_;
  Tracer* tracer_;
  std::uint64_t parent_;
};

void append(std::string& text, const char* format, auto... args) {
  char line[160];
  std::snprintf(line, sizeof line, format, args...);
  text += line;
}

/// The closed-loop script on one topology (or only its setup).
Rep run_topology(const ManetSpec& spec, const RunOptions& options,
                 std::size_t topology, Tracer* tracer, std::uint64_t parent,
                 bool setup_only) {
  // Every topology starts from a trimmed heap, so its set-up pays the same
  // page faults however many topologies ran before it, and the peak RSS is
  // that of the largest topology, not of the fragments earlier ones left.
  malloc_trim(0);
  Rep rep;
  ScopedSpan rep_span(tracer, "topology", parent);
  SimContext context;
  scenario::Options o;
  o.context = &context;
  o.seed = options.seed * spec.topologies + topology;
  o.nodes = spec.nodes;
  o.topology = scenario::Topology::kRandomArea;
  o.area = 75.0 * std::sqrt(static_cast<double>(spec.nodes));
  o.routing = spec.routing;
  o.sim_regions = spec.regions;
  o.sim_threads = options.sim_threads > 0 ? options.sim_threads : spec.threads;
  o.mobile = spec.mobile;
  o.waypoint.width = o.area;
  o.waypoint.height = o.area;
  o.waypoint.min_speed = 0.5;
  o.waypoint.max_speed = 2.0;

  // Per-pair call state written by phone callbacks; declared before the
  // testbed so it outlives the phones holding those callbacks.
  std::vector<sip::CallId> incoming(spec.pairs, 0);
  std::vector<TimePoint> established_at(spec.pairs);
  double duplicates = 0;

  // --- setup: testbed, stacks, phones ------------------------------------
  const double setup_start = host_s();
  ScopedSpan setup_span(tracer, "setup", rep_span.id());
  scenario::Testbed bed(o);
  bed.start();

  std::vector<std::pair<std::size_t, std::size_t>> nodes;
  if (spec.corner_pairs) {
    nodes = corner_pairs(bed, o.radio.range, spec.pairs);
  } else {
    for (std::size_t p = 0; p < spec.pairs; ++p) {
      nodes.emplace_back(p, spec.nodes - 1 - p);
    }
  }
  std::vector<voip::SoftPhone*> callers, callees;
  std::vector<std::size_t> caller_nodes;
  for (std::size_t p = 0; p < spec.pairs; ++p) {
    voip::SoftPhoneConfig pc;
    pc.domain = "voicehoc.ch";
    pc.answer_delay = Duration::zero();
    pc.voice.always_on = spec.always_on_voice;
    pc.username = "caller" + std::to_string(p);
    caller_nodes.push_back(nodes[p].first);
    voip::SoftPhone& caller = bed.add_phone(nodes[p].first, pc);
    // Call setup ends at the caller's established event, at the virtual
    // time it fires (call_and_wait itself polls in 1 ms steps).
    voip::SoftPhoneEvents caller_events = caller.events();
    caller_events.on_established = [&established_at, &bed, p](sip::CallId) {
      established_at[p] = bed.sim().now();
    };
    caller.set_events(std::move(caller_events));
    callers.push_back(&caller);
    pc.username = "callee" + std::to_string(p);
    voip::SoftPhone& callee = bed.add_phone(nodes[p].second, pc);
    voip::SoftPhoneEvents events = callee.events();
    // The callee leg of a call is the first incoming call of its dial. A
    // late INVITE retransmission (after the 2xx ended the server
    // transaction) reaches the phone as a second incoming call; that leg
    // is counted, not checked.
    events.on_incoming = [&incoming, &duplicates, p](sip::CallId id,
                                                     const sip::Uri&) {
      if (incoming[p] == 0) {
        incoming[p] = id;
      } else {
        ++duplicates;
      }
    };
    callee.set_events(std::move(events));
    callees.push_back(&callee);
  }
  setup_span.close();
  rep.setup_s.push_back(host_s() - setup_start);
  if (setup_only) return rep;

  // --- the closed-loop script --------------------------------------------
  const double run_start = host_s();
  Phases phases(bed, rep, tracer, rep_span.id());
  phases.run("settle", [&](std::uint64_t parent) {
    ScopedSpan s(tracer, "run_for", parent, 0, virt_us(bed));
    bed.settle(spec.settle);
    s.close(virt_us(bed));
  });
  phases.run("register", [&](std::uint64_t parent) {
    for (std::size_t p = 0; p < spec.pairs; ++p) {
      for (voip::SoftPhone* phone : {callers[p], callees[p]}) {
        ScopedSpan s(tracer, "register_and_wait", parent, 0, virt_us(bed));
        const bool ok = bed.register_and_wait(*phone, kRegisterWait);
        s.close(virt_us(bed));
        ++rep.attempted;
        if (!ok) ++rep.failed;
        append(rep.digest_text, "register %s %d\n",
               phone->config().username.c_str(), ok ? 1 : 0);
      }
    }
    ScopedSpan s(tracer, "run_for", parent, 0, virt_us(bed));
    bed.run_for(spec.spread);
    s.close(virt_us(bed));
  });

  std::uint64_t next_call_id = topology * 1000 + 1;
  for (int round = 0; round < spec.rounds; ++round) {
    struct Live {
      std::size_t pair;
      sip::CallId caller_call;
      sip::CallId callee_call;
      std::uint64_t trace_call;
    };
    std::vector<Live> live;
    phases.run("call", [&](std::uint64_t parent) {
      for (std::size_t p = 0; p < spec.pairs; ++p) {
        incoming[p] = 0;
        const std::uint64_t trace_call = next_call_id++;
        const TimePoint dialed = bed.sim().now();
        ScopedSpan s(tracer, "call_and_wait", parent, trace_call, virt_us(bed));
        const auto call = bed.call_and_wait(
            *callers[p], "callee" + std::to_string(p) + "@voicehoc.ch", spec.call_wait);
        s.close(virt_us(bed));
        ++rep.attempted;
        const Duration setup = call.established ? established_at[p] - dialed
                                                : call.setup_time;
        if (call.established) {
          rep.call_setup_ms.push_back(to_millis(setup));
          live.push_back({p, call.call, incoming[p], trace_call});
        } else {
          ++rep.failed;
        }
        append(rep.digest_text, "call %d %zu %d %lld\n", round, p,
               call.established ? 1 : call.failure_status,
               static_cast<long long>(setup.count()));
      }
    });
    phases.run("talk", [&](std::uint64_t parent) {
      {
        ScopedSpan s(tracer, "run_for", parent, 0, virt_us(bed));
        bed.run_for(spec.talk);
        s.close(virt_us(bed));
      }
      for (const Live& call : live) {
        ScopedSpan s(tracer, "hang_up", parent, call.trace_call, virt_us(bed));
        SimContext::Bind bind(bed.ctx());
        sim::Simulator::LaneScope lane(bed.sim(), bed.node_lane(caller_nodes[call.pair]));
        callers[call.pair]->hang_up(call.caller_call);
        s.close(virt_us(bed));
      }
      ScopedSpan s(tracer, "run_for", parent, 0, virt_us(bed));
      bed.run_for(spec.drain);
      s.close(virt_us(bed));
    });
    // Output check: every established call carried RTP to both phones.
    for (const Live& call : live) {
      const auto a = callers[call.pair]->call_report(call.caller_call);
      const auto b = callees[call.pair]->call_report(call.callee_call);
      if (!a || !b || a->packets_received == 0 || b->packets_received == 0) {
        const auto flow = [](const auto& from, const auto& to) {
          return std::to_string(from ? from->packets_sent : 0) + " sent, " +
                 std::to_string(to ? to->packets_received : 0) + " received";
        };
        rep.check_failures.push_back(
            std::string(spec.name) + ": round " + std::to_string(round) +
            " pair " + std::to_string(call.pair) +
            " established without RTP both ways (caller->callee " + flow(a, b) +
            "; callee->caller " + flow(b, a) + ")");
        ++rep.failed;
        continue;
      }
      for (const auto& r : {*a, *b}) {
        rep.reports.push_back(r);
        append(rep.digest_text, "media %d %zu %llu %.17g\n", round, call.pair,
               static_cast<unsigned long long>(r.packets_received), r.quality.mos);
      }
    }
  }
  rep.wall_s = host_s() - run_start;

  bed.finalize_metrics();  // lane registries merge exactly once
  rep.counts = layer_counts(bed);
  const MetricsRegistry& registry = bed.ctx().metrics();
  for (const char* name : {"sip.retransmits_total", "sip.tx_timeouts_total",
                           "rtp.packets_tx_total", "proxy.slp_hits_total",
                           "proxy.slp_lookups_total"}) {
    rep.counts[name] = static_cast<double>(registry.counter_total(name));
  }
  rep.counts["sip.duplicate_incoming_calls"] = duplicates;
  append(rep.digest_text, "topology %zu events %.17g frames %.17g duplicates %.17g\n",
         topology,
         rep.counts["sim.events"], rep.counts["net.frames_sent"], duplicates);
  if (tracer != nullptr) tracer->snapshot(rep_span.id(), "end", rep.counts);
  return rep;
}

RunResult run_manet(const ManetSpec& spec, const RunOptions& options) {
  // The run cycles through the workload's topologies, one script at a
  // time, until its seconds are used up; it finishes at least one pass over
  // all of them (two in a traced run). Stopping between topologies rather
  // than between passes keeps the run close to its seconds. A traced run
  // alternates traced and untraced passes, so the tracing overhead is
  // measured on the same content in the same process.
  const std::size_t topologies = spec.topologies;
  const std::size_t min_runs = topologies * (options.tracer != nullptr ? 2 : 1);
  std::vector<std::vector<Rep>> runs(topologies);  // every run of topology k
  std::vector<std::vector<double>> traced_walls(topologies), plain_walls(topologies);
  std::vector<double> setups;
  RunResult result;
  const double start = host_s();
  for (std::size_t i = 0; i < min_runs || host_s() - start < options.seconds; ++i) {
    const std::size_t k = i % topologies;
    const bool traced = options.tracer != nullptr && (i / topologies) % 2 == 0;
    Rep rep = run_topology(spec, options, k, traced ? options.tracer : nullptr, 0,
                           false);
    (traced ? traced_walls : plain_walls)[k].push_back(rep.wall_s);
    result.attempted += rep.attempted;
    result.failed += rep.failed;
    // Runs with the first run's digest repeat its check failures too.
    if (!runs[k].empty() && rep.digest_text != runs[k].front().digest_text) {
      result.check_failures.push_back(
          std::string(spec.name) + ": run " + std::to_string(runs[k].size()) +
          " of topology " + std::to_string(k) +
          " simulated different content than its first run");
    }
    runs[k].push_back(std::move(rep));
    // Set-up is timed on its own, a few samples after every script, so the
    // samples spread over the whole run: each builds a testbed right after
    // the previous one was torn down.
    for (std::size_t j = 0; j < kSetupsPerRep; ++j) {
      setups.push_back(run_topology(spec, options, k, nullptr, 0, true).setup_s.front());
    }
  }

  // Host times are reported per topology: the median over the runs of each
  // topology, averaged over the topologies, so every topology weighs the
  // same however many times the run reached it.
  const auto per_topology = [&](auto&& seconds_of) {
    double sum = 0;
    for (const std::vector<Rep>& of_k : runs) {
      std::vector<double> xs;
      for (const Rep& rep : of_k) xs.push_back(seconds_of(rep));
      sum += median(xs);
    }
    return sum / static_cast<double>(topologies);
  };

  // The first pass, topology by topology, carries the virtual-time outputs.
  Rep first;
  for (std::vector<Rep>& of_k : runs) merge(first, Rep(of_k.front()));
  result.check_failures.insert(result.check_failures.begin(),
                               first.check_failures.begin(),
                               first.check_failures.end());
  std::vector<double> setup_ms = first.call_setup_ms;
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setups), "s"};
  e2e["wall_s"] = {per_topology([](const Rep& rep) { return rep.wall_s; }), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["success_ratio"] = {1.0 - ratio(static_cast<double>(result.failed),
                                      static_cast<double>(result.attempted)),
                          "ratio"};
  e2e["latency_p50_ms"] = {percentile(setup_ms, 0.50), "ms"};
  e2e["latency_p90_ms"] = {percentile(setup_ms, 0.90), "ms"};

  const auto& c = first.counts;
  const auto count = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto phase_median = [&](const char* phase) {
    return per_topology([phase](const Rep& rep) { return rep.phase_s.at(phase); });
  };
  const auto ns_per_event = [&](const char* phase) {
    return ratio(phase_median(phase) * 1e9,
                 first.phase_events.at(phase) / static_cast<double>(topologies));
  };
  std::vector<double> loss, delay, jitter, mos;
  for (const auto& r : first.reports) {
    loss.push_back(r.effective_loss_percent);
    delay.push_back(r.mean_delay_ms);
    jitter.push_back(r.jitter_ms);
    mos.push_back(r.quality.mos);
  }
  auto& layer = result.per_layer;
  layer["scenario.settle_s"] = {phase_median("settle"), "s"};
  layer["scenario.register_s"] = {phase_median("register"), "s"};
  layer["scenario.call_s"] = {phase_median("call"), "s"};
  layer["scenario.talk_s"] = {phase_median("talk"), "s"};
  layer["sim.ns_per_event.settle"] = {ns_per_event("settle"), "ns"};
  layer["sim.ns_per_event.talk"] = {ns_per_event("talk"), "ns"};
  layer["sim.events"] = {count("sim.events"), "count"};
  layer["sim.windows"] = {count("sim.windows"), "count"};
  layer["sim.windows_serialized_ratio"] = {
      ratio(count("sim.windows_serialized"), count("sim.windows")), "ratio"};
  layer["net.frames_sent"] = {count("net.frames_sent"), "count"};
  layer["net.deliveries_per_frame"] = {
      ratio(count("net.frames_delivered"), count("net.frames_sent")), "ratio"};
  layer["net.routing_frames"] = {count("net.routing_frames"), "count"};
  layer["net.sip_frames"] = {count("net.sip_frames"), "count"};
  layer["net.rtp_frames"] = {count("net.rtp_frames"), "count"};
  layer["net.frames_lost"] = {count("net.frames_lost"), "count"};
  layer["net.unicast_unreachable"] = {count("net.unicast_unreachable"), "count"};
  layer["routing.control_packets"] = {count("routing.control_packets"), "count"};
  layer["routing.control_bytes"] = {count("routing.control_bytes"), "bytes"};
  layer["routing.piggyback_bytes"] = {count("routing.piggyback_bytes"), "bytes"};
  layer["routing.route_discoveries"] = {count("routing.route_discoveries"), "count"};
  layer["routing.discovery_failure_ratio"] = {
      ratio(count("routing.discovery_failures"), count("routing.route_discoveries")),
      "ratio"};
  layer["slp.lookups"] = {count("slp.lookups"), "count"};
  layer["slp.local_hit_ratio"] = {ratio(count("slp.hits_local"), count("slp.lookups")),
                                  "ratio"};
  layer["slp.misses"] = {count("slp.misses"), "count"};
  layer["siphoc.slp_hit_ratio"] = {
      ratio(count("proxy.slp_hits_total"), count("proxy.slp_lookups_total")), "ratio"};
  layer["sip.retransmits"] = {count("sip.retransmits_total"), "count"};
  layer["sip.tx_timeouts"] = {count("sip.tx_timeouts_total"), "count"};
  layer["sip.duplicate_incoming_calls"] = {count("sip.duplicate_incoming_calls"),
                                           "count"};
  layer["rtp.packets_tx"] = {count("rtp.packets_tx_total"), "count"};
  layer["rtp.effective_loss_pct"] = {mean(loss), "%"};
  layer["rtp.mean_delay_ms"] = {mean(delay), "ms"};
  layer["rtp.jitter_ms"] = {mean(jitter), "ms"};
  layer["rtp.voice_mos"] = {mean(mos), "MOS"};
  if (options.tracer != nullptr) {
    double traced = 0, plain = 0;
    for (std::size_t k = 0; k < topologies; ++k) {
      traced += median(traced_walls[k]);
      plain += median(plain_walls[k]);
    }
    layer["bench.trace_overhead_ratio"] = {ratio(traced, plain), "ratio"};
  }

  result.digest_text = first.digest_text;
  return result;
}

}  // namespace

RunResult run_olsr_city(const RunOptions& options) {
  return run_manet(kOlsrCity, options);
}

RunResult run_aodv_mobile_voice(const RunOptions& options) {
  return run_manet(kAodvMobileVoice, options);
}

}  // namespace perfbench
