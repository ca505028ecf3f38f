// Experiment E11: production registrar store -- the sharded store vs the
// single-map reference model, and registrar vs P2P (Chord-lite)
// resolution.
//
// Three parts:
//
//  A. Store kernel (wall clock): preload 1M bindings (50k under --quick)
//     into the sharded store and into the std::map reference model
//     (tests/reference/single_map_store.hpp, the seed's store), then drive
//     a mixed workload (90% lookup, 10% REGISTER refresh) and report
//     registrations/sec, lookups/sec and p50/p99 lookup latency. A third
//     row runs the sharded store's lookups from 4 concurrent reader
//     threads, which share each shard's reader-writer lock. The bench
//     self-asserts that the sharded store beats the single map on both
//     lookups/sec and p99 latency and exits non-zero otherwise -- except
//     under ThreadSanitizer, where instrumented wall time says nothing
//     and the comparison is printed for information only.
//
//  B. Resolution path (virtual time): a MANET caller behind a gateway
//     dials internet-side callees registered at the provider, once with
//     the provider on the sharded registrar store and once resolving
//     through a Chord-lite ring (Testbed ProviderOptions). Setup delay is
//     measured in virtual ms, so the rows are wall-clock independent; each
//     configuration runs at --sim-threads 1 and 2 and the bench exits
//     non-zero if any column (or the merged metrics registry) differs.
//
//  C. Churn (experiment E12, virtual time): a standalone live ring under
//     crash/cold-restart churn at 0 / 2 / 6 / 12 membership events per
//     virtual minute, with a steady lookup load from a stable member.
//     Reports lookup success rate and mean hop count per churn rate; the
//     zero-churn row must stay at 100% success.
#include <algorithm>
#include <cstring>
#include <thread>

#include "bench_table.hpp"
#include "common/random.hpp"
#include "net/internet.hpp"
#include "reference/single_map_store.hpp"
#include "scenario/scenario.hpp"
#include "sip/p2p_resolver.hpp"
#include "sip/registrar_store.hpp"
#include "sip/user_agent.hpp"

using namespace siphoc;

namespace {

/// True in ThreadSanitizer builds (GCC defines __SANITIZE_THREAD__, Clang
/// exposes __has_feature(thread_sanitizer)).
#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

// ---------------------------------------------------------------------------
// Part A: store kernel
// ---------------------------------------------------------------------------

struct StoreRow {
  std::string label;
  double preload_per_s = 0;   // registrations/sec while filling the store
  double refresh_per_s = 0;   // refresh upserts/sec in the mixed phase
  double lookups_per_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double threads = 1;
};

std::string key_of(std::size_t i) {
  return "user" + std::to_string(i) + "@voicehoc.ch";
}

sip::Uri contact_of(std::size_t i) {
  return sip::Uri::from_endpoint(
      {net::Address(10, static_cast<std::uint32_t>((i >> 16) & 0xff),
                    static_cast<std::uint32_t>((i >> 8) & 0xff),
                    static_cast<std::uint32_t>(i & 0xff)),
       5060},
      "u");
}

double percentile(std::vector<double>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ns.size() - 1));
  return sorted_ns[idx];
}

/// Preload + mixed workload against one backend. Key choice uses a fixed
/// LCG so every backend sees the identical op stream.
StoreRow run_store(sip::BindingStore& store, const std::string& label,
                   std::size_t bindings, std::size_t ops) {
  const TimePoint expiry = TimePoint{} + hours(1);
  StoreRow row;
  row.label = label;

  {
    const bench::WallTimer wall;
    for (std::size_t i = 0; i < bindings; ++i) {
      store.upsert(key_of(i), contact_of(i), expiry);
    }
    row.preload_per_s =
        static_cast<double>(bindings) / (wall.elapsed_ms() / 1000.0);
  }

  std::vector<double> lookup_ns;
  lookup_ns.reserve(ops);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::size_t refreshes = 0, hits = 0;
  const bench::WallTimer wall;
  double refresh_ms = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t i = static_cast<std::size_t>(x >> 33) % bindings;
    if (op % 10 == 0) {
      const bench::WallTimer t;
      store.upsert(key_of(i), contact_of(i), expiry + seconds(op % 600));
      refresh_ms += t.elapsed_ms();
      ++refreshes;
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      const auto found = store.lookup(key_of(i), TimePoint{});
      const auto t1 = std::chrono::steady_clock::now();
      lookup_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      if (found) ++hits;
    }
  }
  const double total_ms = wall.elapsed_ms();
  row.refresh_per_s =
      refresh_ms > 0 ? static_cast<double>(refreshes) / (refresh_ms / 1000.0)
                     : 0;
  row.lookups_per_s = static_cast<double>(lookup_ns.size()) /
                      ((total_ms - refresh_ms) / 1000.0);
  std::sort(lookup_ns.begin(), lookup_ns.end());
  row.p50_ns = percentile(lookup_ns, 0.50);
  row.p99_ns = percentile(lookup_ns, 0.99);
  if (hits != lookup_ns.size()) {
    std::fprintf(stderr, "!! %s: %zu/%zu lookups missed preloaded keys\n",
                 label.c_str(), lookup_ns.size() - hits, lookup_ns.size());
  }
  return row;
}

/// The shared-lock read path under real concurrency: 4 reader threads over a
/// preloaded sharded store, aggregate lookups/sec (latency percentiles come
/// from the single-thread row; here the axis is scaling).
StoreRow run_sharded_parallel(sip::ShardedBindingStore& store,
                              std::size_t bindings, std::size_t ops) {
  constexpr unsigned kReaders = 4;
  StoreRow row;
  row.label = "sharded, " + std::to_string(kReaders) + " readers";
  row.threads = kReaders;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> total{0};
  const bench::WallTimer wall;
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + t;
      std::uint64_t done = 0;
      for (std::size_t op = 0; op < ops / kReaders; ++op) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t i = static_cast<std::size_t>(x >> 33) % bindings;
        if (store.lookup(key_of(i), TimePoint{})) ++done;
      }
      total.fetch_add(done);
    });
  }
  for (auto& t : threads) t.join();
  row.lookups_per_s =
      static_cast<double>(total.load()) / (wall.elapsed_ms() / 1000.0);
  return row;
}

void print_store_row(const StoreRow& r) {
  std::printf("%-22s | %10.0f %10.0f %12.0f | %8.0f %8.0f\n", r.label.c_str(),
              r.preload_per_s, r.refresh_per_s, r.lookups_per_s, r.p50_ns,
              r.p99_ns);
}

// ---------------------------------------------------------------------------
// Part B: resolution path (virtual time)
// ---------------------------------------------------------------------------

struct CallRow {
  int calls_ok = 0;
  int calls = 0;
  double setup_ms = 0;   // virtual time, INVITE -> established
  double events = 0;
  std::string metrics;   // registry snapshot for the identity check
};

CallRow run_calls(scenario::Testbed::Resolution resolution,
                  unsigned sim_threads, bool quick, std::uint64_t seed) {
  SimContext context;
  scenario::Options options;
  options.context = &context;
  options.seed = seed;
  options.nodes = quick ? 3 : 6;
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;
  options.routing = RoutingKind::kAodv;
  options.sim_regions = 4;
  options.sim_threads = sim_threads;

  scenario::Testbed bed(options);
  scenario::Testbed::ProviderOptions po;
  po.resolution = resolution;
  po.p2p_nodes = quick ? 3 : 6;
  auto& provider = bed.add_provider("voicehoc.ch", po);
  (void)provider;
  bed.start();
  bed.make_gateway(0);
  bed.settle(seconds(8));

  // Internet-side callees registered straight at the front door.
  const net::Endpoint front_door{*bed.internet().resolve("voicehoc.ch"), 5060};
  const int callees = quick ? 1 : 3;
  std::vector<std::unique_ptr<sip::UserAgent>> agents;
  for (int c = 0; c < callees; ++c) {
    auto& host = bed.add_internet_host("callee-" + std::to_string(c));
    sip::UserAgentConfig uc;
    uc.aor = *sip::Uri::parse("sip:callee" + std::to_string(c) +
                              "@voicehoc.ch");
    uc.outbound_proxy = front_door;
    uc.media_address = host.wired_address();
    agents.push_back(std::make_unique<sip::UserAgent>(host, uc));
    agents.back()->start_registration();
  }
  bed.run_for(seconds(3));

  // The MANET caller registers through the gateway, then dials each
  // internet callee: INVITE resolution happens provider-side, either a
  // sharded-store lookup or a ring traversal.
  voip::SoftPhoneConfig pc;
  pc.username = "alice";
  pc.domain = "voicehoc.ch";
  pc.answer_delay = Duration::zero();
  auto& alice = bed.add_phone(bed.size() - 1, pc);
  bed.register_and_wait(alice);

  CallRow row;
  row.calls = callees;
  std::vector<double> setups;
  for (int c = 0; c < callees; ++c) {
    const auto call = bed.call_and_wait(
        alice, "callee" + std::to_string(c) + "@voicehoc.ch", seconds(15));
    if (call.established) {
      ++row.calls_ok;
      setups.push_back(to_millis(call.setup_time));
    }
    bed.run_for(seconds(1));
  }
  bed.finalize_metrics();
  row.setup_ms = bench::mean(setups);
  row.events = static_cast<double>(bed.sim().events_executed());
  row.metrics = bed.ctx().metrics().to_json();
  return row;
}

bool same_run(const CallRow& a, const CallRow& b) {
  return a.calls == b.calls && a.calls_ok == b.calls_ok &&
         a.setup_ms == b.setup_ms && a.events == b.events &&
         a.metrics == b.metrics;
}

void print_call_row(const char* label, const CallRow& r) {
  std::printf("%-22s | %4d/%-4d %10.1f | %10.0f\n", label, r.calls_ok,
              r.calls, r.setup_ms, r.events);
}

// ---------------------------------------------------------------------------
// Part C: live-ring churn (experiment E12, virtual time)
// ---------------------------------------------------------------------------

struct ChurnRow {
  double rate = 0;        // membership events per virtual minute
  std::size_t lookups = 0;
  std::size_t hits = 0;
  double mean_hops = 0;   // over successful lookups
  std::size_t churn_events = 0;
};

/// A standalone live ring under crash/cold-restart churn: every churn
/// event toggles a random non-bootstrap member (alive -> hard crash,
/// down -> cold restart + join_ring through node 0) while node 0 issues a
/// lookup every 500 virtual ms across a fixed key population.
ChurnRow run_churn(double per_minute, bool quick, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Internet internet(sim, milliseconds(5));
  const std::size_t n = quick ? 5 : 8;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<sip::P2pResolver>> ring;
  std::vector<net::Endpoint> members;
  for (std::size_t i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<net::Host>(
        sim, static_cast<net::NodeId>(300 + i),
        "churn-" + std::to_string(i)));
    hosts.back()->attach_wired(internet,
                               net::Address(192, 0, 2, 100 + static_cast<int>(i)));
    ring.push_back(std::make_unique<sip::P2pResolver>(*hosts.back()));
    members.push_back(ring.back()->endpoint());
  }
  for (auto& r : ring) r->join(members);

  const std::size_t keys = quick ? 20 : 40;
  std::vector<std::string> aors;
  for (std::size_t i = 0; i < keys; ++i) {
    aors.push_back("user" + std::to_string(i) + "@churn.bench");
    ring[0]->publish(aors.back(), contact_of(i), sim.now() + hours(1));
  }
  sim.run_for(seconds(2));

  ChurnRow row;
  row.rate = per_minute;
  double hop_sum = 0;
  std::size_t hop_n = 0;
  Rng rng(seed ^ 0xc42u);
  const TimePoint end = sim.now() + (quick ? seconds(60) : seconds(120));
  const Duration churn_interval =
      per_minute > 0
          ? milliseconds(static_cast<std::int64_t>(60000.0 / per_minute))
          : Duration::zero();
  TimePoint next_churn = sim.now() + churn_interval;
  TimePoint next_lookup = sim.now();
  std::size_t aor_index = 0;
  while (sim.now() < end) {
    if (per_minute > 0 && sim.now() >= next_churn) {
      next_churn += churn_interval;
      const std::size_t victim =
          1 + rng.uniform_int(0, static_cast<std::uint32_t>(n - 2));
      if (ring[victim]) {
        ring[victim].reset();  // hard crash: port dark, replicas lost
      } else {
        ring[victim] = std::make_unique<sip::P2pResolver>(*hosts[victim]);
        ring[victim]->join_ring(ring[0]->endpoint());
      }
      ++row.churn_events;
    }
    if (sim.now() >= next_lookup) {
      next_lookup += milliseconds(500);
      ++row.lookups;
      ring[0]->resolve(aors[aor_index++ % aors.size()],
                       [&row, &hop_sum, &hop_n](
                           std::optional<sip::ContactBinding> b, int hops) {
                         if (!b) return;
                         ++row.hits;
                         if (hops >= 0) {
                           hop_sum += hops;
                           ++hop_n;
                         }
                       });
    }
    sim.run_for(milliseconds(100));
  }
  sim.run_for(seconds(3));  // drain in-flight lookups
  row.mean_hops = hop_n > 0 ? hop_sum / static_cast<double>(hop_n) : 0;
  return row;
}

void print_churn_row(const ChurnRow& r) {
  std::printf("%8.0f | %4zu/%-4zu %7.1f%% | %9.2f | %6zu\n", r.rate, r.hits,
              r.lookups,
              100.0 * static_cast<double>(r.hits) /
                  static_cast<double>(r.lookups == 0 ? 1 : r.lookups),
              r.mean_hops, r.churn_events);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t bindings = args.quick ? 50'000 : 1'000'000;
  const std::size_t ops = args.quick ? 100'000 : 1'000'000;
  const unsigned sim_threads = args.sim_threads > 1 ? args.sim_threads : 2;

  bench::print_header(
      "E11: registrar store -- sharded vs single-map reference vs P2P",
      "Part A preloads the stores and drives a 90/10 lookup/refresh mix\n"
      "(wall clock; latency per lookup). Part B measures call-setup delay\n"
      "in virtual ms with provider-side resolution on the sharded store\n"
      "vs a Chord-lite ring, byte-identical across --sim-threads.");

  std::printf("store kernel: %zu bindings, %zu mixed ops\n\n", bindings, ops);
  std::printf("%-22s | %10s %10s %12s | %8s %8s\n", "backend", "preload/s",
              "refresh/s", "lookups/s", "p50 ns", "p99 ns");
  std::printf("-----------------------+-------------------------------------+"
              "------------------\n");

  bench::JsonReport report("bench_registrar");
  auto add_store_row = [&](const std::string& label, const StoreRow& r) {
    report.add_row("store/" + label,
                   {{"bindings", static_cast<double>(bindings)},
                    {"ops", static_cast<double>(ops)},
                    {"threads", r.threads},
                    {"preload_per_s", r.preload_per_s},
                    {"refresh_per_s", r.refresh_per_s},
                    {"lookups_per_s", r.lookups_per_s},
                    {"p50_ns", r.p50_ns},
                    {"p99_ns", r.p99_ns}});
  };

  StoreRow single;
  {
    sip::SingleMapStore store;
    single = run_store(store, "single-map", bindings, ops);
    print_store_row(single);
    add_store_row("single-map", single);
  }
  StoreRow sharded;
  {
    sip::ShardedBindingStore::Config config;
    config.shards = 16;
    config.initial_capacity = bindings / config.shards;
    sip::ShardedBindingStore store(config);
    sharded = run_store(store, "sharded (16)", bindings, ops);
    print_store_row(sharded);
    add_store_row("sharded", sharded);
    const StoreRow parallel = run_sharded_parallel(store, bindings, ops);
    print_store_row(parallel);
    add_store_row("sharded-4-readers", parallel);
  }

  bool failed = false;
  if (sharded.lookups_per_s <= single.lookups_per_s ||
      sharded.p99_ns >= single.p99_ns) {
    std::printf("\n%s sharded store does not beat the single map "
                "(lookups/s %.0f vs %.0f, p99 %.0f vs %.0f ns)%s\n",
                kUnderTsan ? "--" : "!!", sharded.lookups_per_s,
                single.lookups_per_s, sharded.p99_ns, single.p99_ns,
                kUnderTsan ? "; ThreadSanitizer build, wall time not checked"
                           : "");
    if (!kUnderTsan) failed = true;
  } else {
    std::printf("\nsharded beats single map: lookups/s %.1fx, p99 %.1fx\n",
                sharded.lookups_per_s / single.lookups_per_s,
                single.p99_ns / sharded.p99_ns);
  }

  std::printf("\nresolution path: MANET caller -> gateway -> provider, "
              "virtual-time setup\n\n");
  std::printf("%-22s | %-9s %10s | %10s\n", "resolution", "calls", "setup ms",
              "events");
  std::printf("-----------------------+----------------------+-----------\n");

  const std::uint64_t seed = 1100;
  auto add_call_row = [&](const std::string& label, const CallRow& r) {
    report.add_row("call/" + label, {{"calls", r.calls},
                                     {"calls_ok", r.calls_ok},
                                     {"setup_ms", r.setup_ms},
                                     {"events", r.events}});
  };
  const struct {
    const char* label;
    scenario::Testbed::Resolution resolution;
  } modes[] = {
      {"registrar-sharded", scenario::Testbed::Resolution::kRegistrar},
      {"p2p-chord", scenario::Testbed::Resolution::kP2p},
  };
  bool identical = true;
  for (const auto& mode : modes) {
    const CallRow at1 = run_calls(mode.resolution, 1, args.quick, seed);
    const CallRow atN = run_calls(mode.resolution, sim_threads, args.quick,
                                  seed);
    print_call_row(mode.label, at1);
    if (!same_run(at1, atN)) {
      std::printf("!! %s diverged between --sim-threads 1 and %u -- "
                  "determinism bug\n", mode.label, sim_threads);
      identical = false;
      failed = true;
    }
    add_call_row(mode.label, at1);
    if (at1.calls_ok != at1.calls) {
      std::printf("!! %s: only %d/%d calls established\n", mode.label,
                  at1.calls_ok, at1.calls);
      failed = true;
    }
  }
  std::printf("\nrows byte-identical across --sim-threads (1 vs %u): %s\n",
              sim_threads, identical ? "yes" : "NO");

  std::printf("\nE12: live-ring churn -- lookup success and hops vs churn "
              "rate\n\n");
  std::printf("%8s | %-16s | %9s | %6s\n", "per min", "lookups ok",
              "mean hops", "events");
  std::printf("---------+------------------+-----------+-------\n");
  for (const double rate : {0.0, 2.0, 6.0, 12.0}) {
    const ChurnRow r = run_churn(rate, args.quick, seed + 12);
    print_churn_row(r);
    report.add_row(
        "churn/r" + std::to_string(static_cast<int>(rate)),
        {{"rate_per_min", r.rate},
         {"lookups", static_cast<double>(r.lookups)},
         {"hits", static_cast<double>(r.hits)},
         {"success_pct", 100.0 * static_cast<double>(r.hits) /
                             static_cast<double>(r.lookups ? r.lookups : 1)},
         {"mean_hops", r.mean_hops},
         {"churn_events", static_cast<double>(r.churn_events)}});
    if (rate == 0.0 && r.hits != r.lookups) {
      std::printf("!! zero churn must resolve every lookup (%zu/%zu)\n",
                  r.hits, r.lookups);
      failed = true;
    }
  }

  report.write(args.json_path);
  return failed ? 1 : 0;
}
