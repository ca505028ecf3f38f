// registrar-requests: the provider request path outside the simulator.
//
// Setup preloads 1M AORs into a ShardedBindingStore (repeated, the median
// is setup_s). Three closed-loop client threads then serve pre-generated
// SIP request texts: parse, lookup (INVITE, 90 %) or upsert (REGISTER
// refresh, 10 %), then response_to + serialize. The answer to an INVITE is
// a 302 naming the bound contact; the answer to a REGISTER is a 200 echoing
// the new contact. AORs are partitioned by index modulo the thread count,
// so each AOR has exactly one writer, and every answer is checked against
// the contact that writer last stored for it.
//
// The measured unit is a round: every thread serves its whole request list
// once. Rounds repeat until the run's seconds are used up.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sip/message.hpp"
#include "sip/registrar_store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace siphoc;

constexpr std::size_t kAors = 1'000'000;
constexpr unsigned kThreads = 3;
constexpr std::size_t kRequestsPerThread = 50'000;
constexpr std::size_t kPreloads = 5;
constexpr std::uint32_t kRegisterEvery = 10;  // 10 % REGISTER refreshes
constexpr std::size_t kSampleEvery = 31;  // traced rounds: span sampling (coprime to 10)
const TimePoint kNow{};
const TimePoint kExpiry = kNow + hours(1);

std::string aor_of(std::size_t i) {
  return "user" + std::to_string(i) + "@voicehoc.ch";
}

/// Contact `version` of AOR i: a distinct address per AOR, a port per
/// version (0 = the preloaded binding).
net::Endpoint contact_endpoint(std::size_t i, std::uint32_t version) {
  return {net::Address(10, static_cast<std::uint8_t>((i >> 16) & 0xff),
                       static_cast<std::uint8_t>((i >> 8) & 0xff),
                       static_cast<std::uint8_t>(i & 0xff)),
          static_cast<std::uint16_t>(5060 + version)};
}

/// `<uri>`, the Contact header value naming `uri`.
std::string bracketed(const sip::Uri& uri) {
  std::string text = "<";
  text += uri.to_string();
  text += '>';
  return text;
}

/// The Contact header value an answer must carry for (i, version).
std::string contact_text(std::size_t i, std::uint32_t version) {
  return bracketed(sip::Uri::from_endpoint(contact_endpoint(i, version), "u"));
}

void preload(sip::BindingStore& store) {
  for (std::size_t i = 0; i < kAors; ++i) {
    store.upsert(aor_of(i), sip::Uri::from_endpoint(contact_endpoint(i, 0), "u"),
                 kExpiry);
  }
}

struct Request {
  std::string text;
  std::uint32_t aor = 0;
  std::uint32_t version = 0;  // REGISTER: the contact version it writes
  bool is_register = false;
};

/// Thread t's request list: AORs uniform over its partition (i % kThreads
/// == t), every kRegisterEvery-th request a REGISTER with a new contact.
std::vector<Request> make_requests(unsigned t, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + t);
  const std::size_t partition = (kAors - t + kThreads - 1) / kThreads;
  std::uniform_int_distribution<std::size_t> pick(0, partition - 1);
  std::vector<Request> requests(kRequestsPerThread);
  for (std::size_t j = 0; j < requests.size(); ++j) {
    Request& r = requests[j];
    r.aor = static_cast<std::uint32_t>(t + kThreads * pick(rng));
    r.is_register = j % kRegisterEvery == kRegisterEvery - 1;
    const std::string aor = aor_of(r.aor);
    const std::string via = "Via: SIP/2.0/UDP 10.200." + std::to_string(t) +
                            ".1:5060;branch=z9hG4bK" + std::to_string(t) + "x" +
                            std::to_string(j) + "\r\nMax-Forwards: 70\r\n";
    const std::string call_id =
        "Call-ID: " + std::to_string(t) + "-" + std::to_string(j) + "@perfbench\r\n";
    if (r.is_register) {
      r.version = static_cast<std::uint32_t>(j / kRegisterEvery + 1);
      r.text = "REGISTER sip:voicehoc.ch SIP/2.0\r\n" + via + "From: <sip:" + aor +
               ">;tag=r" + std::to_string(j) + "\r\nTo: <sip:" + aor + ">\r\n" +
               call_id + "CSeq: 2 REGISTER\r\nContact: " +
               contact_text(r.aor, r.version) +
               "\r\nExpires: 3600\r\nContent-Length: 0\r\n\r\n";
    } else {
      r.text = "INVITE sip:" + aor + " SIP/2.0\r\n" + via + "From: <sip:caller" +
               std::to_string(t) + "@voicehoc.ch>;tag=c" + std::to_string(j) +
               "\r\nTo: <sip:" + aor + ">\r\n" + call_id +
               "CSeq: 1 INVITE\r\nContact: <sip:caller" + std::to_string(t) +
               "@10.200." + std::to_string(t) +
               ".1:5070>\r\nContent-Length: 0\r\n\r\n";
    }
  }
  return requests;
}

/// Request latencies at 1 ns resolution in fixed memory, so the driver's
/// own bookkeeping does not grow with the run length. Latencies past the
/// last bucket (a preempted thread) count there.
class LatencyHistogram {
 public:
  void add(std::int64_t ns) {
    ++counts_[static_cast<std::size_t>(std::clamp<std::int64_t>(ns, 0, kMaxNs))];
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  /// Nearest-rank percentile in ns; 0 when empty.
  double percentile(double p) const {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return static_cast<double>(i);
    }
    return 0;
  }

 private:
  static constexpr std::int64_t kMaxNs = 200'000;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kMaxNs + 1, 0);
  std::uint64_t total_ = 0;
};

/// Sampled stage timings of one traced request, host ns.
struct Sample {
  std::int64_t start, parsed, stored, done;
  bool is_register;
};

struct Client {
  std::vector<Request> requests;
  std::vector<std::uint32_t> versions;  // partition-local: AOR / kThreads
  LatencyHistogram latency;
  std::vector<Sample> samples;
  std::uint64_t served = 0;
  std::uint64_t wrong = 0;
  std::string first_wrong;
};

/// Serves one request: the measured request path. Returns the answer text.
std::string serve(sip::BindingStore& store, const Request& r, Sample* sample) {
  auto parsed = sip::Message::parse(r.text);
  if (!parsed) return {};
  const sip::Message& request = *parsed;
  if (sample != nullptr) sample->parsed = host_ns();
  sip::Message answer;
  if (request.method() == sip::kRegister) {
    const auto to = request.to();
    const auto contact = request.contact();
    if (!to || !contact) return {};
    store.upsert(to->uri.aor(), contact->uri, kExpiry);
    if (sample != nullptr) sample->stored = host_ns();
    answer = sip::Message::response_to(request, 200);
    answer.add_header("Contact", *request.header("contact"));
  } else {
    const auto binding = store.lookup(request.request_uri().aor(), kNow);
    if (sample != nullptr) sample->stored = host_ns();
    if (!binding) {
      answer = sip::Message::response_to(request, 404);
    } else {
      answer = sip::Message::response_to(request, 302, "Moved Temporarily");
      answer.add_header("Contact", bracketed(binding->contact));
    }
  }
  return answer.serialize();
}

/// One pass over the client's list; `traced` samples stage spans.
void serve_round(sip::BindingStore& store, Client& c, bool traced) {
  for (std::size_t j = 0; j < c.requests.size(); ++j) {
    const Request& r = c.requests[j];
    Sample sample{};
    Sample* sampled = traced && j % kSampleEvery == 0 ? &sample : nullptr;
    const std::int64_t t0 = host_ns();
    sample.start = t0;
    const std::string answer = serve(store, r, sampled);
    const std::int64_t t1 = host_ns();
    c.latency.add(t1 - t0);
    ++c.served;
    if (sampled != nullptr) {
      sample.done = t1;
      sample.is_register = r.is_register;
      c.samples.push_back(sample);
    }
    // Output check: the answer names the contact last written for the AOR.
    std::uint32_t& version = c.versions[r.aor / kThreads];
    if (r.is_register) version = r.version;
    const bool ok = answer.starts_with(r.is_register ? "SIP/2.0 200" : "SIP/2.0 302") &&
                    answer.find(contact_text(r.aor, version)) != std::string::npos;
    if (!ok) {
      if (c.wrong++ == 0) c.first_wrong = answer.empty() ? "(no answer)" : answer;
    }
  }
}

}  // namespace

RunResult run_registrar_requests(const RunOptions& options) {
  RunResult result;
  Tracer* tracer = options.tracer;

  // --- setup: preload the store (repeated; median) -----------------------
  std::unique_ptr<sip::ShardedBindingStore> store;
  std::vector<double> setups;
  for (std::size_t k = 0; k < kPreloads; ++k) {
    store.reset();
    ScopedSpan span(tracer, "setup", 0);
    const double t0 = host_s();
    store = std::make_unique<sip::ShardedBindingStore>();
    preload(*store);
    setups.push_back(host_s() - t0);
  }

  std::vector<Client> clients(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    clients[t].requests = make_requests(t, options.seed);
    clients[t].versions.assign(kAors / kThreads + 1, 0);
    std::uint64_t h = kFnvOffset;
    for (const Request& r : clients[t].requests) h = fnv1a(r.text, h);
    result.digest_text += "requests " + std::to_string(t) + " " + hex64(h) + "\n";
  }

  // --- closed-loop rounds -------------------------------------------------
  // Rounds alternate traced/untraced in a traced run (overhead metric).
  std::barrier sync(kThreads + 1);
  bool stop = false;
  bool traced_round = false;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (;;) {
        sync.arrive_and_wait();  // round start (stop/traced published)
        if (stop) return;
        serve_round(*store, clients[t], traced_round);
        sync.arrive_and_wait();  // round end
      }
    });
  }
  std::vector<double> rounds, traced_rounds, plain_rounds;
  const double start = host_s();
  do {
    traced_round = tracer != nullptr && rounds.size() % 2 == 0;
    ScopedSpan span(traced_round ? tracer : nullptr, "round", 0);
    const double t0 = host_s();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const double wall = host_s() - t0;
    rounds.push_back(wall);
    (traced_round ? traced_rounds : plain_rounds).push_back(wall);
  } while (host_s() - start < options.seconds ||
           (tracer != nullptr && rounds.size() < 2));
  const double loop_s = host_s() - start;
  stop = true;
  sync.arrive_and_wait();
  for (auto& thread : threads) thread.join();

  // --- results -------------------------------------------------------------
  LatencyHistogram latency;
  std::vector<double> parse_ns, serialize_ns, lookup_ns, upsert_ns;
  for (unsigned t = 0; t < kThreads; ++t) {
    Client& c = clients[t];
    result.attempted += c.served;
    result.failed += c.wrong;
    if (c.wrong > 0) {
      result.check_failures.push_back(
          "registrar-requests: thread " + std::to_string(t) + ": " +
          std::to_string(c.wrong) + " answers did not name the last written "
          "contact; first: " + c.first_wrong.substr(0, c.first_wrong.find('\r')));
    }
    latency.merge(c.latency);
    for (const Sample& s : c.samples) {
      parse_ns.push_back(static_cast<double>(s.parsed - s.start));
      (s.is_register ? upsert_ns : lookup_ns)
          .push_back(static_cast<double>(s.stored - s.parsed));
      serialize_ns.push_back(static_cast<double>(s.done - s.stored));
    }
  }
  if (tracer != nullptr) {
    // Sampled request spans, root spans with parse/store/serialize children.
    for (unsigned t = 0; t < kThreads; ++t) {
      for (const Sample& s : clients[t].samples) {
        const std::uint64_t parent = tracer->add("request", 0, s.start, s.done);
        tracer->add("parse", parent, s.start, s.parsed);
        tracer->add(s.is_register ? "store.upsert" : "store.lookup", parent,
                    s.parsed, s.stored);
        tracer->add("serialize", parent, s.stored, s.done);
      }
    }
  }
  result.digest_text += "bindings " + std::to_string(store->size()) + "\n";

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median(setups), "s"};
  e2e["wall_s"] = {median(rounds), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["success_ratio"] = {1.0 - ratio(static_cast<double>(result.failed),
                                      static_cast<double>(result.attempted)),
                          "ratio"};
  e2e["latency_p50_ms"] = {latency.percentile(0.50) * 1e-6, "ms"};
  e2e["latency_p90_ms"] = {latency.percentile(0.90) * 1e-6, "ms"};

  auto& layer = result.per_layer;
  layer["sip.requests_per_s"] = {static_cast<double>(result.attempted) / loop_s, "1/s"};
  layer["sip.request_p99_us"] = {latency.percentile(0.99) * 1e-3, "us"};
  layer["sip.parse_ns_p50"] = {percentile(parse_ns, 0.50), "ns"};
  layer["sip.serialize_ns_p50"] = {percentile(serialize_ns, 0.50), "ns"};
  layer["sip.store_lookup_ns_p50"] = {percentile(lookup_ns, 0.50), "ns"};
  layer["sip.store_lookup_ns_p99"] = {percentile(lookup_ns, 0.99), "ns"};
  layer["sip.store_upsert_ns_p99"] = {percentile(upsert_ns, 0.99), "ns"};
  if (tracer != nullptr) {
    layer["bench.trace_overhead_ratio"] = {
        ratio(median(traced_rounds), median(plain_rounds)), "ratio"};
  }
  return result;
}

}  // namespace perfbench
