// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--sim-threads <n>]
//
// Output, one item per line: the host record, the virtual-output digest,
// every metric as "metric <name> <value> <unit>", and last a JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). A failed output
// check is printed to stderr, makes "correct" false and the exit code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<olsr-city|aodv-mobile-voice|registrar-requests> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--sim-threads <n>]\n");
  return 2;
}

void print_metrics(const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("metric %s %.17g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  RunOptions options;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--sim-threads") {
      options.sim_threads = static_cast<unsigned>(std::atoi(value));
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !have_seed) return usage();

  Tracer tracer;
  if (traced) options.tracer = &tracer;

  RunResult result;
  if (workload == "olsr-city") {
    result = run_olsr_city(options);
  } else if (workload == "aodv-mobile-voice") {
    result = run_aodv_mobile_voice(options);
  } else if (workload == "registrar-requests") {
    result = run_registrar_requests(options);
  } else {
    return usage();
  }

  std::printf("host {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  std::printf("digest %s %llu %s\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              hex64(fnv1a(result.digest_text)).c_str());
  const auto& metrics = traced ? result.per_layer : result.end_to_end;
  print_metrics(metrics);
  if (traced && !trace_out.empty() && !tracer.write(trace_out)) {
    result.check_failures.push_back("cannot write trace file " + trace_out);
  }
  for (const auto& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
