// The benchmark's workloads. Each takes the run options and returns the
// metrics, operation counts, output checks and virtual-output digest of one
// run (see README.md for what each workload exercises).
#pragma once

#include <cstdint>

#include "core.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Host seconds to keep repeating the workload's scripted unit of work.
  double seconds = 10;
  /// Non-null: a traced run (spans, phase-boundary counts, per-layer set).
  Tracer* tracer = nullptr;
  /// Simulation worker threads; 0 keeps the workload's own setting.
  unsigned sim_threads = 0;
};

RunResult run_olsr_city(const RunOptions& options);
RunResult run_aodv_mobile_voice(const RunOptions& options);
RunResult run_registrar_requests(const RunOptions& options);

}  // namespace perfbench
