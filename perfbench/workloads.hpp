// The benchmark's four workloads. Each runs one repetition in the calling
// process: it generates its inputs from the seed, builds the simulated
// system itself, drives it through the public API, checks every output,
// and (traced) snapshots the per-layer counters and spans.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  bool trace = false;
};

struct RepResult {
  std::uint64_t attempted = 0;  // operations the repetition tried
  std::uint64_t ops = 0;        // operations completed and verified
  std::vector<std::string> failures;  // one line per failed check
  double setup_s = 0;  // build start until the measured work begins
  double body_s = 0;   // wall of the measured work
  std::int64_t sim_ns = 0;   // virtual elapsed time (a correctness output)
  std::uint64_t digest = 0;  // order-sensitive digest of the outputs
  /// Per-layer metrics in a fixed order (traced repetitions only).
  std::vector<std::pair<std::string, double>> layer;
  std::string spans_json;  // traced repetitions only
};

using WorkloadFn = RepResult (*)(const RepOptions&);

/// Workload names in benchmark order, with their entry points.
const std::vector<std::pair<std::string, WorkloadFn>>& workloads();

}  // namespace perfbench
