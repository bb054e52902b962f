// The four benchmark workloads and the result they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Only the cold set-up: report setup_s and run no timed item.
  bool setup_only = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string fingerprint;  ///< JSON object
  std::uint64_t checks = 0;
  std::uint64_t self_tests = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload as `opts` describes. Throws std::invalid_argument on
/// an unknown workload name.
[[nodiscard]] Report run_workload(const Options& opts);

}  // namespace perfbench
