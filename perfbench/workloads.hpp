// The three workloads. Each sets up, runs one timed window, checks every
// answer outside the window and fills a Report; main.cpp prints it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;       ///< the redist_cli binary (daemon workloads)
  std::string work_dir;  ///< scratch directory for the daemon's log
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;  ///< human-readable, printed first
  std::vector<Metric> end_to_end;  ///< the BENCHMARK.json end_to_end set
  std::map<std::string, double> layer;  ///< per_layer values by name

  /// Records a gate violation: counted as a failure, reported, and the
  /// run is not correct.
  void violation(const std::string& what);
};

/// Names and units of every per_layer metric, in print order. A layer that
/// does no work on a workload reports 0 there.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

Report run_solve_sparse(const RunConfig& config);
Report run_daemon_repeat(const RunConfig& config);
Report run_daemon_mix(const RunConfig& config);

}  // namespace perfbench
