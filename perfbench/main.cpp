// perfbench: runs one workload for one timed window and prints its stamp,
// its metrics by name and unit, and a last line of JSON. Usually started
// by run.py, which builds it; see README.md.
//
//   perfbench --workload solve_sparse|daemon_repeat|daemon_mix --seed N
//             --seconds S --trace 0|1 --cli PATH --work-dir DIR
//             [--git-sha SHA] [--source-digest HEX]
//
// Exit status: 0 when every correctness gate held, 1 when one failed (the
// JSON line still reports the run, with "correct": false), 2 on bad usage
// or an error before a result exists.
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --cli PATH --work-dir DIR [--git-sha SHA] "
               "[--source-digest HEX]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "cli", "work-dir"}) {
    if (args.count(required) == 0) {
      return usage(std::string("missing --") + required);
    }
  }

  perfbench::RunConfig config;
  try {
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (!(config.seconds > 0)) return usage("--seconds must be positive");
  config.cli = args["cli"];
  config.work_dir = args["work-dir"];

  const std::string& workload = args["workload"];
  perfbench::Report report;
  try {
    std::cout << "host: " << perfbench::host_stamp()
              << " git=" << (args.count("git-sha") ? args["git-sha"] : "none")
              << " source_sha256="
              << (args.count("source-digest") ? args["source-digest"]
                                              : "none")
              << "\nrun: workload=" << workload << " seed=" << config.seed
              << " seconds=" << config.seconds
              << " trace=" << (config.trace ? 1 : 0) << std::endl;
    if (workload == "solve_sparse") {
      report = perfbench::run_solve_sparse(config);
    } else if (workload == "daemon_repeat") {
      report = perfbench::run_daemon_repeat(config);
    } else if (workload == "daemon_mix") {
      report = perfbench::run_daemon_mix(config);
    } else {
      return usage("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  for (const std::string& line : report.lines) std::cout << line << '\n';
  std::vector<perfbench::Metric> metrics = report.end_to_end;
  if (config.trace) {
    metrics.clear();
    std::cout << "per-layer (traced run; 0 where the layer does no work "
                 "on this workload):\n";
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      const auto it = report.layer.find(name);
      const double value = it == report.layer.end() ? 0.0 : it->second;
      metrics.push_back({name, value, unit});
      std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
    }
  }
  std::cout << perfbench::result_json(report.correct, report.attempted,
                                      report.failed, metrics)
            << std::endl;
  return report.correct ? 0 : 1;
}
