#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <thread>

namespace perfbench {

std::string host_stamp() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::string::size_type colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return "cpus=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu_model=\"" + model + "\" compiler=\"" PERFBENCH_COMPILER
         "\" build=" PERFBENCH_BUILD_TYPE;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
