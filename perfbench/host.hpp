// Host and configuration stamp printed ahead of every result.
#pragma once

#include <string>

namespace perfbench {

/// "cpus=<n> cpu_model=<..> compiler=<..> build=<..>"; the CPU model comes
/// from /proc/cpuinfo ("unknown" when unreadable).
std::string host_stamp();

/// Peak resident set of this process so far, in MiB (ru_maxrss).
double self_peak_rss_mb();

}  // namespace perfbench
