#include "core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::size_t samples_beyond(std::size_t samples, int q) {
  // Integer arithmetic: (100 - q) * n / 100, floored.
  return static_cast<std::size_t>(100 - q) * samples / 100;
}

int tail_percentile(std::size_t samples, int cap) {
  for (const int q : {99, 95, 90, 75}) {
    if (q <= cap && samples_beyond(samples, q) >= 10) return q;
  }
  return 0;
}

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

Intent mix_intent(std::uint64_t seed, std::size_t index,
                  const MixShares& shares) {
  const std::uint64_t h =
      splitmix64(splitmix64(seed) ^ static_cast<std::uint64_t>(index));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < shares.repeat) return Intent::kRepeat;
  if (u < shares.repeat + shares.near_miss) return Intent::kNearMiss;
  return Intent::kNew;
}

ClassSplit split_by_class(const std::vector<Outcome>& outcomes) {
  ClassSplit split;
  for (const Outcome& o : outcomes) {
    if (!o.ok) {
      ++split.failed;
      if (o.rate_limited) ++split.rate_limited;
      continue;
    }
    switch (o.served_from) {
      case redist::rpc::ServedFrom::kCacheHit:
        ++split.hits;
        split.hit_ms.push_back(o.latency_ms);
        break;
      case redist::rpc::ServedFrom::kWarmNearMiss:
        ++split.near_miss;
        split.solve_ms.push_back(o.latency_ms);
        break;
      case redist::rpc::ServedFrom::kCold:
        ++split.cold;
        split.solve_ms.push_back(o.latency_ms);
        break;
    }
  }
  return split;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g round-trips a double; non-finite values are not JSON, and a
    // metric that could not be measured is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
