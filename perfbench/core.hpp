// Pure helpers of the benchmark: sample statistics with the tail rule,
// the seeded open-loop arrival schedule, served_from class accounting and
// the result line. Everything here is deterministic and unit-tested
// (tests/core_test.cpp); nothing here touches a clock, a socket or a file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/rpc.hpp"

namespace perfbench {

/// Linear-interpolated percentile (q in [0, 100]) of `samples`; NaN when
/// empty. Sorts a copy.
double percentile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// The tail rule: the highest of the candidate percentiles (99, 95, 90, 75)
/// that is at most `cap` and leaves at least 10 samples beyond it, i.e.
/// (100 - q) / 100 * n >= 10. Returns 0 when no candidate qualifies (fewer
/// than 40 samples), which callers report as "no tail".
int tail_percentile(std::size_t samples, int cap);

/// Samples strictly above the q-th percentile position, floor((1-q)n).
std::size_t samples_beyond(std::size_t samples, int q);

/// One request of an open-loop run: when it is due, relative to the start
/// of the timed window, and which prepared input it sends.
struct Arrival {
  double due_ms = 0;
  std::size_t input = 0;
};

/// Evenly spaced arrivals at `rate_rps` for `seconds`, inputs drawn by
/// `pick(index)`; the schedule is a pure function of its arguments.
template <typename Pick>
std::vector<Arrival> open_loop_schedule(double rate_rps, double seconds,
                                        Pick pick) {
  std::vector<Arrival> out;
  const auto count = static_cast<std::size_t>(rate_rps * seconds);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({1000.0 * static_cast<double>(i) / rate_rps, pick(i)});
  }
  return out;
}

/// What the mix's seeded script asks for at one arrival.
enum class Intent : std::uint8_t {
  kRepeat,    ///< exact repeat of a pre-solved hot pattern
  kNearMiss,  ///< a hot pattern with drifted volumes
  kNew,       ///< a pattern never sent before (fresh shape)
};

/// Shares of the mix script. Repeats are the majority, like the daemon's
/// traffic; the solver classes (near misses and new patterns) keep the
/// two daemon handlers below a third busy at 200 rps, because queueing
/// amplifies the host's speed swings in the tail.
struct MixShares {
  double repeat = 0.6;
  double near_miss = 0.2;  ///< the rest are kNew
};

/// The intent of arrival `index` for `seed`: a pure hash of both, so the
/// script replays identically for a seed whatever the run length.
Intent mix_intent(std::uint64_t seed, std::size_t index,
                  const MixShares& shares);

/// Outcome of one timed request, as the client saw it.
struct Outcome {
  bool ok = false;             ///< a SolveResponse came back
  bool rate_limited = false;   ///< typed kRateLimited reply
  redist::rpc::ServedFrom served_from = redist::rpc::ServedFrom::kCold;
  double latency_ms = 0;       ///< reply time minus due time
  double round_trip_ms = 0;    ///< reply time minus send time
  double server_ms = 0;        ///< SolveResponse::solve_ms
  double late_ms = 0;          ///< generator lateness for this request
  std::string error;           ///< why it failed, when it did
};

/// Latency samples split by served_from class; failures are counted, never
/// timed (a refused request is not a fast one).
struct ClassSplit {
  std::vector<double> hit_ms;    ///< served_from == cache_hit
  std::vector<double> solve_ms;  ///< cold or warm_near_miss
  std::size_t cold = 0;
  std::size_t near_miss = 0;
  std::size_t hits = 0;
  std::size_t failed = 0;
  std::size_t rate_limited = 0;
};

ClassSplit split_by_class(const std::vector<Outcome>& outcomes);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with all its digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
