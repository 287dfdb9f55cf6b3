// Traced replays: each layer timed from outside, around calls to its
// public functions. Nothing here adds a span to the library; the only
// telemetry installed is an obs::MetricsRegistry whose existing counters
// are read back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "kpbs/solver.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "service/scheduler_service.hpp"
#include "service/solve_cache.hpp"

namespace perfbench {

/// One instance solved twice: untraced through solve_kpbs, then replayed
/// stage by stage (the body of solve_kpbs with warm OGGP). Times in ms.
struct SolveSplit {
  double solve_ms = 0;        ///< untraced solve_kpbs (+ its lower bound)
  double traced_ms = 0;       ///< the whole traced replay
  double select_ms = 0;       ///< PeelingContext::bottleneck_perfect
  double ledger_ms = 0;       ///< PeelingContext::before_peel
  double peel_residual_ms = 0;  ///< wrgp_peel minus select and ledger
  double regularize_ms = 0;
  double lower_bound_ms = 0;
  std::uint64_t steps = 0;     ///< wrgp.steps
  std::uint64_t probes = 0;    ///< bottleneck.probes
  std::uint64_t hk_phases = 0;
  std::uint64_t augmenting_paths = 0;
  std::uint64_t seed_hits = 0;  ///< warm.seed.hits
  std::uint64_t seed_misses = 0;
  bool identical = false;  ///< replay schedule and bound == solve_kpbs's

  /// The parts the named layers account for.
  double named_ms() const {
    return select_ms + ledger_ms + peel_residual_ms + regularize_ms +
           lower_bound_ms;
  }
};

/// `untraced_first` alternates the order so neither side always runs on a
/// warm cache. The untraced result lands in `solved`.
SolveSplit split_solve(const Instance& instance, bool untraced_first,
                       redist::SolveResult& solved);

/// One cache-hit request replayed in-process through the daemon's public
/// functions, in the order the daemon runs them. Times in ms.
struct ServeSplit {
  double decode_ms = 0;        ///< rpc::decode_solve_request
  double matrix_ms = 0;        ///< dense TrafficMatrix build
  double canonicalize_ms = 0;  ///< service::canonicalize
  double fingerprint_ms = 0;   ///< service::fingerprint_instance
  double lookup_ms = 0;        ///< SolveCache::lookup (a verified hit)
  double encode_ms = 0;        ///< rpc::encode_solve_response
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  bool hit = false;            ///< the lookup was a hit with `expected`

  double serve_ms() const {
    return matrix_ms + canonicalize_ms + fingerprint_ms + lookup_ms;
  }
};

/// Replays cache-hit requests in-process, two ways: untraced through
/// SchedulerService::serve_solve (the function whose own timer the daemon
/// reports as solve_ms) and stage by stage against a SolveCache holding
/// the daemon's answers, with a MetricsRegistry installed. Both run in
/// this process, so their times compare under the same conditions.
class ServeReplay {
 public:
  /// `answers[i]` is the daemon's reply to `requests[i]`; both must
  /// outlive the replay. Fills both caches (the service's by solving).
  ServeReplay(const std::vector<redist::rpc::SolveRequest>& requests,
              const std::vector<redist::rpc::SolveResponse>& answers);

  /// serve_solve on request `i`; returns its solve_ms. `hit` is set when
  /// the reply is the cached answer, byte for byte.
  double untraced(std::size_t i, bool& hit);

  /// Replays request `i` from its encoded payload to the encoded reply.
  ServeSplit traced(std::size_t i);

 private:
  const std::vector<redist::rpc::SolveRequest>& requests_;
  const std::vector<redist::rpc::SolveResponse>& answers_;
  std::vector<std::vector<char>> payloads_;
  redist::service::SolveCache cache_{64};
  redist::service::SchedulerService service_;
  redist::obs::MetricsRegistry registry_;
};

}  // namespace perfbench
