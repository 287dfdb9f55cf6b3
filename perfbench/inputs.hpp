// Seeded inputs of the three workloads. Every input comes from a
// ScenarioSpec family with a seed derived from the benchmark's --seed; the
// program under test only ever sees the generated demand or request.
#pragma once

#include <cstdint>
#include <vector>

#include "core.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "net/rpc.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

/// sparse_giant at n = 1024, m = 3n, k = 16, beta = 1 (solve_sparse and
/// daemon_repeat); `index` picks a distinct seed under `seed`.
redist::ScenarioSpec sparse_spec(std::uint64_t seed, std::uint64_t index);

/// A demand graph with the solver options of its family.
struct Instance {
  redist::BipartiteGraph demand;
  redist::SolverOptions options;
};

Instance make_instance(const redist::ScenarioSpec& spec);

/// The rpc.v1 request that carries `instance` (entry bytes = demand
/// weights, as `redist_cli submit` sends them).
redist::rpc::SolveRequest to_request(const Instance& instance);

/// The solver options a request carries.
redist::SolverOptions options_of(const redist::rpc::SolveRequest& request);

/// Exactly what the daemon hands the solver for `request`: the traffic
/// matrix of its entries, converted with to_graph_bytes().
Instance from_request(const redist::rpc::SolveRequest& request);

/// The daemon_mix script: `hot` pre-solved patterns followed by one input
/// per arrival, and the arrival schedule that sends them.
struct MixScript {
  std::vector<redist::rpc::SolveRequest> inputs;  ///< [0, hot) = hot set
  std::size_t hot = 0;
  std::vector<Arrival> arrivals;
};

/// Hot patterns: 8 each of the paper-sized uniform, heterogeneous and
/// hotspot (16x16) and asymmetric (48x6) families. Repeats resend a hot
/// pattern; near misses resend one with a quarter of its volumes moved by
/// one unit (same shape); new patterns are sparse 16x16 or 48x6 instances
/// of fresh shape.
MixScript make_mix_script(std::uint64_t seed, double rate_rps,
                          double seconds, const MixShares& shares);

}  // namespace perfbench
