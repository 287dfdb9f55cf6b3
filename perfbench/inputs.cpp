#include "inputs.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "graph/traffic_matrix.hpp"

namespace perfbench {

using redist::ScenarioSpec;
using redist::rpc::SolveRequest;

namespace {

// Distinct, well-mixed scenario seeds from (benchmark seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  redist::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream * 1000003ULL + index);
  return rng.next();
}

ScenarioSpec builtin(const std::string& name) {
  for (const ScenarioSpec& spec : redist::builtin_scenarios(1.0)) {
    if (spec.name == name) return spec;
  }
  throw redist::Error("perfbench: no builtin scenario " + name);
}

}  // namespace

ScenarioSpec sparse_spec(std::uint64_t seed, std::uint64_t index) {
  ScenarioSpec spec = builtin("sparse_giant");
  spec.senders = 1024;
  spec.receivers = 1024;
  spec.edges = 3 * 1024;
  spec.k = 16;
  spec.beta = 1;
  spec.seed = derive_seed(seed, 1, index);
  return spec;
}

Instance make_instance(const ScenarioSpec& spec) {
  Instance out{redist::materialize_scenario(spec).demand, {}};
  out.options.k = spec.k;
  out.options.beta = spec.beta;
  return out;
}

SolveRequest to_request(const Instance& instance) {
  SolveRequest request;
  request.k = instance.options.k;
  request.beta = instance.options.beta;
  request.algorithm = instance.options.algorithm;
  request.engine = instance.options.engine;
  request.senders = instance.demand.left_count();
  request.receivers = instance.demand.right_count();
  for (redist::EdgeId e = 0; e < instance.demand.edge_count(); ++e) {
    if (!instance.demand.alive(e)) continue;
    const redist::Edge& edge = instance.demand.edge(e);
    request.entries.push_back({edge.left, edge.right, edge.weight});
  }
  return request;
}

redist::SolverOptions options_of(const SolveRequest& request) {
  redist::SolverOptions options;
  options.k = request.k;
  options.beta = request.beta;
  options.algorithm = request.algorithm;
  options.engine = request.engine;
  return options;
}

Instance from_request(const SolveRequest& request) {
  redist::TrafficMatrix matrix(request.senders, request.receivers);
  for (const redist::rpc::TrafficEntry& entry : request.entries) {
    matrix.add(entry.sender, entry.receiver, entry.bytes);
  }
  return Instance{matrix.to_graph_bytes(), options_of(request)};
}

MixScript make_mix_script(std::uint64_t seed, double rate_rps,
                          double seconds, const MixShares& shares) {
  const std::vector<ScenarioSpec> families = {
      builtin("uniform"), builtin("heterogeneous"), builtin("hotspot"),
      builtin("asymmetric")};
  MixScript script;
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      ScenarioSpec spec = families[f];
      spec.seed = derive_seed(seed, 10 + f, i);
      script.inputs.push_back(to_request(make_instance(spec)));
    }
  }
  script.hot = script.inputs.size();

  // One generator for the drifted volumes and fresh shapes, consumed in
  // arrival order: the script is a pure function of the seed.
  redist::Rng rng(derive_seed(seed, 20, 0));
  std::uint64_t fresh = 0;
  script.arrivals = open_loop_schedule(
      rate_rps, seconds, [&](std::size_t index) -> std::size_t {
        const Intent intent = mix_intent(seed, index, shares);
        const auto hot_pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(script.hot) - 1));
        if (intent == Intent::kRepeat) return hot_pick;
        if (intent == Intent::kNearMiss) {
          SolveRequest drifted = script.inputs[hot_pick];
          bool changed = false;
          for (redist::rpc::TrafficEntry& entry : drifted.entries) {
            if (!rng.bernoulli(0.25)) continue;
            entry.bytes = std::max<redist::Bytes>(
                1, entry.bytes + (rng.bernoulli(0.5) ? 1 : -1));
            changed = true;
          }
          // At least one volume must differ, or this is an exact repeat.
          if (!changed) drifted.entries.front().bytes += 1;
          script.inputs.push_back(std::move(drifted));
          return script.inputs.size() - 1;
        }
        // Fresh shape: a sparse instance of a non-hotspot family (hotspot
        // traffic is always all-pairs, so it would share a cached shape).
        constexpr std::size_t kFreshFamilies[] = {0, 1, 3};
        ScenarioSpec spec = families[kFreshFamilies[rng.uniform_int(0, 2)]];
        spec.seed = derive_seed(seed, 30, fresh++);
        spec.edges = spec.senders * spec.receivers * 5 / 8;
        script.inputs.push_back(to_request(make_instance(spec)));
        return script.inputs.size() - 1;
      });
  return script;
}

}  // namespace perfbench
