#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/math.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "kpbs/wrgp.hpp"
#include "matching/peeling_context.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "service/fingerprint.hpp"

namespace perfbench {

using redist::BipartiteGraph;
using redist::Weight;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t counter_value(const redist::obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

// The stages of solve_kpbs (kpbs/solver.cpp) for warm OGGP, each timed
// around its public entry point. Returns the schedule text and bound.
struct Replayed {
  std::string schedule;
  redist::LowerBound bound;
};

Replayed replay(const Instance& instance, SolveSplit& split) {
  const BipartiteGraph& demand = instance.demand;
  const Weight beta = instance.options.beta;
  const int k = redist::clamp_k(demand, instance.options.k);

  // Step 1: beta-normalisation (copied from the solver; part of "other").
  const Weight unit = std::max<Weight>(1, beta);
  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  std::vector<redist::EdgeId> demand_edge;
  for (redist::EdgeId e = 0; e < demand.edge_count(); ++e) {
    if (!demand.alive(e)) continue;
    const redist::Edge& edge = demand.edge(e);
    normalized.add_edge(edge.left, edge.right,
                        redist::ceil_div(edge.weight, unit));
    demand_edge.push_back(e);
  }

  Clock::time_point t0 = Clock::now();
  redist::Regularized reg = redist::regularize(normalized, k);
  split.regularize_ms = ms_since(t0);

  // Step 3: exactly wrgp_peel_warm's body, with its strategy and observer
  // wrapped in timers.
  redist::PeelingContext ctx;
  double select_ms = 0;
  double ledger_ms = 0;
  t0 = Clock::now();
  const std::vector<redist::PeelStep> peels = redist::wrgp_peel(
      reg.graph,
      [&](const BipartiteGraph& residual) {
        const Clock::time_point t = Clock::now();
        redist::Matching m = ctx.bottleneck_perfect(residual);
        select_ms += ms_since(t);
        return m;
      },
      [&](const BipartiteGraph& residual, const redist::Matching& m,
          Weight amount) {
        const Clock::time_point t = Clock::now();
        ctx.before_peel(residual, m, amount);
        ledger_ms += ms_since(t);
      });
  const double peel_ms = ms_since(t0);
  split.select_ms = select_ms;
  split.ledger_ms = ledger_ms;
  split.peel_residual_ms = peel_ms - select_ms - ledger_ms;

  // Step 4: extraction (copied from the solver; part of "other").
  redist::Schedule schedule;
  std::vector<Weight> remaining(demand_edge.size());
  for (std::size_t i = 0; i < demand_edge.size(); ++i) {
    remaining[i] = demand.edge(demand_edge[i]).weight;
  }
  for (const redist::PeelStep& peel : peels) {
    redist::Step step;
    for (const redist::EdgeId je : peel.matching.edges) {
      const redist::EdgeId ne = reg.origin[static_cast<std::size_t>(je)];
      if (ne == redist::kNoEdge) continue;
      const auto idx = static_cast<std::size_t>(ne);
      const Weight realized = std::min(peel.amount * unit, remaining[idx]);
      remaining[idx] -= realized;
      const redist::Edge& src = demand.edge(demand_edge[idx]);
      step.comms.push_back(redist::Communication{src.left, src.right,
                                                 realized});
    }
    if (!step.comms.empty()) schedule.add_step(std::move(step));
  }

  t0 = Clock::now();
  Replayed out{{}, redist::kpbs_lower_bound(demand, instance.options.k, beta)};
  split.lower_bound_ms = ms_since(t0);
  out.schedule = redist::schedule_to_string(schedule);
  return out;
}

}  // namespace

SolveSplit split_solve(const Instance& instance, bool untraced_first,
                       redist::SolveResult& solved) {
  SolveSplit split;
  const auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    solved = redist::solve_kpbs(instance.demand, instance.options);
    split.solve_ms = ms_since(t0);
  };
  Replayed replayed;
  const auto traced = [&] {
    redist::obs::MetricsRegistry registry;
    const redist::obs::ScopedTelemetry telemetry(&registry, nullptr);
    const Clock::time_point t0 = Clock::now();
    replayed = replay(instance, split);
    split.traced_ms = ms_since(t0);
    const redist::obs::MetricsSnapshot snap = registry.snapshot();
    split.steps = counter_value(snap, "wrgp.steps");
    split.probes = counter_value(snap, "bottleneck.probes");
    split.hk_phases = counter_value(snap, "hk.phases");
    split.augmenting_paths = counter_value(snap, "hk.augmenting_paths");
    split.seed_hits = counter_value(snap, "warm.seed.hits");
    split.seed_misses = counter_value(snap, "warm.seed.misses");
  };
  if (untraced_first) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
  split.identical =
      replayed.schedule == redist::schedule_to_string(solved.schedule) &&
      replayed.bound.min_steps == solved.lower_bound.min_steps &&
      replayed.bound.min_transmission == solved.lower_bound.min_transmission;
  return split;
}

ServeReplay::ServeReplay(const std::vector<redist::rpc::SolveRequest>& requests,
                         const std::vector<redist::rpc::SolveResponse>& answers)
    : requests_(requests), answers_(answers) {
  namespace service = redist::service;
  // The service's cache fills by solving, one thread per request (few).
  std::vector<std::thread> fill;
  for (const redist::rpc::SolveRequest& request : requests) {
    fill.emplace_back([this, &request] { service_.serve_solve(request); });
  }
  for (std::thread& t : fill) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    payloads_.emplace_back();
    redist::rpc::encode_solve_request(payloads_.back(), requests[i]);
    // Fill the cache the way the daemon's first solve did.
    redist::TrafficMatrix matrix(requests[i].senders, requests[i].receivers);
    for (const redist::rpc::TrafficEntry& e : requests[i].entries) {
      matrix.add(e.sender, e.receiver, e.bytes);
    }
    service::CanonicalInstance canon =
        service::canonicalize(matrix, options_of(requests[i]));
    const service::InstanceFingerprint fp = service::fingerprint_instance(canon);
    service::CachedSolve cached;
    cached.schedule_text = answers[i].schedule_text;
    cached.lb_min_steps = answers[i].lb_min_steps;
    cached.lb_num = answers[i].lb_num;
    cached.lb_den = answers[i].lb_den;
    cached.evaluation_ratio = answers[i].evaluation_ratio;
    cached.solve_id = answers[i].solve_id;
    cache_.insert_solve(fp, std::move(canon), std::move(cached));
  }
}

double ServeReplay::untraced(std::size_t i, bool& hit) {
  const redist::rpc::SolveResponse reply = service_.serve_solve(requests_[i]);
  hit = reply.served_from == redist::rpc::ServedFrom::kCacheHit &&
        reply.schedule_text == answers_[i].schedule_text;
  return reply.solve_ms;
}

ServeSplit ServeReplay::traced(std::size_t i) {
  namespace service = redist::service;
  namespace rpc = redist::rpc;
  const redist::obs::ScopedTelemetry telemetry(&registry_, nullptr);
  ServeSplit s;
  s.request_bytes = payloads_[i].size();
  Clock::time_point t0 = Clock::now();
  const rpc::SolveRequest request = rpc::decode_solve_request(payloads_[i]);
  s.decode_ms = ms_since(t0);

  // From here to the lookup: SchedulerService::serve_solve's hit path.
  t0 = Clock::now();
  redist::TrafficMatrix matrix(request.senders, request.receivers);
  for (const rpc::TrafficEntry& e : request.entries) {
    matrix.add(e.sender, e.receiver, e.bytes);
  }
  s.matrix_ms = ms_since(t0);

  const redist::SolverOptions options = options_of(request);
  t0 = Clock::now();
  const service::CanonicalInstance canon =
      service::canonicalize(matrix, options);
  s.canonicalize_ms = ms_since(t0);

  t0 = Clock::now();
  const service::InstanceFingerprint fp = service::fingerprint_instance(canon);
  s.fingerprint_ms = ms_since(t0);

  t0 = Clock::now();
  service::SolveCache::Lookup lookup = cache_.lookup(fp, canon);
  s.lookup_ms = ms_since(t0);
  s.hit = lookup.kind == service::SolveCache::Lookup::Kind::kHit &&
          lookup.solve.schedule_text == answers_[i].schedule_text;

  rpc::SolveResponse response;
  response.request_id = request.request_id;
  response.served_from = rpc::ServedFrom::kCacheHit;
  response.solve_id = lookup.solve.solve_id;
  response.lb_min_steps = lookup.solve.lb_min_steps;
  response.lb_num = lookup.solve.lb_num;
  response.lb_den = lookup.solve.lb_den;
  response.evaluation_ratio = lookup.solve.evaluation_ratio;
  response.schedule_text = std::move(lookup.solve.schedule_text);
  std::vector<char> body;
  t0 = Clock::now();
  rpc::encode_solve_response(body, response);
  s.encode_ms = ms_since(t0);
  s.response_bytes = body.size();
  return s;
}

}  // namespace perfbench
