// Warm-start peeling benchmark: cold vs warm GGP/OGGP on dense instances,
// plus batch-solver throughput. Emits BENCH_warm_start.json — the repo's
// recorded perf trajectory for the peeling hot path (see docs/PERF.md).
//
//   warm_start [--n=64] [--edges=2048] [--max-weight=1000] [--instances=6]
//              [--k=8] [--beta=1] [--repeat=3] [--threads=0]
//              [--out=BENCH_warm_start.json] [--check-min-speedup=0]
//              [--check-max-journal-overhead=0]
//
// Every warm schedule is verified step-for-step against its cold twin
// before any timing is reported. --check-min-speedup=X exits nonzero when
// the warm OGGP speedup falls below X (the CI bench-smoke gate).
// The bench also re-times the warm OGGP pass with the flight recorder
// (obs/journal.hpp) installed and reports the fractional overhead;
// --check-max-journal-overhead=F exits nonzero when it exceeds F (the
// ISSUE budget is < 1%; the CI gate allows slack for timer noise).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "redist.hpp"

namespace {

using namespace redist;

// Dense instance with exactly n x n nodes and `edges` distinct pairs —
// unlike RandomGraphConfig (which samples sizes), the bench needs the
// advertised n/m on every instance.
BipartiteGraph dense_instance(std::uint64_t seed, NodeId n, int edges,
                              Weight max_weight) {
  Rng rng(seed);
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(n));
  std::iota(pairs.begin(), pairs.end(), 0);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  const int m = std::min<int>(edges, static_cast<int>(pairs.size()));
  BipartiteGraph g(n, n);
  for (int i = 0; i < m; ++i) {
    const NodeId left = static_cast<NodeId>(pairs[static_cast<std::size_t>(i)] /
                                            static_cast<std::int64_t>(n));
    const NodeId right =
        static_cast<NodeId>(pairs[static_cast<std::size_t>(i)] %
                            static_cast<std::int64_t>(n));
    g.add_edge(left, right, rng.uniform_int(1, max_weight));
  }
  return g;
}

bool identical_schedules(const Schedule& a, const Schedule& b) {
  if (a.step_count() != b.step_count()) return false;
  for (std::size_t s = 0; s < a.step_count(); ++s) {
    const Step& sa = a.steps()[s];
    const Step& sb = b.steps()[s];
    if (sa.comms.size() != sb.comms.size()) return false;
    for (std::size_t c = 0; c < sa.comms.size(); ++c) {
      if (sa.comms[c].sender != sb.comms[c].sender ||
          sa.comms[c].receiver != sb.comms[c].receiver ||
          sa.comms[c].amount != sb.comms[c].amount) {
        return false;
      }
    }
  }
  return true;
}

// Best-of-`repeat` total milliseconds to solve all instances.
double time_engine(const std::vector<BipartiteGraph>& instances, int k,
                   Weight beta, Algorithm algo, MatchingEngine engine,
                   int repeat) {
  double best_ms = 0;
  for (int r = 0; r < repeat; ++r) {
    Stopwatch timer;
    for (const BipartiteGraph& g : instances) {
      const Schedule s = solve_kpbs(g, {k, beta, algo, engine}).schedule;
      if (s.step_count() == 0 && !g.empty()) {
        throw Error("empty schedule for non-empty instance");
      }
    }
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

struct AlgoResult {
  std::string name;
  double cold_ms = 0;
  double warm_ms = 0;
  bool identical = false;
  double speedup() const { return warm_ms > 0 ? cold_ms / warm_ms : 0; }
};

// Per-phase counters for one (algorithm, engine) pass over the pool,
// collected with a private registry so the timing passes stay
// uninstrumented. Zero for counters the engine never touches (e.g. the
// warm ledger under the cold engine).
struct PhaseCounters {
  std::uint64_t wrgp_steps = 0;
  std::uint64_t bottleneck_probes = 0;
  std::uint64_t hk_phases = 0;
  std::uint64_t hk_paths = 0;
  std::uint64_t ledger_hits = 0;
  std::uint64_t ledger_misses = 0;
  std::uint64_t seed_hits = 0;
  std::uint64_t seed_misses = 0;
};

PhaseCounters collect_phase_counters(const std::vector<BipartiteGraph>& pool,
                                     int k, Weight beta, Algorithm algo,
                                     MatchingEngine engine) {
  obs::MetricsRegistry registry;
  {
    obs::ScopedTelemetry scoped(&registry, nullptr);
    for (const BipartiteGraph& g : pool) {
      solve_kpbs(g, {k, beta, algo, engine}).schedule;
    }
  }
  const auto counter = [&registry](std::string_view name) {
    return registry.counter(name).value();
  };
  PhaseCounters out;
  out.wrgp_steps = counter("wrgp.steps");
  out.bottleneck_probes = counter("bottleneck.probes");
  out.hk_phases = counter("hk.phases");
  out.hk_paths = counter("hk.augmenting_paths");
  out.ledger_hits = counter("warm.ledger.hits");
  out.ledger_misses = counter("warm.ledger.misses");
  out.seed_hits = counter("warm.seed.hits");
  out.seed_misses = counter("warm.seed.misses");
  return out;
}

void write_phase_counters(std::ostream& os, const char* engine,
                          const PhaseCounters& c, bool trailing_comma) {
  os << "      \"" << engine << "\": {\"wrgp_steps\": " << c.wrgp_steps
     << ", \"bottleneck_probes\": " << c.bottleneck_probes
     << ", \"hk_phases\": " << c.hk_phases
     << ", \"hk_augmenting_paths\": " << c.hk_paths
     << ", \"warm_ledger_hits\": " << c.ledger_hits
     << ", \"warm_ledger_misses\": " << c.ledger_misses
     << ", \"seed_hits\": " << c.seed_hits
     << ", \"seed_misses\": " << c.seed_misses << "}"
     << (trailing_comma ? "," : "") << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const NodeId n = static_cast<NodeId>(flags.get_int("n", 64));
    const int edges = static_cast<int>(flags.get_int("edges", 2048));
    const Weight max_weight = flags.get_int("max-weight", 1000);
    const int instances = static_cast<int>(flags.get_int("instances", 6));
    const int k = static_cast<int>(flags.get_int("k", 8));
    const Weight beta = flags.get_int("beta", 1);
    const int repeat = static_cast<int>(flags.get_int("repeat", 3));
    const int threads = static_cast<int>(flags.get_int("threads", 0));
    const std::string out =
        flags.get_string("out", "BENCH_warm_start.json");
    const double min_speedup = flags.get_double("check-min-speedup", 0);
    const double max_journal_overhead =
        flags.get_double("check-max-journal-overhead", 0);
    flags.check_unused();

    std::vector<BipartiteGraph> pool;
    pool.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      pool.push_back(dense_instance(0xBEEF + static_cast<std::uint64_t>(i),
                                    n, edges, max_weight));
    }

    // Differential gate first: timings of non-identical engines are noise.
    std::vector<AlgoResult> results;
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      AlgoResult result;
      result.name = algorithm_name(algo);
      result.identical = true;
      for (const BipartiteGraph& g : pool) {
        const Schedule cold =
            solve_kpbs(g, {k, beta, algo, MatchingEngine::kCold}).schedule;
        const Schedule warm =
            solve_kpbs(g, {k, beta, algo, MatchingEngine::kWarm}).schedule;
        if (!identical_schedules(cold, warm)) {
          result.identical = false;
          break;
        }
      }
      if (!result.identical) {
        std::cerr << "FATAL: " << result.name
                  << " warm schedule diverged from cold\n";
        return 1;
      }
      result.cold_ms =
          time_engine(pool, k, beta, algo, MatchingEngine::kCold, repeat);
      result.warm_ms =
          time_engine(pool, k, beta, algo, MatchingEngine::kWarm, repeat);
      results.push_back(result);
    }

    // Per-phase counters (separate instrumented passes, not timed).
    std::vector<std::pair<PhaseCounters, PhaseCounters>> phase_counters;
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      phase_counters.emplace_back(
          collect_phase_counters(pool, k, beta, algo, MatchingEngine::kCold),
          collect_phase_counters(pool, k, beta, algo, MatchingEngine::kWarm));
    }

    // Journal overhead: re-time the warm OGGP pass with the flight
    // recorder installed and compare against the uninstrumented timing
    // from the same best-of-repeat discipline. The events land in a
    // real-size ring so the measurement includes wraparound costs.
    const double baseline_ms = results.back().warm_ms;
    obs::Journal journal(8192);
    double journal_ms = 0;
    std::uint64_t journal_events = 0;
    {
      const obs::ScopedJournal scoped_journal(&journal);
      journal_ms = time_engine(pool, k, beta, Algorithm::kOGGP,
                               MatchingEngine::kWarm, repeat);
      journal_events = journal.total_recorded();
    }
    const double journal_overhead =
        baseline_ms > 0 ? journal_ms / baseline_ms - 1.0 : 0.0;

    // Batch throughput: same OGGP instances, 1 worker vs a pool.
    std::vector<KpbsRequest> requests;
    for (const BipartiteGraph& g : pool) {
      KpbsRequest request;
      request.demand = g;
      request.options =
          SolverOptions{k, beta, Algorithm::kOGGP, MatchingEngine::kWarm};
      requests.push_back(std::move(request));
    }
    BatchOptions sequential;
    sequential.threads = 1;
    BatchOptions pooled;
    pooled.threads = threads;
    double batch_seq_ms = 0;
    double batch_pool_ms = 0;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch timer;
      solve_kpbs_batch(requests, sequential);
      const double seq = timer.elapsed_ms();
      timer.reset();
      solve_kpbs_batch(requests, pooled);
      const double par = timer.elapsed_ms();
      if (r == 0 || seq < batch_seq_ms) batch_seq_ms = seq;
      if (r == 0 || par < batch_pool_ms) batch_pool_ms = par;
    }

    std::ofstream os(out);
    if (!os) throw Error("cannot write: " + out);
    os << "{\n"
       << "  \"bench\": \"warm_start\",\n"
       << "  \"config\": {\"n\": " << n << ", \"edges\": " << edges
       << ", \"max_weight\": " << max_weight
       << ", \"instances\": " << instances << ", \"k\": " << k
       << ", \"beta\": " << beta << ", \"repeat\": " << repeat << "},\n"
       << "  \"algorithms\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const AlgoResult& result = results[i];
      os << "    {\"name\": \"" << result.name << "\", \"cold_ms\": "
         << Table::fmt(result.cold_ms, 3) << ", \"warm_ms\": "
         << Table::fmt(result.warm_ms, 3) << ", \"speedup\": "
         << Table::fmt(result.speedup(), 3)
         << ", \"schedules_identical\": true, \"metrics\": {\n";
      write_phase_counters(os, "cold", phase_counters[i].first, true);
      write_phase_counters(os, "warm", phase_counters[i].second, false);
      os << "    }}" << (i + 1 < results.size() ? "," : "") << '\n';
    }
    os << "  ],\n"
       << "  \"batch\": {\"instances\": " << requests.size()
       << ", \"sequential_ms\": " << Table::fmt(batch_seq_ms, 3)
       << ", \"pooled_ms\": " << Table::fmt(batch_pool_ms, 3)
       << ", \"pool_speedup\": "
       << Table::fmt(batch_pool_ms > 0 ? batch_seq_ms / batch_pool_ms : 0, 3)
       << ", \"throughput_per_s\": "
       << Table::fmt(batch_pool_ms > 0
                         ? 1e3 * static_cast<double>(requests.size()) /
                               batch_pool_ms
                         : 0,
                     1)
       << "},\n"
       << "  \"journal\": {\"events\": " << journal_events
       << ", \"baseline_ms\": " << Table::fmt(baseline_ms, 3)
       << ", \"journaled_ms\": " << Table::fmt(journal_ms, 3)
       << ", \"overhead_frac\": " << Table::fmt(journal_overhead, 4)
       << "}\n"
       << "}\n";
    os.close();

    for (const AlgoResult& result : results) {
      std::cout << result.name << ": cold " << Table::fmt(result.cold_ms, 2)
                << " ms, warm " << Table::fmt(result.warm_ms, 2)
                << " ms, speedup " << Table::fmt(result.speedup(), 2)
                << "x (schedules identical)\n";
    }
    const PhaseCounters& oggp_warm = phase_counters.back().second;
    const std::uint64_t ledger_total =
        oggp_warm.ledger_hits + oggp_warm.ledger_misses;
    std::cout << "OGGP warm: " << oggp_warm.bottleneck_probes
              << " probes over " << oggp_warm.wrgp_steps
              << " steps, ledger hit rate "
              << Table::fmt(ledger_total > 0
                                ? static_cast<double>(oggp_warm.ledger_hits) /
                                      static_cast<double>(ledger_total)
                                : 0,
                            3)
              << ", seed hits " << oggp_warm.seed_hits << "/"
              << (oggp_warm.seed_hits + oggp_warm.seed_misses) << '\n';
    std::cout << "journal: " << journal_events << " events, warm OGGP "
              << Table::fmt(baseline_ms, 2) << " -> "
              << Table::fmt(journal_ms, 2) << " ms (overhead "
              << Table::fmt(journal_overhead * 100.0, 2) << "%)\n";
    std::cout << "batch: sequential " << Table::fmt(batch_seq_ms, 2)
              << " ms, pooled " << Table::fmt(batch_pool_ms, 2)
              << " ms\nwrote " << out << '\n';

    if (min_speedup > 0) {
      const double oggp_speedup = results.back().speedup();
      if (oggp_speedup < min_speedup) {
        std::cerr << "FAIL: warm OGGP speedup " << oggp_speedup
                  << " below required " << min_speedup << '\n';
        return 1;
      }
    }
    if (max_journal_overhead > 0 &&
        journal_overhead > max_journal_overhead) {
      std::cerr << "FAIL: journal overhead " << journal_overhead
                << " above allowed " << max_journal_overhead << '\n';
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
