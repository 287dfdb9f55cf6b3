#include "workloads.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "daemon.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "layers.hpp"
#include "validate/schedule_validator.hpp"

namespace perfbench {

using redist::ClientSession;
using redist::rpc::SolveRequest;
using redist::rpc::SolveResponse;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up is repeated and its median reported, so one slow fork or page
// fault does not decide setup_s.
constexpr std::size_t kSetups = 5;

// Tail caps, from repeated runs on a 4-core host: p99 of these classes
// did not repeat within the bounds, p90 did.
constexpr int kTailCap = 90;

// solve_sparse keeps solving past --seconds until it has this many
// samples: the tail rule needs 40 for a p75, and the host's speed swings
// in phases of seconds, so a longer window steadies the median.
constexpr std::size_t kMinSolves = 60;

// Open-loop rates, both far below the daemon's admission rate; each
// sender holds one connection, and connections never exceed the daemon's
// handler threads (a handler holds its worker for the connection's life).
constexpr double kRepeatRps = 50;
constexpr double kMixRps = 200;
constexpr int kConnections = kDaemonThreads;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v, int digits = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void line(Report& r, const std::string& name, double value,
          const std::string& unit, const std::string& note = "") {
  r.lines.push_back("  " + name + " = " + fmt(value) + " " + unit +
                    (note.empty() ? "" : "  (" + note + ")"));
}

void na(Report& r, const std::string& name) {
  r.lines.push_back("  " + name + " = n/a");
}

// Median and tail of one class of samples: printed under `prefix`, and
// returned as {p50, tail} for the result line.
std::pair<double, double> latency_lines(Report& r, const std::string& prefix,
                                        const std::vector<double>& samples) {
  const double p50 = median(samples);
  line(r, prefix + "_p50", p50, "ms", "n=" + std::to_string(samples.size()));
  const int q = tail_percentile(samples.size(), kTailCap);
  if (q == 0) {
    na(r, prefix + "_tail");
    return {p50, 0};
  }
  const double tail = percentile(samples, q);
  line(r, prefix + "_tail", tail, "ms",
       "p" + std::to_string(q) + ", n=" + std::to_string(samples.size()) +
           ", " + std::to_string(samples_beyond(samples.size(), q)) +
           " beyond");
  return {p50, tail};
}

void setup_line(Report& r, const std::vector<double>& setups) {
  std::string all;
  for (const double s : setups) {
    if (!all.empty()) all += ' ';
    all += fmt(s, 3);
  }
  line(r, "setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + ": " + all);
}

redist::ScheduleValidator validator_for(const redist::SolverOptions& o) {
  redist::ScheduleValidatorOptions v;
  v.k = o.k;
  v.beta = o.beta;
  v.check_approximation_bound = true;
  return redist::ScheduleValidator(v);
}

// The in-process answer a daemon reply must equal byte for byte.
struct Reference {
  SolveResponse answer;  ///< schedule text, bound and ratio
  std::string invalid;   ///< validator report when the schedule fails
};

// Solves `inputs[i]` for every i with `needed[i]`, on up to nproc
// threads (the daemon is stopped by then, so nothing else competes).
std::vector<Reference> reference_solves(const std::vector<SolveRequest>& inputs,
                                        const std::vector<bool>& needed) {
  std::vector<Reference> refs(inputs.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < inputs.size(); i = next++) {
        if (!needed[i]) continue;
        const Instance inst = from_request(inputs[i]);
        const redist::SolveResult solved =
            redist::solve_kpbs(inst.demand, inst.options);
        SolveResponse& a = refs[i].answer;
        a.schedule_text = redist::schedule_to_string(solved.schedule);
        a.lb_min_steps = solved.lower_bound.min_steps;
        a.lb_num = solved.lower_bound.min_transmission.num();
        a.lb_den = solved.lower_bound.min_transmission.den();
        a.evaluation_ratio = solved.evaluation_ratio;
        const redist::ValidationReport report =
            validator_for(inst.options).validate(inst.demand,
                                                 solved.schedule);
        if (!report.ok()) refs[i].invalid = report.to_string();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return refs;
}

// Schedule text, lower bound and ratio equal. The ratio is computed by the
// same code from the same integers on both sides, so it must match
// exactly. redist-lint: allow(float-eq)
bool same_answer(const SolveResponse& a, const SolveResponse& b) {
  return a.schedule_text == b.schedule_text &&
         a.lb_min_steps == b.lb_min_steps && a.lb_num == b.lb_num &&
         a.lb_den == b.lb_den && a.evaluation_ratio == b.evaluation_ratio;
}

// The gates shared by both daemon workloads, run after the window:
// every reply equals the in-process solve of its input, whose schedule
// passes the validator with the 2-approximation bound; every cache hit
// equals the first answer for its input. Failed requests count as
// failures. Returns the evaluation ratios of the replies.
std::vector<double> check_replies(Report& r,
                                  const std::vector<SolveRequest>& inputs,
                                  const std::vector<SolveResponse>& first,
                                  const std::vector<Arrival>& arrivals,
                                  const std::vector<Outcome>& outcomes,
                                  const std::vector<SolveResponse>& replies) {
  std::vector<bool> needed(inputs.size(), false);
  for (std::size_t i = 0; i < first.size(); ++i) needed[i] = true;
  for (const Arrival& a : arrivals) needed[a.input] = true;
  const std::vector<Reference> refs = reference_solves(inputs, needed);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (needed[i] && !refs[i].invalid.empty()) {
      r.violation("input " + std::to_string(i) + " schedule invalid: " +
                  refs[i].invalid);
    }
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!same_answer(first[i], refs[i].answer)) {
      r.violation("seeding answer for input " + std::to_string(i) +
                  " differs from the in-process solve");
    }
  }
  std::vector<double> ratios;
  std::vector<const SolveResponse*> first_seen(inputs.size(), nullptr);
  for (std::size_t i = 0; i < first.size(); ++i) first_seen[i] = &first[i];
  r.attempted += outcomes.size();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      if (r.failed++ == 0) {
        r.lines.push_back("  first failed request (" + std::to_string(i) +
                          "): " + outcomes[i].error);
      }
      continue;
    }
    const std::size_t input = arrivals[i].input;
    const SolveResponse& reply = replies[i];
    if (!same_answer(reply, refs[input].answer)) {
      r.violation("reply " + std::to_string(i) +
                  " differs from the in-process solve of input " +
                  std::to_string(input));
      continue;
    }
    if (first_seen[input] == nullptr) {
      first_seen[input] = &reply;
    } else if (reply.served_from == redist::rpc::ServedFrom::kCacheHit &&
               !same_answer(reply, *first_seen[input])) {
      r.violation("cache hit " + std::to_string(i) +
                  " differs from the first answer for its input");
      continue;
    }
    ratios.push_back(reply.evaluation_ratio);
  }
  return ratios;
}

// Starts the daemon, dials the benchmark's connections and sends `seeds`
// once (untimed by the window; timed as set-up).
struct LiveDaemon {
  std::unique_ptr<DaemonProcess> process;
  std::vector<ClientSession> sessions;
  std::vector<SolveResponse> first;
};

LiveDaemon start_daemon(const RunConfig& config,
                        const std::vector<SolveRequest>& seeds,
                        int seed_passes) {
  LiveDaemon live;
  live.process = std::make_unique<DaemonProcess>(config.cli, config.work_dir);
  live.sessions = dial_sessions(live.process->port(), kConnections);
  for (int pass = 0; pass < seed_passes; ++pass) {
    std::vector<SolveResponse> answers = send_all(live.sessions, seeds);
    if (pass == 0) live.first = std::move(answers);
  }
  return live;
}

void stamp_daemon(Report& r, const LiveDaemon& live, double rate) {
  r.lines.push_back("daemon: " + live.process->banner());
  r.lines.push_back(std::string("daemon flags: none passed; defaults ") +
                    kDaemonDefaults);
  r.lines.push_back("offered: " + fmt(rate, 0) + " rps open loop (evenly "
                    "spaced) < admission " + fmt(kDaemonAdmissionRps, 0) +
                    " rps; connections " + std::to_string(kConnections) +
                    " <= daemon threads " + std::to_string(kDaemonThreads));
}

void open_loop_lines(Report& r, const std::vector<Outcome>& outcomes,
                     const ClassSplit& split) {
  std::vector<double> late;
  for (const Outcome& o : outcomes) late.push_back(o.late_ms);
  r.layer["gen.late_ms_p99"] = percentile(late, 99);
  r.layer["runtime.admission_rejects"] =
      static_cast<double>(split.rate_limited);
  const double ok = static_cast<double>(split.hits + split.near_miss +
                                        split.cold);
  if (ok > 0) {
    r.layer["service.hit_ratio"] = static_cast<double>(split.hits) / ok;
    r.layer["service.near_miss_ratio"] =
        static_cast<double>(split.near_miss) / ok;
    r.layer["service.cold_ratio"] = static_cast<double>(split.cold) / ok;
  }
  r.lines.push_back(
      "  classes: cache_hit=" + std::to_string(split.hits) +
      " warm_near_miss=" + std::to_string(split.near_miss) +
      " cold=" + std::to_string(split.cold) +
      " failed=" + std::to_string(split.failed) +
      " (rate_limited=" + std::to_string(split.rate_limited) + ")");
  line(r, "gen.late_ms_p99", r.layer["gen.late_ms_p99"], "ms",
       "generator lateness, n=" + std::to_string(late.size()));
}

void common_tail(Report& r, const std::vector<double>& setups,
                 double latency_p50, double latency_tail,
                 const std::vector<double>& ratios, double rss_mb) {
  const double ratio = mean(ratios);
  line(r, "eval_ratio_mean", ratio, "ratio",
       "over " + std::to_string(ratios.size()) + " schedules");
  line(r, "peak_rss_mb", rss_mb, "MiB");
  const double fail_share =
      r.attempted == 0 ? 0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  line(r, "fail_share", fail_share, "share",
       std::to_string(r.failed) + " of " + std::to_string(r.attempted));
  r.end_to_end = {{"setup_s", median(setups), "s"},
                  {"latency_ms_p50", latency_p50, "ms"},
                  {"latency_ms_tail", latency_tail, "ms"},
                  {"eval_ratio_mean", ratio, "ratio"},
                  {"peak_rss_mb", rss_mb, "MiB"}};
}

// Per-layer solver split over `splits`: medians of the per-solve times,
// means of the per-solve counts, and the reconciliation against the
// untraced solve_kpbs time.
void solve_layer_metrics(Report& r, const std::vector<SolveSplit>& splits) {
  if (splits.empty()) return;
  std::vector<double> select, ledger, residual, reg, lb, other, solve, traced;
  double named_sum = 0;
  double solve_sum = 0;
  double steps = 0, probes = 0, phases = 0, paths = 0, hits = 0, misses = 0;
  for (const SolveSplit& s : splits) {
    select.push_back(s.select_ms);
    ledger.push_back(s.ledger_ms);
    residual.push_back(s.peel_residual_ms);
    reg.push_back(s.regularize_ms);
    lb.push_back(s.lower_bound_ms);
    other.push_back(s.solve_ms - s.named_ms());
    solve.push_back(s.solve_ms);
    traced.push_back(s.traced_ms);
    named_sum += s.named_ms();
    solve_sum += s.solve_ms;
    steps += static_cast<double>(s.steps);
    probes += static_cast<double>(s.probes);
    phases += static_cast<double>(s.hk_phases);
    paths += static_cast<double>(s.augmenting_paths);
    hits += static_cast<double>(s.seed_hits);
    misses += static_cast<double>(s.seed_misses);
  }
  const auto n = static_cast<double>(splits.size());
  r.layer["matching.select_ms"] = median(select);
  r.layer["matching.ledger_ms"] = median(ledger);
  r.layer["kpbs.peel_residual_ms"] = median(residual);
  r.layer["kpbs.regularize_ms"] = median(reg);
  r.layer["kpbs.lower_bound_ms"] = median(lb);
  r.layer["kpbs.other_ms"] = median(other);
  r.layer["kpbs.steps"] = steps / n;
  r.layer["matching.probes"] = probes / n;
  r.layer["matching.hk_phases"] = phases / n;
  r.layer["matching.augmenting_paths"] = paths / n;
  r.layer["matching.seed_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  r.layer["matching.ms_per_probe"] =
      probes > 0 ? mean(select) * n / probes : 0;
  r.layer["obs.trace_coverage"] = named_sum / solve_sum;
  r.layer["obs.trace_overhead"] = median(traced) / median(solve) - 1;
  r.lines.push_back("  solver split over " + std::to_string(splits.size()) +
                    " solves: named layers cover " +
                    fmt(100 * named_sum / solve_sum, 1) +
                    "% of solve_kpbs time; traced replay " +
                    fmt(100 * r.layer["obs.trace_overhead"], 1) +
                    "% slower than untraced");
}

}  // namespace

void Report::violation(const std::string& what) {
  correct = false;
  ++failed;
  lines.push_back("  VIOLATION: " + what);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"matching.select_ms", "ms"},
      {"matching.ledger_ms", "ms"},
      {"kpbs.peel_residual_ms", "ms"},
      {"kpbs.regularize_ms", "ms"},
      {"kpbs.lower_bound_ms", "ms"},
      {"kpbs.other_ms", "ms"},
      {"kpbs.steps", "count"},
      {"matching.probes", "count"},
      {"matching.hk_phases", "count"},
      {"matching.augmenting_paths", "count"},
      {"matching.seed_hit_ratio", "ratio"},
      {"matching.ms_per_probe", "ms"},
      {"net.overhead_ms_p50", "ms"},
      {"service.serve_ms_p50", "ms"},
      {"net.decode_ms", "ms"},
      {"graph.matrix_ms", "ms"},
      {"service.canonicalize_ms", "ms"},
      {"service.fingerprint_ms", "ms"},
      {"service.lookup_ms", "ms"},
      {"net.encode_ms", "ms"},
      {"net.request_bytes", "bytes"},
      {"net.response_bytes", "bytes"},
      {"service.hit_ratio", "ratio"},
      {"service.near_miss_ratio", "ratio"},
      {"service.cold_ratio", "ratio"},
      {"service.hit_ms_p50", "ms"},
      {"runtime.admission_rejects", "count"},
      {"gen.late_ms_p99", "ms"},
      {"obs.trace_coverage", "ratio"},
      {"obs.trace_overhead", "ratio"},
  };
  return kMetrics;
}

Report run_solve_sparse(const RunConfig& config) {
  Report r;
  r.lines.push_back(
      "workload solve_sparse: in-process solve_kpbs, sparse_giant n=1024 "
      "m=3072 k=16 beta=1, warm OGGP, 1 thread, closed loop, distinct "
      "seeds");
  // Set-up builds the instance pool. It is memory-bound and the host's
  // speed drifts in phases of seconds, so its kSetups timings are spread
  // through the run: once before the window, then every kSetupEvery solves
  // (throwaway pools, outside each solve's timing).
  constexpr std::size_t kPool = 48;
  constexpr std::size_t kSetupEvery = kMinSolves / kSetups;
  std::vector<double> setups;
  const auto build_pool = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> built;
    for (std::size_t i = 0; i < kPool; ++i) {
      built.push_back(make_instance(sparse_spec(config.seed, i)));
    }
    setups.push_back(seconds_since(t0));
    return built;
  };
  std::vector<Instance> pool = build_pool();

  std::vector<double> latency;
  std::vector<redist::SolveResult> results;
  std::vector<SolveSplit> splits;
  const Clock::time_point start = Clock::now();
  // The traced run reports per-solve medians of the layers, not a tail, so
  // it stops at --seconds.
  const std::size_t min_solves = config.trace ? 1 : kMinSolves;
  for (std::size_t i = 0;
       seconds_since(start) < config.seconds || results.size() < min_solves;
       ++i) {
    if (i == pool.size()) {
      pool.push_back(make_instance(sparse_spec(config.seed, i)));
    }
    if (i > 0 && i % kSetupEvery == 0 && setups.size() < kSetups) {
      build_pool();
    }
    redist::SolveResult solved;
    if (config.trace) {
      splits.push_back(split_solve(pool[i], i % 2 == 0, solved));
      latency.push_back(splits.back().solve_ms);
    } else {
      const Clock::time_point t0 = Clock::now();
      solved = redist::solve_kpbs(pool[i].demand, pool[i].options);
      latency.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
    }
    results.push_back(std::move(solved));
  }
  while (setups.size() < kSetups) build_pool();

  // Gates, outside the window.
  std::vector<double> ratios;
  r.attempted = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const redist::ValidationReport report =
        validator_for(pool[i].options).validate(pool[i].demand,
                                                results[i].schedule);
    if (!report.ok()) {
      r.violation("solve " + std::to_string(i) + ": " + report.to_string());
      continue;
    }
    if (config.trace && !splits[i].identical) {
      r.violation("solve " + std::to_string(i) +
                  ": traced replay differs from solve_kpbs");
      continue;
    }
    ratios.push_back(results[i].evaluation_ratio);
  }

  r.lines.push_back("seeds: benchmark seed " + std::to_string(config.seed) +
                    "; instance i uses sparse_giant seed derived from (seed, "
                    "i); " +
                    std::to_string(results.size()) + " solves in " +
                    fmt(seconds_since(start), 1) + " s");
  setup_line(r, setups);
  const auto [p50, tail] = latency_lines(r, "latency_ms", latency);
  na(r, "hit_ms_p50");
  na(r, "solve_ms_p50");
  na(r, "solve_ms_tail");
  common_tail(r, setups, p50, tail, ratios, self_peak_rss_mb());
  if (config.trace) {
    solve_layer_metrics(r, splits);
    if (r.layer["obs.trace_coverage"] < 0.9) {
      r.violation("named layers cover less than 90% of solve_kpbs time");
    }
  }
  return r;
}

Report run_daemon_repeat(const RunConfig& config) {
  Report r;
  r.lines.push_back(
      "workload daemon_repeat: redist_cli daemon over rpc.v1, 4 distinct "
      "sparse_giant n=1024 requests pre-solved in set-up, every timed "
      "request a cache hit");
  constexpr std::size_t kDistinct = 4;
  std::vector<double> setups;
  std::vector<SolveRequest> inputs;
  LiveDaemon live;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (live.process) live.process->stop(live.sessions);
    const Clock::time_point t0 = Clock::now();
    inputs.clear();
    for (std::size_t i = 0; i < kDistinct; ++i) {
      inputs.push_back(to_request(make_instance(sparse_spec(config.seed,
                                                            1000 + i))));
    }
    live = start_daemon(config, inputs, 1);
    setups.push_back(seconds_since(t0));
  }
  stamp_daemon(r, live, kRepeatRps);

  redist::Rng pick(config.seed ^ 0x5EED5EEDULL);
  const std::vector<Arrival> arrivals =
      open_loop_schedule(kRepeatRps, config.seconds, [&](std::size_t) {
        return static_cast<std::size_t>(
            pick.uniform_int(0, static_cast<std::int64_t>(kDistinct) - 1));
      });
  std::vector<SolveResponse> replies;
  const std::vector<Outcome> outcomes =
      run_open_loop(live.sessions, arrivals, inputs, &replies);

  const double rss_mb = live.process->stop(live.sessions);

  std::vector<double> ratios =
      check_replies(r, inputs, live.first, arrivals, outcomes, replies);
  const ClassSplit split = split_by_class(outcomes);
  if (split.cold + split.near_miss > 0) {
    r.violation("a timed request was not served from the cache");
  }
  std::vector<double> latency;
  std::vector<double> overhead;
  std::vector<double> serve;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    latency.push_back(o.latency_ms);
    overhead.push_back(o.round_trip_ms - o.server_ms);
    serve.push_back(o.server_ms);
  }

  r.lines.push_back("seeds: benchmark seed " + std::to_string(config.seed) +
                    "; " + std::to_string(outcomes.size()) +
                    " requests over " + fmt(config.seconds, 0) + " s");
  setup_line(r, setups);
  const auto [p50, tail] = latency_lines(r, "latency_ms", latency);
  na(r, "hit_ms_p50");
  na(r, "solve_ms_p50");
  na(r, "solve_ms_tail");
  common_tail(r, setups, p50, tail, ratios, rss_mb);
  open_loop_lines(r, outcomes, split);
  r.layer["net.overhead_ms_p50"] = median(overhead);
  r.layer["service.serve_ms_p50"] = median(serve);
  line(r, "net.overhead_ms_p50", median(overhead), "ms",
       "round trip minus server solve_ms");
  line(r, "service.serve_ms_p50", median(serve), "ms", "server solve_ms");

  if (config.trace) {
    // Untraced serve_solve and the traced stage replay alternate, request
    // by request and in alternating order, in this process: the daemon's
    // own serve_ms runs in another process under other conditions, so it
    // is printed beside the reconciliation but not divided into it.
    ServeReplay replay(inputs, live.first);
    std::vector<double> untraced, decode, matrix, canon, fp, lookup, encode,
        total;
    double req = 0, resp = 0;
    for (std::size_t k = 0; k < 40 * inputs.size(); ++k) {
      const std::size_t i = k % inputs.size();
      bool hit = false;
      ServeSplit s;
      if (k % 2 == 0) {
        untraced.push_back(replay.untraced(i, hit));
        s = replay.traced(i);
      } else {
        s = replay.traced(i);
        untraced.push_back(replay.untraced(i, hit));
      }
      if (!hit || !s.hit) r.violation("in-process replay missed the cache");
      decode.push_back(s.decode_ms);
      matrix.push_back(s.matrix_ms);
      canon.push_back(s.canonicalize_ms);
      fp.push_back(s.fingerprint_ms);
      lookup.push_back(s.lookup_ms);
      encode.push_back(s.encode_ms);
      total.push_back(s.serve_ms());
      req += static_cast<double>(s.request_bytes);
      resp += static_cast<double>(s.response_bytes);
    }
    const auto n = static_cast<double>(total.size());
    r.layer["net.decode_ms"] = median(decode);
    r.layer["graph.matrix_ms"] = median(matrix);
    r.layer["service.canonicalize_ms"] = median(canon);
    r.layer["service.fingerprint_ms"] = median(fp);
    r.layer["service.lookup_ms"] = median(lookup);
    r.layer["net.encode_ms"] = median(encode);
    r.layer["net.request_bytes"] = req / n;
    r.layer["net.response_bytes"] = resp / n;
    const double named = median(matrix) + median(canon) + median(fp) +
                         median(lookup);
    r.layer["obs.trace_coverage"] = named / median(untraced);
    r.layer["obs.trace_overhead"] = median(total) / median(untraced) - 1;
    r.lines.push_back(
        "  serve split over " + std::to_string(total.size()) +
        " in-process hits: named layers " + fmt(named) + " ms cover " +
        fmt(100 * r.layer["obs.trace_coverage"], 1) +
        "% of in-process serve_solve (" + fmt(median(untraced)) +
        " ms) and " + fmt(100 * named / median(serve), 1) +
        "% of the daemon's service.serve_ms_p50");
    if (r.layer["obs.trace_coverage"] < 0.9) {
      r.violation("named layers cover less than 90% of serve_solve time");
    }
  }
  return r;
}

Report run_daemon_mix(const RunConfig& config) {
  Report r;
  const MixShares shares;
  r.lines.push_back(
      "workload daemon_mix: redist_cli daemon over rpc.v1, paper-sized "
      "uniform/heterogeneous/hotspot 16x16 and asymmetric 48x6 requests; "
      "script shares repeat=" + fmt(shares.repeat, 2) +
      " near_miss=" + fmt(shares.near_miss, 2) +
      " new=" + fmt(1 - shares.repeat - shares.near_miss, 2));
  std::vector<double> setups;
  MixScript script;
  LiveDaemon live;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (live.process) live.process->stop(live.sessions);
    const Clock::time_point t0 = Clock::now();
    script = make_mix_script(config.seed, kMixRps, config.seconds, shares);
    // Two passes over the hot set: the second makes every hot entry a hit
    // once, so LFU eviction takes the one-off entries first.
    const std::vector<SolveRequest> hot(script.inputs.begin(),
                                        script.inputs.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                script.hot));
    live = start_daemon(config, hot, 2);
    setups.push_back(seconds_since(t0));
  }
  stamp_daemon(r, live, kMixRps);

  std::vector<SolveResponse> replies;
  const std::vector<Outcome> outcomes =
      run_open_loop(live.sessions, script.arrivals, script.inputs, &replies);
  const double rss_mb = live.process->stop(live.sessions);

  std::vector<double> ratios = check_replies(r, script.inputs, live.first,
                                             script.arrivals, outcomes,
                                             replies);
  const ClassSplit split = split_by_class(outcomes);

  r.lines.push_back("seeds: benchmark seed " + std::to_string(config.seed) +
                    "; " + std::to_string(outcomes.size()) +
                    " requests over " + fmt(config.seconds, 0) + " s, " +
                    std::to_string(script.inputs.size()) +
                    " distinct inputs (" + std::to_string(script.hot) +
                    " hot); " +
                    std::to_string(script.hot + split.cold + split.near_miss) +
                    " cache inserts into capacity 64");
  setup_line(r, setups);
  na(r, "latency_ms_p50");
  na(r, "latency_ms_tail");
  const double hit_p50 = median(split.hit_ms);
  line(r, "hit_ms_p50", hit_p50, "ms",
       "n=" + std::to_string(split.hit_ms.size()));
  const auto [p50, tail] = latency_lines(r, "solve_ms", split.solve_ms);
  r.lines.push_back(
      "  (result line: latency_ms_p50/_tail carry solve_ms_p50/_tail here)");
  common_tail(r, setups, p50, tail, ratios, rss_mb);
  open_loop_lines(r, outcomes, split);
  r.layer["service.hit_ms_p50"] = hit_p50;

  if (config.trace) {
    // The solver split over the mix's solved inputs (the first 100 in
    // arrival order), each replayed in-process.
    std::vector<SolveSplit> splits;
    std::vector<bool> seen(script.inputs.size(), false);
    for (std::size_t i = 0; i < outcomes.size() && splits.size() < 100; ++i) {
      const std::size_t input = script.arrivals[i].input;
      if (!outcomes[i].ok || seen[input] ||
          outcomes[i].served_from == redist::rpc::ServedFrom::kCacheHit) {
        continue;
      }
      seen[input] = true;
      redist::SolveResult solved;
      splits.push_back(split_solve(from_request(script.inputs[input]),
                                   splits.size() % 2 == 0, solved));
      if (!splits.back().identical) {
        r.violation("traced replay differs from solve_kpbs on input " +
                    std::to_string(input));
      }
    }
    solve_layer_metrics(r, splits);
  }
  return r;
}

}  // namespace perfbench
