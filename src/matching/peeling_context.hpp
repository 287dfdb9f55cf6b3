// Warm-start peeling engine for WRGP (GGP/OGGP).
//
// The cold OGGP path recomputes everything per peeling step: it re-sorts the
// distinct residual weights and restarts Hopcroft–Karp from a greedy seed
// for every probe of the bottleneck binary search. But consecutive WRGP
// steps differ only by the edges the previous step clamped, so almost all of
// that work is repeated. PeelingContext persists the reusable state:
//
//  * a weight ledger (multiset of alive residual weights) updated in
//    O(|M| log d) per step, so the sorted distinct-weight array of the
//    bottleneck search is rebuilt by traversal instead of an O(m log m)
//    sort, and shrinks as weights are consumed;
//  * the previous step's matching, used to warm-seed every feasibility
//    probe of the binary search (solve_seeded) — probes only decide
//    feasibility, which is a property of the graph, not of the matching
//    found, so warm seeds cannot change the search outcome. The seed is
//    always a matching of the graph being peeled (its edge ids index that
//    graph), which is what makes the seed-hit shortcut sound;
//  * one rebindable Hopcroft–Karp solver and one threshold mask buffer,
//    reused across probes and steps (no per-probe allocations).
//
// Bit-identical guarantee: once the binary search lands on the optimal
// threshold (provably the same index the cold search finds), the final
// matching is produced by a canonical greedy-seeded Hopcroft–Karp run at
// that threshold — exactly the computation bottleneck_perfect_threshold
// performs — so warm and cold peeling emit identical schedules, step for
// step. The shared bottleneck value is asserted on every step.
//
// One PeelingContext per peel run: the ledger and the seed describe one
// regularized graph, so a context is never shared between instances.
#pragma once

#include <map>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("matching");

namespace redist {

class PeelingContext {
 public:
  PeelingContext() = default;

  /// Same matching as max_matching(g) (the GGP strategy), with the solver
  /// buffers reused across steps instead of reallocated.
  REDIST_DETERMINISTIC
  Matching arbitrary_perfect(const BipartiteGraph& g);

  /// Same matching as bottleneck_perfect_threshold(g) (the OGGP strategy),
  /// warm-started from the previous step. Throws if no perfect matching
  /// exists; requires equal side sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m`.
  /// Must be called *before* the weights are decreased, once per step, with
  /// the matching this context returned for the step.
  REDIST_DETERMINISTIC
  void before_peel(const BipartiteGraph& g, const Matching& m, Weight amount);

 private:
  void ensure_ledger(const BipartiteGraph& g);

  HopcroftKarp hk_;                      // rebindable solver (reused buffers)
  std::vector<Weight> ws_;               // ascending distinct weights scratch
  Matching last_;                        // previous step's final matching
  std::map<Weight, EdgeId> weight_count_;  // alive residual weight multiset
  bool tracking_weights_ = false;        // ledger initialized (OGGP path)
};

}  // namespace redist
