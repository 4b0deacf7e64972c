// Pareto-frontier dynamic program -- treesat's scalable exact solver.
//
// This is our extension beyond the paper (DESIGN.md §6). Instead of
// searching the assignment graph, it exploits the structure of the §3
// objective directly:
//
//   minimize  λ_S·(H_0 + Σ_c host_c) + λ_B·max_c load_c
//
// where H_0 is the forced host time (root + conflict nodes), and for each
// colour c, (load_c, host_c) ranges over the outcomes of cutting colour c's
// regions: load_c = satellite-c work + uplink time, host_c = the h of the
// region nodes left above the cut. For one region the achievable outcomes
// form a small Pareto frontier computed bottom-up:
//
//   F(sensor) = { (comm_up, 0) }
//   F(v)      = prune( {(sat_subtree(v)+comm_up(v), 0)}          -- cut at v
//                      ∪  (⊕_children F) + (0, h_v) )            -- v on host
//
// (⊕ is the Minkowski sum: loads add, host times add.) Regions of the same
// colour combine with another ⊕; finally a linear sweep over candidate
// bottleneck values L picks, per colour, the cheapest point with load <= L
// and evaluates the objective at the *achieved* maximum. The sweep is exact
// for every λ: for the optimal solution's bottleneck L*, each per-colour
// choice is at least as good as the optimum's, so candidate L* already
// attains the optimal value.
//
// Engine (one engine; core/pareto_engine.hpp holds its internals):
//   * Frontiers live in a per-colour FrontierArena: structure-of-arrays
//     (load[], host[]) stored contiguously, one span per frontier. No
//     per-point cut vectors exist during the solve -- every point carries
//     backpointers (left parent, right parent, cut edge) and the optimal
//     cut is reconstructed once, at the end, for the chosen points only.
//   * ⊕ is a merge, not a product-then-sort: both inputs are sorted by
//     load with strictly decreasing host, so the product is a k-way merge
//     over |a| sorted streams, dominance-pruned on the fly by a SIMD
//     skip-ahead. Dominated points are never materialized.
//   * The bottom-up pass is an explicit iterative post-order traversal, so
//     chain-shaped trees tens of thousands of nodes deep cannot overflow
//     the stack (workload/generator.hpp's chain_tree is the regression
//     workload for this).
//   * Colour pipelines are independent; ParetoDpOptions::dp_threads farms
//     them to the work-stealing scheduler (core/worklist.hpp's
//     run_worklist), widest-colour-first, with a deterministic
//     colour-ordered combine, so reports are byte-identical at any thread
//     count.
//   * Warm reuse is an optional input, not a second engine. Given a
//     FrontierCache (core/frontier_cache.hpp: the content-keyed colour and
//     region caches a ResolveSession keeps), the solve runs every colour
//     inline on one pooled pipeline: a colour hit feeds the sweep straight
//     from the cached arrays, a region hit enters the colour's fold as a
//     stored span whose cut is a slice of the entry, and every frontier
//     built on a miss is stored. Keys are exact content, so a cached solve
//     returns the cold solve's result bit for bit.
//
// The pre-arena reference engine and the scalar merge kernel that
// cross-validate this one live in the test tree (tests/oracle/).
//
// Frontier sizes are worst-case exponential (the problem embeds tree
// knapsack) but domination pruning keeps them tiny on realistic cost
// distributions; `max_frontier` guards the pathological case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/assignment.hpp"
#include "core/objective.hpp"

namespace treesat {

class FrontierCache;

struct ParetoDpStats {
  std::size_t max_region_frontier = 0;  ///< largest per-region frontier
  std::size_t max_colour_frontier = 0;  ///< largest per-colour frontier after merging
  std::size_t candidates_swept = 0;     ///< bottleneck candidates evaluated
  // Arena counters: the work this solve performed (a cached solve counts
  // only what it rebuilt). Aggregated in colour order, so they are
  // byte-identical at any dp_threads setting.
  std::size_t arena_bytes = 0;           ///< total frontier-arena storage
  std::size_t peak_frontier = 0;         ///< widest frontier anywhere in the DP
  std::size_t minkowski_merges = 0;      ///< merge operations performed
  std::size_t merge_points_generated = 0;///< product points examined by merges
  std::size_t merge_points_kept = 0;     ///< points surviving dominance pruning

  /// Fraction of examined Minkowski product points discarded as dominated.
  [[nodiscard]] double prune_ratio() const {
    if (merge_points_generated == 0) return 0.0;
    return 1.0 - static_cast<double>(merge_points_kept) /
                     static_cast<double>(merge_points_generated);
  }
};

struct ParetoDpResult {
  Assignment assignment;
  DelayBreakdown delay;
  double objective = 0.0;
  ParetoDpStats stats;
};

/// Reusable scratch for cached solves: retains the colour pipeline (frontier
/// arena, span table, merge staging buffers) across calls so warm
/// re-solves stop reallocating the frontier storage every step. A
/// scratch-backed solve is bit-identical to a scratch-free one -- only the
/// allocation behaviour changes. Not thread-safe; use one per thread
/// (core/incremental.hpp's ArenaPool hands them out per session). The byte
/// counters are cumulative over the scratch's lifetime, so per-step deltas
/// are snapshot differences.
class ParetoScratch {
 public:
  ParetoScratch();
  ~ParetoScratch();
  ParetoScratch(ParetoScratch&&) noexcept;
  ParetoScratch& operator=(ParetoScratch&&) noexcept;
  ParetoScratch(const ParetoScratch&) = delete;
  ParetoScratch& operator=(const ParetoScratch&) = delete;

  /// Cumulative frontier/staging content bytes served through this scratch
  /// (deterministic: a function of the solved instances, not of capacity).
  [[nodiscard]] std::size_t served_bytes() const;
  /// Cumulative bytes of *new* capacity the scratch had to allocate; stays
  /// flat once the retained storage covers the working set.
  [[nodiscard]] std::size_t grown_bytes() const;
  /// Capacity currently retained for reuse.
  [[nodiscard]] std::size_t retained_bytes() const;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

struct ParetoDpOptions {
  SsbObjective objective = SsbObjective::end_to_end();
  /// Frontier size limit; exceeding it throws ResourceLimit.
  std::size_t max_frontier = std::size_t{1} << 20;
  /// Worker threads for the independent per-colour pipelines (spec key
  /// dp_threads=). 1 (default) runs inline; 0 means one worker per
  /// hardware thread. Reports are byte-identical at any value.
  std::size_t dp_threads = 1;
};

/// Exact optimal assignment via the Pareto DP. With a `cache`, colours run
/// inline on `scratch`'s pipeline (a local one when null) and reuse/extend
/// the cache; the result is byte-identical to the cache-free solve.
[[nodiscard]] ParetoDpResult pareto_dp_solve(const Colouring& colouring,
                                             const ParetoDpOptions& options = {},
                                             FrontierCache* cache = nullptr,
                                             ParetoScratch* scratch = nullptr);

/// Per-node minimum achievable satellite load: for every assignable v, the
/// smallest load coordinate of F(v) -- min(cut at v, Σ children minima) --
/// computed by one iterative postorder sweep (non-assignable nodes read 0).
/// This is the admissible per-region bound branch-and-bound
/// (heuristics/branch_bound.cpp) seeds its colour-load suffixes with.
[[nodiscard]] std::vector<double> region_min_loads(const Colouring& colouring);

}  // namespace treesat
