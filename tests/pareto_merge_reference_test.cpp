// Cross-validation wall for the merge-based Minkowski engine: the k-way
// merge with on-the-fly dominance pruning must reproduce the sort-then-scan
// reference engine (tests/oracle/) bit for bit -- same (load, host) sequences on
// random frontier pairs, byte-identical optima (values *and* cut node
// sets) on the scenario library and on random instances.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/pareto_dp.hpp"
#include "io/json.hpp"
#include "oracle/oracle.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

using oracle::ParetoPoint;

/// A random valid frontier: random (load, host) points with synthetic cut
/// ids, pruned with the reference rules (sorted by load, host strictly
/// decreasing).
std::vector<ParetoPoint> random_frontier(Rng& rng, std::size_t max_points) {
  std::vector<ParetoPoint> points(1 + rng.index(max_points));
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].load = rng.uniform_real(0.0, 100.0);
    points[i].host = rng.uniform_real(0.0, 100.0);
    points[i].cut = {CruId{rng.index(1000)}};
  }
  std::sort(points.begin(), points.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    if (a.load != b.load) return a.load < b.load;
    return a.host < b.host;
  });
  std::vector<ParetoPoint> kept;
  double best = std::numeric_limits<double>::infinity();
  for (ParetoPoint& p : points) {
    if (p.host < best) {
      best = p.host;
      kept.push_back(std::move(p));
    }
  }
  return kept;
}

TEST(ParetoMerge, MatchesReferenceOn200RandomFrontierPairs) {
  Rng rng(0xA12E4A);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<ParetoPoint> a = random_frontier(rng, 40);
    const std::vector<ParetoPoint> b = random_frontier(rng, 40);
    const auto merged = oracle::merge(a, b, std::size_t{1} << 20);
    const auto reference = oracle::reference_minkowski(a, b, std::size_t{1} << 20);
    ASSERT_EQ(merged.size(), reference.size()) << "trial " << trial;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      // Bitwise: both engines compute a[i].load + b[j].load in the same
      // operand order, so even rounding must agree.
      EXPECT_EQ(merged[i].load, reference[i].load) << "trial " << trial << " point " << i;
      EXPECT_EQ(merged[i].host, reference[i].host) << "trial " << trial << " point " << i;
      EXPECT_EQ(merged[i].cut, reference[i].cut) << "trial " << trial << " point " << i;
    }
  }
}

TEST(ParetoMerge, EmptyInputsYieldEmptyProducts) {
  // The DP never feeds empty frontiers, but the merge kernel accepts them
  // (the reference prunes the empty product to an empty frontier) and must
  // keep doing so instead of reading stream heads that do not exist.
  Rng rng(0xE117);
  const std::vector<ParetoPoint> a = random_frontier(rng, 8);
  const std::vector<ParetoPoint> none;
  EXPECT_TRUE(oracle::merge(a, none, 16).empty());
  EXPECT_TRUE(oracle::merge(none, a, 16).empty());
  EXPECT_TRUE(oracle::merge(none, none, 16).empty());
}

TEST(ParetoMerge, RegionFrontiersMatchReferenceOnRandomTrees) {
  Rng rng(0x5EED5);
  for (int trial = 0; trial < 25; ++trial) {
    TreeGenOptions o;
    o.compute_nodes = 6 + rng.index(20);
    o.satellites = 1 + rng.index(4);
    o.policy = trial % 2 == 0 ? SensorPolicy::kClustered : SensorPolicy::kScattered;
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);
    for (const CruId r : colouring.region_roots()) {
      const auto arena = oracle::engine_region_frontier(colouring, r, std::size_t{1} << 20);
      const auto reference =
          oracle::reference_region_frontier(colouring, r, std::size_t{1} << 20);
      ASSERT_EQ(arena.size(), reference.size()) << "trial " << trial;
      for (std::size_t i = 0; i < arena.size(); ++i) {
        EXPECT_EQ(arena[i].load, reference[i].load);
        EXPECT_EQ(arena[i].host, reference[i].host);
        EXPECT_EQ(arena[i].cut, reference[i].cut);
      }
    }
  }
}

TEST(ParetoMerge, ByteIdenticalOptimaOnTheScenarioLibrary) {
  std::vector<CruTree> trees;
  for (const Scenario& sc : standard_scenarios()) {
    trees.push_back(sc.workload.lower(sc.platform));
  }
  trees.push_back(paper_running_example());
  for (const CruTree& tree : trees) {
    const Colouring colouring(tree);
    const ParetoDpResult arena = pareto_dp_solve(colouring);
    const ParetoDpResult reference = oracle::reference_solve(colouring);
    EXPECT_EQ(arena.objective, reference.objective);  // bitwise
    EXPECT_EQ(arena.assignment.cut_nodes(), reference.assignment.cut_nodes());
    // The whole serialized assignment, byte for byte.
    EXPECT_EQ(assignment_to_json(arena.assignment), assignment_to_json(reference.assignment));
    // Shared sweep statistics agree; the arena adds its own counters.
    EXPECT_EQ(arena.stats.max_region_frontier, reference.stats.max_region_frontier);
    EXPECT_EQ(arena.stats.max_colour_frontier, reference.stats.max_colour_frontier);
    EXPECT_EQ(arena.stats.candidates_swept, reference.stats.candidates_swept);
    EXPECT_GT(arena.stats.arena_bytes, 0u);
    EXPECT_EQ(reference.stats.arena_bytes, 0u);
  }
}

TEST(ParetoMerge, ByteIdenticalOptimaOnRandomInstances) {
  Rng rng(0xB0B);
  for (int trial = 0; trial < 40; ++trial) {
    TreeGenOptions o;
    o.compute_nodes = 8 + rng.index(24);
    o.satellites = 2 + rng.index(4);
    o.policy = trial % 3 == 0 ? SensorPolicy::kRoundRobin
               : trial % 3 == 1 ? SensorPolicy::kClustered
                                : SensorPolicy::kScattered;
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);
    const ParetoDpResult arena = pareto_dp_solve(colouring);
    const ParetoDpResult reference = oracle::reference_solve(colouring);
    EXPECT_EQ(arena.objective, reference.objective) << "trial " << trial;
    EXPECT_EQ(arena.assignment.cut_nodes(), reference.assignment.cut_nodes())
        << "trial " << trial;
  }
}

TEST(ParetoMerge, DpThreadsAreByteIdentityPreserving) {
  Rng rng(0x7EAD);
  TreeGenOptions o;
  o.compute_nodes = 40;
  o.satellites = 6;
  o.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  ParetoDpOptions base;
  const ParetoDpResult one = pareto_dp_solve(colouring, base);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    ParetoDpOptions opts;
    opts.dp_threads = threads;
    const ParetoDpResult many = pareto_dp_solve(colouring, opts);
    EXPECT_EQ(many.objective, one.objective) << "dp_threads=" << threads;
    EXPECT_EQ(many.assignment.cut_nodes(), one.assignment.cut_nodes())
        << "dp_threads=" << threads;
    // Stats aggregate in colour order, so even the counters are identical.
    EXPECT_EQ(many.stats.arena_bytes, one.stats.arena_bytes);
    EXPECT_EQ(many.stats.minkowski_merges, one.stats.minkowski_merges);
    EXPECT_EQ(many.stats.merge_points_generated, one.stats.merge_points_generated);
    EXPECT_EQ(many.stats.merge_points_kept, one.stats.merge_points_kept);
    EXPECT_EQ(many.stats.peak_frontier, one.stats.peak_frontier);
  }
}

}  // namespace
}  // namespace treesat
