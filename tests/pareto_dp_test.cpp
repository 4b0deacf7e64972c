// Pareto-DP internals: region frontiers must be exactly the dominance-free
// set of enumerated region cuts, sorted and strictly improving.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/exhaustive.hpp"
#include "core/pareto_dp.hpp"
#include "oracle/oracle.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

/// Enumerates every cut of the region rooted at r and returns its
/// (load, host) outcomes.
std::vector<std::pair<double, double>> enumerate_region(const Colouring& colouring, CruId r) {
  const CruTree& tree = colouring.tree();
  std::vector<std::pair<double, double>> out;
  struct Rec {
    const CruTree& tree;
    std::vector<std::pair<double, double>>& out;

    void go(std::vector<CruId> frontier, std::size_t idx, double load, double host) {
      if (idx == frontier.size()) {
        out.emplace_back(load, host);
        return;
      }
      const CruId v = frontier[idx];
      go(frontier, idx + 1, load + tree.subtree_sat_time(v) + tree.node(v).comm_up, host);
      if (!tree.node(v).is_sensor()) {
        std::vector<CruId> ext = frontier;
        ext.erase(ext.begin() + static_cast<std::ptrdiff_t>(idx));
        for (const CruId c : tree.node(v).children) ext.push_back(c);
        go(ext, idx, load, host + tree.node(v).host_time);
      }
    }
  };
  Rec rec{tree, out};
  rec.go({r}, 0, 0.0, 0.0);
  return out;
}

TEST(ParetoDp, RegionFrontierMatchesEnumeration) {
  Rng rng(3);
  TreeGenOptions o;
  o.compute_nodes = 9;
  o.satellites = 2;
  o.policy = SensorPolicy::kClustered;
  for (int trial = 0; trial < 10; ++trial) {
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);
    for (const CruId r : colouring.region_roots()) {
      const auto frontier = oracle::engine_region_frontier(colouring, r, 1u << 20);
      const auto all = enumerate_region(colouring, r);

      // (a) frontier sorted by load, host strictly decreasing.
      for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].load, frontier[i - 1].load);
        EXPECT_LT(frontier[i].host, frontier[i - 1].host);
      }
      // (b) every frontier point is achievable.
      for (const oracle::ParetoPoint& p : frontier) {
        const bool found = std::any_of(all.begin(), all.end(), [&](const auto& q) {
          return std::abs(q.first - p.load) < 1e-9 && std::abs(q.second - p.host) < 1e-9;
        });
        EXPECT_TRUE(found) << "frontier point (" << p.load << "," << p.host
                           << ") not achievable";
      }
      // (c) no achievable point dominates the frontier.
      for (const auto& [load, host] : all) {
        bool covered = false;
        for (const oracle::ParetoPoint& p : frontier) {
          if (p.load <= load + 1e-9 && p.host <= host + 1e-9) {
            covered = true;
            break;
          }
        }
        EXPECT_TRUE(covered) << "achievable (" << load << "," << host
                             << ") dominates the frontier";
      }
      // (d) each point's recorded cut realizes its numbers.
      for (const oracle::ParetoPoint& p : frontier) {
        double load = 0.0;
        for (const CruId v : p.cut) {
          load += tree.subtree_sat_time(v) + tree.node(v).comm_up;
        }
        EXPECT_NEAR(load, p.load, 1e-9);
      }
    }
  }
}

TEST(ParetoDp, SensorRegionIsASinglePoint) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  b.sensor(root, "s", SatelliteId{0u}, 3.5);
  const CruTree tree = b.build();
  const Colouring colouring(tree);
  const auto frontier = oracle::engine_region_frontier(colouring, tree.by_name("s"), 16);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_DOUBLE_EQ(frontier[0].load, 3.5);
  EXPECT_DOUBLE_EQ(frontier[0].host, 0.0);
}

TEST(ParetoDp, ThrowsOnFrontierCap) {
  Rng rng(17);
  TreeGenOptions o;
  o.compute_nodes = 24;
  o.satellites = 1;  // one giant region
  o.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  ParetoDpOptions popt;
  popt.max_frontier = 2;  // absurdly small
  EXPECT_THROW(static_cast<void>(pareto_dp_solve(colouring, popt)), ResourceLimit);
}

TEST(ParetoDp, LambdaExtremes) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  // λ = 1: only the host time matters -> the topmost assignment is optimal.
  ParetoDpOptions host_only;
  host_only.objective = SsbObjective::from_lambda(1.0);
  const ParetoDpResult s = pareto_dp_solve(colouring, host_only);
  EXPECT_NEAR(s.assignment.delay().host_time, colouring.forced_host_time(), 1e-9);
  // λ = 0: only the bottleneck matters -> must match exhaustive.
  ParetoDpOptions b_only;
  b_only.objective = SsbObjective::from_lambda(0.0);
  const ParetoDpResult bo = pareto_dp_solve(colouring, b_only);
  const ExhaustiveResult want = exhaustive_solve(colouring, b_only.objective);
  EXPECT_NEAR(bo.objective, want.objective, 1e-9);
}

TEST(ParetoDp, StatsArePopulated) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const ParetoDpResult r = pareto_dp_solve(colouring);
  EXPECT_GT(r.stats.max_region_frontier, 0u);
  EXPECT_GT(r.stats.max_colour_frontier, 0u);
  EXPECT_GT(r.stats.candidates_swept, 0u);
}

}  // namespace
}  // namespace treesat
