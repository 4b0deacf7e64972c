// Property wall for the engine's branch-free SIMD Minkowski kernel: it must
// reproduce the scalar merge (tests/oracle/) bit for bit -- points, cuts,
// counters and throw behaviour -- on random blocked frontiers, on
// tie-heavy integer grids (equal product loads / equal hosts), on
// single-point frontiers, and through whole solves. The SIMD primitive itself
// (platform/simd.hpp dominated_prefix) is unit-tested against its scalar
// specification, non-monotone and NaN inputs included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/frontier_cache.hpp"
#include "core/pareto_dp.hpp"
#include "oracle/oracle.hpp"
#include "platform/simd.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

using oracle::Kernel;
using oracle::ParetoPoint;

constexpr std::size_t kBig = std::size_t{1} << 20;

/// Reference pruning: sort by (load, host), keep strict host improvements.
std::vector<ParetoPoint> pruned(std::vector<ParetoPoint> points) {
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

/// A random valid frontier of up to `max_points` points. `integral` draws
/// coordinates from a small integer grid, which makes product sums collide
/// constantly -- the tie cases (equal load, equal host) the merge breaks
/// by stream index.
std::vector<ParetoPoint> random_frontier(Rng& rng, std::size_t max_points, bool integral) {
  std::vector<ParetoPoint> points(1 + rng.index(max_points));
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (integral) {
      points[i].load = static_cast<double>(rng.index(12));
      points[i].host = static_cast<double>(rng.index(12));
    } else {
      points[i].load = rng.uniform_real(0.0, 100.0);
      points[i].host = rng.uniform_real(0.0, 100.0);
    }
    points[i].cut = {CruId{rng.index(1000)}};
  }
  return pruned(std::move(points));
}

void expect_bitwise_equal(const std::vector<ParetoPoint>& simd,
                          const std::vector<ParetoPoint>& scalar, int trial) {
  ASSERT_EQ(simd.size(), scalar.size()) << "trial " << trial;
  for (std::size_t i = 0; i < simd.size(); ++i) {
    EXPECT_EQ(simd[i].load, scalar[i].load) << "trial " << trial << " point " << i;
    EXPECT_EQ(simd[i].host, scalar[i].host) << "trial " << trial << " point " << i;
    EXPECT_EQ(simd[i].cut, scalar[i].cut) << "trial " << trial << " point " << i;
  }
}

TEST(ParetoSimdKernel, MatchesScalarOnRandomBlockedFrontiers) {
  // Frontiers up to 160 points: the dominated prefixes the kernel skips
  // span many SIMD blocks plus a scalar tail, so every path of
  // dominated_prefix participates.
  Rng rng(0x51D0);
  for (int trial = 0; trial < 150; ++trial) {
    const std::vector<ParetoPoint> a = random_frontier(rng, 160, /*integral=*/false);
    const std::vector<ParetoPoint> b = random_frontier(rng, 160, /*integral=*/false);
    const auto simd = oracle::merge(a, b, kBig, Kernel::kSimd);
    const auto scalar = oracle::merge(a, b, kBig, Kernel::kScalar);
    expect_bitwise_equal(simd, scalar, trial);
  }
}

TEST(ParetoSimdKernel, MatchesScalarAndReferenceOnTieHeavyIntegerGrids) {
  // Integer coordinates force equal-load and equal-host product points;
  // the comparator's (load, host, i, j) tie-break must come out the same
  // through the lazy-activation heap as through the eager one, and both
  // must equal the reference engine's sort.
  Rng rng(0x7135);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<ParetoPoint> a = random_frontier(rng, 10, /*integral=*/true);
    const std::vector<ParetoPoint> b = random_frontier(rng, 10, /*integral=*/true);
    const auto simd = oracle::merge(a, b, kBig, Kernel::kSimd);
    const auto scalar = oracle::merge(a, b, kBig, Kernel::kScalar);
    const auto reference = oracle::reference_minkowski(a, b, kBig);
    expect_bitwise_equal(simd, scalar, trial);
    expect_bitwise_equal(simd, reference, trial);
  }
}

TEST(ParetoSimdKernel, SinglePointFrontiers) {
  Rng rng(0x1117);
  const ParetoPoint lone{3.5, 7.25, {CruId{std::size_t{42}}}};
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<ParetoPoint> many = random_frontier(rng, 60, trial % 2 == 0);
    for (const auto& [a, b] : {std::pair{std::vector<ParetoPoint>{lone}, many},
                               std::pair{many, std::vector<ParetoPoint>{lone}},
                               std::pair{std::vector<ParetoPoint>{lone},
                                         std::vector<ParetoPoint>{lone}}}) {
      const auto simd = oracle::merge(a, b, kBig, Kernel::kSimd);
      const auto scalar = oracle::merge(a, b, kBig, Kernel::kScalar);
      expect_bitwise_equal(simd, scalar, trial);
    }
  }
}

TEST(ParetoSimdKernel, MaxFrontierThrowsAtTheSamePoint) {
  // Both kernels keep points in the same order, so the ResourceLimit must
  // fire on the same input with the same cap.
  Rng rng(0xCAFE);
  const std::vector<ParetoPoint> a = random_frontier(rng, 80, false);
  const std::vector<ParetoPoint> b = random_frontier(rng, 80, false);
  const std::size_t kept = oracle::merge(a, b, kBig, Kernel::kScalar).size();
  ASSERT_GT(kept, 1u);
  for (const Kernel kernel : {Kernel::kSimd, Kernel::kScalar}) {
    EXPECT_THROW((void)oracle::merge(a, b, kept - 1, kernel), ResourceLimit);
    EXPECT_EQ(oracle::merge(a, b, kept, kernel).size(), kept);
  }
}

TEST(ParetoSimdKernel, FullSolvesAreByteIdenticalAcrossKernels) {
  // End to end: the engine's solve against its colour pipelines run on the
  // scalar kernel (tests/oracle/). Optima, cuts and every counter agree, so
  // stats-bearing reports serialize identically.
  Rng rng(0x60D0);
  for (int trial = 0; trial < 30; ++trial) {
    TreeGenOptions o;
    o.compute_nodes = 8 + rng.index(30);
    o.satellites = 2 + rng.index(5);
    o.policy = trial % 3 == 0 ? SensorPolicy::kRoundRobin
               : trial % 3 == 1 ? SensorPolicy::kClustered
                                : SensorPolicy::kScattered;
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);
    const ParetoDpResult simd = pareto_dp_solve(colouring);
    const ParetoDpResult scalar = oracle::kernel_solve(colouring, {}, Kernel::kScalar);
    EXPECT_EQ(simd.objective, scalar.objective) << "trial " << trial;
    EXPECT_EQ(simd.assignment.cut_nodes(), scalar.assignment.cut_nodes()) << "trial " << trial;
    EXPECT_EQ(simd.stats.arena_bytes, scalar.stats.arena_bytes);
    EXPECT_EQ(simd.stats.peak_frontier, scalar.stats.peak_frontier);
    EXPECT_EQ(simd.stats.minkowski_merges, scalar.stats.minkowski_merges);
    EXPECT_EQ(simd.stats.merge_points_generated, scalar.stats.merge_points_generated);
    EXPECT_EQ(simd.stats.merge_points_kept, scalar.stats.merge_points_kept);
    EXPECT_EQ(simd.stats.candidates_swept, scalar.stats.candidates_swept);
    EXPECT_EQ(simd.stats.max_region_frontier, scalar.stats.max_region_frontier);
    EXPECT_EQ(simd.stats.max_colour_frontier, scalar.stats.max_colour_frontier);
  }
}

TEST(ParetoSimdKernel, ScratchReuseIsResultInvisible) {
  // One ParetoScratch threaded through repeated cached solves must change
  // nothing about the results -- only the allocator traffic, which the
  // grown_bytes counter shows flattening once capacity is retained.
  Rng rng(0x5C2A);
  TreeGenOptions o;
  o.compute_nodes = 24;
  o.satellites = 3;
  o.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const ParetoDpResult cold = pareto_dp_solve(colouring);

  ParetoScratch scratch;
  std::size_t grown_after_first = 0;
  for (int round = 0; round < 4; ++round) {
    FrontierCache cache;  // empty: every colour is built in the scratch
    cache.begin(1);
    const ParetoDpResult pooled = pareto_dp_solve(colouring, {}, &cache, &scratch);
    EXPECT_EQ(pooled.objective, cold.objective) << "round " << round;
    EXPECT_EQ(pooled.assignment.cut_nodes(), cold.assignment.cut_nodes()) << "round " << round;
    EXPECT_EQ(pooled.stats.arena_bytes, cold.stats.arena_bytes) << "round " << round;
    EXPECT_EQ(pooled.stats.minkowski_merges, cold.stats.minkowski_merges) << "round " << round;
    if (round == 0) grown_after_first = scratch.grown_bytes();
  }
  EXPECT_GT(scratch.served_bytes(), 0u);
  EXPECT_GT(scratch.retained_bytes(), 0u);
  // Re-solving identical content grows nothing after the first round.
  EXPECT_EQ(scratch.grown_bytes(), grown_after_first);
}

// ---------------------------------------------------------------------------
// platform/simd.hpp dominated_prefix: unit tests against the scalar spec.

std::size_t scalar_prefix(const std::vector<double>& host, double add, double cutoff) {
  std::size_t k = 0;
  while (k < host.size() && host[k] + add >= cutoff) ++k;
  return k;
}

TEST(DominatedPrefix, MatchesScalarSpecOnRandomDescendingBlocks) {
  Rng rng(0xD011);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> host(rng.index(40));
    for (double& h : host) h = rng.uniform_real(0.0, 50.0);
    std::sort(host.rbegin(), host.rend());  // strictly descending-ish (ties fine)
    const double add = rng.uniform_real(0.0, 50.0);
    const double cutoff = rng.uniform_real(0.0, 100.0);
    EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), add, cutoff),
              scalar_prefix(host, add, cutoff))
        << "trial " << trial;
  }
}

TEST(DominatedPrefix, FirstFailureSemanticsOnNonMonotoneInput) {
  // The merge only ever passes strictly descending hosts, but the
  // primitive's contract is first-failure on any input -- trailing-ones
  // counting, not block summation.
  const std::vector<double> host{9.0, 8.0, 2.0, 7.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0};
  for (double cutoff = 0.5; cutoff < 10.0; cutoff += 1.0) {
    EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, cutoff),
              scalar_prefix(host, 0.0, cutoff))
        << "cutoff " << cutoff;
  }
}

TEST(DominatedPrefix, NaNRejectsLikeTheScalarCompare) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> host(13, 5.0);
  host[6] = kNaN;  // lands mid-block on every lane width
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, 1.0), 6u);
  EXPECT_EQ(scalar_prefix(host, 0.0, 1.0), 6u);
  // NaN cutoff / add reject everything, as `>=` does.
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, kNaN), 0u);
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), kNaN, 1.0), 0u);
}

TEST(DominatedPrefix, EmptyAndBoundaryLengths) {
  const std::vector<double> host{5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625};
  EXPECT_EQ(simd::dominated_prefix(host.data(), 0, 0.0, 1.0), 0u);
  for (std::size_t n = 1; n <= host.size(); ++n) {
    EXPECT_EQ(simd::dominated_prefix(host.data(), n, 0.0, 1.0),
              scalar_prefix({host.begin(), host.begin() + static_cast<long>(n)}, 0.0, 1.0))
        << "n " << n;
  }
  EXPECT_STRNE(simd::active_isa(), "");  // the ISA tag is always populated
}

}  // namespace
}  // namespace treesat
