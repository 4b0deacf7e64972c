// The incremental re-solve engine's test wall (core/incremental.hpp).
//
// The load-bearing property is byte-identity: a ResolveSession's warm
// re-solve must return exactly what a cold facade solve of the same plan
// returns on the perturbed instance -- same cut node ids, same objective
// bits, same delay breakdown -- over long random perturbation streams
// (drift, satellite loss, probe insertion). Everything else here pins the
// perturbation semantics, the warm-start incumbents of the coloured SSB /
// branch-and-bound engines, the cold fallback reporting, and the
// warm_start= spec key.
#include <gtest/gtest.h>

#include <limits>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "workload/drift.hpp"
#include "workload/generator.hpp"
#include "oracle/oracle.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

std::string names(const CruTree& tree, const std::vector<CruId>& cut) {
  std::ostringstream oss;
  for (const CruId v : cut) oss << tree.node(v).name << ' ';
  return oss.str();
}

// The acceptance property: >= 100 random perturbations, warm vs cold,
// byte-identical optima.
TEST(IncrementalResolve, WarmByteIdenticalToColdOverRandomPerturbations) {
  Rng rng(0x1C12E5);
  std::size_t perturbations = 0;
  std::size_t warm_steps = 0;
  std::size_t reused_total = 0;

  for (int base_iter = 0; base_iter < 12; ++base_iter) {
    TreeGenOptions gen;
    gen.compute_nodes = 8 + rng.index(10);
    gen.satellites = 2 + rng.index(3);
    gen.policy = base_iter % 2 == 0 ? SensorPolicy::kClustered : SensorPolicy::kScattered;
    const CruTree base = random_tree(rng, gen);

    DriftOptions drift;
    drift.steps = 10;
    const std::vector<Perturbation> stream = drift_stream(rng, base, drift);

    ResolveSession session(base, SolvePlan::pareto_dp());
    CruTree shadow = base;  // independently perturbed copy for the cold solves
    for (std::size_t step = 0; step < stream.size(); ++step) {
      const SolveReport& warm = session.resolve(stream[step]);
      shadow = apply_perturbation(shadow, stream[step]);
      const Colouring cold_colouring(shadow);
      const SolveReport cold = solve(cold_colouring, SolvePlan::pareto_dp());
      ++perturbations;

      std::ostringstream ctx;
      ctx << "base=" << base_iter << " step=" << step << " ("
          << stream[step].kind_name() << ") warm cut: "
          << names(session.tree(), warm.assignment.cut_nodes())
          << "| cold cut: " << names(shadow, cold.assignment.cut_nodes());

      ASSERT_EQ(warm.assignment.cut_nodes(), cold.assignment.cut_nodes()) << ctx.str();
      ASSERT_EQ(warm.objective_value, cold.objective_value) << ctx.str();
      ASSERT_EQ(warm.delay.host_time, cold.delay.host_time) << ctx.str();
      ASSERT_EQ(warm.delay.bottleneck, cold.delay.bottleneck) << ctx.str();
      ASSERT_TRUE(warm.exact) << ctx.str();

      const ResolveStats& stats = session.last_stats();
      EXPECT_EQ(stats.step, step + 1) << ctx.str();
      EXPECT_EQ(stats.regions_reused + stats.regions_recomputed, stats.regions_total)
          << ctx.str();
      if (stats.path == ResolvePath::kWarm) {
        ++warm_steps;
        reused_total += stats.regions_reused;
        EXPECT_TRUE(stats.cold_reason.empty()) << ctx.str();
      } else {
        EXPECT_FALSE(stats.cold_reason.empty()) << ctx.str();
      }
    }
  }

  EXPECT_GE(perturbations, 100u);
  // The streams are dominated by per-satellite drift, so most steps must
  // actually have reused cached state -- otherwise "warm" is vacuous.
  EXPECT_GT(warm_steps, perturbations / 2);
  EXPECT_GT(reused_total, 0u);
}

TEST(IncrementalResolve, SatelliteDriftReusesUntouchedRegions) {
  Rng rng(7);
  TreeGenOptions gen;
  gen.compute_nodes = 14;
  gen.satellites = 4;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);

  ResolveSession session(base, SolvePlan::pareto_dp());
  const std::size_t regions = session.last_stats().regions_total;
  ASSERT_GT(regions, 1u);

  session.resolve(Perturbation::satellite_drift(SatelliteId{0u}, 1.1, 0.9, 1.05));
  const ResolveStats& stats = session.last_stats();
  EXPECT_EQ(stats.path, ResolvePath::kWarm);
  EXPECT_GT(stats.regions_reused, 0u);
  // Only colour 0's regions were touched; every other colour's frontier
  // must have come from the cache.
  std::size_t colour0_regions = 0;
  for (const CruId r : session.colouring().region_roots()) {
    if (session.colouring().colour(r) == SatelliteId{0u}) ++colour0_regions;
  }
  EXPECT_GE(stats.regions_reused, stats.regions_total - colour0_regions);
}

TEST(IncrementalResolve, CachedBytesCoverContentPlusPerEntryOverhead) {
  // Regression for the size()-based under-accounting: cached_bytes() must
  // be at least the content bytes visible through export_state() (key
  // words, frontier points, cut ids) plus a hash-node floor per entry.
  // The old gauge summed .size() and charged nothing per map node, so
  // byte-budget eviction in the serving tier fired late.
  Rng rng(21);
  TreeGenOptions gen;
  gen.compute_nodes = 14;
  gen.satellites = 4;
  const CruTree base = random_tree(rng, gen);
  ResolveSession session(base, SolvePlan::pareto_dp());
  session.resolve(Perturbation::satellite_drift(SatelliteId{0u}, 1.1, 0.9, 1.05));

  const SessionState state = session.export_state();
  std::size_t content = 0;
  std::size_t entries = 0;
  for (const auto* cache : {&state.colour_cache, &state.region_cache}) {
    for (const SessionState::CacheEntry& entry : *cache) {
      ++entries;
      content += entry.key_words.size() * sizeof(std::uint64_t);
      content += 2 * entry.frontier.size() * sizeof(double);
      content += (entry.frontier.cut_offsets().size() + entry.frontier.cut_positions().size()) *
                 sizeof(std::uint32_t);
    }
  }
  ASSERT_GT(entries, 0u);
  ASSERT_GT(content, 0u);
  // The measured lower bound: exact content plus a conservative per-entry
  // node floor (two chain/hash pointers plus the key's vector header and
  // the entry's two block pointers and counts the stored pair must at
  // least hold). cached_bytes charges the full pair on top, hence GE.
  const std::size_t floor =
      content + entries * (2 * sizeof(void*) + 2 * sizeof(std::vector<double>));
  EXPECT_GE(session.cached_bytes(), floor);
  EXPECT_GT(session.cached_bytes(), content);
  // Import must reproduce the gauge bit for bit -- capacity-true
  // accounting only works because every stored vector has exact capacity.
  EXPECT_EQ(ResolveSession::import_state(state).cached_bytes(),
            session.cached_bytes());
}

TEST(IncrementalResolve, ArenaPoolServesWarmResolvesFromRetainedScratch) {
  // Warm re-solves borrow frontier scratch from the session's ArenaPool
  // instead of reallocating per step: the pool prewarms one scratch, so
  // every DP solve is exactly one reuse and never a fresh alloc, served
  // bytes flow whenever frontiers are recomputed, and capacity growth
  // flattens once the scratch has seen the instance's working set.
  Rng rng(5);
  TreeGenOptions gen;
  gen.compute_nodes = 14;
  gen.satellites = 4;
  const CruTree base = random_tree(rng, gen);
  ResolveSession session(base, SolvePlan::pareto_dp());
  EXPECT_EQ(session.last_stats().pool_reuses, 1u);
  EXPECT_EQ(session.last_stats().pool_allocs, 0u);
  EXPECT_GT(session.last_stats().pool_served_bytes, 0u);

  std::size_t grown_late = 0;
  for (int step = 0; step < 8; ++step) {
    session.resolve(Perturbation::satellite_drift(SatelliteId{0u}, 1.02, 0.99, 1.01));
    const ResolveStats& stats = session.last_stats();
    ASSERT_EQ(stats.path, ResolvePath::kWarm) << "step " << step;
    EXPECT_EQ(stats.pool_reuses, 1u) << "step " << step;
    EXPECT_EQ(stats.pool_allocs, 0u) << "step " << step;
    EXPECT_GT(stats.pool_served_bytes, 0u) << "step " << step;
    if (step >= 4) grown_late += stats.pool_grown_bytes;
  }
  // Allocation churn flattens: later same-shape drifts run entirely in
  // capacity the pooled scratch already owns.
  EXPECT_EQ(grown_late, 0u);
}

TEST(IncrementalResolve, WarmResolvesMatchTheReferenceEngine) {
  // The warm path is the engine with a cache; the pre-arena reference
  // engine (tests/oracle/) shares no code with it and must land on the
  // same optimum, bit for bit, after every perturbation kind.
  Rng rng(21);
  TreeGenOptions gen;
  gen.compute_nodes = 12;
  gen.satellites = 3;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);

  ResolveSession session(base, SolvePlan::pareto_dp());
  const CruId attach = session.tree().root();
  for (const Perturbation& p :
       {Perturbation::global_drift(1.1, 0.95, 1.0),
        Perturbation::satellite_drift(SatelliteId{1u}, 1.2, 0.9, 1.0),
        Perturbation::insert_probe(attach, "oracle_probe", SatelliteId{0u}, 0.5, 0.25, 0.1,
                                   0.2)}) {
    session.resolve(p);
    const Colouring cold_colouring(session.tree());
    const ParetoDpResult reference = oracle::reference_solve(cold_colouring);
    EXPECT_EQ(session.current().objective_value, reference.objective) << p.kind_name();
    EXPECT_EQ(session.current().assignment.cut_nodes(), reference.assignment.cut_nodes())
        << p.kind_name();
  }
}

TEST(IncrementalResolve, ImportRejectsFrontiersNoSolveCouldHaveStored) {
  // Restored entries feed the engine directly (colour hits into the sweep,
  // region hits into the merge kernel), so import enforces the frontier
  // invariants every stored entry satisfies: non-empty, finite, sorted by
  // load, cut positions increasing and inside the key.
  Rng rng(33);
  TreeGenOptions gen;
  gen.compute_nodes = 10;
  gen.satellites = 2;
  ResolveSession session(random_tree(rng, gen), SolvePlan::pareto_dp());
  const SessionState good = session.export_state();
  ASSERT_FALSE(good.region_cache.empty());
  EXPECT_NO_THROW(static_cast<void>(ResolveSession::import_state(good)));

  // The corruptions edit a copy of the entry's arrays and rebuild its
  // frontier from them: the Frontier refuses malformed arrays, import
  // refuses the rest.
  struct Arrays {
    std::vector<double> load, host;
    std::vector<std::uint32_t> offsets, cut;
  };
  const auto rejects = [&](const char* what, auto&& corrupt) {
    SessionState bad = good;
    SessionState::CacheEntry& e = bad.region_cache.front();
    const FrontierCache::Frontier& f = e.frontier;
    Arrays a{{f.load(), f.load() + f.size()},
             {f.host(), f.host() + f.size()},
             {f.cut_offsets().begin(), f.cut_offsets().end()},
             {f.cut_positions().begin(), f.cut_positions().end()}};
    corrupt(a, e.key_words.size());
    EXPECT_THROW(
        {
          e.frontier = FrontierCache::Frontier(a.load, a.host, a.offsets, a.cut);
          static_cast<void>(ResolveSession::import_state(bad));
        },
        InvalidArgument)
        << what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects("nan load", [&](Arrays& a, std::size_t) { a.load.front() = nan; });
  rejects("inf host", [&](Arrays& a, std::size_t) { a.host.front() = inf; });
  rejects("empty frontier", [](Arrays& a, std::size_t) {
    a.load.clear();
    a.host.clear();
    a.offsets.assign(1, 0);
    a.cut.clear();
  });
  rejects("unsorted loads", [](Arrays& a, std::size_t) {
    a.load.push_back(-1.0);
    a.host.push_back(0.0);
    a.offsets.push_back(a.offsets.back());
  });
  rejects("repeated cut position", [](Arrays& a, std::size_t) {
    ASSERT_FALSE(a.cut.empty());
    a.cut.insert(a.cut.begin(), a.cut.front());
    for (std::uint32_t& offset : a.offsets) offset += offset > 0 ? 1 : 0;
  });
  rejects("position outside the key", [](Arrays& a, std::size_t key_words) {
    a.cut.push_back(static_cast<std::uint32_t>(key_words));
    a.offsets.back() += 1;
  });
  // Offsets that leave the positions block and come back down to its end:
  // the front and back offsets look right, the slice between them does not.
  rejects("offsets past the positions", [](Arrays& a, std::size_t) {
    a.load.push_back(a.load.back());
    a.host.push_back(a.host.back());
    a.offsets.back() = static_cast<std::uint32_t>(a.cut.size() + 100);
    a.offsets.push_back(static_cast<std::uint32_t>(a.cut.size()));
  });
}

TEST(IncrementalResolve, NoOpDriftReusesEveryRegionAndKeepsTheOptimum) {
  Rng rng(11);
  TreeGenOptions gen;
  gen.compute_nodes = 10;
  gen.satellites = 3;
  const CruTree base = random_tree(rng, gen);

  ResolveSession session(base, SolvePlan::pareto_dp());
  const std::vector<CruId> initial_cut = session.current().assignment.cut_nodes();
  const double initial_value = session.current().objective_value;

  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().regions_recomputed, 0u);
  EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
  EXPECT_EQ(session.current().assignment.cut_nodes(), initial_cut);
  EXPECT_EQ(session.current().objective_value, initial_value);
}

TEST(IncrementalResolve, SatelliteLossRemovesSensorsAndOrphanedCompute) {
  const CruTree base = paper_running_example();
  const std::size_t before = base.size();
  // Satellite Y pins only sensorY under CRU7; losing Y removes both.
  const CruTree after = apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{1u}));
  EXPECT_EQ(after.size(), before - 2);
  EXPECT_THROW((void)after.by_name("sensorY"), InvalidArgument);
  EXPECT_THROW((void)after.by_name("CRU7"), InvalidArgument);
  // Everything else survives and the instance still solves exactly.
  (void)after.by_name("CRU13");
  const Colouring colouring(after);
  const SolveReport optimum = solve(colouring, SolvePlan::pareto_dp());
  const SolveReport oracle = solve(colouring, SolvePlan::exhaustive());
  EXPECT_EQ(optimum.objective_value, oracle.objective_value);
}

TEST(IncrementalResolve, LosingTheWholeWorkloadIsRejected) {
  Rng rng(3);
  TreeGenOptions gen;
  gen.compute_nodes = 6;
  gen.satellites = 1;  // every sensor pinned to satellite 0
  const CruTree base = random_tree(rng, gen);
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{0u})),
               InvalidArgument);
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{5u})),
               InvalidArgument);
}

TEST(IncrementalResolve, InsertProbeGrowsThePlatformAndKeepsIdsStable) {
  const CruTree base = paper_running_example();
  const SatelliteId fresh{base.satellite_count()};
  const CruTree after = apply_perturbation(
      base, Perturbation::insert_probe(base.by_name("CRU3"), "probe_new", fresh, 2.0, 3.0,
                                       1.0, 0.5));
  EXPECT_EQ(after.size(), base.size() + 2);
  EXPECT_EQ(after.satellite_count(), base.satellite_count() + 1);
  // Existing ids are untouched: every old node keeps its name at its id.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(after.node(CruId{i}).name, base.node(CruId{i}).name);
  }
  EXPECT_EQ(after.node(after.by_name("probe_new")).parent, base.by_name("CRU3"));

  // Invalid insertions are rejected before any state changes.
  EXPECT_THROW((void)apply_perturbation(
                   base, Perturbation::insert_probe(base.by_name("sensorY"), "p", fresh, 1.0,
                                                    1.0, 1.0, 1.0)),
               InvalidArgument);
  EXPECT_THROW((void)apply_perturbation(
                   base, Perturbation::insert_probe(base.by_name("CRU3"), "CRU5", fresh, 1.0,
                                                    1.0, 1.0, 1.0)),
               InvalidArgument);
  SubtreeInsert forward;
  forward.parent = base.by_name("CRU3");
  forward.nodes.push_back({1, CruKind::kCompute, "fwd", 1.0, 1.0, 1.0, SatelliteId{}});
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::insert_subtree(forward)),
               InvalidArgument);
}

TEST(IncrementalResolve, InvalidDriftIsRejectedWithoutTouchingTheSession) {
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::pareto_dp());
  const double initial = session.current().objective_value;
  EXPECT_THROW((void)session.resolve(Perturbation::global_drift(0.0, 1.0, 1.0)),
               InvalidArgument);
  EXPECT_THROW((void)session.resolve(
                   Perturbation::satellite_drift(SatelliteId{99u}, 1.1, 1.1, 1.1)),
               InvalidArgument);
  // The session still serves its previous instance.
  EXPECT_EQ(session.current().objective_value, initial);
  EXPECT_EQ(session.step(), 0u);
  session.resolve(Perturbation::global_drift(1.1, 1.1, 1.1));
  EXPECT_EQ(session.step(), 1u);
}

// The other two warm engines: exact values, incumbent reported.
TEST(IncrementalResolve, ColouredSsbAndBranchBoundWarmStartsStayExact) {
  Rng rng(0xBEEF);
  TreeGenOptions gen;
  gen.compute_nodes = 8;
  gen.satellites = 3;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);
  DriftOptions drift;
  drift.steps = 6;
  drift.p_loss = 0.0;  // keep the previous cut feasible: ids stay stable
  drift.p_insert = 0.0;
  const std::vector<Perturbation> stream = drift_stream(rng, base, drift);

  const SolvePlan plans[] = {SolvePlan::coloured_ssb(), SolvePlan::branch_bound()};
  for (const SolvePlan& plan : plans) {
    ResolveSession session(base, plan);
    CruTree shadow = base;
    for (const Perturbation& p : stream) {
      const SolveReport& warm = session.resolve(p);
      shadow = apply_perturbation(shadow, p);
      const Colouring cold_colouring(shadow);
      const SolveReport oracle = solve(cold_colouring, SolvePlan::exhaustive());
      EXPECT_NEAR(warm.objective_value, oracle.objective_value,
                  1e-12 * (1.0 + oracle.objective_value))
          << method_name(plan.method());
      EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
      EXPECT_TRUE(session.last_stats().incumbent_used);
    }
    if (plan.method() == SolveMethod::kColouredSsb) {
      const auto* stats = session.current().stats_as<ColouredSsbStats>();
      ASSERT_NE(stats, nullptr);
      EXPECT_TRUE(stats->warm_started);
    }
  }
}

TEST(IncrementalResolve, ColourHitsKeepRegionEntriesAliveAcrossAging) {
  // 20 no-op steps are served entirely by colour-level hits; the region
  // entries underneath must stay warm through cache aging (> 16 steps), so
  // that a later localized insertion into one region of colour B can still
  // reuse B's *other* region from the region-level cache -- only the region
  // actually touched may recompute.
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::pareto_dp());
  for (int i = 0; i < 20; ++i) {
    session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
    ASSERT_EQ(session.last_stats().regions_recomputed, 0u) << "step " << i;
  }
  const SatelliteId b{2u};  // colour B has two regions (CRU5, CRU6 subtrees)
  ASSERT_EQ(session.colouring().regions_of(b).size(), 2u);
  session.resolve(Perturbation::insert_probe(session.tree().by_name("CRU11"), "b_probe", b,
                                             1.0, 1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().regions_recomputed, 1u);
  EXPECT_EQ(session.last_stats().regions_reused,
            session.last_stats().regions_total - 1);
}

TEST(IncrementalResolve, SolverFailureRollsTheSessionBack) {
  const CruTree base = paper_running_example();
  const Colouring colouring(base);
  const SolveReport probe = solve(colouring, SolvePlan::exhaustive());
  const std::size_t base_count = probe.stats_as<ExhaustiveStats>()->assignments_enumerated;

  // A cap the base instance just fits under: the initial solve succeeds,
  // but any perturbation that grows the cut space blows it.
  ExhaustiveOptions options;
  options.cap = base_count + 1;
  ResolveSession session(base, SolvePlan::exhaustive(options));
  const double initial = session.current().objective_value;

  EXPECT_THROW((void)session.resolve(Perturbation::insert_probe(
                   base.by_name("CRU3"), "late_probe", SatelliteId{0u}, 1.0, 1.0, 1.0, 1.0)),
               ResourceLimit);
  // The session rolled back: current() is still the base optimum and the
  // next (harmless) perturbation resolves normally.
  EXPECT_EQ(session.current().objective_value, initial);
  EXPECT_EQ(session.step(), 0u);
  EXPECT_EQ(session.tree().size(), base.size());
  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.step(), 1u);
  EXPECT_EQ(session.current().objective_value, initial);
}

TEST(IncrementalResolve, SatelliteLossDiscardsTheIncumbentOnIdRemappingEngines) {
  // Loss compacts node ids, so the previous optimum's cut ids may denote
  // different nodes: the incumbent warm start of the coloured-ssb and
  // branch-and-bound engines must be discarded, and say why.
  for (const SolvePlan& plan : {SolvePlan::coloured_ssb(), SolvePlan::branch_bound()}) {
    ResolveSession session(paper_running_example(), plan);
    session.resolve(Perturbation::satellite_loss(SatelliteId{1u}));
    EXPECT_EQ(session.last_stats().path, ResolvePath::kCold);
    EXPECT_FALSE(session.last_stats().incumbent_used);
    EXPECT_NE(session.last_stats().cold_reason.find("remapped"), std::string::npos);
    // Exactness is untouched: the cold solve still matches the oracle.
    const SolveReport oracle = solve(session.colouring(), SolvePlan::exhaustive());
    EXPECT_EQ(session.current().objective_value, oracle.objective_value);
  }
}

TEST(IncrementalResolve, RetryAfterARolledBackSolveStillReportsWarmReuse) {
  // A resolve that throws mid-engine stamps cache entries before rolling
  // back; the subsequent (successful) retry must still classify hits on
  // pre-failure state as reuse, not as fresh work (attempt counter, not
  // step number, is the stamp domain).
  const CruTree base = paper_running_example();
  const Colouring colouring(base);
  ParetoDpOptions options;
  options.max_frontier =
      pareto_dp_solve(colouring).stats.max_colour_frontier;  // base just fits

  ResolveSession session(base, SolvePlan::pareto_dp(options));
  const double initial = session.current().objective_value;

  // Three probes into colour B's CRU5 region push its merged frontier past
  // the cap (measured: 9 -> 19), so this resolve throws and rolls back.
  SubtreeInsert burst;
  burst.parent = base.by_name("CRU11");
  const SatelliteId b{2u};
  for (std::size_t k = 0; k < 3; ++k) {
    const double kd = static_cast<double>(k);
    burst.nodes.push_back({SubtreeInsert::kAttach, CruKind::kCompute,
                           "p" + std::to_string(k), 1.0 + kd, 2.0 + kd, 0.5 + kd,
                           SatelliteId{}});
    burst.nodes.push_back({2 * k, CruKind::kSensor, "s" + std::to_string(k), 0.0, 0.0,
                           0.7 + kd, b});
  }
  EXPECT_THROW((void)session.resolve(Perturbation::insert_subtree(burst)), ResourceLimit);
  EXPECT_EQ(session.current().objective_value, initial);

  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
  EXPECT_EQ(session.last_stats().regions_recomputed, 0u);
  EXPECT_EQ(session.last_stats().regions_reused, session.last_stats().regions_total);
  EXPECT_EQ(session.current().objective_value, initial);
}

TEST(IncrementalResolve, HeuristicPlansFallBackToColdWithAReason) {
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::greedy());
  session.resolve(Perturbation::global_drift(1.1, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().path, ResolvePath::kCold);
  EXPECT_FALSE(session.last_stats().cold_reason.empty());
  EXPECT_FALSE(session.current().exact);
}

TEST(IncrementalResolve, SolveStreamWarmMatchesColdBatchOnStandardScenarios) {
  DriftOptions options;
  options.steps = 8;
  for (const DriftStream& ds : standard_drift_streams(0x5EED, options)) {
    SolvePlan warm_plan = SolvePlan::pareto_dp();
    warm_plan.with_executor({.threads = 1, .warm_start = true});
    SolvePlan cold_plan = SolvePlan::pareto_dp();
    cold_plan.with_executor({.threads = 2, .warm_start = false});

    const StreamResult warm = solve_stream(ds.base, ds.stream, warm_plan);
    const StreamResult cold = solve_stream(ds.base, ds.stream, cold_plan);

    EXPECT_TRUE(warm.warm) << ds.name;
    EXPECT_FALSE(cold.warm) << ds.name;
    ASSERT_EQ(warm.reports.size(), ds.stream.size()) << ds.name;
    ASSERT_EQ(cold.reports.size(), ds.stream.size()) << ds.name;
    ASSERT_EQ(warm.stats.size(), cold.stats.size()) << ds.name;
    for (std::size_t i = 0; i < warm.reports.size(); ++i) {
      EXPECT_EQ(warm.reports[i].assignment.cut_nodes(),
                cold.reports[i].assignment.cut_nodes())
          << ds.name << " step " << i;
      EXPECT_EQ(warm.reports[i].objective_value, cold.reports[i].objective_value)
          << ds.name << " step " << i;
      EXPECT_EQ(cold.stats[i].path, ResolvePath::kCold);
      // Every report references the result's own storage, not the session's.
      EXPECT_EQ(&warm.reports[i].assignment.colouring(), &warm.colourings[i]);
    }
  }
}

TEST(IncrementalResolve, WarmStreamHonoursTheDeadlineBetweenSteps) {
  DriftOptions options;
  options.steps = 4;
  Rng rng(21);
  const CruTree base = paper_running_example();
  const std::vector<Perturbation> stream = drift_stream(rng, base, options);

  SolvePlan plan = SolvePlan::pareto_dp();
  plan.with_executor({.deadline_seconds = 1e-12, .warm_start = true});
  EXPECT_THROW((void)solve_stream(base, stream, plan), ResourceLimit);

  plan.with_executor({.deadline_seconds = 0.0, .warm_start = true});  // 0 = none
  EXPECT_EQ(solve_stream(base, stream, plan).reports.size(), stream.size());
}

TEST(IncrementalResolve, WarmStartSpecKeyRoundTrips) {
  const SolvePlan plan = parse_plan("pareto-dp:warm_start=true,threads=2");
  EXPECT_TRUE(plan.executor().warm_start);
  EXPECT_EQ(plan.executor().threads, 2u);
  const std::string spec = plan_spec(plan);
  EXPECT_NE(spec.find("warm_start=true"), std::string::npos);
  EXPECT_TRUE(parse_plan(spec).executor().warm_start);
  EXPECT_FALSE(parse_plan("pareto-dp").executor().warm_start);
  EXPECT_THROW((void)parse_plan("pareto-dp:warm_start=maybe"), InvalidArgument);
  EXPECT_THROW((void)parse_plan("pareto-dp:warm_start=true,warm_start=false"),
               InvalidArgument);
}

TEST(IncrementalResolve, RequestedMethodNamesTheSessionPlan) {
  // The facade contract: `requested` is what the plan asked for (kAutomatic
  // when resolution chose), `method` is what ran -- on every session path.
  ResolveSession session(paper_running_example(), SolvePlan::automatic());
  EXPECT_EQ(session.current().requested, SolveMethod::kAutomatic);
  EXPECT_NE(session.current().method, SolveMethod::kAutomatic);
  session.resolve(Perturbation::global_drift(1.05, 1.0, 1.0));
  EXPECT_EQ(session.current().requested, SolveMethod::kAutomatic);
  EXPECT_NE(session.current().method, SolveMethod::kAutomatic);
}

TEST(IncrementalResolve, DriftStreamsAreDeterministic) {
  Rng a(42);
  Rng b(42);
  const CruTree base = paper_running_example();
  DriftOptions options;
  options.steps = 12;
  const std::vector<Perturbation> s1 = drift_stream(a, base, options);
  const std::vector<Perturbation> s2 = drift_stream(b, base, options);
  ASSERT_EQ(s1.size(), s2.size());
  CruTree t1 = base;
  CruTree t2 = base;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_STREQ(s1[i].kind_name(), s2[i].kind_name()) << i;
    t1 = apply_perturbation(t1, s1[i]);
    t2 = apply_perturbation(t2, s2[i]);
    ASSERT_EQ(t1.size(), t2.size()) << i;
  }
}

}  // namespace
}  // namespace treesat
