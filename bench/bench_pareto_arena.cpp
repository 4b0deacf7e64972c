// E-ARENA: the allocation-free Pareto-DP core against the pre-arena
// reference engine and the scalar merge kernel (tests/oracle/).
//
// Three claims, all enforced (exit 1 on violation):
//   1. Correctness: the arena engine returns byte-identical optima to the
//      reference -- same objective bits, same cut node ids -- and
//      byte-identical SolveReports at every dp_threads setting (wall clock
//      zeroed before comparison; everything else, counters included, must
//      match byte for byte).
//   2. Cold speed: on large clustered instances the arena engine is >= 3x
//      faster than the reference at dp_threads = 1. This is the win of
//      merge-based Minkowski (dominated product points never materialize)
//      plus backpointer cuts (no per-point cut vector copies).
//   3. Scaling: dp_threads = 4 is >= 1.5x faster than dp_threads = 1 in
//      aggregate -- enforced only when the hardware has >= 4 threads
//      (reported as skipped otherwise; byte-identity is asserted anyway).
//   4. Kernel: the engine's branch-free SIMD Minkowski merge is >= 1.3x
//      geomean faster than the scalar oracle kernel, both run through the
//      engine's colour pipelines (oracle::kernel_solve), at
//      dp_threads = 1 on the frontier-dominated full-mode cases, with
//      byte-identical reports (gate enforced in full mode; smoke sizes are
//      merge-overhead-dominated and only report the ratio, which ci.sh
//      gates against the committed smoke baseline via bench_diff).
//   5. Pooling: a warm ResolveSession serves every drift re-solve from its
//      prewarmed ArenaPool scratch -- zero fresh allocations across the
//      stream, and the scratch's capacity growth flattens to zero once it
//      has seen the working set (allocation churn, not correctness:
//      optima stay byte-identical to scalar-kernel cold solves either way).
//
// --json <path> mirrors every number into BENCH_pareto_arena.json (the
// first point of the repo's perf trajectory; bench/baselines/ holds the
// committed baselines bench_diff gates against). --smoke shrinks the
// instances for the ci.sh TREESAT_BENCH stage.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "core/pareto_dp.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "oracle/oracle.hpp"
#include "platform/simd.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

struct Case {
  std::string label;
  std::size_t compute_nodes;
  std::size_t satellites;
  std::uint64_t seed;
};

std::string report_json_without_wall(const Colouring& colouring, const ParetoDpResult& r) {
  SolveReport report{Assignment(colouring, r.assignment.cut_nodes()),
                     r.delay,
                     r.objective,
                     /*wall_seconds=*/0.0,
                     /*exact=*/true,
                     SolveMethod::kParetoDp,
                     SolveMethod::kParetoDp,
                     r.stats};
  return report_to_json(report);
}

int run(bool smoke) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  bench::banner("E-ARENA", "arena Pareto-DP vs pre-arena reference engine");
  bench::note("hardware threads: " + std::to_string(hw));
  bench::json().set("hardware_threads", static_cast<double>(hw));
  bench::json().set("mode", smoke ? std::string("smoke") : std::string("full"));
  bench::note(std::string("simd isa: ") + simd::active_isa());
  bench::json().set("kernel_isa", std::string(simd::active_isa()));

  std::vector<Case> cases;
  if (smoke) {
    cases = {{"clustered-200x6", 200, 6, 11}, {"clustered-400x8", 400, 8, 12}};
  } else {
    cases = {{"clustered-400x8", 400, 8, 12},
             {"clustered-800x10", 800, 10, 13},
             {"clustered-1400x12", 1400, 12, 14}};
  }
  const int reps = smoke ? 3 : 5;

  Table t({"instance", "nodes", "regions", "ref ms", "scalar ms", "arena ms",
           "speedup", "kernel x", "t4 ms", "t4 speedup", "peak frontier", "prune %"});

  double ref_total = 0.0;
  double arena_total = 0.0;
  double t4_total = 0.0;
  double kernel_log_sum = 0.0;
  bool identical = true;

  for (const Case& c : cases) {
    Rng rng(c.seed);
    TreeGenOptions gen;
    gen.compute_nodes = c.compute_nodes;
    gen.satellites = c.satellites;
    gen.policy = SensorPolicy::kClustered;
    const CruTree tree = random_tree(rng, gen);
    const Colouring colouring(tree);

    ParetoDpOptions arena_opts;  // dp_threads = 1
    ParetoDpOptions threaded_opts;
    threaded_opts.dp_threads = 4;

    const double ref_s = bench::time_run(
        [&] { static_cast<void>(oracle::reference_solve(colouring)); }, reps);
    const double scalar_s = bench::time_run(
        [&] {
          static_cast<void>(oracle::kernel_solve(colouring, arena_opts, oracle::Kernel::kScalar));
        },
        reps);
    const double simd_s = bench::time_run(
        [&] {
          static_cast<void>(oracle::kernel_solve(colouring, arena_opts, oracle::Kernel::kSimd));
        },
        reps);
    const double arena_s = bench::time_run(
        [&] { static_cast<void>(pareto_dp_solve(colouring, arena_opts)); }, reps);
    const double t4_s = bench::time_run(
        [&] { static_cast<void>(pareto_dp_solve(colouring, threaded_opts)); }, reps);

    const ParetoDpResult reference = oracle::reference_solve(colouring);
    const ParetoDpResult arena = pareto_dp_solve(colouring, arena_opts);
    const ParetoDpResult scalar =
        oracle::kernel_solve(colouring, arena_opts, oracle::Kernel::kScalar);
    const ParetoDpResult threaded = pareto_dp_solve(colouring, threaded_opts);

    if (arena.objective != reference.objective ||
        arena.assignment.cut_nodes() != reference.assignment.cut_nodes()) {
      std::cerr << "IDENTITY FAILURE: " << c.label
                << ": arena optimum differs from the reference engine\n";
      identical = false;
    }
    if (report_json_without_wall(colouring, arena) !=
        report_json_without_wall(colouring, threaded)) {
      std::cerr << "IDENTITY FAILURE: " << c.label
                << ": dp_threads=4 report differs from dp_threads=1\n";
      identical = false;
    }
    if (report_json_without_wall(colouring, arena) !=
        report_json_without_wall(colouring, scalar)) {
      std::cerr << "IDENTITY FAILURE: " << c.label
                << ": engine report differs from the scalar-kernel solve\n";
      identical = false;
    }

    ref_total += ref_s;
    arena_total += arena_s;
    t4_total += t4_s;
    const double kernel_x = scalar_s / simd_s;
    kernel_log_sum += std::log(kernel_x);

    const std::size_t regions = colouring.region_roots().size();
    const double prune = 100.0 * arena.stats.prune_ratio();
    t.add(c.label, tree.size(), regions, ref_s * 1e3, scalar_s * 1e3, arena_s * 1e3,
          ref_s / arena_s, kernel_x, t4_s * 1e3, arena_s / t4_s,
          arena.stats.peak_frontier, prune);
    bench::json().add_row(
        c.label,
        {{"nodes", static_cast<double>(tree.size())},
         {"regions", static_cast<double>(regions)},
         {"ref_ms", ref_s * 1e3},
         {"scalar_ms", scalar_s * 1e3},
         {"arena_ms", arena_s * 1e3},
         {"speedup_vs_reference", ref_s / arena_s},
         {"kernel_speedup", kernel_x},
         {"threads4_ms", t4_s * 1e3},
         {"speedup_threads4", arena_s / t4_s},
         {"peak_frontier", static_cast<double>(arena.stats.peak_frontier)},
         {"arena_bytes", static_cast<double>(arena.stats.arena_bytes)},
         {"prune_ratio", arena.stats.prune_ratio()}});
  }
  t.print(std::cout);

  const double speedup = ref_total / arena_total;
  const double scaling = arena_total / t4_total;
  const double kernel_geomean = std::exp(kernel_log_sum / static_cast<double>(cases.size()));
  bench::note("aggregate speedup vs reference: " + std::to_string(speedup) + "x (gate: 3x)");
  bench::note("kernel simd-over-scalar geomean: " + std::to_string(kernel_geomean) +
              "x (gate: 1.3x, full mode)");
  bench::note("aggregate dp_threads=4 scaling: " + std::to_string(scaling) +
              "x (gate: 1.5x, needs >= 4 hardware threads)");
  bench::json().set("speedup_vs_reference", speedup);
  bench::json().set("kernel_speedup_geomean", kernel_geomean);
  bench::json().set("speedup_threads4", scaling);
  bench::json().set("threads", 4.0);

  bool ok = identical;
  if (!identical) std::cerr << "FAILED: byte-identity violated\n";
  if (speedup < 3.0) {
    std::cerr << "FAILED: arena engine only " << speedup << "x over the reference (< 3x)\n";
    ok = false;
  }
  if (!smoke && kernel_geomean < 1.3) {
    std::cerr << "FAILED: simd kernel only " << kernel_geomean
              << "x geomean over scalar (< 1.3x)\n";
    ok = false;
  }
  if (hw >= 4) {
    if (scaling < 1.5) {
      std::cerr << "FAILED: dp_threads=4 scaling only " << scaling << "x (< 1.5x)\n";
      ok = false;
    }
    bench::json().set("scaling_gate", std::string(scaling >= 1.5 ? "passed" : "failed"));
  } else {
    bench::note("scaling gate skipped: only " + std::to_string(hw) +
                " hardware thread(s); byte-identity still asserted");
    bench::json().set("scaling_gate", std::string("skipped: <4 hardware threads"));
  }
  // Pool section: a warm ResolveSession over a drift stream. The claim is
  // allocation churn, not speed: every warm DP re-solve leases the pool's
  // prewarmed scratch (zero fresh allocations across the stream) and the
  // scratch stops growing once it has seen the instance's working set. A
  // scalar-kernel cold solve of every step's instance must land on the
  // bit-identical optimum (the warm-path half of the kernel identity claim
  // above).
  {
    Rng rng(99);
    TreeGenOptions gen;
    gen.compute_nodes = smoke ? 200 : 400;
    gen.satellites = 8;
    gen.policy = SensorPolicy::kClustered;
    const CruTree base = random_tree(rng, gen);
    const int steps = smoke ? 8 : 16;

    ResolveSession session(base, SolvePlan::pareto_dp());

    std::size_t reuses = session.last_stats().pool_reuses;
    std::size_t allocs = session.last_stats().pool_allocs;
    std::size_t served = session.last_stats().pool_served_bytes;
    std::size_t grown = session.last_stats().pool_grown_bytes;
    std::size_t grown_tail = 0;
    std::size_t warm_steps = 0;
    for (int step = 0; step < steps; ++step) {
      const Perturbation drift = Perturbation::satellite_drift(
          SatelliteId{static_cast<std::size_t>(step) % gen.satellites}, 1.02, 0.99, 1.01);
      session.resolve(drift);
      const Colouring step_colouring(session.tree());
      const ParetoDpResult scalar =
          oracle::kernel_solve(step_colouring, {}, oracle::Kernel::kScalar);
      const ResolveStats& stats = session.last_stats();
      warm_steps += stats.path == ResolvePath::kWarm ? 1 : 0;
      reuses += stats.pool_reuses;
      allocs += stats.pool_allocs;
      served += stats.pool_served_bytes;
      grown += stats.pool_grown_bytes;
      if (step >= steps / 2) grown_tail += stats.pool_grown_bytes;
      if (session.current().objective_value != scalar.objective ||
          session.current().assignment.cut_nodes() != scalar.assignment.cut_nodes()) {
        std::cerr << "IDENTITY FAILURE: warm step " << step
                  << ": warm optimum differs from the scalar-kernel cold solve\n";
        ok = false;
      }
    }

    const double reuse_ratio =
        static_cast<double>(reuses) / static_cast<double>(reuses + allocs);
    bench::note("pool: " + std::to_string(warm_steps) + "/" + std::to_string(steps) +
                " warm steps, " + std::to_string(reuses) + " scratch reuses, " +
                std::to_string(allocs) + " fresh allocs");
    bench::note("pool: " + std::to_string(served) + " bytes served from pooled scratch, " +
                std::to_string(grown) + " grown (tail half: " +
                std::to_string(grown_tail) + ")");
    bench::json().set("pool_steps", static_cast<double>(steps));
    bench::json().set("pool_warm_steps", static_cast<double>(warm_steps));
    bench::json().set("pool_reuse_ratio", reuse_ratio);
    bench::json().set("pool_served_bytes", static_cast<double>(served));
    bench::json().set("pool_grown_bytes", static_cast<double>(grown));
    bench::json().set("pool_grown_bytes_tail", static_cast<double>(grown_tail));
    if (allocs != 0) {
      std::cerr << "FAILED: " << allocs
                << " fresh scratch allocations on the warm stream (pool must serve all)\n";
      ok = false;
    }
    if (warm_steps != static_cast<std::size_t>(steps)) {
      std::cerr << "FAILED: only " << warm_steps << "/" << steps
                << " drift steps took the warm path\n";
      ok = false;
    }
  }

  if (ok) bench::note("all gates passed");
  if (!bench::json().write()) ok = false;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  treesat::bench::BenchJson::init("bench_pareto_arena", &argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return treesat::run(smoke);
}
