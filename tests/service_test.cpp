// Protocol-semantics wall for the solver service (service/service.hpp):
// submit/solve/perturb/stats/evict round trips, warm/cached/cold paths,
// admission control, LRU eviction under a byte budget, deadline rejection,
// fail-fast streams, and the error taxonomy (every malformed or impossible
// request must become one descriptive {"ok":false} response, never a crash
// and never a torn-down service). Responses are checked by substring: the
// response grammar is part of the protocol contract, and the byte-level
// half of it is locked down by service_determinism_test.cpp and the ci.sh
// golden-trace stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/format.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "storage/faults.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

std::string submit_line(const std::string& tenant, const std::string& instance,
                        const CruTree& tree) {
  std::string line = "{\"op\":\"submit\",\"tenant\":\"";
  line += tenant;
  line += "\",\"instance\":\"";
  line += instance;
  line += "\",\"tree\":\"";
  line += json_escape(to_text(tree));
  line += "\"}";
  return line;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A fresh per-test scratch directory (spill tiers, checkpoints). Wiped up
/// front so a previous run's files cannot leak into this one.
std::string temp_subdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/treesat_service_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

#define EXPECT_CONTAINS(response, needle) \
  EXPECT_TRUE(contains(response, needle)) << "response: " << response

TEST(Service, SubmitSolveRoundTrip) {
  SolverService service;
  const CruTree tree = paper_running_example();

  const std::string submitted = service.handle_line(submit_line("t0", "w0", tree));
  EXPECT_CONTAINS(submitted, "\"op\":\"submit\",\"ok\":true");
  EXPECT_CONTAINS(submitted, "\"nodes\":" + std::to_string(tree.size()));
  EXPECT_CONTAINS(submitted, "\"replaced\":false");

  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"ok\":true");
  EXPECT_CONTAINS(solved, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solved, "\"method\":\"pareto-dp\"");
  EXPECT_CONTAINS(solved, "\"exact\":true");

  // The served objective is the library's own optimum, byte for byte.
  const Colouring colouring(tree);
  const SolveReport direct = solve(colouring, SolvePlan::pareto_dp());
  EXPECT_CONTAINS(solved, "\"objective\":" + shortest_round_trip(direct.objective_value));

  // A repeat under the same plan is served from the warm session.
  const std::string again =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(again, "\"path\":\"cached\"");
  EXPECT_CONTAINS(again, "\"objective\":" + shortest_round_trip(direct.objective_value));

  // Result-invisible knobs (dp_threads, executor keys) are not a plan
  // change: the warm session survives a client re-tuning parallelism.
  const std::string retuned = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"plan\":\"pareto-dp:dp_threads=4,threads=8\"}");
  EXPECT_CONTAINS(retuned, "\"path\":\"cached\"");

  // A different plan cannot reuse the session: rebuilt cold.
  const std::string replanned = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"plan\":\"exhaustive\"}");
  EXPECT_CONTAINS(replanned, "\"path\":\"cold\"");
  EXPECT_CONTAINS(replanned, "\"method\":\"exhaustive\"");
  EXPECT_CONTAINS(replanned, "plan changed");
}

TEST(Service, TenantTelemetryIsBounded) {
  // Rotating tenant names must not grow telemetry (or the stats document)
  // without bound: past the cap, new tenants aggregate into "(overflow)".
  SolverService service;
  const std::size_t over = ServiceTelemetry::kMaxTrackedTenants + 40;
  for (std::size_t k = 0; k < over; ++k) {
    std::string line = "{\"op\":\"stats\",\"tenant\":\"rot";
    line += std::to_string(k);
    line += "\"}";
    static_cast<void>(service.handle_line(line));
  }
  const ServiceTelemetry& t = service.telemetry();
  EXPECT_EQ(t.tenants.size(), ServiceTelemetry::kMaxTrackedTenants);
  EXPECT_EQ(t.overflow.requests, 40u);
  EXPECT_EQ(t.totals().requests, over);
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"tenant\":\"(overflow)\"");
  // A *scoped* stats response never leaks the cross-tenant overflow block
  // (here the polled tenant itself lives past the cap: gauges only).
  const std::string scoped = service.handle_line(
      "{\"op\":\"stats\",\"tenant\":\"rot1050\"}");
  EXPECT_FALSE(contains(scoped, "(overflow)")) << scoped;
  EXPECT_FALSE(contains(scoped, "\"tenant\":\"rot0\"")) << scoped;
}

TEST(Service, PerturbWarmPathMatchesColdResolve) {
  SolverService service;
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  // One satellite's profile drifts: the other colours' cached frontiers
  // survive, so the session re-solves warm...
  const std::string perturbed = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"satellite_drift\",\"satellite\":0,\"host_scale\":1.25,"
      "\"sat_scale\":0.8,\"comm_scale\":1.1}");
  EXPECT_CONTAINS(perturbed, "\"ok\":true");
  EXPECT_CONTAINS(perturbed, "\"solved\":true");
  EXPECT_CONTAINS(perturbed, "\"path\":\"warm\"");
  EXPECT_CONTAINS(perturbed, "\"cold_reason\":\"\"");

  // ...and the warm optimum is byte-identical to a cold solve of the
  // perturbed instance (the session's documented identity guarantee,
  // observed through the protocol).
  ResolveSession reference{CruTree(tree)};
  reference.resolve(Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.25, 0.8, 1.1));
  EXPECT_CONTAINS(perturbed, "\"objective\":" + shortest_round_trip(
                                                    reference.current().objective_value));
}

TEST(Service, PerturbBeforeSolveEvolvesTheStoredTree) {
  SolverService service;
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));

  const std::string perturbed = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"global_drift\",\"host_scale\":1.5}");
  EXPECT_CONTAINS(perturbed, "\"ok\":true");
  EXPECT_CONTAINS(perturbed, "\"solved\":false");

  // The eventual first solve sees the perturbed instance.
  const CruTree drifted =
      apply_perturbation(tree, Perturbation::global_drift(1.5, 1.0, 1.0));
  const Colouring colouring(drifted);
  const SolveReport direct = solve(colouring, SolvePlan::pareto_dp());
  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solved, "\"objective\":" + shortest_round_trip(direct.objective_value));
}

TEST(Service, EvictAndUnknownInstance) {
  SolverService service;
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));

  const std::string evicted =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(evicted, "\"evicted\":true");
  const std::string again =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(again, "\"evicted\":false");

  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"ok\":false");
  EXPECT_CONTAINS(solved, "unknown instance");
}

TEST(Service, ErrorTaxonomyKeepsServing) {
  SolverService service;
  const struct {
    const char* line;
    const char* expect;
  } kBad[] = {
      {"not json at all", "request parse"},
      {"{\"op\":\"solve\"", "unexpected end of input"},
      {"{\"op\":\"warp\",\"tenant\":\"t0\"}", "unknown op"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\"}", "missing field 'instance'"},
      {"{\"op\":\"submit\",\"instance\":\"w0\",\"tree\":\"x\"}", "needs a tenant"},
      {"{\"op\":\"solve\",\"tenant\":\"a/b\",\"instance\":\"w0\"}", "'/'-free"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"plan\":\"dijkstra\"}",
       "unknown method"},
      {"{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"w0\",\"tree\":\"gibberish\"}",
       "cru_tree"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"nested\":{}}",
       "nested values"},
      {"{\"op\":\"solve\",\"op\":\"solve\"}", "duplicate key"},
      {"{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"melt\"}",
       "unknown instance"},  // instance checked before the kind
  };
  for (const auto& bad : kBad) {
    const std::string response = service.handle_line(bad.line);
    EXPECT_CONTAINS(response, "\"ok\":false");
    EXPECT_CONTAINS(response, bad.expect);
  }
  // The service survives all of it.
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
  // An invalid perturbation rolls back: the session still serves.
  EXPECT_CONTAINS(service.handle_line(
                      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
                      "\"kind\":\"satellite_loss\",\"satellite\":99}"),
                  "\"ok\":false");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");
}

TEST(Service, OutOfRangeSatelliteIdsGetTypedErrors) {
  // The golden trace's first submit with one sensor's satellite mutated to
  // "-667": std::stoul used to wrap it, admit a 2-node tree as 4 billion
  // satellites, and let the next solve die in bad_alloc.
  SolverService service(parse_service_config("shards=1"));
  const std::string mutated =
      "{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"w0\",\"tree\":\"cru_tree v1\\n"
      "0 - compute seizure_estimator 0.0125 0 0 -\\n"
      "1 0 sensor ecg 0 0 0.03 -667\\n\"}";
  const std::string rejected = service.handle_line(mutated);
  EXPECT_CONTAINS(rejected, "\"ok\":false");
  EXPECT_CONTAINS(rejected, "bad satellite '-667'");

  // A probe naming a satellite past the builder's cap is rejected the same
  // way, and the session keeps serving its previous instance.
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  const std::string probe = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"insert_probe\","
      "\"parent\":\"" + paper_running_example().node(CruId{0u}).name +
      "\",\"name\":\"far_probe\",\"satellite\":" +
      std::to_string(CruTreeBuilder::kMaxSatelliteId + 1) + "}");
  EXPECT_CONTAINS(probe, "\"ok\":false");
  EXPECT_CONTAINS(probe, "exceeds the cap");
  // 2^32 + 1 must not wrap to satellite 1 on its way to the cap check.
  const std::string wrapped = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"insert_probe\","
      "\"parent\":\"" + paper_running_example().node(CruId{0u}).name +
      "\",\"name\":\"far_probe\",\"satellite\":4294967297}");
  EXPECT_CONTAINS(wrapped, "\"ok\":false");
  EXPECT_CONTAINS(wrapped, "does not fit a 32-bit id");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
}

TEST(Service, AdmissionRejectsOversizedInstances) {
  ServiceOptions options = parse_service_config("mem_budget=1k,fail_fast=false");
  SolverService service(options);
  const std::string response =
      service.handle_line(submit_line("t0", "w0", paper_running_example()));
  EXPECT_CONTAINS(response, "\"ok\":false");
  EXPECT_CONTAINS(response, "admission");
}

TEST(Service, LruEvictionUnderByteBudget) {
  // Two submitted epilepsy trees (~2.6 KiB each) fit a 6 KiB budget; one
  // warm session (~4.3 KiB) plus a tree does not. Warming instance a must
  // therefore evict the LRU entry -- b, never a itself (the entry being
  // served is protected; a per-request victim is always some *other*
  // instance).
  SolverService service(parse_service_config("shards=4,mem_budget=6k,fail_fast=false"));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  static_cast<void>(service.handle_line(submit_line("t0", "a", tree)));
  static_cast<void>(service.handle_line(submit_line("t0", "b", tree)));
  const std::string first =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}");
  EXPECT_CONTAINS(first, "\"ok\":true");
  EXPECT_CONTAINS(first, "\"lru_evicted\":1");

  // Instance b is gone; a is still warm.
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}"),
      "unknown instance");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}"),
      "\"path\":\"cached\"");
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"lru_evictions\":1");
}

TEST(Service, SpillTierPreservesWarmStateAcrossEviction) {
  // Same byte arithmetic as LruEvictionUnderByteBudget (two epilepsy trees
  // fit 6 KiB, a warm session plus anything does not), but with a spill
  // tier: LRU victims land on disk and come back warm -- the re-solve that
  // eviction used to cost disappears.
  const std::string spill = temp_subdir("spill_warm");
  SolverService service(parse_service_config(
      "shards=4,mem_budget=6k,fail_fast=false,spill_dir=" + spill));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  static_cast<void>(service.handle_line(submit_line("t0", "a", tree)));
  static_cast<void>(service.handle_line(submit_line("t0", "b", tree)));

  // Warming b evicts a's (tree-only) entry -- spilled, not destroyed.
  const std::string warm_b =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}");
  EXPECT_CONTAINS(warm_b, "\"path\":\"initial\"");
  EXPECT_CONTAINS(warm_b, "\"lru_evicted\":1");
  std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_entries\":1");
  EXPECT_CONTAINS(stats, "\"spills\":1");
  EXPECT_CONTAINS(stats, "\"spill_reloads\":0");

  // a is NOT unknown (the no-spill test's outcome): it reloads from the
  // spill tier and solves; the warm b session is the next victim.
  const std::string solve_a =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}");
  EXPECT_CONTAINS(solve_a, "\"ok\":true");
  EXPECT_CONTAINS(solve_a, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solve_a, "\"lru_evicted\":1");

  // b comes back *warm*: "cached", not a re-solve -- the whole point of
  // spilling sessions instead of dropping them.
  const std::string back_b =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}");
  EXPECT_CONTAINS(back_b, "\"ok\":true");
  EXPECT_CONTAINS(back_b, "\"path\":\"cached\"");

  stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_reloads\":2");  // a (tree-only) + b (warm)
  EXPECT_CONTAINS(stats, "\"spill_budget\":0");
  // The spilled entry's bytes are on disk, not in the RAM gauge.
  EXPECT_CONTAINS(stats, "\"spill_entries\":1");
}

TEST(Service, EvictFateReporting) {
  const std::string spill = temp_subdir("spill_fate");
  SolverService service(parse_service_config("mem_budget=64m,spill_dir=" + spill));
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  // A warm session evicts to the spill tier...
  const std::string spilled =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(spilled, "\"evicted\":true");
  EXPECT_CONTAINS(spilled, "\"fate\":\"spilled\"");

  // ...and a later solve reloads it warm ("cached": no re-solve happened).
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");

  // "drop":true destroys it everywhere, spill tier included.
  const std::string dropped = service.handle_line(
      "{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\",\"drop\":true}");
  EXPECT_CONTAINS(dropped, "\"fate\":\"dropped\"");
  const std::string absent =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(absent, "\"evicted\":false");
  EXPECT_CONTAINS(absent, "\"fate\":\"absent\"");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");

  // Evicting an already-spilled entry is a no-op that reports its tier;
  // dropping it then removes the file.
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"fate\":\"spilled\"");
  EXPECT_CONTAINS(service.handle_line(
                      "{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\",\"drop\":true}"),
                  "\"fate\":\"dropped\"");

  // Without a spill tier an evict can only drop (the pre-tier behavior).
  SolverService bare;
  static_cast<void>(bare.handle_line(submit_line("t0", "w0", tree)));
  EXPECT_CONTAINS(
      bare.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"fate\":\"dropped\"");
}

TEST(Service, SpillBudgetDropsColdestSpilledEntries) {
  // A 1-byte spill budget: every spill is immediately swept back out, so
  // the tier holds nothing but the counters still tell the story.
  const std::string spill = temp_subdir("spill_tiny");
  SolverService service(parse_service_config(
      "mem_budget=64m,spill_dir=" + spill + ",spill_budget=1"));
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  const std::string evicted =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  // The entry was spilled, then the budget sweep dropped the file: the
  // observable fate is "dropped", and the instance really is gone.
  EXPECT_CONTAINS(evicted, "\"fate\":\"dropped\"");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");
  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_budget\":1");
  EXPECT_CONTAINS(stats, "\"spill_entries\":0");
  EXPECT_CONTAINS(stats, "\"spill_bytes\":0");
}

TEST(Service, CheckpointRestoreOps) {
  const std::string dir = temp_subdir("ckpt_ops");
  SolverService service;
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  const std::string saved =
      service.handle_line("{\"op\":\"checkpoint\",\"dir\":\"" + json_escape(dir) + "\"}");
  EXPECT_CONTAINS(saved, "\"ok\":true");
  EXPECT_CONTAINS(saved, "\"entries\":1");

  // A fresh service restores it and serves the warm session immediately.
  SolverService twin;
  const std::string restored =
      twin.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(dir) + "\"}");
  EXPECT_CONTAINS(restored, "\"ok\":true");
  EXPECT_CONTAINS(restored, "\"sessions\":1");
  EXPECT_CONTAINS(
      twin.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");

  // Restoring from a missing / empty directory is an error response, not a
  // torn-down service.
  const std::string bad = twin.handle_line(
      "{\"op\":\"restore\",\"dir\":\"" + json_escape(dir + "/nope") + "\"}");
  EXPECT_CONTAINS(bad, "\"ok\":false");
  EXPECT_CONTAINS(
      twin.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
}

TEST(Service, DeadlineRejectsLateRequests) {
  // An absurdly small service deadline: every request arrives after it.
  SolverService late(parse_service_config("deadline_ms=1e-9,fail_fast=false"));
  const std::string response =
      late.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(response, "\"ok\":false");
  EXPECT_CONTAINS(response, "deadline");

  // Per-request deadline_ms tightens the (unlimited) service budget.
  SolverService service;
  const std::string request_late = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"deadline_ms\":1e-9}");
  EXPECT_CONTAINS(request_late, "deadline");
  // Without the field the same request is admitted (and fails usefully).
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");
}

TEST(Service, ServeHonorsFailFastAndComments) {
  const CruTree tree = paper_running_example();
  std::string trace;
  trace += "# a comment line\n\n";
  trace += submit_line("t0", "w0", tree);
  trace += "\n{\"op\":\"warp\"}\n";  // error in the middle
  trace += "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}\n";

  {
    SolverService service;  // fail_fast defaults on, like the executor
    std::istringstream in(trace);
    std::ostringstream out;
    EXPECT_EQ(service.serve(in, out), 1u);
    // submit + the error: the solve after the failure was never started.
    const std::string responses = out.str();
    EXPECT_EQ(std::count(responses.begin(), responses.end(), '\n'), 2);
  }
  {
    SolverService service(parse_service_config("fail_fast=false"));
    std::istringstream in(trace);
    std::ostringstream out;
    EXPECT_EQ(service.serve(in, out), 1u);
    const std::string responses = out.str();
    EXPECT_EQ(std::count(responses.begin(), responses.end(), '\n'), 3);
    EXPECT_CONTAINS(responses, "\"path\":\"initial\"");
  }
}

TEST(Service, StatsDocumentAndTimingOptIn) {
  SolverService service;
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"initial_solves\":1");
  EXPECT_CONTAINS(stats, "\"method_counts\":{\"pareto-dp\":1}");
  EXPECT_CONTAINS(stats, "\"tenants\":[{\"tenant\":\"t0\"");
  // Timing is wall-clock: excluded unless asked for.
  EXPECT_FALSE(contains(stats, "latency_ms")) << stats;
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\",\"timing\":true}"), "latency_ms");

  // Tenant-scoped stats only carry that tenant's section.
  static_cast<void>(service.handle_line(submit_line("t1", "w0", paper_running_example())));
  const std::string scoped = service.handle_line("{\"op\":\"stats\",\"tenant\":\"t1\"}");
  EXPECT_CONTAINS(scoped, "\"tenant\":\"t1\"");
  EXPECT_FALSE(contains(scoped, "\"tenant\":\"t0\"")) << scoped;
}

TEST(Service, ConfigSpecRoundTrips) {
  const ServiceOptions options = parse_service_config(
      "shards=4,mem_budget=64m,deadline_ms=250,fail_fast=false,timing=true,"
      "plan=coloured-ssb");
  EXPECT_EQ(options.shards, 4u);
  EXPECT_EQ(options.mem_budget, std::size_t{64} << 20);
  EXPECT_DOUBLE_EQ(options.executor.deadline_seconds, 0.25);
  EXPECT_FALSE(options.executor.fail_fast);
  EXPECT_TRUE(options.timing_in_stats);
  EXPECT_EQ(options.plan, "coloured-ssb");

  const ServiceOptions back = parse_service_config(service_config_spec(options));
  EXPECT_EQ(back.shards, options.shards);
  EXPECT_EQ(back.mem_budget, options.mem_budget);
  EXPECT_DOUBLE_EQ(back.executor.deadline_seconds, options.executor.deadline_seconds);
  EXPECT_EQ(back.executor.fail_fast, options.executor.fail_fast);
  EXPECT_EQ(back.timing_in_stats, options.timing_in_stats);
  EXPECT_EQ(back.plan, options.plan);

  // Suffix forms.
  EXPECT_EQ(parse_service_config("mem_budget=512k").mem_budget, std::size_t{512} << 10);
  EXPECT_EQ(parse_service_config("mem_budget=1G").mem_budget, std::size_t{1} << 30);
  EXPECT_EQ(parse_service_config("mem_budget=0").mem_budget, 0u);

  // Spill keys ride the same round trip.
  const ServiceOptions tiered =
      parse_service_config("mem_budget=6k,spill_dir=/tmp/spill,spill_budget=2m");
  EXPECT_EQ(tiered.spill_dir, "/tmp/spill");
  EXPECT_EQ(tiered.spill_budget, std::size_t{2} << 20);
  const ServiceOptions tiered_back = parse_service_config(service_config_spec(tiered));
  EXPECT_EQ(tiered_back.spill_dir, tiered.spill_dir);
  EXPECT_EQ(tiered_back.spill_budget, tiered.spill_budget);
  // Untiered configs keep round-tripping without the keys appearing.
  EXPECT_EQ(service_config_spec(parse_service_config("shards=2")).find("spill"),
            std::string::npos);

  // Straggler prediction is opt-in (wall-clock based, so defaulting it on
  // would break trace replay) and round-trips only when enabled.
  EXPECT_FALSE(ServiceOptions{}.predict_straggler);
  const ServiceOptions predicting = parse_service_config("predict_straggler=true");
  EXPECT_TRUE(predicting.predict_straggler);
  EXPECT_CONTAINS(service_config_spec(predicting), "predict_straggler=true");
  EXPECT_TRUE(parse_service_config(service_config_spec(predicting)).predict_straggler);
  EXPECT_EQ(service_config_spec(ServiceOptions{}).find("predict_straggler"),
            std::string::npos);

  // The overload keys ride the same round trip: degrade= (closed enum) and
  // fault= (the ';'/':' sub-spec of storage/faults.hpp, comma-free so it
  // nests). Both stay out of the spec at their defaults.
  const ServiceOptions overload = parse_service_config(
      "degrade=local-search,fault=seed:7;spill_read:0.5;truncate:0.25");
  EXPECT_EQ(overload.degrade, DegradeMode::kLocalSearch);
  EXPECT_EQ(overload.faults.seed, 7u);
  EXPECT_TRUE(overload.faults.enabled());
  const std::string spec = service_config_spec(overload);
  EXPECT_CONTAINS(spec, "degrade=local-search");
  EXPECT_CONTAINS(spec, "fault=seed:7;spill_read:0.5;truncate:0.25");
  const ServiceOptions overload_back = parse_service_config(spec);
  EXPECT_EQ(overload_back.degrade, overload.degrade);
  EXPECT_EQ(fault_plan_spec(overload_back.faults), fault_plan_spec(overload.faults));
  EXPECT_EQ(service_config_spec(ServiceOptions{}).find("degrade"), std::string::npos);
  EXPECT_EQ(service_config_spec(ServiceOptions{}).find("fault"), std::string::npos);
}

TEST(Service, PredictedOverrunComparesEstimateAgainstTheRemainingBudget) {
  // now + estimate > limit, but only when a limit and an estimate exist:
  // a fresh tenant (no latency history -> estimate 0) and an unlimited
  // service (limit 0) never predict.
  EXPECT_TRUE(predicted_overrun(/*now=*/9.5, /*limit=*/10.0, /*estimate=*/1.0));
  EXPECT_FALSE(predicted_overrun(8.0, 10.0, 1.0));
  EXPECT_FALSE(predicted_overrun(9.0, 10.0, 1.0));  // exactly on budget: admit
  EXPECT_FALSE(predicted_overrun(9.5, 0.0, 1.0));   // no limit
  EXPECT_FALSE(predicted_overrun(9.5, 10.0, 0.0));  // no history
}

}  // namespace
}  // namespace treesat
