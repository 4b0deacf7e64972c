// Fuzz-style negative tests for parse_plan: a table of malformed specs,
// each of which must throw InvalidArgument with a descriptive message (the
// expected fragment pins the diagnosis, not just "an error happened").
// Anything else escaping -- a crash, a different exception type, or a
// silent accept -- fails the test. The table drove three fixes: duplicate
// keys used to be last-one-wins, s_coeff/b_coeff accepted nan and negative
// weights, and the executor keys needed their own range checks.
#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "service/service.hpp"

namespace treesat {
namespace {

struct BadSpec {
  const char* spec;
  const char* expect;  ///< required substring of the error message
};

const BadSpec kBadSpecs[] = {
    // Unknown or mangled method names.
    {"", "unknown method"},
    {"dijkstra", "unknown method"},
    {"coloured ssb", "unknown method"},
    {" genetic", "unknown method"},
    {"genetic ", "unknown method"},
    // Malformed key=value structure.
    {"genetic:", "malformed"},
    {"genetic:population", "malformed"},
    {"genetic:=64", "malformed"},
    {"genetic:population=64,", "malformed"},
    {"genetic:population=64,,seed=2", "malformed"},
    {"genetic:,population=64", "malformed"},
    // Duplicate keys (used to be silently last-one-wins).
    {"genetic:population=64,population=65", "duplicate key"},
    {"genetic:seed=1,seed=1", "duplicate key"},
    {"coloured-ssb:threads=2,threads=4", "duplicate key"},
    // ...including via a key alias (both spell the same option).
    {"coloured-ssb:expansion_cap=1024,expansion_cap_per_region=4096", "duplicate key"},
    // Unparseable or overflowing values.
    {"genetic:population=", "cannot parse value"},
    {"genetic:population=lots", "cannot parse value"},
    {"genetic:population=3.5", "cannot parse value"},
    {"genetic:population=-1", "cannot parse value"},
    {"genetic:population=18446744073709551616", "cannot parse value"},  // 2^64
    {"exhaustive:cap=0x10", "cannot parse value"},
    {"annealing:cooling=fast", "cannot parse value"},
    {"annealing:cooling=0.5x", "cannot parse value"},
    {"coloured-ssb:eager_expansion=maybe", "cannot parse value"},
    {"coloured-ssb:fail_fast=2", "cannot parse value"},
    // Seeds on deterministic methods.
    {"greedy:seed=1", "does not take a seed"},
    {"exhaustive:seed=7", "does not take a seed"},
    {"automatic:seed=7", "does not take a seed"},
    // Unknown keys (including near-misses; keys are case-sensitive).
    {"greedy:population=3", "unknown key"},
    {"coloured-ssb:max_frontier=4", "unknown key"},
    {"genetic:Population=3", "unknown key"},
    // Objective weights outside the model's domain.
    {"exhaustive:lambda=2.0", "lambda"},
    {"exhaustive:lambda=-0.25", "lambda"},
    {"exhaustive:lambda=nan", "lambda"},
    {"pareto-dp:s_coeff=-1", "finite non-negative"},
    {"pareto-dp:b_coeff=nan", "finite non-negative"},
    {"pareto-dp:b_coeff=inf", "finite non-negative"},
    // Executor knobs out of range (threads=0 is spelled 'auto').
    {"pareto-dp:threads=0", "threads"},
    {"pareto-dp:threads=-2", "cannot parse value"},
    {"pareto-dp:threads=many", "cannot parse value"},
    {"pareto-dp:deadline_ms=-5", "deadline_ms"},
    {"pareto-dp:deadline_ms=nan", "deadline_ms"},
    // priority= is an enumeration, not a free string.
    {"pareto-dp:priority=biggest", "'cost' or 'none'"},
    {"pareto-dp:priority=", "'cost' or 'none'"},
    {"pareto-dp:priority=COST", "'cost' or 'none'"},
    {"pareto-dp:priority=cost,priority=none", "duplicate key"},
};

TEST(ParsePlanFuzz, MalformedSpecsThrowDescriptiveErrors) {
  for (const BadSpec& bad : kBadSpecs) {
    try {
      const SolvePlan plan = parse_plan(bad.spec);
      FAIL() << "spec '" << bad.spec << "' was accepted as method '"
             << method_name(plan.method()) << "'";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_GE(what.size(), 10u) << "terse error for '" << bad.spec << "': " << what;
      EXPECT_NE(what.find(bad.expect), std::string::npos)
          << "error for '" << bad.spec << "' lacks '" << bad.expect << "': " << what;
    }
    // Any other exception type (or a crash) escapes and fails the test.
  }
}

// The service-level config spec (service/service.hpp) gets the same
// treatment: every malformed shards=/mem_budget=/deadline_ms=/... config
// must throw InvalidArgument with a descriptive message. The plan= value
// is validated through parse_plan, so its diagnostics surface here too.
const BadSpec kBadServiceConfigs[] = {
    // Malformed key=value structure.
    {"shards", "malformed"},
    {"=4", "malformed"},
    {"shards=2,", "malformed"},
    {"shards=2,,mem_budget=1m", "malformed"},
    {",shards=2", "malformed"},
    // Duplicate keys.
    {"shards=2,shards=4", "duplicate key"},
    {"mem_budget=1m,mem_budget=2m", "duplicate key"},
    // shards out of range (0 has no shard-count-invariant meaning).
    {"shards=0", "shards"},
    {"shards=-1", "cannot parse value"},
    {"shards=many", "cannot parse value"},
    {"shards=2.5", "cannot parse value"},
    // mem_budget: bytes with k/m/g suffixes only; overflow rejected, not
    // wrapped (a wrapped budget would silently evict every warm session).
    {"mem_budget=", "cannot parse value"},
    {"mem_budget=-5", "cannot parse value"},
    {"mem_budget=64q", "cannot parse value"},
    {"mem_budget=lots", "cannot parse value"},
    {"mem_budget=20000000000g", "overflows"},
    {"mem_budget=99999999999999999999", "cannot parse value"},  // > 2^64
    // deadline_ms domain.
    {"deadline_ms=-1", "deadline_ms"},
    {"deadline_ms=nan", "deadline_ms"},
    {"deadline_ms=inf", "deadline_ms"},
    {"deadline_ms=soon", "cannot parse value"},
    // Booleans.
    {"fail_fast=2", "cannot parse value"},
    {"timing=maybe", "cannot parse value"},
    {"predict_straggler=probably", "cannot parse value"},
    // The default plan is validated eagerly, with parse_plan's diagnostics.
    {"plan=dijkstra", "unknown method"},
    {"plan=", "unknown method"},
    {"plan=pareto-dp:dp_threads=0", "dp_threads"},
    {"plan=pareto-dp:max_frontier", "malformed"},
    // The engine selectors are gone from the grammar: one engine, one
    // kernel, the oracles in the test tree.
    {"plan=pareto-dp:kernel=simd", "unknown key 'kernel'"},
    {"plan=pareto-dp:arena=false", "unknown key 'arena'"},
    // Spill tier (storage/snapshot.hpp + session_store.hpp): the directory
    // must be a real value, the budget shares mem_budget's byte grammar,
    // and a budget without a directory is a contradiction, not a default.
    {"spill_dir=", "spill_dir"},
    {"spill_budget=0,spill_dir=", "spill_dir"},  // budget 0 does not excuse it
    {"spill_budget=1m", "requires 'spill_dir'"},
    {"mem_budget=1m,spill_budget=512k", "requires 'spill_dir'"},
    {"spill_dir=/tmp/a,spill_dir=/tmp/b", "duplicate key"},
    {"spill_budget=1m,spill_budget=2m,spill_dir=/tmp/a", "duplicate key"},
    {"spill_budget=", "cannot parse value"},
    {"spill_budget=-1,spill_dir=/tmp/a", "cannot parse value"},
    {"spill_budget=64q,spill_dir=/tmp/a", "cannot parse value"},
    {"spill_budget=1.5m,spill_dir=/tmp/a", "cannot parse value"},
    {"spill_budget=lots,spill_dir=/tmp/a", "cannot parse value"},
    {"spill_budget=20000000000g,spill_dir=/tmp/a", "overflows"},
    {"spill_budget=99999999999999999999,spill_dir=/tmp/a", "cannot parse value"},
    {"spill_budget", "malformed"},
    {"spill_dir", "malformed"},
    {"spill_dir=/tmp/a,", "malformed"},
    // degrade= is a closed enum (off|greedy|local-search); an unknown mode
    // silently mapped to off would disarm the SLA fallback.
    {"degrade=yes", "degrade"},
    {"degrade=", "degrade"},
    {"degrade=Greedy", "degrade"},
    {"degrade=greedy,degrade=off", "duplicate key"},
    // fault= nests the ';'/':' sub-grammar of storage/faults.hpp; its
    // diagnostics must surface through the service config parser.
    {"fault=seed", "subkey:value"},
    {"fault=seed:x", "bad seed"},
    {"fault=seed:3;seed:4", "duplicate seed"},
    {"fault=spill_read:2.0", "spill_read"},
    {"fault=spill_read:-0.5", "spill_read"},
    {"fault=spill_read:often", "spill_read"},
    {"fault=bogus:0.5", "unknown point"},
    {"fault=spill_read:0.5;spill_read:0.1", "duplicate point"},
    {"fault=seed:1,spill_read:0.5", "malformed"},  // commas do not nest
    // Unknown keys.
    {"ports=8080", "unknown key"},
    {"mem-budget=1m", "unknown key"},
    {"Shards=2", "unknown key"},
    {"spill-dir=/tmp/a", "unknown key"},
    {"Spill_dir=/tmp/a", "unknown key"},
    {"snapshot_dir=/tmp/a", "unknown key"},
};

TEST(ParseServiceConfigFuzz, MalformedConfigsThrowDescriptiveErrors) {
  for (const BadSpec& bad : kBadServiceConfigs) {
    try {
      const ServiceOptions options = parse_service_config(bad.spec);
      FAIL() << "config '" << bad.spec << "' was accepted (shards=" << options.shards
             << ")";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_GE(what.size(), 10u) << "terse error for '" << bad.spec << "': " << what;
      EXPECT_NE(what.find(bad.expect), std::string::npos)
          << "error for '" << bad.spec << "' lacks '" << bad.expect << "': " << what;
    }
  }
}

TEST(ParseServiceConfigFuzz, NearMissesStillParse) {
  // The empty config is the default service.
  EXPECT_EQ(parse_service_config("").shards, 1u);
  EXPECT_EQ(parse_service_config("shards=0016").shards, 16u);
  EXPECT_EQ(parse_service_config("mem_budget=64K").mem_budget, std::size_t{64} << 10);
  EXPECT_EQ(parse_service_config("deadline_ms=0").executor.deadline_seconds, 0.0);
  EXPECT_EQ(parse_service_config("fail_fast=no").executor.fail_fast, false);
  EXPECT_EQ(parse_service_config("plan=coloured_ssb").plan, "coloured_ssb");
  // Spill keys: budget 0 without a directory means "disabled", which is
  // exactly the default; a directory alone enables an unlimited tier.
  EXPECT_EQ(parse_service_config("spill_budget=0").spill_budget, 0u);
  EXPECT_EQ(parse_service_config("spill_dir=/tmp/spill").spill_dir, "/tmp/spill");
  EXPECT_EQ(parse_service_config("spill_dir=/tmp/spill,spill_budget=2M").spill_budget,
            std::size_t{2} << 20);
  // degrade accepts the underscore spelling; fault= empty is a disarmed
  // plan (exactly the default), and seed alone arms nothing.
  EXPECT_EQ(parse_service_config("degrade=local_search").degrade,
            DegradeMode::kLocalSearch);
  EXPECT_EQ(parse_service_config("degrade=off").degrade, DegradeMode::kOff);
  EXPECT_FALSE(parse_service_config("fault=").faults.enabled());
  EXPECT_FALSE(parse_service_config("fault=seed:9").faults.enabled());
  EXPECT_EQ(parse_service_config("fault=seed:9;spill_read:1").faults.seed, 9u);
}

TEST(ParsePlanFuzz, NearMissesOfValidSpecsStillParse) {
  // The negative table must not overshoot: these look odd but are legal.
  EXPECT_EQ(parse_plan("genetic:population=0064").options_as<GeneticOptions>().population,
            64u);
  EXPECT_EQ(parse_plan("coloured_ssb").method(), SolveMethod::kColouredSsb);
  EXPECT_EQ(parse_plan("branch_bound:greedy_incumbent=no")
                .options_as<BranchBoundOptions>()
                .greedy_incumbent,
            false);
  EXPECT_EQ(parse_plan("annealing:seed=18446744073709551615")  // 2^64 - 1: still fits
                .options_as<AnnealingOptions>()
                .seed,
            18446744073709551615ull);
  EXPECT_EQ(parse_plan("pareto-dp:threads=auto").executor().threads, 0u);
}

}  // namespace
}  // namespace treesat
