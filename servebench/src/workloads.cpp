// The three workloads and their trace generation. Generation runs once per
// process, before any timed region; rounds replay the same lines.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "common/stopwatch.hpp"
#include "workload/traffic.hpp"

namespace servebench {

namespace {

// drift_mix: independent traffic traces of 12 tenants over the scenario
// library. Each tenant's tree drifts as its trace runs, and the seed decides
// which tenants grow large; those few tenants make the latency tail. One
// trace of 12000 ticks let a seed move p99 by +-20% (0.10 to 0.15 ms over
// seeds 1-6); 16 traces of 750 ticks average the tail over 192 tenants, and
// over seeds 1-10 the quartiles of p99 lay within 4.4% of its median.
// traffic_trace sizes every tenant's drift stream to the whole tick budget,
// so generation costs traces x tenants x ticks.
constexpr std::size_t kDriftTraces = 16;
constexpr std::size_t kDriftTenants = 12;
constexpr std::size_t kDriftTicks = 750;
// spill_churn replays the first kSpillTicks ticks of each of drift_mix's
// traces: a shorter traffic_trace with the same options and seed is an
// exact prefix of the longer one. Spilling requests cost ~15x a warm
// perturb, so the prefixes keep a round short enough to repeat several
// times in a run.
constexpr std::size_t kSpillTicks = 250;
// The store budget that makes about four in five of spill_churn's requests
// spill one session (and most reload another). Near one half the median
// request would sit on the boundary between spilling and warm requests.
constexpr const char* kSpillBudget = "32k";

// stress_mix: independent stress traces of 8 Zipf tenants each, every
// instance pinned at one size. The cost of the colour-skewed shape grows
// like nodes^4 (2 s for one cold solve at 1024 nodes on a 4-vCPU Xeon KVM
// guest), so a log-uniform size draw would let one tenant's draw set the
// whole run. Even at one size, each trace's Zipf head sets much of its
// cost, so a run averages many short traces: over seeds 1-10, 32 traces of
// 400 arrivals spread the Minkowski merge points generated by +-17%, 64 of
// 200 by +-9%.
constexpr std::size_t kStressTenants = 8;
constexpr std::size_t kStressTraces = 64;
constexpr std::size_t kStressRequests = 200;
constexpr std::size_t kStressNodes = 128;

// One round's wall time on the reference host (Workload::round_seconds),
// timed set-ups included, at seed 1 in a slow phase of the host.
constexpr double kDriftRoundSeconds = 1.0;
constexpr double kSpillRoundSeconds = 3.0;
constexpr double kStressRoundSeconds = 5.0;
// Set-ups per round (Workload::setup_repeats): one, over all of a
// workload's traces, takes about 13 ms on drift_mix, 30 ms on spill_churn
// and 0.5 s on stress_mix.
constexpr std::size_t kDriftSetupRepeats = 8;
constexpr std::size_t kSpillSetupRepeats = 6;
constexpr std::size_t kStressSetupRepeats = 1;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Solver threads for stress_mix: 2, but never so many that the replaying
/// main thread plus the DP workers exceed the host's hardware threads.
std::size_t stress_dp_threads() {
  const std::size_t cpus = std::max<std::size_t>(1, allowed_cpus().size());
  return std::clamp<std::size_t>(cpus - 1, 1, 2);
}

Trace to_trace(treesat::TrafficTrace generated, std::size_t tenants) {
  Trace t;
  t.lines = std::move(generated.lines);
  t.warmup = 2 * tenants;
  if (t.lines.size() <= t.warmup) throw std::runtime_error("generated trace has no measured lines");
  return t;
}

}  // namespace

std::size_t Workload::measured_per_round() const {
  std::size_t n = 0;
  for (const Trace& t : traces) n += t.lines.size() - t.warmup;
  return n;
}

std::size_t Workload::rounds(double seconds) const {
  return std::max<std::size_t>(3, static_cast<std::size_t>(std::lround(seconds / round_seconds)));
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const treesat::Stopwatch watch;
  if (name == "drift_mix" || name == "spill_churn") {
    w.plan = "pareto-dp";
    w.spill = name == "spill_churn";
    const std::string base = "fail_fast=false,plan=" + w.plan;
    w.config = base + ",mem_budget=" + (w.spill ? kSpillBudget : "256m");
    if (w.spill) w.reference_config = base + ",mem_budget=256m";
    w.dominant_layer = w.spill ? "storage" : "service";
    w.round_seconds = w.spill ? kSpillRoundSeconds : kDriftRoundSeconds;
    w.setup_repeats = w.spill ? kSpillSetupRepeats : kDriftSetupRepeats;
    for (std::size_t k = 0; k < kDriftTraces; ++k) {
      treesat::TrafficOptions o;
      o.seed = splitmix64(seed * kDriftTraces + k);
      o.tenants = kDriftTenants;
      o.ticks = w.spill ? kSpillTicks : kDriftTicks;
      w.traces.push_back(to_trace(treesat::traffic_trace(o), o.tenants));
    }
  } else if (name == "stress_mix") {
    w.dp_threads = stress_dp_threads();
    w.plan = "pareto-dp:dp_threads=" + std::to_string(w.dp_threads);
    w.config = "fail_fast=false,mem_budget=256m,plan=" + w.plan;
    w.dominant_layer = "core.pareto_dp";
    w.round_seconds = kStressRoundSeconds;
    w.setup_repeats = kStressSetupRepeats;
    for (std::size_t k = 0; k < kStressTraces; ++k) {
      treesat::StressOptions o;
      o.seed = splitmix64(seed * kStressTraces + k);
      o.tenants = kStressTenants;
      o.requests = kStressRequests;
      o.min_nodes = kStressNodes;
      o.max_nodes = kStressNodes;
      w.traces.push_back(to_trace(treesat::stress_trace(o), o.tenants));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.generate_seconds = watch.seconds();
  return w;
}

}  // namespace servebench
