// servebench: the end-to-end benchmark of the treesat solver service.
//
// One closed-loop client drives SolverService::handle_line in-process with
// one request in flight -- the traffic shape treesat_serve ships. A run
// generates its workload's traces once (outside every timed region), then
// replays them in a fixed number of rounds, each round on fresh services.
// See README.md in this directory for the workloads, the metric
// definitions and the per-layer prediction table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

namespace servebench {

/// One generated request trace, replayed on its own fresh SolverService.
struct Trace {
  std::vector<std::string> lines;
  /// Leading warm-up lines: every tenant's submit and first solve. They are
  /// the set-up a fresh or restarted service pays before warm traffic.
  std::size_t warmup = 0;
};

struct Workload {
  std::string name;
  /// Service config spec (service.hpp parse_service_config) minus the
  /// spill directory, which each round gets fresh when `spill` is set.
  std::string config;
  bool spill = false;
  /// The solver plan the service runs (also what the shadow replay and the
  /// cold reference solves use).
  std::string plan;
  std::size_t dp_threads = 1;
  /// The layer the traced run is predicted to find dominant (README.md).
  std::string dominant_layer;
  /// spill_churn only: the drift_mix config, replayed once per run to check
  /// that both produce the same objective and cut line for line.
  std::string reference_config;
  std::vector<Trace> traces;
  double generate_seconds = 0.0;  ///< informational; never in a timed region
  /// One round's wall time on the reference host (a 4-vCPU Xeon KVM
  /// guest). It fixes how many rounds a run of a given length replays, so
  /// that a faster or slower program still takes its best over as many.
  double round_seconds = 1.0;
  /// Whole set-ups a timed round repeats after its measured requests:
  /// enough for about 0.1 s of set-up on the reference host.
  std::size_t setup_repeats = 1;

  [[nodiscard]] std::size_t measured_per_round() const;
  /// Rounds replayed in a run of `seconds`: at least 3.
  [[nodiscard]] std::size_t rounds(double seconds) const;
};

/// Builds a workload's traces from the seed. Throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Deterministic counters of one round, read from the service's telemetry
/// and the round's metrics registry (the deterministic scrape).
struct RoundCounts {
  std::size_t warm_hits = 0;
  std::size_t cold_solves = 0;
  std::size_t lru_evictions = 0;
  std::size_t spills = 0;
  std::size_t reloads = 0;
  std::uint64_t minkowski_merges = 0;
  std::uint64_t merge_points_generated = 0;
  std::uint64_t merge_points_kept = 0;
};

/// Consecutive measured requests timed as one segment (never straddling
/// two traces).
inline constexpr std::size_t kSegmentRequests = 256;

/// What the rounds of a run measured. Every round replays the same requests
/// on the same fresh state -- the response digest proves it -- so a run
/// keeps, per measured request, per segment and per set-up, the best time
/// over its rounds: the time with the least interference from whatever
/// else shares the host. On a shared 4-vCPU KVM guest, neighbours slowed
/// single vCPUs by up to 1.7x in phases from a tenth of a second to
/// seconds.
struct TimedStats {
  std::vector<double> best_latency;       ///< seconds, per measured request of a round
  std::vector<double> best_segment_wall;  ///< seconds, per segment of a round
  std::vector<double> best_segment_cpu;   ///< process CPU seconds, per segment of a round
  /// seconds, per set-up of a round and trace (repeat-major): a fresh
  /// service replaying the trace's warm-up lines
  std::vector<double> best_setup;
  std::size_t rounds = 0;
  std::size_t requests = 0;       ///< measured requests attempted, all rounds
  std::size_t errors = 0;         ///< error or refused responses among them
  std::size_t setup_errors = 0;   ///< error responses during warm-up
  std::uint64_t digest = 0;       ///< response-stream digest of round 1
  bool digest_stable = true;      ///< every round reproduced round 1's digest
  RoundCounts counts;             ///< round 1's deterministic counters
  /// solution_projection() of round 1's responses, one vector per trace
  /// (kept on request).
  std::vector<std::vector<std::string>> projections;

  /// Measured requests per round.
  [[nodiscard]] std::size_t per_round() const { return best_latency.size(); }
  /// A round's measured replay, each segment at its best: wall seconds.
  [[nodiscard]] double best_replay_seconds() const;
  /// ...and process CPU seconds, all threads.
  [[nodiscard]] double best_cpu_seconds() const;
  [[nodiscard]] double throughput_rps() const {
    return static_cast<double>(per_round()) / best_replay_seconds();
  }
  /// Median over a round's set-ups of one whole set-up (every trace, each
  /// at its best): seconds.
  [[nodiscard]] double setup_seconds(std::size_t traces) const;
};

struct ReplayOptions {
  std::size_t rounds = 1;
  /// No round starts after this much wall time, so a run of a much slower
  /// program still ends; it then reports fewer rounds than asked for.
  double give_up_seconds = 120.0;
  bool keep_projections = false;  ///< fill TimedStats::projections from round 1
  /// Whole set-ups to time after each round's measured requests.
  std::size_t setup_repeats = 0;
  /// Called after every round (the traced run reduces and clears its spans).
  std::function<void()> after_round;
};

/// Replays `options.rounds` whole rounds, each trace on a fresh
/// SolverService with a fresh metrics registry installed. Each measured
/// request runs inside a "bench.request" span, which records nothing
/// unless a trace recorder is installed (the traced run). Spilling rounds
/// get a fresh, emptied subdirectory of `scratch` per service.
[[nodiscard]] TimedStats run_rounds(const Workload& w, const std::filesystem::path& scratch,
                                    const ReplayOptions& options);

/// One reported metric: name, value, unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Result of one benchmark invocation.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed output checks, one per line
  std::vector<std::string> notes;     ///< informational lines for the log

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// The traced run (--trace 1): per-layer metrics.
[[nodiscard]] Outcome traced_run(const Workload& w, double seconds,
                                 const std::filesystem::path& scratch);

// --- small shared helpers --------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (sorted copy).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// True when a response line reports "ok":true in its header.
[[nodiscard]] bool response_ok(const std::string& response);


/// The "objective" and "cut" fields of a response as one comparable string
/// that starts with the objective (empty when the response carries no
/// solution).
[[nodiscard]] std::string solution_projection(const std::string& response);

/// The objective of a solution_projection(); false when it has none.
[[nodiscard]] bool projection_objective(const std::string& projection, double* objective);

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Process CPU time, all threads, in seconds.
[[nodiscard]] double process_cpu_seconds();

}  // namespace servebench
