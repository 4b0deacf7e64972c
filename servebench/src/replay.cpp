// Timed rounds: every trace of the workload replayed on a fresh service,
// with a metrics registry installed exactly as treesat_serve installs one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <numeric>

#include <sched.h>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "storage/snapshot.hpp"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// The rest of a flat JSON line after `"key":` (empty when absent). Only
/// used on response and request headers, whose keys precede any nested
/// document.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  return line.substr(at + pattern.size());
}

/// The request's op, for the benchmark span's attribute.
std::string_view op_of(std::string_view line) {
  std::string_view rest = field(line, "op");
  if (rest.empty() || rest[0] != '"') return "?";
  rest.remove_prefix(1);
  return rest.substr(0, rest.find('"'));
}

std::uint64_t fold(std::uint64_t digest, std::string_view response) {
  return (digest ^ treesat::fnv1a64(response)) * 0x100000001b3ULL;
}

std::uint64_t counter(treesat::obs::MetricsRegistry& registry, const char* name) {
  return registry.counter(name, "", treesat::obs::MetricClass::kDeterministic).value();
}

/// Round 1 appends; later rounds keep the smaller value.
void keep_best(std::vector<double>& best, std::size_t i, double value) {
  if (i == best.size()) {
    best.push_back(value);
  } else {
    best[i] = std::min(best[i], value);
  }
}

/// Pins the calling thread -- and every thread it creates from now on -- to
/// `width` consecutive CPUs of `cpus`, starting at `offset`.
void pin(const std::vector<int>& cpus, std::size_t offset, std::size_t width) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < std::min(width, cpus.size()); ++j) {
    CPU_SET(cpus[(offset + j) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

/// What a fresh service needs besides its config: a metrics registry
/// installed for its lifetime and, for a spilling workload, an emptied
/// spill directory, removed afterwards.
class Fresh {
 public:
  Fresh(const Workload& w, const std::filesystem::path& scratch, std::size_t trace)
      : options_(treesat::parse_service_config(w.config)) {
    if (w.spill) {
      spill_ = scratch / ("trace" + std::to_string(trace));
      std::filesystem::remove_all(spill_);
      std::filesystem::create_directories(spill_);
      options_.spill_dir = spill_.string();
    }
    treesat::obs::install_metrics(&registry);
  }
  ~Fresh() {
    treesat::obs::install_metrics(nullptr);
    if (!spill_.empty()) std::filesystem::remove_all(spill_);
  }
  Fresh(const Fresh&) = delete;
  Fresh& operator=(const Fresh&) = delete;

  [[nodiscard]] treesat::ServiceOptions options() const { return options_; }

  treesat::obs::MetricsRegistry registry;

 private:
  treesat::ServiceOptions options_;
  std::filesystem::path spill_;
};

/// Times one set-up: a fresh service replaying the trace's warm-up lines.
double timed_setup(const Workload& w, const std::filesystem::path& scratch, std::size_t k,
                   TimedStats& st) {
  const Trace& trace = w.traces[k];
  Fresh fresh(w, scratch, k);
  const Clock::time_point t0 = Clock::now();
  treesat::SolverService service(fresh.options());
  for (std::size_t i = 0; i < trace.warmup; ++i) {
    if (!response_ok(service.handle_line(trace.lines[i]))) ++st.setup_errors;
  }
  return since(t0);
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

double TimedStats::best_replay_seconds() const {
  return std::accumulate(best_segment_wall.begin(), best_segment_wall.end(), 0.0);
}

double TimedStats::best_cpu_seconds() const {
  return std::accumulate(best_segment_cpu.begin(), best_segment_cpu.end(), 0.0);
}

double TimedStats::setup_seconds(std::size_t traces) const {
  std::vector<double> setups;
  for (std::size_t from = 0; from + traces <= best_setup.size(); from += traces) {
    setups.push_back(std::accumulate(best_setup.begin() + static_cast<std::ptrdiff_t>(from),
                                     best_setup.begin() + static_cast<std::ptrdiff_t>(from + traces),
                                     0.0));
  }
  return quantile(std::move(setups), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

bool response_ok(const std::string& response) {
  return field(response, "ok").starts_with("true");
}

std::string solution_projection(const std::string& response) {
  const std::string_view objective = field(response, "objective");
  const std::string_view cut = field(response, "cut");
  if (objective.empty() || cut.empty()) return {};
  std::string out(objective.substr(0, objective.find(',')));
  out += ' ';
  out += cut.substr(0, cut.find(']') + 1);
  return out;
}

bool projection_objective(const std::string& projection, double* objective) {
  const std::string number = projection.substr(0, projection.find(' '));
  char* end = nullptr;
  *objective = std::strtod(number.c_str(), &end);
  return !number.empty() && *end == '\0';
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TimedStats run_rounds(const Workload& w, const std::filesystem::path& scratch,
                      const ReplayOptions& options) {
  namespace obs = treesat::obs;
  TimedStats st;
  // Each round runs on the next window of CPUs: a shared host slows single
  // CPUs for tens of seconds, and a request's best time should come from
  // the least contended one.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t width = w.dp_threads > 1 ? 1 + w.dp_threads : 1;
  const Clock::time_point begin = Clock::now();
  while (st.rounds < options.rounds &&
         (st.rounds == 0 || since(begin) < options.give_up_seconds)) {
    // Moving to the round's first CPU alone, then widening, starts the main
    // thread there; threads a solve creates may use the whole window.
    pin(cpus, st.rounds, 1);
    pin(cpus, st.rounds, width);
    const bool first = st.rounds == 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::size_t request = 0;  // measured request index within the round
    std::size_t segment = 0;
    RoundCounts counts;
    for (std::size_t k = 0; k < w.traces.size(); ++k) {
      const Trace& trace = w.traces[k];
      std::vector<std::string>* keep =
          first && options.keep_projections ? &st.projections.emplace_back() : nullptr;
      const auto answered = [&](const std::string& response) {
        digest = fold(digest, response);
        if (keep != nullptr) keep->push_back(solution_projection(response));
      };
      Fresh fresh(w, scratch, k);
      {
        treesat::SolverService service(fresh.options());
        for (std::size_t i = 0; i < trace.warmup; ++i) {
          const std::string response = service.handle_line(trace.lines[i]);
          if (!response_ok(response)) ++st.setup_errors;
          answered(response);
        }

        for (std::size_t from = trace.warmup; from < trace.lines.size();
             from += kSegmentRequests, ++segment) {
          const std::size_t to = std::min(trace.lines.size(), from + kSegmentRequests);
          const double cpu0 = process_cpu_seconds();
          const Clock::time_point s0 = Clock::now();
          for (std::size_t i = from; i < to; ++i, ++request) {
            const std::string& line = trace.lines[i];
            const Clock::time_point a = Clock::now();
            std::string response;
            {
              obs::Span span(obs::trace(), "bench.request");
              if (span) {
                span.attr("index", static_cast<std::uint64_t>(i));
                span.attr("op", op_of(line));
              }
              response = service.handle_line(line);
            }
            keep_best(st.best_latency, request, since(a));
            if (!response_ok(response)) ++st.errors;
            answered(response);
          }
          keep_best(st.best_segment_wall, segment, since(s0));
          keep_best(st.best_segment_cpu, segment, process_cpu_seconds() - cpu0);
          st.requests += to - from;
        }

        if (first) {
          const treesat::TenantTelemetry totals = service.telemetry().totals();
          counts.warm_hits += totals.warm_hits;
          counts.cold_solves += totals.cold_solves;
          counts.lru_evictions += totals.lru_evictions;
          counts.spills += totals.spills;
          counts.reloads += totals.spill_reloads;
          counts.minkowski_merges += counter(fresh.registry, "treesat_dp_minkowski_merges_total");
          counts.merge_points_generated +=
              counter(fresh.registry, "treesat_dp_merge_points_generated_total");
          counts.merge_points_kept +=
              counter(fresh.registry, "treesat_dp_merge_points_kept_total");
        }
      }
    }
    // Set-up is timed in a loop of its own: a few milliseconds are too
    // short to time once.
    for (std::size_t j = 0; j < options.setup_repeats; ++j) {
      for (std::size_t k = 0; k < w.traces.size(); ++k) {
        keep_best(st.best_setup, j * w.traces.size() + k, timed_setup(w, scratch, k, st));
      }
    }
    if (first) {
      st.digest = digest;
      st.counts = counts;
    } else if (digest != st.digest) {
      st.digest_stable = false;
    }
    ++st.rounds;
    if (options.after_round) options.after_round();
  }
  pin(cpus, 0, cpus.size());
  return st;
}

}  // namespace servebench
