// servebench entry point.
//
//   servebench --workload drift_mix|stress_mix|spill_churn --seed N
//              --seconds S --trace 0|1 --scratch DIR
//
// Prints a host stamp, one line per metric (value, unit, samples) and any
// failed output check, then the result as one JSON object on the last
// line. Exit code 0 when every output check passed, 1 when one failed,
// 2 on usage or fatal errors.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/format.hpp"
#include "platform/simd.hpp"

namespace servebench {

namespace {

/// The process's peak resident set (VmHWM), in MiB. Unlike getrusage's
/// ru_maxrss, it starts afresh at exec: ru_maxrss keeps the resident set
/// of the process that spawned this one (run.py's Python, ~14 MiB) when
/// that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the line is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Restarts the peak resident set at the current one (Linux 4.0+), so that
/// peak_rss_mb() leaves out trace generation. False when not permitted.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

Outcome timed_run(const Workload& w, double seconds, const std::filesystem::path& scratch) {
  ReplayOptions options;
  options.rounds = w.rounds(seconds);
  options.give_up_seconds = 4.0 * seconds;
  options.keep_projections = !w.reference_config.empty();
  options.setup_repeats = w.setup_repeats;
  const TimedStats st = run_rounds(w, scratch, options);
  // Read before the reference replay below, which holds every session in
  // memory: the peak must be the workload's own.
  const double rss_mb = peak_rss_mb();

  Outcome out;
  out.attempted = st.requests;
  out.failed = st.errors;
  if (st.errors + st.setup_errors > 0) {
    out.fail(std::to_string(st.errors) + " error responses among " + std::to_string(st.requests) +
             " measured requests, " + std::to_string(st.setup_errors) + " during set-up");
  }
  if (!st.digest_stable) out.fail("the response stream differs between rounds");
  if (st.rounds < options.rounds) {
    out.notes.push_back("gave up after " + std::to_string(st.rounds) + " of " +
                        std::to_string(options.rounds) + " rounds");
  }

  if (!w.reference_config.empty()) {
    // The same trace under the drift_mix config must give the same
    // objective and cut on every line: spilling may not change answers.
    Workload reference = w;
    reference.config = w.reference_config;
    reference.spill = false;
    ReplayOptions once;
    once.keep_projections = true;
    const TimedStats ref = run_rounds(reference, scratch, once);
    std::size_t differing = 0;
    for (std::size_t k = 0; k < w.traces.size(); ++k) {
      for (std::size_t i = 0; i < w.traces[k].lines.size(); ++i) {
        if (st.projections[k][i] != ref.projections[k][i]) ++differing;
      }
    }
    if (differing > 0) {
      out.fail(std::to_string(differing) +
               " lines differ in objective or cut from the drift_mix replay");
    }
  }

  const std::size_t n = st.per_round();
  const double p99 = quantile(st.best_latency, 0.99);
  std::size_t beyond = 0;
  for (const double l : st.best_latency) beyond += l > p99 ? 1 : 0;
  if (beyond < 10) out.fail("only " + std::to_string(beyond) + " samples beyond p99 (need 10)");
  out.notes.push_back(std::to_string(n) + " measured requests and " +
                      std::to_string(w.setup_repeats) +
                      " set-ups per round, each at its best of " + std::to_string(st.rounds) +
                      " rounds; " + std::to_string(beyond) + " samples beyond p99");

  out.metrics = {
      {"throughput_rps", st.throughput_rps(), "1/s", n},
      {"latency_p50_ms", quantile(st.best_latency, 0.5) * 1e3, "ms", n},
      {"latency_p99_ms", p99 * 1e3, "ms", n},
      {"success_ratio",
       1.0 - static_cast<double>(st.errors) / static_cast<double>(st.requests), "ratio",
       st.requests},
      {"setup_s", st.setup_seconds(w.traces.size()), "s", st.best_setup.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
      {"cpu_ms_per_op", st.best_cpu_seconds() * 1e3 / static_cast<double>(n), "ms", n},
  };
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void print(const Workload& w, const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::cout << "servebench: " << w.name << ' ' << m.name << " = "
              << treesat::shortest_round_trip(m.value) << ' ' << m.unit << " (" << m.samples
              << " samples)\n";
  }
  for (const std::string& note : out.notes) {
    std::cout << "servebench: " << w.name << ' ' << note << '\n';
  }
  for (const std::string& problem : out.problems) {
    std::cout << "servebench: " << w.name << " CHECK FAILED: " << problem << '\n';
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += json_string(m.name) + ": {\"value\": " + treesat::shortest_round_trip(m.value) +
            ", \"unit\": " + json_string(m.unit) + '}';
  }
  json += "}}";
  std::cout << json << std::endl;
}

int usage() {
  std::cerr << "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR\n";
  return 2;
}

}  // namespace

}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  std::string workload;
  std::string scratch;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || scratch.empty() || seconds <= 0.0 || trace < 0) {
    return usage();
  }
  try {
    const Workload w = make_workload(workload, seed);
    std::cout << "servebench: " << w.name << " host hardware_concurrency="
              << std::thread::hardware_concurrency() << " isa=" << treesat::simd::active_isa()
              << " seed=" << seed << " dp_threads=" << w.dp_threads << " traces=" << w.traces.size()
              << " measured_per_round=" << w.measured_per_round() << '\n';
    std::cout << "servebench: " << w.name << " trace generation "
              << treesat::shortest_round_trip(w.generate_seconds) << " s (not timed), peak RSS "
              << treesat::shortest_round_trip(peak_rss_mb()) << " MB so far\n";
    if (!reset_peak_rss()) {
      std::cout << "servebench: " << w.name
                << " could not reset the peak RSS: peak_rss_mb includes trace generation\n";
    }
    const std::filesystem::path area = std::filesystem::path(scratch) / w.name;
    std::filesystem::create_directories(area);
    const Outcome out = trace == 1 ? traced_run(w, seconds, area) : timed_run(w, seconds, area);
    std::filesystem::remove_all(area);
    print(w, out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << '\n';
    return 2;
  }
}
