// The traced run (--trace 1): per-layer metrics.
//
// Three phases, all on the workload's own traces:
//   1. untraced rounds, the base of obs.trace_overhead_ratio;
//   2. traced rounds: a timing recorder is installed and every measured
//      request runs inside a "bench.request" root span, so the spans the
//      service already emits (req.*, store.lookup, spill.*,
//      session.resolve, dp.*, worklist.run) nest under it. They are reduced
//      to self time per layer;
//   3. a shadow replay that parses every request itself and, holding its
//      own per-tenant trees and ResolveSessions, times the public calls the
//      program's spans lump into req.* self time, and checks the service's
//      objective on every solve and perturb.
#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "core/colouring.hpp"
#include "core/incremental.hpp"
#include "core/pareto_dp.hpp"
#include "core/registry.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"

namespace servebench {

namespace {

namespace obs = treesat::obs;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- span reduction ---------------------------------------------------------

/// Where a span's self time is booked. The layer of each kind is in
/// kLayerOf below.
enum Kind : std::size_t {
  kBenchRoot,    // bench.request: handle_line outside every program span
  kRequest,      // req.*
  kLookup,       // store.lookup
  kSpillWrite,   // spill.write
  kSpillReload,  // spill.reload
  kCheckpoint,   // checkpoint.*
  kResolve,      // session.resolve
  kDpColour,     // dp.colour
  kDpSweep,      // dp.sweep
  kDpOther,      // dp.solve, dp.fold, dp.reconstruct
  kWorklist,     // worklist.run
  kBatch,        // batch.*
  kOther,
  kKindCount
};

enum Layer : std::size_t {
  kService,
  kStorage,
  kIncremental,
  kParetoDp,
  kExecutor,
  kUnknown,
  kLayerCount
};

constexpr std::array<Layer, kKindCount> kLayerOf = {
    kService, kService,  kService,  kStorage,  kStorage,  kStorage, kIncremental,
    kParetoDp, kParetoDp, kParetoDp, kExecutor, kExecutor, kUnknown};

constexpr std::array<const char*, kLayerCount> kLayerName = {
    "service", "storage", "core.incremental", "core.pareto_dp", "core.executor", "unknown"};

Kind kind_of(std::string_view name) {
  if (name == "bench.request") return kBenchRoot;
  if (name.starts_with("req.")) return kRequest;
  if (name == "store.lookup") return kLookup;
  if (name == "spill.write") return kSpillWrite;
  if (name == "spill.reload") return kSpillReload;
  if (name.starts_with("checkpoint.")) return kCheckpoint;
  if (name == "session.resolve") return kResolve;
  if (name == "dp.colour") return kDpColour;
  if (name == "dp.sweep") return kDpSweep;
  if (name.starts_with("dp.")) return kDpOther;
  if (name == "worklist.run") return kWorklist;
  if (name.starts_with("batch.")) return kBatch;
  return kOther;
}

struct SpanTotals {
  double request_seconds = 0.0;  ///< summed bench.request durations
  std::size_t requests = 0;
  std::size_t rounds = 0;
  std::size_t dropped = 0;
  std::array<double, kKindCount> self{};  ///< self seconds per kind
};

/// Adds the self time of every span under a bench.request root. Self time
/// is the span's duration minus the union of its children's intervals
/// (children of the arena DP run on worker threads and may overlap).
void reduce(const std::vector<obs::SpanRecord>& spans, SpanTotals& totals) {
  // Ids are 1-based recording order, and a parent begins before its
  // children, so one forward pass resolves every span's root.
  std::vector<std::size_t> root(spans.size());
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t parent = spans[i].parent;
    if (parent == 0 || parent > i) {
      root[i] = i;
    } else {
      root[i] = root[parent - 1];
      children[parent - 1].push_back(i);
    }
  }
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[root[i]].name != "bench.request") continue;
    const obs::SpanRecord& s = spans[i];
    const double begin = s.start_seconds;
    const double end = begin + s.duration_seconds;
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const double cb = std::max(begin, spans[c].start_seconds);
      const double ce = std::min(end, spans[c].start_seconds + spans[c].duration_seconds);
      if (ce > cb) intervals.emplace_back(cb, ce);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = begin;
    for (const auto& [cb, ce] : intervals) {
      const double from = std::max(cb, reach);
      if (ce > from) covered += ce - from;
      reach = std::max(reach, ce);
    }
    const Kind kind = kind_of(s.name);
    totals.self[kind] += std::max(0.0, s.duration_seconds - covered);
    if (kind == kBenchRoot) {
      totals.request_seconds += s.duration_seconds;
      ++totals.requests;
    }
  }
}

// --- shadow replay ----------------------------------------------------------

/// Accumulated time and call count of one timed public call.
struct Timed {
  double seconds = 0.0;
  std::size_t calls = 0;

  template <typename F>
  auto operator()(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    seconds += since(t0);
    ++calls;
    return result;
  }
  [[nodiscard]] double us_per_call() const {
    return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
  }
  [[nodiscard]] double ms_per_call() const { return us_per_call() * 1e-3; }
};

struct ShadowStats {
  Timed parse;           ///< RequestObject::parse, every line
  Timed parse_measured;  ///< ...the measured (post-warm-up) lines only
  Timed decode_tree;     ///< tree_from_text on every submitted tree
  Timed encode_tree;     ///< to_text of the session tree (every kCodecEvery-th step)
  Timed apply;           ///< apply_perturbation
  Timed recharge;        ///< ResolveSession::cached_bytes after every step
  Timed encode_snapshot;
  Timed decode_snapshot;
  Timed cold_solve;      ///< pareto_dp_solve on each tenant's initial and final tree
  std::size_t snapshot_bytes = 0;
  std::size_t regions_total = 0;
  std::size_t regions_reused = 0;
  std::size_t colours_total = 0;
  std::size_t colours_reused = 0;
  std::size_t cold_resolves = 0;
  std::size_t resolves = 0;
  std::size_t mismatches = 0;
};

struct ShadowTenant {
  std::unique_ptr<treesat::CruTree> tree;  ///< before the first solve
  std::unique_ptr<treesat::ResolveSession> session;
  std::unique_ptr<treesat::CruTree> initial;  ///< the warm-up submit's tree
};

/// The perturbation a perturb request describes (the service's own request
/// grammar, service.hpp), resolved against the tenant's current tree.
treesat::Perturbation parse_perturbation(const treesat::RequestObject& req,
                                         const treesat::CruTree& tree) {
  using treesat::Perturbation;
  using treesat::SatelliteId;
  const std::string& kind = req.string_at("kind");
  if (kind == "global_drift") {
    return Perturbation::global_drift(req.number_or("host_scale", 1.0),
                                      req.number_or("sat_scale", 1.0),
                                      req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_drift") {
    return Perturbation::satellite_drift(SatelliteId{req.size_at("satellite")},
                                         req.number_or("host_scale", 1.0),
                                         req.number_or("sat_scale", 1.0),
                                         req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_loss") {
    return Perturbation::satellite_loss(SatelliteId{req.size_at("satellite")});
  }
  return Perturbation::insert_probe(
      tree.by_name(req.string_at("parent")), req.string_at("name"),
      SatelliteId{req.size_at("satellite")}, req.number_or("host_time", 1.0),
      req.number_or("sat_time", 1.0), req.number_or("comm_up", 1.0),
      req.number_or("sensor_comm_up", 1.0));
}

class Shadow {
 public:
  Shadow(const Workload& w, Outcome& out)
      : out_(out),
        plan_(treesat::parse_plan(w.plan)),
        dp_options_(plan_.options_as<treesat::ParetoDpOptions>()) {}

  /// Replays one trace against the solution_projection() of the service's
  /// responses to it.
  void replay(const Trace& trace, const std::vector<std::string>& projections) {
    tenants_.clear();
    for (std::size_t i = 0; i < trace.lines.size(); ++i) {
      const bool measured = i >= trace.warmup;
      const std::string& line = trace.lines[i];
      const auto parse = [&] { return treesat::RequestObject::parse(line); };
      const treesat::RequestObject req = stats_.parse(parse);
      if (measured) {
        static_cast<void>(stats_.parse_measured(parse));
      }
      const std::string& op = req.string_at("op");
      if (op != "submit" && op != "solve" && op != "perturb") continue;
      const std::string key = req.string_at("tenant") + '/' + req.string_at("instance");
      ShadowTenant& t = tenants_[key];
      if (op == "submit") {
        auto tree = std::make_unique<treesat::CruTree>(
            stats_.decode_tree([&] { return treesat::tree_from_text(req.string_at("tree")); }));
        if (!measured) t.initial = std::make_unique<treesat::CruTree>(*tree);
        t.tree = std::move(tree);
        t.session.reset();
        continue;
      }
      if (op == "solve") {
        if (t.session == nullptr) {
          t.session =
              std::make_unique<treesat::ResolveSession>(treesat::CruTree(*t.tree), plan_);
          t.tree.reset();
        }
      } else {
        const treesat::CruTree& current = t.session != nullptr ? t.session->tree() : *t.tree;
        const treesat::Perturbation p = parse_perturbation(req, current);
        const treesat::Colouring* colouring =
            t.session != nullptr ? &t.session->colouring() : nullptr;
        treesat::CruTree evolved =
            stats_.apply([&] { return treesat::apply_perturbation(current, p, colouring); });
        if (t.session == nullptr) {
          t.tree = std::make_unique<treesat::CruTree>(std::move(evolved));
        } else {
          t.session->resolve(p);
          const treesat::ResolveStats& rs = t.session->last_stats();
          ++stats_.resolves;
          if (rs.path == treesat::ResolvePath::kCold) ++stats_.cold_resolves;
          stats_.regions_total += rs.regions_total;
          stats_.regions_reused += rs.regions_reused;
          stats_.colours_total += rs.colours_total;
          stats_.colours_reused += rs.colours_reused;
        }
      }
      if (t.session == nullptr) continue;
      check(i, projections[i], t.session->current().objective_value);
      step_costs(*t.session);
    }
    for (auto& [key, t] : tenants_) cold_solves(key, t);
  }

  [[nodiscard]] const ShadowStats& stats() const { return stats_; }

 private:
  void check(std::size_t index, const std::string& projection, double objective) {
    double served = 0.0;
    if (!projection_objective(projection, &served) || served != objective) {
      ++stats_.mismatches;
      if (stats_.mismatches <= 3) {
        out_.fail("shadow objective " + std::to_string(objective) +
                  " differs from the service's on line " + std::to_string(index) + ": " +
                  projection.substr(0, 160));
      }
    }
  }

  /// The per-step costs the service pays inside req.* self time (byte
  /// recharge, every step) or inside a spill (tree text and snapshot codec,
  /// timed on every kCodecEvery-th step: they cost milliseconds on
  /// stress_mix's trees).
  void step_costs(const treesat::ResolveSession& session) {
    static_cast<void>(stats_.recharge([&] { return session.cached_bytes(); }));
    if (steps_++ % kCodecEvery != 0) return;
    static_cast<void>(stats_.encode_tree([&] { return treesat::to_text(session.tree()); }));
    const treesat::SessionState state = session.export_state();
    const std::string bytes =
        stats_.encode_snapshot([&] { return treesat::encode_snapshot(state); });
    stats_.snapshot_bytes += bytes.size();
    static_cast<void>(stats_.decode_snapshot([&] { return treesat::decode_snapshot(bytes); }));
  }

  treesat::ParetoDpResult cold_solve(const treesat::CruTree& tree) {
    const treesat::Colouring colouring(tree);
    return stats_.cold_solve([&] { return treesat::pareto_dp_solve(colouring, dp_options_); });
  }

  void cold_solves(const std::string& key, const ShadowTenant& t) {
    if (t.initial != nullptr) static_cast<void>(cold_solve(*t.initial));
    if (t.session == nullptr) return;
    const double served = t.session->current().objective_value;
    const double cold = cold_solve(t.session->tree()).objective;
    if (cold != served) {
      ++stats_.mismatches;
      out_.fail("cold pareto_dp_solve of " + key + "'s final tree gives " +
                std::to_string(cold) + ", the served session " + std::to_string(served));
    }
  }

  Outcome& out_;
  treesat::SolvePlan plan_;
  treesat::ParetoDpOptions dp_options_;
  static constexpr std::size_t kCodecEvery = 8;

  std::map<std::string, ShadowTenant> tenants_;
  ShadowStats stats_;
  std::size_t steps_ = 0;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

Outcome traced_run(const Workload& w, double seconds, const std::filesystem::path& scratch) {
  Outcome out;

  ReplayOptions plain;
  plain.rounds = w.rounds(seconds / 3.0);
  plain.give_up_seconds = 2.0 * seconds;
  const TimedStats untraced = run_rounds(w, scratch, plain);

  obs::TraceRecorder recorder(/*timing=*/true);
  SpanTotals spans;
  ReplayOptions traced = plain;
  traced.keep_projections = true;
  traced.after_round = [&] {
    reduce(recorder.snapshot(), spans);
    spans.dropped += recorder.dropped_spans();
    ++spans.rounds;
    recorder.clear();
  };
  obs::install_trace(&recorder);
  const TimedStats st = run_rounds(w, scratch, traced);
  obs::install_trace(nullptr);

  Shadow shadow(w, out);
  for (std::size_t k = 0; k < w.traces.size(); ++k) {
    shadow.replay(w.traces[k], st.projections[k]);
  }
  const ShadowStats& sh = shadow.stats();

  out.attempted = st.requests;
  out.failed = st.errors + sh.mismatches;
  if (st.errors + st.setup_errors + untraced.errors + untraced.setup_errors > 0) {
    out.fail(std::to_string(st.errors + st.setup_errors) + " error responses in traced rounds, " +
             std::to_string(untraced.errors + untraced.setup_errors) + " in untraced rounds");
  }
  if (!st.digest_stable || !untraced.digest_stable || st.digest != untraced.digest) {
    out.fail("the response stream differs between rounds, or with tracing on");
  }
  if (spans.dropped > 0) {
    out.fail(std::to_string(spans.dropped) + " spans dropped at the recorder cap");
  }
  if (spans.requests != st.requests) {
    out.fail("bench.request span count differs from the requests replayed");
  }

  const double requests = static_cast<double>(spans.requests);
  const auto per_request_ms = [&](double s) { return ratio(s * 1e3, requests); };
  std::array<double, kLayerCount> layer{};
  for (std::size_t k = 0; k < kKindCount; ++k) layer[kLayerOf[k]] += spans.self[k];
  // Time no layer metric covers: handle_line outside every program span,
  // less the request parse (service.protocol, timed by the shadow over one
  // round) that happens there, plus spans of no known layer.
  const double parse_in_root = sh.parse_measured.seconds * static_cast<double>(spans.rounds);
  const double unattributed =
      std::max(0.0, spans.self[kBenchRoot] - parse_in_root) + layer[kUnknown];

  const auto add = [&](std::string name, double value, const char* unit, std::size_t samples) {
    out.metrics.push_back({std::move(name), value, unit, samples});
  };
  const auto count = [](std::size_t c) { return static_cast<double>(c); };
  const RoundCounts& c = st.counts;
  const std::size_t n = spans.requests;
  add("service.requests", requests, "count", n);
  add("service.errors", count(st.errors), "count", n);
  add("service.self_ms_per_op", per_request_ms(spans.self[kRequest]), "ms", n);
  add("service.unattributed_share", ratio(unattributed, spans.request_seconds), "ratio", n);
  add("service.protocol.parse_us_per_op", sh.parse.us_per_call(), "us", sh.parse.calls);
  add("service.session_store.lookup_us_per_op", per_request_ms(spans.self[kLookup]) * 1e3, "us",
      n);
  add("service.session_store.recharge_us_per_op", sh.recharge.us_per_call(), "us",
      sh.recharge.calls);
  add("service.session_store.warm_hit_ratio",
      ratio(count(c.warm_hits), count(c.warm_hits + c.cold_solves)), "ratio",
      c.warm_hits + c.cold_solves);
  add("service.session_store.evictions", count(c.lru_evictions), "count", 1);
  add("tree.decode_us_per_op", sh.decode_tree.us_per_call(), "us", sh.decode_tree.calls);
  add("tree.encode_us_per_op", sh.encode_tree.us_per_call(), "us", sh.encode_tree.calls);
  add("core.incremental.resolve_self_ms_per_op", per_request_ms(spans.self[kResolve]), "ms", n);
  add("core.incremental.apply_us_per_op", sh.apply.us_per_call(), "us", sh.apply.calls);
  add("core.incremental.region_reuse_ratio",
      ratio(count(sh.regions_reused), count(sh.regions_total)), "ratio", sh.resolves);
  add("core.incremental.colour_reuse_ratio",
      ratio(count(sh.colours_reused), count(sh.colours_total)), "ratio", sh.resolves);
  add("core.incremental.cold_resolves", count(sh.cold_resolves), "count", sh.resolves);
  add("core.pareto_dp.colour_self_ms_per_op", per_request_ms(spans.self[kDpColour]), "ms", n);
  add("core.pareto_dp.sweep_self_ms_per_op", per_request_ms(spans.self[kDpSweep]), "ms", n);
  add("core.pareto_dp.minkowski_merges", count(c.minkowski_merges), "count", 1);
  add("core.pareto_dp.merge_points_generated", count(c.merge_points_generated), "count", 1);
  add("core.pareto_dp.prune_ratio",
      c.merge_points_generated == 0
          ? 0.0
          : 1.0 - ratio(count(c.merge_points_kept), count(c.merge_points_generated)),
      "ratio", 1);
  add("core.pareto_dp.cold_solve_ms_per_op", sh.cold_solve.ms_per_call(), "ms",
      sh.cold_solve.calls);
  add("core.executor.worklist_ms", ratio(spans.self[kWorklist] * 1e3, count(spans.rounds)), "ms",
      spans.rounds);
  add("storage.spill_write_ms_per_op", per_request_ms(spans.self[kSpillWrite]), "ms", n);
  add("storage.spill_reload_ms_per_op", per_request_ms(spans.self[kSpillReload]), "ms", n);
  add("storage.encode_us_per_op", sh.encode_snapshot.us_per_call(), "us",
      sh.encode_snapshot.calls);
  add("storage.decode_us_per_op", sh.decode_snapshot.us_per_call(), "us",
      sh.decode_snapshot.calls);
  add("storage.snapshot_bytes_per_op",
      ratio(count(sh.snapshot_bytes), count(sh.encode_snapshot.calls)), "bytes",
      sh.encode_snapshot.calls);
  add("storage.spills", count(c.spills), "count", 1);
  add("storage.reloads", count(c.reloads), "count", 1);
  add("obs.trace_overhead_ratio", ratio(st.throughput_rps(), untraced.throughput_rps()), "ratio",
      untraced.rounds + st.rounds);
  std::size_t dominant = kService;
  for (std::size_t l = 0; l < kUnknown; ++l) {
    add(std::string(kLayerName[l]) + ".time_share", ratio(layer[l], spans.request_seconds),
        "ratio", n);
    if (layer[l] > layer[dominant]) dominant = l;
  }
  const bool as_predicted = w.dominant_layer == kLayerName[dominant];
  out.notes.push_back(std::string("dominant layer: ") + kLayerName[dominant] + " (predicted " +
                      w.dominant_layer + (as_predicted ? ", confirmed)" : ", NOT confirmed)"));
  return out;
}

}  // namespace servebench
