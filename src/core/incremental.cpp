#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.hpp"
#include "core/coloured_ssb.hpp"
#include "core/registry.hpp"
#include "obs/trace.hpp"
#include "heuristics/branch_bound.hpp"
#include "tree/serialize.hpp"

namespace treesat {

namespace {

void require_scale(const char* what, double scale) {
  TS_REQUIRE(std::isfinite(scale) && scale > 0.0,
             "apply_perturbation: " << what << " must be finite and positive, got " << scale);
}

/// Re-adds one source node on `builder`: root when `parent` is invalid,
/// otherwise sensor/compute, with the (possibly transformed) costs. The one
/// copy loop every perturbation kind shares.
CruId add_copy(CruTreeBuilder& builder, const CruNode& nd, CruId parent, double host_time,
               double sat_time, double comm_up) {
  if (!parent.valid()) return builder.root(nd.name, host_time);
  if (nd.is_sensor()) return builder.sensor(parent, nd.name, nd.satellite, comm_up);
  return builder.compute(parent, nd.name, host_time, sat_time, comm_up);
}

CruTree apply_drift(const CruTree& tree, const ProfileDrift& d, const Colouring* colouring) {
  require_scale("host_scale", d.host_scale);
  require_scale("sat_scale", d.sat_scale);
  require_scale("comm_scale", d.comm_scale);
  if (d.satellite.valid()) {
    TS_REQUIRE(d.satellite.index() < tree.satellite_count(),
               "apply_perturbation: drift names satellite " << d.satellite << " but the tree has "
                                                            << tree.satellite_count());
  }
  // Per-satellite drift reaches exactly the nodes of the satellite's
  // propagated colour (its sensors and the monochromatic compute above
  // them) and needs a colouring -- the caller's when it already holds one
  // (the session's hot path), otherwise built here. Global drift reaches
  // every node and needs none.
  std::optional<Colouring> own;
  if (d.satellite.valid() && colouring == nullptr) {
    own.emplace(tree);
    colouring = &*own;
  }
  const auto touched = [&](CruId v) {
    return !d.satellite.valid() || colouring->colour(v) == d.satellite;
  };

  CruTreeBuilder builder;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruId v{i};
    const CruNode& nd = tree.node(v);
    const bool scale = touched(v);
    add_copy(builder, nd, nd.parent, scale ? nd.host_time * d.host_scale : nd.host_time,
             scale ? nd.sat_time * d.sat_scale : nd.sat_time,
             scale ? nd.comm_up * d.comm_scale : nd.comm_up);
  }
  return builder.build();
}

CruTree apply_loss(const CruTree& tree, const SatelliteLoss& loss) {
  TS_REQUIRE(loss.satellite.valid() && loss.satellite.index() < tree.satellite_count(),
             "apply_perturbation: loss names satellite " << loss.satellite
                                                         << " but the tree has "
                                                         << tree.satellite_count());
  // A node vanishes when it is a sensor of the lost satellite, or a compute
  // node whose every child vanished (postorder: children decided first).
  std::vector<bool> removed(tree.size(), false);
  for (const CruId v : tree.postorder()) {
    const CruNode& nd = tree.node(v);
    if (nd.is_sensor()) {
      removed[v.index()] = nd.satellite == loss.satellite;
      continue;
    }
    bool all_gone = true;
    for (const CruId c : nd.children) {
      if (!removed[c.index()]) {
        all_gone = false;
        break;
      }
    }
    removed[v.index()] = all_gone;
  }
  TS_REQUIRE(!removed[tree.root().index()],
             "apply_perturbation: losing satellite " << loss.satellite
                                                     << " removes the whole workload");

  CruTreeBuilder builder;
  std::vector<CruId> remap(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (removed[i]) continue;
    const CruNode& nd = tree.node(CruId{i});
    const CruId parent = nd.parent.valid() ? remap[nd.parent.index()] : CruId{};
    remap[i] = add_copy(builder, nd, parent, nd.host_time, nd.sat_time, nd.comm_up);
  }
  return builder.build();
}

CruTree apply_insert(const CruTree& tree, const SubtreeInsert& ins) {
  TS_REQUIRE(ins.parent.valid() && ins.parent.index() < tree.size(),
             "apply_perturbation: insert parent " << ins.parent << " is not a node");
  TS_REQUIRE(!tree.node(ins.parent).is_sensor(),
             "apply_perturbation: cannot insert under sensor '" << tree.node(ins.parent).name
                                                                << "'");
  TS_REQUIRE(!ins.nodes.empty(), "apply_perturbation: empty insertion");
  std::unordered_set<std::string_view> names;
  names.reserve(tree.size() + ins.nodes.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    names.insert(tree.node(CruId{i}).name);
  }
  for (std::size_t k = 0; k < ins.nodes.size(); ++k) {
    const SubtreeInsert::Node& nd = ins.nodes[k];
    TS_REQUIRE(serializable_name(nd.name),
               "apply_perturbation: inserted node " << k << " has an unserializable name '"
                                                    << nd.name << "'");
    TS_REQUIRE(nd.parent == SubtreeInsert::kAttach || nd.parent < k,
               "apply_perturbation: inserted node '" << nd.name
                                                     << "' references a later parent");
    TS_REQUIRE(names.insert(nd.name).second,
               "apply_perturbation: inserted name '" << nd.name << "' already exists");
  }

  CruTreeBuilder builder;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    add_copy(builder, nd, nd.parent, nd.host_time, nd.sat_time, nd.comm_up);
  }
  const std::size_t base = tree.size();
  for (std::size_t k = 0; k < ins.nodes.size(); ++k) {
    const SubtreeInsert::Node& nd = ins.nodes[k];
    const CruId parent =
        nd.parent == SubtreeInsert::kAttach ? ins.parent : CruId{base + nd.parent};
    if (nd.kind == CruKind::kSensor) {
      builder.sensor(parent, nd.name, nd.satellite, nd.comm_up);
    } else {
      builder.compute(parent, nd.name, nd.host_time, nd.sat_time, nd.comm_up);
    }
  }
  return builder.build();
}

}  // namespace

Perturbation Perturbation::drift(ProfileDrift drift) { return Perturbation(Change{drift}); }

Perturbation Perturbation::global_drift(double host_scale, double sat_scale,
                                        double comm_scale) {
  return drift(ProfileDrift{SatelliteId{}, host_scale, sat_scale, comm_scale});
}

Perturbation Perturbation::satellite_drift(SatelliteId satellite, double host_scale,
                                           double sat_scale, double comm_scale) {
  TS_REQUIRE(satellite.valid(), "satellite_drift: invalid satellite id");
  return drift(ProfileDrift{satellite, host_scale, sat_scale, comm_scale});
}

Perturbation Perturbation::satellite_loss(SatelliteId satellite) {
  TS_REQUIRE(satellite.valid(), "satellite_loss: invalid satellite id");
  return Perturbation(Change{SatelliteLoss{satellite}});
}

Perturbation Perturbation::insert_subtree(SubtreeInsert insert) {
  return Perturbation(Change{std::move(insert)});
}

Perturbation Perturbation::insert_probe(CruId parent, const std::string& name,
                                        SatelliteId satellite, double host_time,
                                        double sat_time, double comm_up,
                                        double sensor_comm_up) {
  SubtreeInsert ins;
  ins.parent = parent;
  ins.nodes.push_back({SubtreeInsert::kAttach, CruKind::kCompute, name, host_time, sat_time,
                       comm_up, SatelliteId{}});
  ins.nodes.push_back({0, CruKind::kSensor, name + "_sensor", 0.0, 0.0, sensor_comm_up,
                       satellite});
  return insert_subtree(std::move(ins));
}

const char* Perturbation::kind_name() const {
  if (std::holds_alternative<ProfileDrift>(change_)) return "drift";
  if (std::holds_alternative<SatelliteLoss>(change_)) return "loss";
  return "insert";
}

CruTree apply_perturbation(const CruTree& tree, const Perturbation& p,
                           const Colouring* colouring) {
  TS_REQUIRE(colouring == nullptr || &colouring->tree() == &tree,
             "apply_perturbation: colouring does not describe this tree");
  return std::visit(
      [&](const auto& change) -> CruTree {
        using T = std::decay_t<decltype(change)>;
        if constexpr (std::is_same_v<T, ProfileDrift>) {
          return apply_drift(tree, change, colouring);
        } else if constexpr (std::is_same_v<T, SatelliteLoss>) {
          return apply_loss(tree, change);
        } else {
          return apply_insert(tree, change);
        }
      },
      p.change());
}

const char* resolve_path_name(ResolvePath path) {
  switch (path) {
    case ResolvePath::kInitial: return "initial";
    case ResolvePath::kWarm: return "warm";
    case ResolvePath::kCold: return "cold";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ArenaPool.

ArenaPool::ArenaPool() {
  // Retain one scratch up front: the pool's steady state (every solve a
  // reuse) then holds from the very first lease, and the per-step reuse
  // counters are identical for fresh and restored sessions.
  owned_.push_back(std::make_unique<ParetoScratch>());
  free_.push_back(owned_.back().get());
}

ArenaPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(scratch_);
}

ArenaPool::Lease ArenaPool::acquire() {
  if (!free_.empty()) {
    ParetoScratch* scratch = free_.back();
    free_.pop_back();
    ++reuses_;
    return Lease(this, scratch);
  }
  owned_.push_back(std::make_unique<ParetoScratch>());
  ++allocs_;
  return Lease(this, owned_.back().get());
}

void ArenaPool::release(ParetoScratch* scratch) { free_.push_back(scratch); }

std::size_t ArenaPool::served_bytes() const {
  std::size_t bytes = 0;
  for (const auto& scratch : owned_) bytes += scratch->served_bytes();
  return bytes;
}

std::size_t ArenaPool::grown_bytes() const {
  std::size_t bytes = 0;
  for (const auto& scratch : owned_) bytes += scratch->grown_bytes();
  return bytes;
}

std::size_t ArenaPool::retained_bytes() const {
  std::size_t bytes = 0;
  for (const auto& scratch : owned_) bytes += scratch->retained_bytes();
  return bytes;
}

ResolveSession::ResolveSession(CruTree tree, SolvePlan plan)
    : plan_(std::move(plan)),
      tree_(std::make_unique<CruTree>(std::move(tree))),
      colouring_(std::make_unique<Colouring>(*tree_)) {
  solve_current(nullptr);
}

namespace {

/// The previous optimal cut, when it is still a valid cut of `colouring`
/// (drift keeps it valid; loss and insertion usually do not).
std::optional<std::vector<CruId>> surviving_cut(const Colouring& colouring,
                                                const SolveReport* previous) {
  if (previous == nullptr) return std::nullopt;
  const std::vector<CruId>& cut = previous->assignment.cut_nodes();
  for (const CruId v : cut) {
    if (!v.valid() || v.index() >= colouring.tree().size()) return std::nullopt;
  }
  try {
    const Assignment probe(colouring, cut);
    (void)probe;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
  return cut;
}

}  // namespace

void ResolveSession::solve_current(const Perturbation* p) {
  const Stopwatch watch;
  // Attempts advance even when this solve later throws and resolve() rolls
  // back: stamps left by the aborted attempt must read as *older* than the
  // retry, or genuine cache hits would be misreported as fresh work.
  ++attempt_;
  ResolveStats fresh;
  fresh.step = p == nullptr ? 0 : stats_.step + 1;
  fresh.path = p == nullptr ? ResolvePath::kInitial : ResolvePath::kCold;
  fresh.regions_total = colouring_->region_roots().size();

  const SolvePlan resolved = plan_.resolve(*colouring_);
  std::unique_ptr<SolveReport> report;
  switch (resolved.method()) {
    case SolveMethod::kParetoDp: {
      report = std::make_unique<SolveReport>(solve_warm_dp(resolved, fresh));
      if (p != nullptr) {
        if (fresh.regions_reused > 0) {
          fresh.path = ResolvePath::kWarm;
        } else {
          fresh.cold_reason = "no cached region state survived the perturbation";
        }
      }
      break;
    }
    case SolveMethod::kColouredSsb:
    case SolveMethod::kBranchBound: {
      // The incumbent warm start reuses the previous optimum's cut *ids*,
      // which only denote the same nodes while ids are stable -- drift and
      // insertion preserve them, satellite loss compacts them, and a
      // compacted id set could name a valid but semantically unrelated cut.
      const bool ids_stable = p == nullptr || p->as<SatelliteLoss>() == nullptr;
      std::optional<std::vector<CruId>> cut;
      if (ids_stable) {
        cut = surviving_cut(*colouring_, report_.get());
      }
      SolvePlan warm = resolved;
      if (cut) {
        if (resolved.method() == SolveMethod::kColouredSsb) {
          ColouredSsbOptions o = resolved.options_as<ColouredSsbOptions>();
          o.warm_cut = std::move(*cut);
          warm = SolvePlan::coloured_ssb(std::move(o));
        } else {
          BranchBoundOptions o = resolved.options_as<BranchBoundOptions>();
          o.incumbent_cut = std::move(*cut);
          warm = SolvePlan::branch_bound(std::move(o));
        }
        fresh.incumbent_used = true;
        fresh.path = ResolvePath::kWarm;
      } else if (p != nullptr) {
        fresh.cold_reason = ids_stable
                                ? "previous optimum is no longer a valid cut"
                                : "satellite loss remapped node ids; previous optimum discarded";
      }
      report = std::make_unique<SolveReport>(solve(*colouring_, warm));
      break;
    }
    default: {
      if (p != nullptr) {
        fresh.cold_reason = std::string("method '") + method_name(resolved.method()) +
                            "' has no reusable search state";
      }
      report = std::make_unique<SolveReport>(solve(*colouring_, resolved));
      break;
    }
  }
  // The incumbent paths re-solve through rebuilt concrete plans, which
  // would report themselves as the requested method; the facade contract is
  // that `requested` names what the *session's* plan asked for (kAutomatic
  // when resolution chose).
  report->requested = plan_.method();

  // Age out cache entries that no recent instance matched; a long drift
  // stream would otherwise accumulate one generation of frontiers per step.
  constexpr std::size_t kRetainSteps = 16;
  cache_.age(attempt_, kRetainSteps);
  fresh.cache_entries = cache_.entries();
  fresh.wall_seconds = watch.seconds();

  report_ = std::move(report);
  stats_ = std::move(fresh);
}

SolveReport ResolveSession::solve_warm_dp(const SolvePlan& resolved, ResolveStats& fresh) {
  const Stopwatch watch;
  const auto& options = resolved.options_as<ParetoDpOptions>();

  // The pooled pipeline comes from the session pool: retained arenas, span
  // tables and staging buffers are reused across steps (result-identical to
  // scratch-free solves; only allocator traffic changes). The per-step
  // pool telemetry is the delta over this solve.
  const std::size_t reuses_before = pool_.reuses();
  const std::size_t allocs_before = pool_.allocs();
  const std::size_t served_before = pool_.served_bytes();
  const std::size_t grown_before = pool_.grown_bytes();
  const ArenaPool::Lease lease = pool_.acquire();

  cache_.begin(attempt_);
  ParetoDpResult r = pareto_dp_solve(*colouring_, options, &cache_, lease.get());
  const FrontierCache::Tally& tally = cache_.tally();
  fresh.regions_reused = tally.regions_reused;
  fresh.regions_recomputed = tally.regions_recomputed;
  fresh.colours_total = tally.colours_total;
  fresh.colours_reused = tally.colours_reused;

  fresh.pool_reuses = pool_.reuses() - reuses_before;
  fresh.pool_allocs = pool_.allocs() - allocs_before;
  fresh.pool_served_bytes = pool_.served_bytes() - served_before;
  fresh.pool_grown_bytes = pool_.grown_bytes() - grown_before;
  return SolveReport{std::move(r.assignment), std::move(r.delay), r.objective,
                     watch.seconds(),         /*exact=*/true,     SolveMethod::kParetoDp,
                     plan_.method(),          r.stats};
}

std::size_t ResolveSession::cached_bytes() const { return cache_.bytes(); }

SessionState ResolveSession::export_state() const {
  SessionState out;
  out.plan_spec = plan_spec(plan_);
  out.tree_text = to_text(*tree_);
  out.cut = report_->assignment.cut_nodes();
  out.objective_value = report_->objective_value;
  out.exact = report_->exact;
  out.method = report_->method;
  out.requested = report_->requested;
  if (const auto* dp = report_->stats_as<ParetoDpStats>()) {
    out.has_dp_stats = true;
    out.dp_stats = *dp;
  }
  out.stats = stats_;
  out.stats.wall_seconds = 0.0;  // observation, not state (see SessionState)
  out.attempt = attempt_;
  out.colour_cache = cache_.export_colours();
  out.region_cache = cache_.export_regions();
  return out;
}

ResolveSession::ResolveSession(RestoreTag, SessionState&& state)
    : plan_(parse_plan(state.plan_spec)),
      tree_(std::make_unique<CruTree>(tree_from_text(state.tree_text))),
      colouring_(std::make_unique<Colouring>(*tree_)) {
  // The Assignment constructor validates the cut against the rebuilt
  // colouring; delay is a pure function of tree + cut, so recomputing it
  // reproduces the original bit for bit (the same summation the original
  // report ran).
  Assignment assignment(*colouring_, state.cut);
  DelayBreakdown delay = assignment.delay();
  MethodStats method_stats;
  if (state.has_dp_stats) method_stats = state.dp_stats;
  report_ = std::make_unique<SolveReport>(
      SolveReport{std::move(assignment), std::move(delay), state.objective_value,
                  /*wall_seconds=*/0.0, state.exact, state.method, state.requested,
                  std::move(method_stats)});
  stats_ = state.stats;
  stats_.wall_seconds = 0.0;
  attempt_ = state.attempt;

  cache_.import(std::move(state.colour_cache), std::move(state.region_cache), attempt_);
}

ResolveSession ResolveSession::import_state(SessionState state) {
  TS_REQUIRE(state.has_session(),
             "import_state: tree-only state holds no session to rebuild");
  return ResolveSession(RestoreTag{}, std::move(state));
}

const SolveReport& ResolveSession::resolve(const Perturbation& p) {
  const Stopwatch watch;  // documented to cover the perturbation too
  // The warm re-solve's phase spans (region rebuilds, dp.sweep) nest here.
  // Attributes are recorded after solve_current so the span carries the
  // path/reuse outcome -- all deterministic (stats_ minus wall_seconds).
  obs::Span span(obs::trace(), "session.resolve");
  // Validate-then-commit: an invalid perturbation throws here, leaving the
  // session on its previous instance.
  auto new_tree =
      std::make_unique<CruTree>(apply_perturbation(*tree_, p, colouring_.get()));
  auto new_colouring = std::make_unique<Colouring>(*new_tree);
  std::unique_ptr<CruTree> old_tree = std::move(tree_);
  std::unique_ptr<Colouring> old_colouring = std::move(colouring_);
  tree_ = std::move(new_tree);
  colouring_ = std::move(new_colouring);
  try {
    solve_current(&p);
  } catch (...) {
    // A solver failure (e.g. ResourceLimit) must not leave current()'s
    // assignment referencing a destroyed colouring: roll back to the
    // previous instance, which the previous report belongs to.
    tree_ = std::move(old_tree);
    colouring_ = std::move(old_colouring);
    throw;
  }
  stats_.wall_seconds = watch.seconds();
  span.attr("path", resolve_path_name(stats_.path));
  span.attr("regions_total", static_cast<std::uint64_t>(stats_.regions_total));
  span.attr("regions_reused", static_cast<std::uint64_t>(stats_.regions_reused));
  if (!stats_.cold_reason.empty()) span.attr("cold_reason", stats_.cold_reason);
  return *report_;
}

StreamResult solve_stream(const CruTree& base, std::span<const Perturbation> stream,
                          const SolvePlan& plan) {
  StreamResult out;
  out.warm = plan.executor().warm_start;

  if (out.warm) {
    // Same deadline contract as the BatchExecutor: checked between steps, a
    // running solve is never interrupted. A warm stream is inherently
    // sequential and fail-fast (step i's state feeds step i+1), so the
    // first failure -- deadline included -- propagates as an exception,
    // mirroring the cold path's take_reports() rethrow.
    const double deadline = plan.executor().deadline_seconds;
    // The deadline bounds the whole call, the initial base solve included;
    // the *reported* wall clock starts after it, because the cold baseline
    // never solves the unperturbed base and wall_seconds is what
    // bench_incremental's warm-vs-cold comparison reads.
    const Stopwatch deadline_watch;
    ResolveSession session(base, plan);
    const Stopwatch watch;
    for (const Perturbation& p : stream) {
      if (deadline > 0.0 && deadline_watch.seconds() >= deadline) {
        throw ResourceLimit("solve_stream: deadline expired after " +
                            std::to_string(out.reports.size()) + " of " +
                            std::to_string(stream.size()) + " warm steps");
      }
      session.resolve(p);
      out.trees.push_back(session.tree());
      out.colourings.emplace_back(out.trees.back());
      const SolveReport& r = session.current();
      out.reports.push_back(SolveReport{
          Assignment(out.colourings.back(), r.assignment.cut_nodes()), r.delay,
          r.objective_value, r.wall_seconds, r.exact, r.method, r.requested, r.stats});
      out.stats.push_back(session.last_stats());
    }
    out.threads_used = 1;
    out.wall_seconds = watch.seconds();
  } else {
    const Stopwatch watch;
    CruTree current = base;
    for (const Perturbation& p : stream) {
      current = apply_perturbation(current, p);
      out.trees.push_back(current);
    }
    std::vector<const Colouring*> instances;
    instances.reserve(out.trees.size());
    for (const CruTree& t : out.trees) {
      out.colourings.emplace_back(t);
      instances.push_back(&out.colourings.back());
    }
    BatchReport batch = solve_batch_report(instances, plan);
    out.threads_used = batch.threads_used;
    out.reports = batch.take_reports();
    for (std::size_t i = 0; i < out.reports.size(); ++i) {
      ResolveStats s;
      s.path = ResolvePath::kCold;
      s.step = i + 1;
      s.regions_total = out.colourings[i].region_roots().size();
      s.wall_seconds = out.reports[i].wall_seconds;
      s.cold_reason = "warm_start=false";
      out.stats.push_back(std::move(s));
    }
    out.wall_seconds = watch.seconds();
  }
  return out;
}

}  // namespace treesat
