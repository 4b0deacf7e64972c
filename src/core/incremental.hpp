// Incremental re-solving for drifting workloads.
//
// The paper's motivating deployments are long-running: a tele-monitoring
// patient walks in and out of coverage, probe boxes join and leave an SNMP
// mesh, reasoning profiles drift as signals change. Every solve in the
// facade is cold -- it rebuilds the colouring, recomputes every colour
// region's search state and starts its bounds from +inf. This module is the
// warm path: a ResolveSession keeps a solved instance *live* and re-solves
// perturbed versions of it by re-processing only what the perturbation can
// reach.
//
// Three pieces:
//
//   * Perturbation -- one change to the live instance: profile drift
//     (scaled sigma/beta costs, globally or per satellite), satellite loss
//     (the device and its sensors drop out), or subtree insertion (a probe
//     joins). apply_perturbation() is the pure-function form.
//   * ResolveSession -- holds the current tree/colouring/optimum plus the
//     reusable search state: the per-region Pareto frontiers and the merged
//     per-colour frontiers (the surviving colour-region composite
//     expansions of the DP engine -- the Minkowski chains dominate the cold
//     solve, so whole-colour reuse is the big win), keyed by exact region
//     content so a frontier is reused only when a cold solve would have
//     recomputed bit-identical values, and the previous optimum, which
//     warm-starts the SSB threshold (ColouredSsbOptions::warm_cut) and the
//     branch-and-bound incumbent (BranchBoundOptions::incumbent_cut) when
//     the session's plan runs those engines. resolve(p) applies a
//     perturbation and re-solves, reporting in ResolveStats which path ran
//     (warm, or cold with the reason) and how much state survived.
//   * solve_stream() -- runs a whole perturbation stream. With
//     plan.executor().warm_start (spec key warm_start=) the session is
//     threaded along the sequence; without it every step is materialized
//     and cold-solved on the BatchExecutor worker pool, which is the
//     apples-to-apples baseline bench_incremental measures against.
//
// Identity guarantee: with a pareto-dp plan a warm re-solve *is* a cold
// solve with a cache -- the session hands its FrontierCache
// (core/frontier_cache.hpp) to pareto_dp_solve, which reuses a frontier only
// on an exact content match (bit patterns of every cost included), so the
// merge/sweep consumes the same values in the same order a cold run would
// and the result is byte-identical. For coloured-ssb and branch-bound plans
// the warm start preserves exactness (same optimal value) but may return
// the previous cut among equal-valued optima.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/executor.hpp"
#include "core/frontier_cache.hpp"
#include "core/pareto_dp.hpp"
#include "core/solver.hpp"
#include "tree/cru_tree.hpp"

namespace treesat {

/// Profile drift: the per-frame cost profile of one satellite's colour
/// region(s) -- or of the whole workload -- changes by multiplicative
/// factors. Scales are applied to the propagated-colour node set: compute
/// nodes scale h (the sigma side) by host_scale and s by sat_scale, every
/// node of the colour scales comm_up (the beta side) by comm_scale. A
/// global drift (invalid satellite) additionally reaches the conflict nodes
/// and the root, whose h is part of every assignment's S.
struct ProfileDrift {
  SatelliteId satellite;     ///< invalid = the whole workload drifts
  double host_scale = 1.0;   ///< multiplies h (sigma)
  double sat_scale = 1.0;    ///< multiplies s (beta, compute side)
  double comm_scale = 1.0;   ///< multiplies comm_up (beta, link side)
};

/// Satellite loss: the device fails. Its sensors stop producing and leave
/// the tree; compute nodes whose whole subtree vanished are pruned with
/// them. Node ids are compacted (parents still precede children); the
/// remaining satellites keep their ids. Losing the workload's last sensors
/// is rejected with InvalidArgument.
struct SatelliteLoss {
  SatelliteId satellite;
};

/// Subtree insertion: a probe joins. `nodes` are appended under `parent`
/// (a compute node of the current tree) in parent-before-child order;
/// existing node ids are unchanged, new nodes get the next ids in order.
/// New sensors may name a brand-new satellite id (the platform grew).
struct SubtreeInsert {
  /// Sentinel parent index: attach directly under SubtreeInsert::parent.
  static constexpr std::size_t kAttach = static_cast<std::size_t>(-1);

  struct Node {
    std::size_t parent = kAttach;  ///< index of an earlier Node, or kAttach
    CruKind kind = CruKind::kCompute;
    std::string name;              ///< unique, whitespace-free
    double host_time = 0.0;
    double sat_time = 0.0;
    double comm_up = 0.0;
    SatelliteId satellite;         ///< sensors only
  };

  CruId parent;                    ///< attach point in the current tree
  std::vector<Node> nodes;
};

/// One change to a live instance. Build with the named factories.
class Perturbation {
 public:
  using Change = std::variant<ProfileDrift, SatelliteLoss, SubtreeInsert>;

  [[nodiscard]] static Perturbation drift(ProfileDrift drift);
  /// Global drift over the whole workload.
  [[nodiscard]] static Perturbation global_drift(double host_scale, double sat_scale,
                                                double comm_scale);
  /// Drift of one satellite's colour region(s).
  [[nodiscard]] static Perturbation satellite_drift(SatelliteId satellite, double host_scale,
                                                    double sat_scale, double comm_scale);
  [[nodiscard]] static Perturbation satellite_loss(SatelliteId satellite);
  [[nodiscard]] static Perturbation insert_subtree(SubtreeInsert insert);
  /// Convenience: one compute CRU with one sensor under it -- the shape of
  /// a probe joining an SNMP mesh.
  [[nodiscard]] static Perturbation insert_probe(CruId parent, const std::string& name,
                                                 SatelliteId satellite, double host_time,
                                                 double sat_time, double comm_up,
                                                 double sensor_comm_up);

  [[nodiscard]] const Change& change() const { return change_; }
  /// "drift", "loss" or "insert" (for tables and logs).
  [[nodiscard]] const char* kind_name() const;

  template <typename T>
  [[nodiscard]] const T* as() const {
    return std::get_if<T>(&change_);
  }

 private:
  explicit Perturbation(Change change) : change_(std::move(change)) {}
  Change change_;
};

/// Applies one perturbation to a tree, returning the perturbed tree.
/// Throws InvalidArgument when the perturbation is invalid against `tree`
/// (unknown satellite, non-positive scale, attach point on a sensor,
/// loss of the whole workload, ...). `colouring`, when given, must be a
/// colouring of `tree`: a caller that already holds one (the session's hot
/// path) saves the per-satellite-drift path rebuilding it.
[[nodiscard]] CruTree apply_perturbation(const CruTree& tree, const Perturbation& p,
                                         const Colouring* colouring = nullptr);

/// Which path a resolve took.
enum class ResolvePath : std::uint8_t {
  kInitial,  ///< the session's constructor solve
  kWarm,     ///< cached state survived and was reused
  kCold,     ///< nothing reusable -- equivalent to a fresh facade solve
};

[[nodiscard]] const char* resolve_path_name(ResolvePath path);

/// What one ResolveSession::resolve() did and what it cost.
struct ResolveStats {
  ResolvePath path = ResolvePath::kInitial;
  std::size_t step = 0;               ///< 0 = initial solve, then 1, 2, ...
  std::size_t regions_total = 0;      ///< colour regions of the instance
  /// Region frontiers served from state that survived from an *earlier*
  /// step. Same-step duplicates (two content-identical regions in one
  /// instance) count as recomputed: they are deduplicated fresh work, not
  /// survival, so a fully-invalidated re-solve is never reported warm.
  std::size_t regions_reused = 0;
  std::size_t regions_recomputed = 0; ///< frontiers computed (or deduplicated) this step
  std::size_t colours_total = 0;      ///< colours with at least one region
  std::size_t colours_reused = 0;     ///< whole merged colour frontiers reused
  std::size_t cache_entries = 0;      ///< cache size after the step
  bool incumbent_used = false;        ///< previous optimum seeded the engine
  // Arena-pool telemetry (ArenaPool below): the warm DP engine draws its
  // frontier-arena scratch from a per-session pool instead of allocating
  // per resolve. Zero on non-DP paths. Observations like wall_seconds --
  // they describe allocator behaviour, never results.
  std::size_t pool_reuses = 0;        ///< scratch leases served from retained storage
  std::size_t pool_allocs = 0;        ///< leases that had to construct fresh scratch
  std::size_t pool_served_bytes = 0;  ///< frontier/staging bytes served via the pool
  std::size_t pool_grown_bytes = 0;   ///< new capacity the pooled scratch allocated
  double wall_seconds = 0.0;          ///< this resolve, perturbation included
  std::string cold_reason;            ///< why the cold path ran; empty when warm
};

/// Pool of ParetoScratch instances (core/pareto_dp.hpp) for one session's
/// warm DP solves: frontier arenas, span tables and merge staging buffers
/// are retained across resolve() steps, so a steady drift stream stops
/// paying allocator round-trips for storage it re-creates every step.
/// Pooling is result-invisible -- a scratch-backed solve is bit-identical
/// to a scratch-free one -- and invisible to session identity (the serving
/// tier's session_plan_key never sees it). One scratch is retained up
/// front so the steady state (every lease a reuse) holds from the first
/// solve, restored sessions included. Not thread-safe: sessions are
/// single-threaded by contract.
class ArenaPool {
 public:
  ArenaPool();

  /// RAII lease: returns the scratch to the pool on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept : pool_(other.pool_), scratch_(other.scratch_) {
      other.pool_ = nullptr;
      other.scratch_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] ParetoScratch* get() const { return scratch_; }

   private:
    friend class ArenaPool;
    Lease(ArenaPool* pool, ParetoScratch* scratch) : pool_(pool), scratch_(scratch) {}
    ArenaPool* pool_;
    ParetoScratch* scratch_;
  };

  /// Hands out a retained scratch, constructing one only when every
  /// retained scratch is already leased (nested acquisition).
  [[nodiscard]] Lease acquire();

  [[nodiscard]] std::size_t reuses() const { return reuses_; }  ///< cumulative
  [[nodiscard]] std::size_t allocs() const { return allocs_; }  ///< cumulative
  /// Sums over every scratch the pool ever created (leased ones included).
  [[nodiscard]] std::size_t served_bytes() const;
  [[nodiscard]] std::size_t grown_bytes() const;
  [[nodiscard]] std::size_t retained_bytes() const;

 private:
  void release(ParetoScratch* scratch);

  std::vector<std::unique_ptr<ParetoScratch>> owned_;
  std::vector<ParetoScratch*> free_;
  std::size_t reuses_ = 0;
  std::size_t allocs_ = 0;
};

/// Plain serializable mirror of a ResolveSession: everything export_state()
/// captures and import_state() needs to rebuild a session whose *future*
/// behavior is byte-identical to the original's -- the tree (as the v1 text
/// of tree/serialize.hpp), the plan, the current optimum reduced to its cut
/// (Assignment and DelayBreakdown are pure functions of tree + cut and are
/// recomputed bit-exactly on import), the last ResolveStats, the attempt
/// clock, and both frontier caches entry by entry with their LRU stamps.
/// storage/snapshot.hpp turns this struct into the on-disk format.
///
/// Deliberate reductions, both documented parts of the snapshot contract:
///   * wall-clock fields (report/stats wall_seconds) are zeroed on export --
///     they are observations, not state, and zeroing them makes a snapshot
///     a pure function of the resolve history, which is what lets the
///     serving tier treat snapshot byte sizes as deterministic gauges;
///   * of the per-method stats variants only ParetoDpStats is carried
///     (has_dp_stats) -- it is the one variant reports of a restored
///     session print; other methods' stats are diagnostics of the solve
///     that produced them and restore as monostate.
struct SessionState {
  /// Canonical plan spec (core/registry.hpp plan_spec). Empty marks a
  /// tree-only state: a submitted-but-never-solved instance (the serving
  /// tier spills those too); only `tree_text` (and owner) is meaningful
  /// then.
  std::string plan_spec;
  std::string tree_text;  ///< tree/serialize.hpp v1 text of the current tree

  /// Owning tenant/instance when the state belongs to a session store
  /// (service/session_store.hpp); empty for standalone snapshots. A spill
  /// reload verifies these against the key it looked up, so a misplaced
  /// file cannot impersonate another tenant's instance.
  std::string tenant;
  std::string instance;

  // --- the current report, reduced to what rebuilds it bit-exactly ---
  std::vector<CruId> cut;  ///< optimum cut nodes (Assignment's canonical form)
  double objective_value = 0.0;
  bool exact = false;
  SolveMethod method = SolveMethod::kParetoDp;
  SolveMethod requested = SolveMethod::kParetoDp;
  bool has_dp_stats = false;
  ParetoDpStats dp_stats;  ///< valid iff has_dp_stats

  ResolveStats stats;       ///< last_stats(), wall_seconds zeroed
  std::size_t attempt = 0;  ///< solve-attempt clock (cache stamp domain)

  /// One frontier-cache entry: the exact content key words, the frontier
  /// (load/host arrays, cuts as canonical positions), and the attempt stamp
  /// of its last use. Entries are sorted by key words, so exporting the
  /// same session twice yields identical bytes (unordered_map iteration
  /// order must not leak into a content-hashed snapshot).
  using CacheEntry = FrontierCache::Record;
  std::vector<CacheEntry> colour_cache;
  std::vector<CacheEntry> region_cache;

  [[nodiscard]] bool has_session() const { return !plan_spec.empty(); }
};

/// A live solved instance with reusable search state.
///
///   ResolveSession session(std::move(tree));            // initial solve
///   session.resolve(Perturbation::satellite_drift(...)); // warm re-solve
///   session.current().delay.end_to_end();
///
/// The session owns its tree; the colouring, the report's assignment and
/// the cached state all reference session-owned storage, so the session
/// must outlive any reference taken from it. Warm capability by plan
/// method: pareto-dp reuses per-region frontiers (byte-identical to cold);
/// coloured-ssb and branch-bound warm-start their incumbent from the
/// previous optimum (exact, may tie-break differently); everything else
/// (oracle, heuristics) cold-solves each step.
class ResolveSession {
 public:
  explicit ResolveSession(CruTree tree, SolvePlan plan = SolvePlan::pareto_dp());

  ResolveSession(ResolveSession&&) noexcept = default;
  ResolveSession& operator=(ResolveSession&&) noexcept = default;

  [[nodiscard]] const CruTree& tree() const { return *tree_; }
  [[nodiscard]] const Colouring& colouring() const { return *colouring_; }
  [[nodiscard]] const SolvePlan& plan() const { return plan_; }
  /// The optimum of the current (most recently perturbed) instance.
  [[nodiscard]] const SolveReport& current() const { return *report_; }
  [[nodiscard]] const ResolveStats& last_stats() const { return stats_; }
  /// Perturbations applied so far.
  [[nodiscard]] std::size_t step() const { return stats_.step; }

  /// Applies `p` to the live instance and re-solves, warm when the cache
  /// allows. Returns the new optimum (also available as current()).
  /// Strong guarantee: on any throw (invalid perturbation, or a solver
  /// resource cap) the session rolls back to its previous instance and
  /// current() stays valid. Cache insertions made before the failure are
  /// kept -- they are content-keyed, so stale entries can never be matched
  /// incorrectly, only evicted.
  const SolveReport& resolve(const Perturbation& p);

  /// The session as a SessionState: the serializable form a snapshot file
  /// (storage/snapshot.hpp) persists. Wall-clock fields are zeroed and
  /// cache entries are emitted in sorted key order (see SessionState), so
  /// the export is deterministic for a given resolve history.
  [[nodiscard]] SessionState export_state() const;

  /// Rebuilds a session from an exported state. The result is
  /// behaviorally byte-identical to the exported session: the same
  /// current() optimum (bit for bit), the same cached_bytes(), and the
  /// same warm/cold decisions and reuse counters on every future
  /// resolve(). The one exception is ResolveStats::pool_grown_bytes: a
  /// restored pool starts with empty scratch capacity, so the first
  /// post-restore solve may grow storage the live session had already
  /// retained -- retained capacity is an allocator observation, not
  /// session state. Throws InvalidArgument on anything inconsistent (unknown
  /// plan spec, malformed tree, a cut that is not a valid cut of the tree,
  /// cache cut positions out of range of their keys) -- a snapshot that
  /// fails these checks is corrupt and must be rejected, never partially
  /// adopted. The cache entries are moved into the session, so pass an
  /// rvalue when the state is not needed afterwards.
  [[nodiscard]] static ResolveSession import_state(SessionState state);

  /// Bytes retained by the two frontier caches (points, cut positions and
  /// content keys) -- what a serving layer charges against its memory budget
  /// (service/session_store.hpp). Deterministic for a given resolve
  /// history: a sum over entries, independent of hash iteration order.
  [[nodiscard]] std::size_t cached_bytes() const;

 private:
  /// import_state's private path: adopts restored state instead of solving.
  struct RestoreTag {};
  ResolveSession(RestoreTag, SessionState&& state);

  void solve_current(const Perturbation* p);
  [[nodiscard]] SolveReport solve_warm_dp(const SolvePlan& resolved, ResolveStats& fresh);

  SolvePlan plan_;
  std::unique_ptr<CruTree> tree_;
  std::unique_ptr<Colouring> colouring_;
  std::unique_ptr<SolveReport> report_;
  ResolveStats stats_;
  /// Solve attempts, rolled-back failures included (cache stamp domain).
  std::size_t attempt_ = 0;
  /// Whole merged colour frontiers and single region frontiers.
  FrontierCache cache_;
  /// Retained frontier-arena scratch for solve_warm_dp (see ArenaPool).
  ArenaPool pool_;
};

/// Result of solving a whole perturbation stream: step i's instance is the
/// base with perturbations [0..i] applied cumulatively, and reports[i] /
/// stats[i] belong to colourings[i] / trees[i] (deques: the reports hold
/// references into them).
struct StreamResult {
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<SolveReport> reports;
  std::vector<ResolveStats> stats;
  /// Wall time of the stream's steps. On the warm path this excludes the
  /// session's initial solve of the unperturbed base (work the cold
  /// baseline never performs), so warm and cold values compare like for
  /// like -- bench_incremental's speedup gate depends on that.
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;
  bool warm = false;  ///< which path ran (plan.executor().warm_start)
};

/// Solves every step of a perturbation stream. plan.executor().warm_start
/// picks the engine: warm threads a ResolveSession along the sequence
/// (inherently sequential and fail-fast -- step i's state feeds step i+1,
/// so the first failure throws, and the plan's deadline is checked between
/// steps exactly like the executor checks it between instances); cold
/// materializes every instance and solves them on the BatchExecutor worker
/// pool under the plan's threads/deadline/fail-fast knobs (failures
/// rethrown by take_reports, keeping the two paths' contracts aligned).
[[nodiscard]] StreamResult solve_stream(const CruTree& base,
                                        std::span<const Perturbation> stream,
                                        const SolvePlan& plan = SolvePlan::pareto_dp());

}  // namespace treesat
