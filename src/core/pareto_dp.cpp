#include "core/pareto_dp.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "core/pareto_engine.hpp"
#include "core/worklist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesat {

namespace pareto_engine {

void throw_frontier_limit(std::size_t width) {
  throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" + std::to_string(width) +
                      " points)");
}

std::uint32_t FrontierArena::add(double l, double h, std::uint32_t lp, std::uint32_t rp,
                                  CruId e) {
  if (load.size() >= kStored) {
    throw ResourceLimit("pareto_dp: arena point count overflow");
  }
  load.push_back(l);
  host.push_back(h);
  left.push_back(lp);
  right.push_back(rp);
  edge.push_back(e);
  return static_cast<std::uint32_t>(load.size() - 1);
}

void FrontierArena::truncate(std::uint32_t new_size) {
  load.resize(new_size);
  host.resize(new_size);
  left.resize(new_size);
  right.resize(new_size);
  edge.resize(new_size);
}

void FrontierArena::reconstruct(std::uint32_t idx, std::vector<CruId>& out) {
  stack.assign(1, idx);
  while (!stack.empty()) {
    const std::uint32_t p = stack.back();
    stack.pop_back();
    if (edge[p].valid()) {
      out.push_back(edge[p]);
    } else if (left[p] == kStored) {
      const StoredCut& s = stored[right[p]];
      for (const std::uint32_t pos : s.positions) out.push_back(s.nodes[pos]);
    } else if (left[p] != kNoParent) {
      stack.push_back(right[p]);
      stack.push_back(left[p]);
    }  // else: the neutral point
  }
}

void ColourPipeline::reset() {
  arena.truncate(0);
  arena.stored.clear();
  max_region_frontier = 0;
  peak = 0;
  counters = MergeCounters{};
  // region() re-establishes the per-node table for whatever tree comes
  // next; the remaining scratch is assigned or cleared at every use.
  spans.clear();
}

std::size_t ColourPipeline::capacity_bytes() const {
  std::size_t bytes = arena.load.capacity() * sizeof(double) +
                      arena.host.capacity() * sizeof(double) +
                      arena.left.capacity() * sizeof(std::uint32_t) +
                      arena.right.capacity() * sizeof(std::uint32_t) +
                      arena.edge.capacity() * sizeof(CruId) +
                      arena.stored.capacity() * sizeof(FrontierArena::StoredCut) +
                      arena.stack.capacity() * sizeof(std::uint32_t);
  bytes += spans.capacity() * sizeof(Span);
  for (const auto& v : scratch_load) bytes += v.capacity() * sizeof(double);
  for (const auto& v : scratch_host) bytes += v.capacity() * sizeof(double);
  bytes += (order.capacity() + dfs.capacity() + cut.capacity()) * sizeof(CruId);
  bytes += (position.capacity() + cut_offsets.capacity() + cut_positions.capacity()) *
           sizeof(std::uint32_t);
  return bytes;
}

void ColourPipeline::note_frontier(std::uint32_t width, std::size_t max_frontier) {
  if (width > max_frontier) throw_frontier_limit(width);
  peak = std::max(peak, static_cast<std::size_t>(width));
}

Span ColourPipeline::merge(Span a, Span b, std::size_t max_frontier) {
  for (int side = 0; side < 2; ++side) {
    const Span s = side == 0 ? a : b;
    scratch_load[side].assign(arena.load.begin() + s.begin, arena.load.begin() + s.end);
    scratch_host[side].assign(arena.host.begin() + s.begin, arena.host.begin() + s.end);
  }
  const std::uint32_t out_begin = arena.size();
  if (kernel != nullptr) {
    kernel(scratch_load[0].data(), scratch_host[0].data(), a.size(), scratch_load[1].data(),
           scratch_host[1].data(), b.size(), max_frontier, counters, arena, a.begin, b.begin);
  } else {
    merge_product(scratch_load[0].data(), scratch_host[0].data(), a.size(),
                  scratch_load[1].data(), scratch_host[1].data(), b.size(), max_frontier,
                  counters, [&](std::uint32_t i, std::uint32_t j, double l, double h) {
                    arena.add(l, h, a.begin + i, b.begin + j, CruId{});
                  });
  }
  const Span out{out_begin, arena.size()};
  note_frontier(out.size(), max_frontier);
  return out;
}

Span ColourPipeline::region(const Colouring& colouring, CruId root, std::size_t max_frontier) {
  const CruTree& tree = colouring.tree();
  if (spans.empty()) spans.resize(tree.size());

  // Postorder of the region subtree: reverse of a right-to-left preorder.
  order.clear();
  dfs.assign(1, root);
  while (!dfs.empty()) {
    const CruId v = dfs.back();
    dfs.pop_back();
    order.push_back(v);
    for (const CruId c : tree.node(v).children) dfs.push_back(c);
  }
  std::reverse(order.begin(), order.end());

  for (const CruId v : order) {
    const CruNode& nd = tree.node(v);
    const double cut_load = tree.subtree_sat_time(v) + nd.comm_up;
    if (nd.is_sensor()) {
      const std::uint32_t at = arena.add(cut_load, 0.0, kNoParent, kNoParent, v);
      spans[v.index()] = Span{at, at + 1};
      note_frontier(1, max_frontier);
      continue;
    }
    // Children combine with ⊕ (first child taken as-is: ⊕ with the neutral
    // frontier is the identity, bit for bit).
    Span acc = spans[nd.children.front().index()];
    for (std::size_t k = 1; k < nd.children.size(); ++k) {
      acc = merge(acc, spans[nd.children[k].index()], max_frontier);
    }
    // v on the host: shift every combined host by h_v, in place.
    if (nd.host_time != 0.0) {
      for (std::uint32_t p = acc.begin; p < acc.end; ++p) arena.host[p] += nd.host_time;
    }
    // Insert the cut-at-v point (load = cut_load, host = 0). The combined
    // span is the arena tail and nothing references its points yet, so
    // pruning is a truncation: keep the strict-load prefix, drop the
    // dominated tail, append the cut point unless the prefix already
    // reaches host 0.
    TS_CHECK(acc.end == arena.size(), "pareto_dp: combined span must be the arena tail");
    const auto first_ge = static_cast<std::uint32_t>(
        std::lower_bound(arena.load.begin() + acc.begin, arena.load.begin() + acc.end,
                         cut_load) -
        arena.load.begin());
    Span out{acc.begin, first_ge};
    arena.truncate(first_ge);
    const bool dominated = out.size() > 0 && arena.host[out.end - 1] <= 0.0;
    if (!dominated) {
      arena.add(cut_load, 0.0, kNoParent, kNoParent, v);
      ++out.end;
    }
    note_frontier(out.size(), max_frontier);
    spans[v.index()] = out;
  }

  const Span result = spans[root.index()];
  max_region_frontier = std::max(max_region_frontier, static_cast<std::size_t>(result.size()));
  return result;
}

Span ColourPipeline::load_stored(const FrontierCache::Frontier& frontier, const CruId* nodes,
                                 std::size_t max_frontier) {
  const std::uint32_t begin = arena.size();
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto slot = static_cast<std::uint32_t>(arena.stored.size());
    arena.stored.push_back({frontier.cut(i), nodes});
    arena.add(frontier.load()[i], frontier.host()[i], kStored, slot, CruId{});
  }
  const Span out{begin, arena.size()};
  note_frontier(out.size(), max_frontier);
  return out;
}

FrontierCache::Frontier ColourPipeline::store(Span span, std::uint32_t offset) {
  cut_offsets.assign(1, 0);
  cut_positions.clear();
  for (std::uint32_t p = span.begin; p < span.end; ++p) {
    cut.clear();
    arena.reconstruct(p, cut);
    for (const CruId v : cut) cut_positions.push_back(position[v.index()] - offset);
    cut_offsets.push_back(static_cast<std::uint32_t>(cut_positions.size()));
  }
  return FrontierCache::Frontier({arena.load.data() + span.begin, span.size()},
                                 {arena.host.data() + span.begin, span.size()}, cut_offsets,
                                 cut_positions);
}

void ColourPipeline::build(const Colouring& colouring, SatelliteId colour,
                           std::size_t max_frontier, FrontierCache* cache, ColourFrontier& out) {
  const std::vector<CruId> regions = colouring.regions_of(colour);
  if (regions.empty()) {
    const std::uint32_t at = arena.add(0.0, 0.0, kNoParent, kNoParent, CruId{});
    out.span = Span{at, at + 1};
    return;
  }
  if (cache != nullptr) {
    if (position.size() < colouring.tree().size()) position.resize(colouring.tree().size());
    out.key = cache->key(colouring.tree(), regions, position);
    out.stored = cache->find_colour(out.key);
    if (out.stored != nullptr) return;
  }
  Span acc;
  for (std::size_t k = 0; k < regions.size(); ++k) {
    const FrontierCache::Frontier* hit =
        cache != nullptr ? cache->find_region(out.key.regions[k]) : nullptr;
    Span f;
    if (hit != nullptr) {
      f = load_stored(*hit, out.key.nodes.data() + out.key.offsets[k], max_frontier);
    } else {
      f = region(colouring, regions[k], max_frontier);
      if (cache != nullptr) {
        cache->store_region(out.key.regions[k], store(f, out.key.offsets[k]));
      }
    }
    acc = k == 0 ? f : merge(acc, f, max_frontier);
  }
  if (cache != nullptr) cache->store_colour(out.key.key, store(acc, 0));
  out.span = acc;
}

}  // namespace pareto_engine

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct FrontierView {
  const double* load = nullptr;
  const double* host = nullptr;
  std::size_t count = 0;
};

struct SweepPick {
  std::vector<std::size_t> pick;
  std::size_t candidates_swept = 0;
  std::size_t max_colour_frontier = 0;
};

SweepPick sweep_colour_frontiers(const std::vector<FrontierView>& per_colour,
                                 double base_host, const SsbObjective& objective) {
  const std::size_t colours = per_colour.size();
  SweepPick out;
  for (const FrontierView& f : per_colour) {
    TS_CHECK(f.count > 0, "pareto_dp: empty colour frontier in sweep");
    out.max_colour_frontier = std::max(out.max_colour_frontier, f.count);
  }

  // Sweep candidate bottleneck values: all per-colour loads, ascending. Every
  // colour starts at its smallest-load point (always feasible: frontiers are
  // never empty) and advances to cheaper-host points as L grows.
  std::vector<double> candidates;
  for (const FrontierView& f : per_colour) {
    candidates.insert(candidates.end(), f.load, f.load + f.count);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  if (candidates.empty()) candidates.push_back(0.0);  // no satellites at all

  std::vector<std::size_t> pick(colours, 0);
  double best_value = kInf;
  std::vector<std::size_t> best_pick;

  for (const double L : candidates) {
    bool feasible = true;
    double host_sum = 0.0;
    double achieved = 0.0;
    for (std::size_t c = 0; c < colours; ++c) {
      const FrontierView& f = per_colour[c];
      // Advance to the largest load <= L (minimal host among load <= L).
      while (pick[c] + 1 < f.count && f.load[pick[c] + 1] <= L) ++pick[c];
      if (f.load[pick[c]] > L) {
        feasible = false;  // this colour cannot fit under L yet
        break;
      }
      host_sum += f.host[pick[c]];
      achieved = std::max(achieved, f.load[pick[c]]);
    }
    ++out.candidates_swept;
    if (!feasible) continue;
    const double value = objective.value(base_host + host_sum, achieved);
    if (value < best_value) {
      best_value = value;
      best_pick = pick;
    }
  }
  TS_CHECK(best_value < kInf, "pareto_dp: sweep found no feasible bottleneck (impossible)");
  out.pick = std::move(best_pick);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ParetoScratch: the pooled pipeline handle (header-declared pimpl).

struct ParetoScratch::Impl {
  pareto_engine::ColourPipeline pipeline;
  std::size_t served = 0;
  std::size_t grown = 0;
};

ParetoScratch::ParetoScratch() : impl_(std::make_unique<Impl>()) {}
ParetoScratch::~ParetoScratch() = default;
ParetoScratch::ParetoScratch(ParetoScratch&&) noexcept = default;
ParetoScratch& ParetoScratch::operator=(ParetoScratch&&) noexcept = default;

std::size_t ParetoScratch::served_bytes() const { return impl_->served; }
std::size_t ParetoScratch::grown_bytes() const { return impl_->grown; }
std::size_t ParetoScratch::retained_bytes() const { return impl_->pipeline.capacity_bytes(); }

std::vector<double> region_min_loads(const Colouring& colouring) {
  const CruTree& tree = colouring.tree();
  std::vector<double> min_load(tree.size(), 0.0);
  for (const CruId v : tree.postorder()) {
    if (!colouring.is_assignable(v)) continue;
    const double cut_here = tree.subtree_sat_time(v) + tree.node(v).comm_up;
    if (tree.node(v).is_sensor()) {
      min_load[v.index()] = cut_here;
      continue;
    }
    double descend = 0.0;
    for (const CruId c : tree.node(v).children) descend += min_load[c.index()];
    min_load[v.index()] = std::min(cut_here, descend);
  }
  return min_load;
}

ParetoDpResult pareto_dp_solve(const Colouring& colouring, const ParetoDpOptions& options,
                               FrontierCache* cache, ParetoScratch* scratch) {
  using pareto_engine::ColourFrontier;
  using pareto_engine::ColourPipeline;
  TS_REQUIRE(options.objective.valid(), "pareto_dp_solve: bad objective");
  const std::size_t colours = colouring.tree().satellite_count();

  // Phase spans. Every attribute below is deterministic at any dp_threads
  // and with or without a cache, so the timing-stripped trace of a solve is
  // byte-identity-safe. Per-colour spans name the fold span as explicit
  // parent: on scheduler threads the thread-local current span belongs to
  // the calling thread and must not leak across.
  obs::Span solve_span(obs::trace(), "dp.solve");
  solve_span.attr("colours", static_cast<std::uint64_t>(colours));
  obs::count("treesat_dp_solves_total", "Pareto-DP solves");

  // Without a cache, every colour gets its own pipeline and the pipelines
  // are farmed to the work-stealing scheduler. With one, colours run inline
  // on one pooled pipeline: sessions are single-threaded, and their cache
  // lookups and stores happen in colour order.
  std::unique_ptr<ParetoScratch> local;
  if (cache != nullptr && scratch == nullptr) {
    local = std::make_unique<ParetoScratch>();
    scratch = local.get();
  }
  std::vector<ColourPipeline> pipes(cache != nullptr ? 0 : colours);
  ColourPipeline* shared = cache != nullptr ? &scratch->impl().pipeline : nullptr;
  const std::size_t capacity_before = shared != nullptr ? shared->capacity_bytes() : 0;
  if (shared != nullptr) shared->reset();
  const auto pipe_of = [&](std::size_t c) -> ColourPipeline& {
    return shared != nullptr ? *shared : pipes[c];
  };

  std::vector<ColourFrontier> frontiers(colours);
  {
    obs::Span fold_span(obs::trace(), "dp.fold");
    const std::uint64_t fold_id = fold_span.id();
    const auto build = [&](std::size_t c) {
      obs::Span colour_span(obs::trace(), "dp.colour", fold_id);
      ColourPipeline& pipe = pipe_of(c);
      const pareto_engine::MergeCounters before = pipe.counters;
      pipe.build(colouring, SatelliteId{c}, options.max_frontier, cache, frontiers[c]);
      const std::size_t merges = pipe.counters.merges - before.merges;
      const std::size_t generated = pipe.counters.generated - before.generated;
      const std::size_t kept = pipe.counters.kept - before.kept;
      const ColourFrontier& f = frontiers[c];
      colour_span.attr("colour", static_cast<std::uint64_t>(c));
      colour_span.attr("cached", static_cast<std::uint64_t>(f.stored != nullptr));
      colour_span.attr("merges", merges);
      colour_span.attr("generated", generated);
      colour_span.attr("kept", kept);
      colour_span.attr("frontier", static_cast<std::uint64_t>(
                                       f.stored != nullptr ? f.stored->size() : f.span.size()));
      colour_span.attr("prune_ratio", generated == 0 ? 1.0
                                                     : static_cast<double>(kept) /
                                                           static_cast<double>(generated));
    };
    if (cache != nullptr) {
      for (std::size_t c = 0; c < colours; ++c) build(c);
    } else {
      // Colours are scheduled widest-first: a colour's frontier work grows
      // with the sensors under its regions, and the widest colour claimed
      // last would serialize the tail of the solve.
      WorklistOptions worklist;
      worklist.threads = options.dp_threads;
      std::vector<double> cost;
      if (options.dp_threads != 1) {  // the scheduler ignores cost on one thread
        cost.assign(colours, 0.0);
        for (std::size_t c = 0; c < colours; ++c) {
          for (const CruId r : colouring.regions_of(SatelliteId{c})) {
            cost[c] += static_cast<double>(colouring.tree().leaf_span(r).width());
          }
        }
        worklist.cost = cost;
      }
      std::vector<std::exception_ptr> errors(colours);
      static_cast<void>(run_worklist(colours, worklist, [&](std::size_t c) {
        try {
          build(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      }));
      for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
      }
    }
  }

  ParetoDpStats stats;
  for (std::size_t p = 0; p < (shared != nullptr ? 1 : colours); ++p) {
    const ColourPipeline& pipe = pipe_of(p);
    stats.max_region_frontier = std::max(stats.max_region_frontier, pipe.max_region_frontier);
    stats.peak_frontier = std::max(stats.peak_frontier, pipe.peak);
    stats.arena_bytes += pipe.arena.bytes();
    stats.minkowski_merges += pipe.counters.merges;
    stats.merge_points_generated += pipe.counters.generated;
    stats.merge_points_kept += pipe.counters.kept;
  }
  if (shared != nullptr) {
    scratch->impl().served += shared->arena.bytes();
    const std::size_t capacity_after = shared->capacity_bytes();
    scratch->impl().grown += capacity_after > capacity_before ? capacity_after - capacity_before : 0;
  }
  std::vector<FrontierView> views(colours);
  for (std::size_t c = 0; c < colours; ++c) {
    const ColourFrontier& f = frontiers[c];
    const ColourPipeline& pipe = pipe_of(c);
    views[c] = f.stored != nullptr
                   ? FrontierView{f.stored->load(), f.stored->host(), f.stored->size()}
                   : FrontierView{pipe.arena.load.data() + f.span.begin,
                                  pipe.arena.host.data() + f.span.begin, f.span.size()};
    obs::observe("treesat_dp_colour_frontier_points",
                 "Merged frontier width per colour pipeline", obs::MetricClass::kDeterministic,
                 static_cast<double>(views[c].count));
  }
  obs::count("treesat_dp_minkowski_merges_total", "Minkowski merges across all solves",
             obs::MetricClass::kDeterministic, stats.minkowski_merges);
  obs::count("treesat_dp_merge_points_generated_total",
             "Frontier points generated before dominance pruning",
             obs::MetricClass::kDeterministic, stats.merge_points_generated);
  obs::count("treesat_dp_merge_points_kept_total", "Frontier points surviving dominance pruning",
             obs::MetricClass::kDeterministic, stats.merge_points_kept);
  SweepPick sw;
  {
    obs::Span sweep_span(obs::trace(), "dp.sweep");
    sw = sweep_colour_frontiers(views, colouring.forced_host_time(), options.objective);
    sweep_span.attr("candidates", static_cast<std::uint64_t>(sw.candidates_swept));
    sweep_span.attr("max_colour_frontier", static_cast<std::uint64_t>(sw.max_colour_frontier));
  }
  stats.max_colour_frontier = sw.max_colour_frontier;
  stats.candidates_swept = sw.candidates_swept;

  std::vector<CruId> cut;
  {
    obs::Span rec_span(obs::trace(), "dp.reconstruct");
    for (std::size_t c = 0; c < colours; ++c) {
      const ColourFrontier& f = frontiers[c];
      if (f.stored != nullptr) {
        for (const std::uint32_t pos : f.stored->cut(sw.pick[c])) cut.push_back(f.key.nodes[pos]);
      } else {
        pipe_of(c).arena.reconstruct(f.span.begin + static_cast<std::uint32_t>(sw.pick[c]), cut);
      }
    }
    rec_span.attr("cut", static_cast<std::uint64_t>(cut.size()));
  }
  Assignment assignment(colouring, std::move(cut));
  DelayBreakdown delay = assignment.delay();
  const double objective = delay.objective(options.objective);
  return ParetoDpResult{std::move(assignment), std::move(delay), objective, stats};
}

}  // namespace treesat
