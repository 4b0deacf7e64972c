#include "oracle/oracle.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/pareto_engine.hpp"

namespace treesat::oracle {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using pareto_engine::MergeCounters;

// ---------------------------------------------------------------------------
// Reference engine (pre-arena).

/// Sorts by (load, host) and removes dominated points: keep a point only if
/// its host time is strictly below every point with smaller-or-equal load.
void prune(Frontier& points, std::size_t max_frontier) {
  std::sort(points.begin(), points.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    if (a.load != b.load) return a.load < b.load;
    return a.host < b.host;
  });
  Frontier kept;
  double best_host = kInf;
  for (ParetoPoint& p : points) {
    if (p.host < best_host) {
      best_host = p.host;
      kept.push_back(std::move(p));
    }
  }
  if (kept.size() > max_frontier) {
    throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" +
                        std::to_string(kept.size()) + " points)");
  }
  points = std::move(kept);
}

Frontier node_frontier(const Colouring& colouring, CruId v, std::size_t max_frontier) {
  const CruTree& tree = colouring.tree();
  const CruNode& nd = tree.node(v);

  // Option 1: cut the edge above v -- the whole subtree on the satellite.
  ParetoPoint cut_here{tree.subtree_sat_time(v) + nd.comm_up, 0.0, {v}};
  if (nd.is_sensor()) return {std::move(cut_here)};

  // Option 2: v on the host; children combine independently.
  Frontier combined{ParetoPoint{}};  // neutral element
  for (const CruId c : nd.children) {
    combined = reference_minkowski(combined, node_frontier(colouring, c, max_frontier),
                                   max_frontier);
  }
  for (ParetoPoint& p : combined) p.host += nd.host_time;
  combined.push_back(std::move(cut_here));
  prune(combined, max_frontier);
  return combined;
}

// ---------------------------------------------------------------------------
// The scalar merge: the original straight-line k-way merge. Seeds all |a| streams
// up front and pops/pushes through std heap operations; the SIMD kernel
// must match it pop for pop (same keep() calls, counters, throw point).

template <typename Keep>
void merge_product_scalar(const double* aload, const double* ahost, std::size_t na,
                          const double* bload, const double* bhost, std::size_t nb,
                          std::size_t max_frontier, MergeCounters& counters, Keep&& keep) {
  ++counters.merges;
  if (na == 0 || nb == 0) return;
  struct Entry {
    double load;
    double host;
    std::uint32_t i;
    std::uint32_t j;
  };
  const auto later = [](const Entry& x, const Entry& y) {
    if (x.load != y.load) return x.load > y.load;
    if (x.host != y.host) return x.host > y.host;
    if (x.i != y.i) return x.i > y.i;
    return x.j > y.j;
  };
  std::vector<Entry> heap;
  heap.reserve(na);
  for (std::uint32_t i = 0; i < na; ++i) {
    heap.push_back({aload[i] + bload[0], ahost[i] + bhost[0], i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);

  double best_host = kInf;
  std::size_t kept = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Entry e = heap.back();
    heap.pop_back();
    ++counters.generated;
    if (e.host < best_host) {
      best_host = e.host;
      if (++kept > max_frontier) pareto_engine::throw_frontier_limit(kept);
      ++counters.kept;
      keep(e.i, e.j, e.load, e.host);
    }
    std::uint32_t j = e.j + 1;
    while (j < nb && ahost[e.i] + bhost[j] >= best_host) {
      ++counters.generated;  // skipped: dominated forever, never materialized
      ++j;
    }
    if (j < nb) {
      heap.push_back({aload[e.i] + bload[j], ahost[e.i] + bhost[j], e.i, j});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

Frontier merge_counted(const Frontier& a, const Frontier& b, std::size_t max_frontier,
                       Kernel kernel, MergeCounters& counters) {
  std::vector<double> al, ah, bl, bh;
  for (const ParetoPoint& p : a) {
    al.push_back(p.load);
    ah.push_back(p.host);
  }
  for (const ParetoPoint& p : b) {
    bl.push_back(p.load);
    bh.push_back(p.host);
  }
  Frontier out;
  const auto keep = [&](std::uint32_t i, std::uint32_t j, double l, double h) {
    ParetoPoint p{l, h, a[i].cut};
    p.cut.insert(p.cut.end(), b[j].cut.begin(), b[j].cut.end());
    out.push_back(std::move(p));
  };
  if (kernel == Kernel::kScalar) {
    merge_product_scalar(al.data(), ah.data(), a.size(), bl.data(), bh.data(), b.size(),
                         max_frontier, counters, keep);
  } else {
    pareto_engine::merge_product(al.data(), ah.data(), a.size(), bl.data(), bh.data(),
                                 b.size(), max_frontier, counters, keep);
  }
  return out;
}

void scalar_kernel(const double* aload, const double* ahost, std::size_t na,
                   const double* bload, const double* bhost, std::size_t nb,
                   std::size_t max_frontier, MergeCounters& counters,
                   pareto_engine::FrontierArena& arena, std::uint32_t a_begin,
                   std::uint32_t b_begin) {
  merge_product_scalar(aload, ahost, na, bload, bhost, nb, max_frontier, counters,
                       [&](std::uint32_t i, std::uint32_t j, double l, double h) {
                         arena.add(l, h, a_begin + i, b_begin + j, CruId{});
                       });
}

/// Points of `span` with their cuts reconstructed.
Frontier materialize(pareto_engine::ColourPipeline& pipe, pareto_engine::Span span) {
  Frontier out;
  for (std::uint32_t p = span.begin; p < span.end; ++p) {
    ParetoPoint point{pipe.arena.load[p], pipe.arena.host[p], {}};
    pipe.arena.reconstruct(p, point.cut);
    out.push_back(std::move(point));
  }
  return out;
}

/// The bottleneck sweep over per-colour frontiers, then the chosen cut.
ParetoDpResult finish(const Colouring& colouring, const ParetoDpOptions& options,
                      const std::vector<Frontier>& per_colour, ParetoDpStats stats) {
  std::vector<double> candidates;
  for (const Frontier& f : per_colour) {
    stats.max_colour_frontier = std::max(stats.max_colour_frontier, f.size());
    for (const ParetoPoint& p : f) candidates.push_back(p.load);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  if (candidates.empty()) candidates.push_back(0.0);

  std::vector<std::size_t> pick(per_colour.size(), 0);
  std::vector<std::size_t> best_pick;
  double best_value = kInf;
  for (const double L : candidates) {
    bool feasible = true;
    double host_sum = 0.0;
    double achieved = 0.0;
    for (std::size_t c = 0; c < per_colour.size(); ++c) {
      const Frontier& f = per_colour[c];
      while (pick[c] + 1 < f.size() && f[pick[c] + 1].load <= L) ++pick[c];
      if (f[pick[c]].load > L) {
        feasible = false;
        break;
      }
      host_sum += f[pick[c]].host;
      achieved = std::max(achieved, f[pick[c]].load);
    }
    ++stats.candidates_swept;
    if (!feasible) continue;
    const double value =
        options.objective.value(colouring.forced_host_time() + host_sum, achieved);
    if (value < best_value) {
      best_value = value;
      best_pick = pick;
    }
  }
  std::vector<CruId> cut;
  for (std::size_t c = 0; c < per_colour.size(); ++c) {
    const std::vector<CruId>& chosen = per_colour[c][best_pick[c]].cut;
    cut.insert(cut.end(), chosen.begin(), chosen.end());
  }
  Assignment assignment(colouring, std::move(cut));
  DelayBreakdown delay = assignment.delay();
  const double objective = delay.objective(options.objective);
  return ParetoDpResult{std::move(assignment), std::move(delay), objective, stats};
}

}  // namespace

Frontier reference_minkowski(const Frontier& a, const Frontier& b, std::size_t max_frontier) {
  // Integer-exact product guard: dividing instead of multiplying cannot
  // overflow, and the reserve is capped at the bound it just proved.
  constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();
  const std::size_t limit = max_frontier > kSizeMax / 64 ? kSizeMax : max_frontier * 64;
  if (!a.empty() && b.size() > limit / a.size()) {
    throw ResourceLimit("pareto_dp: Minkowski product too large");
  }
  Frontier out;
  out.reserve(std::min(a.size() * b.size(), limit));
  for (const ParetoPoint& pa : a) {
    for (const ParetoPoint& pb : b) {
      ParetoPoint p{pa.load + pb.load, pa.host + pb.host, pa.cut};
      p.cut.insert(p.cut.end(), pb.cut.begin(), pb.cut.end());
      out.push_back(std::move(p));
    }
  }
  prune(out, max_frontier);
  return out;
}

Frontier reference_region_frontier(const Colouring& colouring, CruId root,
                                   std::size_t max_frontier) {
  TS_REQUIRE(colouring.is_assignable(root), "region_frontier: node is not assignable");
  return node_frontier(colouring, root, max_frontier);
}

ParetoDpResult reference_solve(const Colouring& colouring, const ParetoDpOptions& options) {
  TS_REQUIRE(options.objective.valid(), "pareto_dp_solve: bad objective");
  ParetoDpStats stats;
  std::vector<Frontier> per_colour;
  for (std::size_t c = 0; c < colouring.tree().satellite_count(); ++c) {
    Frontier acc{ParetoPoint{}};
    for (const CruId r : colouring.regions_of(SatelliteId{c})) {
      const Frontier f = node_frontier(colouring, r, options.max_frontier);
      stats.max_region_frontier = std::max(stats.max_region_frontier, f.size());
      acc = reference_minkowski(acc, f, options.max_frontier);
    }
    per_colour.push_back(std::move(acc));
  }
  return finish(colouring, options, per_colour, stats);
}

Frontier merge(const Frontier& a, const Frontier& b, std::size_t max_frontier, Kernel kernel) {
  MergeCounters counters;
  return merge_counted(a, b, max_frontier, kernel, counters);
}

Frontier engine_region_frontier(const Colouring& colouring, CruId root,
                                std::size_t max_frontier) {
  TS_REQUIRE(colouring.is_assignable(root), "region_frontier: node is not assignable");
  pareto_engine::ColourPipeline pipe;
  return materialize(pipe, pipe.region(colouring, root, max_frontier));
}

ParetoDpResult kernel_solve(const Colouring& colouring, const ParetoDpOptions& options,
                            Kernel kernel) {
  TS_REQUIRE(options.objective.valid(), "pareto_dp_solve: bad objective");
  ParetoDpStats stats;
  std::vector<Frontier> per_colour;
  for (std::size_t c = 0; c < colouring.tree().satellite_count(); ++c) {
    pareto_engine::ColourPipeline pipe;
    if (kernel == Kernel::kScalar) pipe.kernel = &scalar_kernel;
    pareto_engine::ColourFrontier f;
    pipe.build(colouring, SatelliteId{c}, options.max_frontier, nullptr, f);
    stats.max_region_frontier = std::max(stats.max_region_frontier, pipe.max_region_frontier);
    stats.peak_frontier = std::max(stats.peak_frontier, pipe.peak);
    stats.arena_bytes += pipe.arena.bytes();
    stats.minkowski_merges += pipe.counters.merges;
    stats.merge_points_generated += pipe.counters.generated;
    stats.merge_points_kept += pipe.counters.kept;
    per_colour.push_back(materialize(pipe, f.span));
  }
  return finish(colouring, options, per_colour, stats);
}

}  // namespace treesat::oracle
