// Internals of the Pareto-DP engine (core/pareto_dp.hpp), shared by
// pareto_dp.cpp and the test-tree oracles that cross-validate it. Not part
// of the library's public surface.
//
// A colour pipeline builds one colour's merged frontier in a
// FrontierArena: structure-of-arrays (load[], host[]) stored contiguously,
// one Span per frontier. No per-point cut vectors exist during a solve --
// every point carries provenance (left/right parent of a merge, the cut
// edge of a leaf, or a slice of a cached frontier) and cuts are
// reconstructed only for the points that need them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/colouring.hpp"
#include "core/frontier_cache.hpp"
#include "platform/simd.hpp"

namespace treesat::pareto_engine {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;
/// left[] marker of a point whose cut is a slice of a cached frontier.
inline constexpr std::uint32_t kStored = 0xfffffffeu;

struct MergeCounters {
  std::size_t merges = 0;
  std::size_t generated = 0;
  std::size_t kept = 0;
};

[[noreturn]] void throw_frontier_limit(std::size_t width);

/// The Minkowski product of two pruned frontiers (both sorted by load
/// ascending, host strictly descending) as a k-way merge over |a| streams --
/// stream i emits a_i + b_j for ascending j -- with dominance pruning on the
/// fly. Kept points go out through `keep(i, j, load, host)` in sorted order;
/// ties break by (load, host, i, j), so results are deterministic. Every
/// product point counts as generated, popped or skipped.
///
/// Three mechanical devices keep it fast without changing a single pop:
///   * SIMD skip-ahead: best_host only ever decreases, so a stream's
///     dominated prefix (ahost[i] + bhost[j] >= best) is skipped with one
///     simd::dominated_prefix call instead of a branch per point.
///   * Lazy stream activation: stream seeds (aload[i]+bload[0]) ascend
///     with i, so a stream enters the heap only once the head's load
///     reaches its seed (ties included) -- the head is still the global
///     minimum at every pop.
///   * Replace-top: popping an entry and pushing its successor is one write
///     to the root plus a single sift-down.
/// Throws ResourceLimit once more than `max_frontier` points are kept.
template <typename Keep>
void merge_product(const double* aload, const double* ahost, std::size_t na,
                   const double* bload, const double* bhost, std::size_t nb,
                   std::size_t max_frontier, MergeCounters& counters, Keep&& keep) {
  ++counters.merges;
  if (na == 0 || nb == 0) return;  // the empty product
  struct Entry {
    double load;
    double host;
    std::uint32_t i;
    std::uint32_t j;
  };
  const auto earlier = [](const Entry& x, const Entry& y) {
    if (x.load != y.load) return x.load < y.load;
    if (x.host != y.host) return x.host < y.host;
    if (x.i != y.i) return x.i < y.i;
    return x.j < y.j;
  };
  std::vector<Entry> heap;
  heap.reserve(std::min<std::size_t>(na, 64));
  const auto sift_down = [&](std::size_t at) {
    const Entry e = heap[at];
    const std::size_t count = heap.size();
    while (true) {
      std::size_t kid = 2 * at + 1;
      if (kid >= count) break;
      if (kid + 1 < count && earlier(heap[kid + 1], heap[kid])) ++kid;
      if (!earlier(heap[kid], e)) break;
      heap[at] = heap[kid];
      at = kid;
    }
    heap[at] = e;
  };
  const auto push_entry = [&](const Entry& e) {
    std::size_t at = heap.size();
    heap.push_back(e);
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!earlier(e, heap[parent])) break;
      heap[at] = heap[parent];
      at = parent;
    }
    heap[at] = e;
  };
  std::uint32_t next_stream = 0;
  const auto activate = [&] {
    push_entry({aload[next_stream] + bload[0], ahost[next_stream] + bhost[0], next_stream, 0});
    ++next_stream;
  };

  activate();
  double best_host = std::numeric_limits<double>::infinity();
  std::size_t kept = 0;
  while (true) {
    if (heap.empty()) {
      if (next_stream >= na) break;
      activate();  // every stream still pops at least its seed
    }
    while (next_stream < na && aload[next_stream] + bload[0] <= heap[0].load) activate();
    const Entry e = heap[0];
    ++counters.generated;
    if (e.host < best_host) {
      best_host = e.host;
      if (++kept > max_frontier) throw_frontier_limit(kept);
      ++counters.kept;
      keep(e.i, e.j, e.load, e.host);
    }
    std::uint32_t j = e.j + 1;
    if (j < nb) {
      const std::size_t skip = simd::dominated_prefix(bhost + j, nb - j, ahost[e.i], best_host);
      counters.generated += skip;  // skipped: dominated forever, never materialized
      j += static_cast<std::uint32_t>(skip);
    }
    if (j < nb) {
      heap[0] = Entry{aload[e.i] + bload[j], ahost[e.i] + bhost[j], e.i, j};
      sift_down(0);
    } else {
      heap[0] = heap.back();
      heap.pop_back();
      if (!heap.empty()) sift_down(0);
    }
  }
}

/// Structure-of-arrays frontier storage plus per-point provenance. A point
/// is a *cut* point (edge valid), a *merge* point (left/right parents), a
/// *stored* point (left == kStored, right indexes `stored`: its cut is a
/// slice of a cached frontier), or the neutral point (none of these).
struct FrontierArena {
  /// A stored point's cut: canonical positions, rebound through `nodes`.
  struct StoredCut {
    std::span<const std::uint32_t> positions;
    const CruId* nodes = nullptr;
  };

  std::vector<double> load;
  std::vector<double> host;
  std::vector<std::uint32_t> left;
  std::vector<std::uint32_t> right;
  std::vector<CruId> edge;
  std::vector<StoredCut> stored;
  std::vector<std::uint32_t> stack;  // reconstruct() scratch

  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(load.size()); }
  [[nodiscard]] std::size_t bytes() const {
    return load.size() * (2 * sizeof(double) + 2 * sizeof(std::uint32_t) + sizeof(CruId));
  }
  std::uint32_t add(double l, double h, std::uint32_t lp, std::uint32_t rp, CruId e);
  /// Drops every point at index >= new_size (only ever the tail span under
  /// construction, whose points nothing references yet).
  void truncate(std::uint32_t new_size);
  /// Appends the cut set realized by point `idx`: depth-first over the
  /// provenance, left parent before right, i.e. left to right in the tree.
  void reconstruct(std::uint32_t idx, std::vector<CruId>& out);
};

/// A Minkowski merge over staged inputs that appends each kept point to
/// `arena` as the merge point (a_begin + i, b_begin + j). The engine runs
/// merge_product inline; tests swap in the scalar oracle kernel
/// (tests/oracle/) to cross-validate whole solves through this hook.
using MergeKernel = void (*)(const double* aload, const double* ahost, std::size_t na,
                             const double* bload, const double* bhost, std::size_t nb,
                             std::size_t max_frontier, MergeCounters& counters,
                             FrontierArena& arena, std::uint32_t a_begin,
                             std::uint32_t b_begin);

/// One frontier: a contiguous [begin, end) slice of an arena, sorted by
/// load ascending with host strictly descending.
struct Span {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  [[nodiscard]] std::uint32_t size() const { return end - begin; }
};

/// Where one colour's merged frontier lives after a pipeline built it:
/// `span` of the pipeline's arena, or -- on a colour-cache hit -- `stored`,
/// whose cut positions index `key.nodes`.
struct ColourFrontier {
  Span span{};
  const FrontierCache::Frontier* stored = nullptr;
  FrontierCache::Colour key;
};

/// Per-colour pipeline state: the arena plus the reusable scratch the
/// region pass needs. Regions are disjoint subtrees, so the per-node span
/// table is shared across regions (and across colours, when one pipeline
/// builds several) without clearing.
struct ColourPipeline {
  FrontierArena arena;
  std::size_t max_region_frontier = 0;
  std::size_t peak = 0;
  MergeCounters counters;
  MergeKernel kernel = nullptr;  ///< null: merge_product

  std::vector<Span> spans;  // per tree node
  // Merge inputs are snapshotted out of the arena (output appends to the
  // same vectors, which may reallocate mid-merge).
  std::vector<double> scratch_load[2];
  std::vector<double> scratch_host[2];
  std::vector<CruId> order;
  std::vector<CruId> dfs;
  // Cache-entry staging: node id -> canonical position, one point's cut,
  // and the entry's cut arrays.
  std::vector<std::uint32_t> position;
  std::vector<CruId> cut;
  std::vector<std::uint32_t> cut_offsets;
  std::vector<std::uint32_t> cut_positions;

  /// Forgets all solve state but keeps every allocation.
  void reset();
  /// Capacity footprint of everything the pipeline retains.
  [[nodiscard]] std::size_t capacity_bytes() const;

  Span merge(Span a, Span b, std::size_t max_frontier);
  /// Frontier of the region rooted at `root`: an explicit iterative
  /// post-order pass, so chain regions of any depth never touch the stack.
  Span region(const Colouring& colouring, CruId root, std::size_t max_frontier);
  /// Builds `colour`'s merged frontier into `out`: each region's frontier
  /// folded left to right in regions_of order (a colour without regions
  /// contributes the single neutral point). With a cache, a colour hit is
  /// served as is, a region hit enters the fold as a stored span, and every
  /// frontier built on a miss is stored.
  void build(const Colouring& colouring, SatelliteId colour, std::size_t max_frontier,
             FrontierCache* cache, ColourFrontier& out);

 private:
  void note_frontier(std::uint32_t width, std::size_t max_frontier);
  Span load_stored(const FrontierCache::Frontier& frontier, const CruId* nodes,
                   std::size_t max_frontier);
  /// `span` as a cache entry, cuts as positions minus `offset`.
  FrontierCache::Frontier store(Span span, std::uint32_t offset);
};

}  // namespace treesat::pareto_engine
