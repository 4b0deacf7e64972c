// The warm path's reusable search state: two content-keyed caches of
// Pareto frontiers, one entry per whole colour (the merged frontier of all
// of a colour's regions -- the Minkowski chains that dominate a cold solve)
// and one per single region (useful when only one region of a colour
// changed, e.g. a probe insertion).
//
// pareto_dp_solve (core/pareto_dp.hpp) takes a FrontierCache as an optional
// input: a colour hit feeds the sweep straight from the entry's load/host
// arrays, a region hit enters the colour's fold as a leaf span whose cut is
// a slice of the entry, and every frontier the solve builds on a miss is
// stored. Keys are the exact content of the regions (structure plus the bit
// pattern of every cost), so an entry is reused only when a cold solve would
// recompute bit-identical values -- reuse never changes a result.
//
// An entry is structure-of-arrays: load[], host[], and each point's cut as
// strictly increasing positions into the canonical node enumeration the
// entry was keyed by (one region's preorder, or the concatenation of a
// colour's regions' preorders), so a structurally identical region set of a
// later tree rebinds them. Not thread-safe; one per ResolveSession.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "tree/cru_tree.hpp"

namespace treesat {

class FrontierCache {
 public:
  /// A stored frontier: two exact-size blocks (load[] then host[]; cut
  /// offsets then cut positions), so an entry costs no more per-entry
  /// bookkeeping than one vector would. Point i's cut is
  /// cut_positions()[cut_offsets()[i], cut_offsets()[i+1]). Every Frontier
  /// is well-formed: finite coordinates sorted by load, offsets ascending
  /// from 0 to the number of positions, each cut strictly increasing.
  class Frontier {
   public:
    Frontier() = default;
    /// Copies the arrays (cut_offsets holds load.size() + 1 entries);
    /// throws InvalidArgument unless they form a well-formed frontier.
    Frontier(std::span<const double> load, std::span<const double> host,
             std::span<const std::uint32_t> cut_offsets, std::span<const std::uint32_t> cut);
    Frontier(const Frontier& other);
    Frontier& operator=(const Frontier& other);
    Frontier(Frontier&&) noexcept = default;
    Frontier& operator=(Frontier&&) noexcept = default;

    [[nodiscard]] std::size_t size() const { return points_; }
    [[nodiscard]] const double* load() const { return coords_.get(); }
    [[nodiscard]] const double* host() const { return coords_.get() + points_; }
    [[nodiscard]] std::span<const std::uint32_t> cut_offsets() const {
      return {cuts_.get(), points_ + std::size_t{1}};
    }
    [[nodiscard]] std::span<const std::uint32_t> cut_positions() const {
      return {cuts_.get() + points_ + 1, positions_};
    }
    [[nodiscard]] std::span<const std::uint32_t> cut(std::size_t i) const {
      const std::uint32_t* offsets = cuts_.get();
      return {offsets + points_ + 1 + offsets[i], offsets + points_ + 1 + offsets[i + 1]};
    }
    [[nodiscard]] std::size_t bytes() const {
      return points_ * 2 * sizeof(double) + (points_ + 1 + positions_) * sizeof(std::uint32_t);
    }

   private:
    std::unique_ptr<double[]> coords_;
    std::unique_ptr<std::uint32_t[]> cuts_;
    std::uint32_t points_ = 0;
    std::uint32_t positions_ = 0;
  };

  /// One entry in serializable form (SessionState and the snapshot codec
  /// carry these): the content key words, the frontier, and the attempt
  /// stamp of the entry's last use.
  struct Record {
    std::vector<std::uint64_t> key_words;
    Frontier frontier;
    std::size_t last_used = 0;
  };

  /// Exact content encoding of a region set plus its hash.
  struct Key {
    std::vector<std::uint64_t> words;
    std::size_t hash = 0;
    friend bool operator==(const Key& a, const Key& b) { return a.words == b.words; }
  };

  struct Entry {
    Frontier frontier;
    /// Stamp of the last solve *attempt* that touched the entry. Attempts
    /// advance even when a resolve throws and rolls back, so a retry never
    /// confuses the aborted attempt's stamps with its own fresh work.
    std::size_t last_used = 0;
  };

  /// One colour of the instance being solved, keyed: the colour key is the
  /// regions' keys in sequence, each prefixed by its node count, and the
  /// region keys double as region-cache keys (their words are
  /// offset-independent). `nodes` is the canonical enumeration (each
  /// region's preorder, in regions_of order); region k owns
  /// nodes[offsets[k], offsets[k+1]).
  struct Colour {
    Key key;
    std::vector<Key> regions;
    std::vector<CruId> nodes;
    std::vector<std::uint32_t> offsets;
  };

  /// What the current solve reused (ResolveStats' reuse counters).
  struct Tally {
    std::size_t regions_reused = 0;
    std::size_t regions_recomputed = 0;
    std::size_t colours_total = 0;
    std::size_t colours_reused = 0;
  };

  /// Starts a solve attempt: stamps use `attempt`, the tally resets.
  void begin(std::size_t attempt);
  [[nodiscard]] const Tally& tally() const { return tally_; }

  /// Keys the colour whose regions are `regions` (regions_of order), and
  /// records each node's canonical position in `position` (indexed by node
  /// id, sized to the tree).
  [[nodiscard]] Colour key(const CruTree& tree, const std::vector<CruId>& regions,
                           std::vector<std::uint32_t>& position) const;

  /// Lookups stamp the entry and tally it: reuse when it survived from an
  /// earlier attempt, recomputation when it was stored earlier in this one
  /// (two content-identical colours or regions are deduplicated fresh
  /// work, not state that survived a perturbation). A colour hit also
  /// stamps the colour's region entries: a later localized change falls
  /// back to them, so aging must not evict what a hit still depends on.
  [[nodiscard]] const Frontier* find_colour(const Colour& colour);
  [[nodiscard]] const Frontier* find_region(const Key& key);
  /// Stores a frontier built on a miss (tallied as recomputed for regions).
  const Frontier& store_colour(const Key& key, Frontier frontier);
  const Frontier& store_region(const Key& key, Frontier frontier);

  /// Drops entries no attempt touched in the last `retain` attempts.
  void age(std::size_t attempt, std::size_t retain);
  [[nodiscard]] std::size_t entries() const { return colours_.size() + regions_.size(); }

  /// Bytes retained by both caches: entry storage, key words, and each
  /// entry's hash-node footprint. Deterministic for a given history.
  [[nodiscard]] std::size_t bytes() const;

  /// Entries sorted by key words, so exporting twice yields identical bytes.
  [[nodiscard]] std::vector<Record> export_colours() const;
  [[nodiscard]] std::vector<Record> export_regions() const;
  /// Adopts exported entries, moving their keys and frontiers in. Throws
  /// InvalidArgument on anything a solve could not have stored: keys that
  /// are not whole node encodings, empty frontiers, cut positions outside
  /// the key's nodes, stamps ahead of `attempt`, duplicates. (A Frontier
  /// is well-formed by construction.)
  void import(std::vector<Record> colours, std::vector<Record> regions, std::size_t attempt);

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };
  using Map = std::unordered_map<Key, Entry, KeyHash>;

  Map colours_;
  Map regions_;
  std::size_t attempt_ = 0;
  Tally tally_;
};

}  // namespace treesat
