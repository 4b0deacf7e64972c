#include "core/frontier_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace treesat {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::size_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

/// Node count encoded by a region-cache key: 5 words per node (parent
/// position, sensor flag, three cost bit patterns) -- see key().
std::size_t region_key_nodes(const std::vector<std::uint64_t>& words) {
  TS_REQUIRE(!words.empty() && words.size() % 5 == 0,
             "import_state: region cache key of " << words.size()
                                                  << " words is not a whole node encoding");
  return words.size() / 5;
}

/// Node count encoded by a colour-cache key: a sequence of
/// [region size][5 words per node...] blocks.
std::size_t colour_key_nodes(const std::vector<std::uint64_t>& words) {
  std::size_t total = 0;
  std::size_t i = 0;
  while (i < words.size()) {
    const std::uint64_t n = words[i];
    TS_REQUIRE(n >= 1 && n <= words.size(),
               "import_state: colour cache key declares a region of " << n << " nodes in "
                                                                      << words.size()
                                                                      << " words");
    TS_REQUIRE(i + 1 + 5 * static_cast<std::size_t>(n) <= words.size(),
               "import_state: colour cache key truncated mid-region");
    total += static_cast<std::size_t>(n);
    i += 1 + 5 * static_cast<std::size_t>(n);
  }
  TS_REQUIRE(total > 0, "import_state: empty colour cache key");
  return total;
}

/// What import checks beyond the Frontier's own invariants: the frontier is
/// non-empty and every cut position is inside its key's `nodes`.
void validate(const FrontierCache::Frontier& f, std::size_t nodes) {
  TS_REQUIRE(f.size() > 0, "import_state: empty cached frontier");
  for (std::size_t i = 0; i < f.size(); ++i) {
    // Cuts are increasing, so the last position is the largest.
    const std::span<const std::uint32_t> cut = f.cut(i);
    TS_REQUIRE(cut.empty() || cut.back() < nodes,
               "import_state: cached cut position " << cut.back() << " is outside its key's "
                                                    << nodes << " nodes");
  }
}

template <typename T>
std::unique_ptr<T[]> copy_block(const T* from, std::size_t n) {
  if (from == nullptr) return nullptr;
  auto block = std::make_unique_for_overwrite<T[]>(n);
  std::copy(from, from + n, block.get());
  return block;
}

}  // namespace

FrontierCache::Frontier::Frontier(std::span<const double> load, std::span<const double> host,
                                  std::span<const std::uint32_t> cut_offsets,
                                  std::span<const std::uint32_t> cut)
    : coords_(std::make_unique_for_overwrite<double[]>(2 * load.size())),
      cuts_(std::make_unique_for_overwrite<std::uint32_t[]>(cut_offsets.size() + cut.size())),
      points_(static_cast<std::uint32_t>(load.size())),
      positions_(static_cast<std::uint32_t>(cut.size())) {
  TS_REQUIRE(host.size() == load.size() && cut_offsets.size() == load.size() + 1,
             "Frontier: " << load.size() << " points need as many host values and one more "
                          << "cut offset");
  // Offsets first: every cut slice below must lie inside the positions.
  TS_REQUIRE(cut_offsets.front() == 0 && std::is_sorted(cut_offsets.begin(), cut_offsets.end()) &&
                 cut_offsets.back() == cut.size(),
             "Frontier: cut offsets do not ascend through the cut positions");
  for (std::size_t i = 0; i < load.size(); ++i) {
    TS_REQUIRE(std::isfinite(load[i]) && std::isfinite(host[i]),
               "Frontier: non-finite coordinate");
    TS_REQUIRE(i == 0 || load[i] >= load[i - 1], "Frontier: points not sorted by load");
    bool increasing = true;  // no early exit: the loop vectorizes
    for (std::uint32_t k = cut_offsets[i] + 1; k < cut_offsets[i + 1]; ++k) {
      increasing &= cut[k] > cut[k - 1];
    }
    TS_REQUIRE(increasing, "Frontier: cut positions must be strictly increasing");
  }
  std::copy(load.begin(), load.end(), coords_.get());
  std::copy(host.begin(), host.end(), coords_.get() + points_);
  std::copy(cut_offsets.begin(), cut_offsets.end(), cuts_.get());
  std::copy(cut.begin(), cut.end(), cuts_.get() + cut_offsets.size());
}

FrontierCache::Frontier::Frontier(const Frontier& other)
    : coords_(copy_block(other.coords_.get(), 2 * std::size_t{other.points_})),
      cuts_(copy_block(other.cuts_.get(),
                       std::size_t{other.points_} + 1 + other.positions_)),
      points_(other.points_),
      positions_(other.positions_) {}

FrontierCache::Frontier& FrontierCache::Frontier::operator=(const Frontier& other) {
  if (this != &other) *this = Frontier(other);
  return *this;
}

void FrontierCache::begin(std::size_t attempt) {
  attempt_ = attempt;
  tally_ = Tally{};
}

FrontierCache::Colour FrontierCache::key(const CruTree& tree, const std::vector<CruId>& regions,
                                         std::vector<std::uint32_t>& position) const {
  Colour out;
  out.regions.reserve(regions.size());
  std::vector<CruId> stack;
  for (const CruId r : regions) {
    const auto offset = static_cast<std::uint32_t>(out.nodes.size());
    out.offsets.push_back(offset);
    // The region's preorder, children left to right.
    stack.assign(1, r);
    while (!stack.empty()) {
      const CruId v = stack.back();
      stack.pop_back();
      out.nodes.push_back(v);
      const std::vector<CruId>& ch = tree.node(v).children;
      for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
    }
    // Region-relative structure plus the bit pattern of every cost.
    Key region;
    region.words.reserve(5 * (out.nodes.size() - offset));
    for (std::size_t pos = offset; pos < out.nodes.size(); ++pos) {
      const CruNode& nd = tree.node(out.nodes[pos]);
      position[out.nodes[pos].index()] = static_cast<std::uint32_t>(pos);
      region.words.push_back(pos == offset ? ~std::uint64_t{0}
                                           : position[nd.parent.index()] - offset);
      region.words.push_back(nd.is_sensor() ? 1 : 0);
      region.words.push_back(bits(nd.host_time));
      region.words.push_back(bits(nd.sat_time));
      region.words.push_back(bits(nd.comm_up));
    }
    region.hash = fnv1a(region.words);
    out.key.words.push_back(out.nodes.size() - offset);
    out.key.words.insert(out.key.words.end(), region.words.begin(), region.words.end());
    out.regions.push_back(std::move(region));
  }
  out.offsets.push_back(static_cast<std::uint32_t>(out.nodes.size()));
  out.key.hash = fnv1a(out.key.words);
  return out;
}

const FrontierCache::Frontier* FrontierCache::find_colour(const Colour& colour) {
  ++tally_.colours_total;
  const auto hit = colours_.find(colour.key);
  if (hit == colours_.end()) return nullptr;
  if (hit->second.last_used < attempt_) {
    tally_.regions_reused += colour.regions.size();
    ++tally_.colours_reused;
  } else {
    tally_.regions_recomputed += colour.regions.size();
  }
  hit->second.last_used = attempt_;
  for (const Key& region : colour.regions) {
    const auto region_hit = regions_.find(region);
    if (region_hit != regions_.end()) region_hit->second.last_used = attempt_;
  }
  return &hit->second.frontier;
}

const FrontierCache::Frontier* FrontierCache::find_region(const Key& key) {
  const auto hit = regions_.find(key);
  if (hit == regions_.end()) return nullptr;
  if (hit->second.last_used < attempt_) {
    ++tally_.regions_reused;
  } else {
    ++tally_.regions_recomputed;
  }
  hit->second.last_used = attempt_;
  return &hit->second.frontier;
}

const FrontierCache::Frontier& FrontierCache::store_colour(const Key& key, Frontier frontier) {
  // Keys are stored as exact-capacity copies: bytes() charges capacities,
  // which must match bit for bit across export/import.
  return colours_.emplace(key, Entry{std::move(frontier), attempt_}).first->second.frontier;
}

const FrontierCache::Frontier& FrontierCache::store_region(const Key& key, Frontier frontier) {
  ++tally_.regions_recomputed;
  return regions_.emplace(key, Entry{std::move(frontier), attempt_}).first->second.frontier;
}

void FrontierCache::age(std::size_t attempt, std::size_t retain) {
  for (Map* map : {&colours_, &regions_}) {
    std::erase_if(*map, [&](const auto& kv) { return kv.second.last_used + retain < attempt; });
  }
}

std::size_t FrontierCache::bytes() const {
  // Capacity-true accounting: every stored key is an exact-capacity copy
  // and every frontier an exact-size block, and each entry additionally
  // charges its hash-node footprint (the pair plus two pointers of chain
  // overhead as a floor). Bucket arrays are excluded: bucket_count()
  // depends on insertion/erasure history and would make the gauge differ
  // across export/import.
  constexpr std::size_t kEntryOverhead = sizeof(Map::value_type) + 2 * sizeof(void*);
  std::size_t bytes = 0;
  for (const Map* map : {&colours_, &regions_}) {
    for (const auto& [key, entry] : *map) {
      bytes += kEntryOverhead + key.words.capacity() * sizeof(std::uint64_t) +
               entry.frontier.bytes();
    }
  }
  return bytes;
}

namespace {

std::vector<FrontierCache::Record> dump(const auto& map) {
  std::vector<FrontierCache::Record> records;
  records.reserve(map.size());
  for (const auto& [key, entry] : map) {
    records.push_back({key.words, entry.frontier, entry.last_used});
  }
  std::sort(records.begin(), records.end(),
            [](const FrontierCache::Record& a, const FrontierCache::Record& b) {
              return a.key_words < b.key_words;
            });
  return records;
}

}  // namespace

std::vector<FrontierCache::Record> FrontierCache::export_colours() const { return dump(colours_); }
std::vector<FrontierCache::Record> FrontierCache::export_regions() const { return dump(regions_); }

void FrontierCache::import(std::vector<Record> colours, std::vector<Record> regions,
                           std::size_t attempt) {
  const auto adopt = [attempt](std::vector<Record>& records, bool colour_level, Map& map) {
    for (Record& r : records) {
      validate(r.frontier,
               colour_level ? colour_key_nodes(r.key_words) : region_key_nodes(r.key_words));
      TS_REQUIRE(r.last_used <= attempt, "import_state: cache stamp "
                                             << r.last_used << " is ahead of attempt clock "
                                             << attempt);
      // bytes() charges key capacities, which must match the exporting
      // session's exact-capacity keys bit for bit.
      r.key_words.shrink_to_fit();
      const std::size_t hash = fnv1a(r.key_words);
      TS_REQUIRE(map.emplace(Key{std::move(r.key_words), hash},
                             Entry{std::move(r.frontier), r.last_used})
                     .second,
                 "import_state: duplicate cache key");
    }
  };
  adopt(colours, /*colour_level=*/true, colours_);
  adopt(regions, /*colour_level=*/false, regions_);
}

}  // namespace treesat
