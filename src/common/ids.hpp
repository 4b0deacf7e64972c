// Strongly typed index/id wrappers.
//
// treesat indexes CRUs, satellites, graph vertices and graph edges with dense
// 32-bit indices into arena vectors. Mixing those spaces up is the classic
// source of silent bugs in graph code, so each space gets its own wrapper
// type. The wrappers are trivially copyable, hashable and totally ordered,
// and intentionally do NOT convert to each other.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>

#include "common/check.hpp"

namespace treesat {

namespace detail {

/// CRTP-free tagged index. `Tag` is an empty struct unique per index space.
template <typename Tag>
class TaggedIndex {
 public:
  using underlying_type = std::uint32_t;

  /// Sentinel for "no value"; default-constructed indices are invalid.
  static constexpr underlying_type kInvalid = std::numeric_limits<underlying_type>::max();

  constexpr TaggedIndex() = default;
  constexpr explicit TaggedIndex(underlying_type value) : value_(value) {}
  /// From a size: a loop counter, or a number read from outside. Throws
  /// InvalidArgument when `value` does not fit 32 bits, instead of wrapping
  /// to a small valid index.
  constexpr explicit TaggedIndex(std::size_t value)
      : value_(static_cast<underlying_type>(value)) {
    if (value > std::numeric_limits<underlying_type>::max()) {
      throw InvalidArgument("index " + std::to_string(value) + " does not fit a 32-bit id");
    }
  }

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr bool operator==(TaggedIndex a, TaggedIndex b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(TaggedIndex a, TaggedIndex b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(TaggedIndex a, TaggedIndex b) { return a.value_ < b.value_; }
  friend constexpr bool operator<=(TaggedIndex a, TaggedIndex b) { return a.value_ <= b.value_; }
  friend constexpr bool operator>(TaggedIndex a, TaggedIndex b) { return a.value_ > b.value_; }
  friend constexpr bool operator>=(TaggedIndex a, TaggedIndex b) { return a.value_ >= b.value_; }

  friend std::ostream& operator<<(std::ostream& os, TaggedIndex id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  underlying_type value_ = kInvalid;
};

}  // namespace detail

/// Index of a CRU (Context Reasoning Unit) within a CruTree.
using CruId = detail::TaggedIndex<struct CruIdTag>;

/// Index of a satellite within a HostSatelliteSystem. Satellites double as
/// "colours" in the paper's colouring scheme, so this type is also the colour
/// type; the host itself has no SatelliteId.
using SatelliteId = detail::TaggedIndex<struct SatelliteIdTag>;

/// Index of a vertex in a doubly weighted graph.
using VertexId = detail::TaggedIndex<struct VertexIdTag>;

/// Index of an edge in a doubly weighted graph (edges are first-class because
/// assignment graphs are multigraphs: parallel edges with distinct weights).
using EdgeId = detail::TaggedIndex<struct EdgeIdTag>;

}  // namespace treesat

namespace std {

template <typename Tag>
struct hash<treesat::detail::TaggedIndex<Tag>> {
  std::size_t operator()(treesat::detail::TaggedIndex<Tag> id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};

}  // namespace std
