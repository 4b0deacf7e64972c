// The CRU (Context Reasoning Unit) tree -- paper §3's task model.
//
// A context reasoning procedure is a rooted ordered tree:
//   * leaves are *sensors*: they capture raw context, perform no processing
//     (h = s = 0) and are physically wired to a specific satellite -- the
//     pinning that distinguishes this paper from Bokhari's original problem;
//   * internal nodes are *compute CRUs* with two profiled execution times,
//     h_i on the host and s_i on the node's correspondent satellite;
//   * every node i carries comm_up(i) = c_{i,parent(i)}: the time to ship one
//     frame of its output across the satellite->host link. It is paid exactly
//     when the tree edge above i is cut by an assignment (i stays on the
//     satellite side / is a sensor, parent(i) runs on the host). For sensors
//     this is the raw-frame cost c_{s,j} of §5.3.
//
// Children are *ordered*; the left-to-right order defines the planar
// embedding from which the assignment graph (paper Fig 6) is derived: a
// subtree always spans a contiguous interval of the left-to-right sensor
// sequence, which is precomputed here as `leaf_span`.
//
// The root always executes on the host (it feeds the context-aware
// application running there; the paper's assignment graph cannot cut above
// the root either). Trees are immutable once built -- construct them with
// CruTreeBuilder -- so all derived indices (preorder, postorder, leaf order,
// leaf spans, depths, subtree satellite-time sums) are computed once.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace treesat {

/// Node role within a CRU tree.
enum class CruKind : std::uint8_t {
  kCompute,  ///< internal reasoning unit; may run on host or correspondent satellite
  kSensor,   ///< leaf; pinned to a satellite; zero processing cost
};

/// One node of a CRU tree.
struct CruNode {
  std::string name;                 ///< human-readable label ("CRU6", "ECG", ...)
  CruKind kind = CruKind::kCompute;
  CruId parent;                     ///< invalid for the root
  std::vector<CruId> children;      ///< ordered left to right
  double host_time = 0.0;           ///< h_i: processing time on the host
  double sat_time = 0.0;            ///< s_i: processing time on the correspondent satellite
  double comm_up = 0.0;             ///< c_{i,parent}: frame transfer time across the link
  SatelliteId satellite;            ///< pinned satellite; valid only for sensors

  [[nodiscard]] bool is_sensor() const { return kind == CruKind::kSensor; }
  [[nodiscard]] bool is_leaf() const { return children.empty(); }
};

/// Contiguous interval [first, last] (inclusive) of left-to-right sensor
/// positions covered by a subtree.
struct LeafSpan {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t width() const { return last - first + 1; }
  friend bool operator==(const LeafSpan&, const LeafSpan&) = default;
};

class CruTreeBuilder;

/// Immutable rooted ordered CRU tree with precomputed structural indices.
class CruTree {
 public:
  /// Number of nodes (sensors included).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  /// Number of sensor leaves.
  [[nodiscard]] std::size_t sensor_count() const { return leaf_order_.size(); }
  /// Number of distinct satellites referenced by sensors (max id + 1;
  /// satellites with no sensor attached simply never receive work).
  [[nodiscard]] std::size_t satellite_count() const { return satellite_count_; }

  [[nodiscard]] CruId root() const { return CruId{0u}; }
  [[nodiscard]] const CruNode& node(CruId id) const { return nodes_.at(id.index()); }
  [[nodiscard]] const CruNode& operator[](CruId id) const { return node(id); }

  /// All node ids in preorder (root first, children left to right).
  [[nodiscard]] std::span<const CruId> preorder() const { return preorder_; }
  /// All node ids in postorder (children before parents).
  [[nodiscard]] std::span<const CruId> postorder() const { return postorder_; }
  /// Sensor ids in left-to-right planar order.
  [[nodiscard]] std::span<const CruId> sensors_left_to_right() const { return leaf_order_; }

  /// The [first,last] sensor positions covered by subtree(v).
  [[nodiscard]] LeafSpan leaf_span(CruId v) const { return leaf_span_.at(v.index()); }
  /// Depth of v (root = 0).
  [[nodiscard]] std::size_t depth(CruId v) const { return depth_.at(v.index()); }
  /// Σ s_i over subtree(v) -- the satellite-side work below and including v
  /// (sensors contribute 0). Used for β labelling (paper §5.3).
  [[nodiscard]] double subtree_sat_time(CruId v) const { return subtree_s_.at(v.index()); }
  /// Σ h_i over the whole tree; the delay of the trivial all-on-host
  /// assignment is total_host_time() + raw sensor shipping.
  [[nodiscard]] double total_host_time() const { return total_h_; }

  /// True when u is an ancestor of v or u == v.
  [[nodiscard]] bool is_ancestor_or_self(CruId u, CruId v) const;

  /// Node lookup by (unique) name; throws InvalidArgument when absent.
  [[nodiscard]] CruId by_name(const std::string& name) const;

 private:
  friend class CruTreeBuilder;
  CruTree() = default;
  void finalize();  // computes all derived indices; called by the builder

  std::vector<CruNode> nodes_;
  std::size_t satellite_count_ = 0;
  std::vector<CruId> preorder_;
  std::vector<CruId> postorder_;
  std::vector<CruId> leaf_order_;
  std::vector<LeafSpan> leaf_span_;
  std::vector<std::size_t> depth_;
  std::vector<double> subtree_s_;
  // Preorder entry/exit times for O(1) ancestor tests.
  std::vector<std::size_t> tin_, tout_;
  double total_h_ = 0.0;
};

/// Incremental builder; the only way to construct a CruTree. Enforces the
/// model's structural invariants at build():
///   * exactly one root, which is a compute node;
///   * every leaf is a sensor and every sensor is a leaf;
///   * all costs non-negative; sensors cost-free except comm_up.
class CruTreeBuilder {
 public:
  /// Largest satellite id a sensor may name. Solvers size per-colour state
  /// by satellite count, so an unbounded id (e.g. a wrapped "-1") would
  /// turn one sensor into billions of colours; every path that adds
  /// sensors (the tree text parser, subtree insertion, snapshot decode)
  /// goes through sensor() and this cap.
  static constexpr std::size_t kMaxSatelliteId = (std::size_t{1} << 16) - 1;

  /// Creates the root compute CRU. Must be called exactly once, first.
  /// The root's comm_up is irrelevant (its edge cannot be cut) and fixed at 0.
  CruId root(std::string name, double host_time);

  /// Adds an internal compute CRU under `parent`.
  CruId compute(CruId parent, std::string name, double host_time, double sat_time,
                double comm_up);

  /// Adds a sensor leaf under `parent`, wired to `satellite` (at most
  /// kMaxSatelliteId). `comm_up` is the raw-frame transfer time c_{s,parent}.
  CruId sensor(CruId parent, std::string name, SatelliteId satellite, double comm_up);

  /// Validates and freezes the tree. The builder is left empty.
  [[nodiscard]] CruTree build();

 private:
  CruId add_node(CruNode node, CruId parent);
  std::vector<CruNode> nodes_;
  std::size_t satellite_count_ = 0;
};

}  // namespace treesat
