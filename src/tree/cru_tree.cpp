#include "tree/cru_tree.hpp"

#include <algorithm>

namespace treesat {

void CruTree::finalize() {
  const std::size_t n = nodes_.size();
  TS_CHECK(n > 0, "finalize on empty tree");

  preorder_.clear();
  postorder_.clear();
  leaf_order_.clear();
  leaf_span_.assign(n, LeafSpan{});
  depth_.assign(n, 0);
  subtree_s_.assign(n, 0.0);
  tin_.assign(n, 0);
  tout_.assign(n, 0);
  total_h_ = 0.0;

  // Iterative DFS producing preorder on push and postorder on pop, honouring
  // child order (children pushed right to left so the leftmost pops first).
  struct Frame {
    CruId node;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack{{root(), 0}};
  std::size_t clock = 0;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const CruNode& nd = nodes_[f.node.index()];
    if (f.next_child == 0) {  // first visit
      tin_[f.node.index()] = clock++;
      preorder_.push_back(f.node);
      if (f.node != root()) {
        depth_[f.node.index()] = depth_[nd.parent.index()] + 1;
      }
      if (nd.is_leaf()) {
        leaf_span_[f.node.index()] = LeafSpan{leaf_order_.size(), leaf_order_.size()};
        leaf_order_.push_back(f.node);
      }
    }
    if (f.next_child < nd.children.size()) {
      const CruId child = nd.children[f.next_child++];
      stack.push_back(Frame{child, 0});
      continue;
    }
    // last visit
    tout_[f.node.index()] = clock++;
    postorder_.push_back(f.node);
    stack.pop_back();
  }
  TS_CHECK(preorder_.size() == n, "DFS did not reach every node; tree is disconnected");

  for (const CruId v : postorder_) {
    const CruNode& nd = nodes_[v.index()];
    total_h_ += nd.host_time;
    double s_sum = nd.sat_time;
    if (!nd.is_leaf()) {
      LeafSpan span{leaf_order_.size(), 0};
      for (const CruId c : nd.children) {
        s_sum += subtree_s_[c.index()];
        span.first = std::min(span.first, leaf_span_[c.index()].first);
        span.last = std::max(span.last, leaf_span_[c.index()].last);
      }
      leaf_span_[v.index()] = span;
    }
    subtree_s_[v.index()] = s_sum;
  }
}

bool CruTree::is_ancestor_or_self(CruId u, CruId v) const {
  TS_REQUIRE(u.valid() && u.index() < size(), "is_ancestor_or_self: bad node " << u);
  TS_REQUIRE(v.valid() && v.index() < size(), "is_ancestor_or_self: bad node " << v);
  return tin_[u.index()] <= tin_[v.index()] && tout_[v.index()] <= tout_[u.index()];
}

CruId CruTree::by_name(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return CruId{i};
  }
  throw InvalidArgument("CruTree::by_name: no node named '" + name + "'");
}

CruId CruTreeBuilder::root(std::string name, double host_time) {
  TS_REQUIRE(nodes_.empty(), "root() must be the first node added");
  TS_REQUIRE(host_time >= 0.0, "root: negative host_time " << host_time);
  CruNode node;
  node.name = std::move(name);
  node.kind = CruKind::kCompute;
  node.host_time = host_time;
  node.sat_time = 0.0;  // the root never runs on a satellite
  return add_node(std::move(node), CruId{});
}

CruId CruTreeBuilder::compute(CruId parent, std::string name, double host_time, double sat_time,
                              double comm_up) {
  TS_REQUIRE(host_time >= 0.0, "compute: negative host_time " << host_time);
  TS_REQUIRE(sat_time >= 0.0, "compute: negative sat_time " << sat_time);
  TS_REQUIRE(comm_up >= 0.0, "compute: negative comm_up " << comm_up);
  CruNode node;
  node.name = std::move(name);
  node.kind = CruKind::kCompute;
  node.host_time = host_time;
  node.sat_time = sat_time;
  node.comm_up = comm_up;
  return add_node(std::move(node), parent);
}

CruId CruTreeBuilder::sensor(CruId parent, std::string name, SatelliteId satellite,
                             double comm_up) {
  TS_REQUIRE(satellite.valid(), "sensor: invalid satellite id");
  TS_REQUIRE(satellite.index() <= kMaxSatelliteId,
             "sensor: satellite id " << satellite << " exceeds the cap of " << kMaxSatelliteId);
  TS_REQUIRE(comm_up >= 0.0, "sensor: negative comm_up " << comm_up);
  CruNode node;
  node.name = std::move(name);
  node.kind = CruKind::kSensor;
  node.comm_up = comm_up;
  node.satellite = satellite;
  satellite_count_ = std::max(satellite_count_, satellite.index() + 1);
  return add_node(std::move(node), parent);
}

CruId CruTreeBuilder::add_node(CruNode node, CruId parent) {
  if (!nodes_.empty()) {
    TS_REQUIRE(parent.valid() && parent.index() < nodes_.size(),
               "add_node: bad parent id " << parent);
    TS_REQUIRE(!nodes_[parent.index()].is_sensor(), "add_node: sensors cannot have children");
  }
  const CruId id{nodes_.size()};
  node.parent = parent;
  nodes_.push_back(std::move(node));
  if (parent.valid()) {
    nodes_[parent.index()].children.push_back(id);
  }
  return id;
}

CruTree CruTreeBuilder::build() {
  TS_REQUIRE(!nodes_.empty(), "build: tree has no root");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const CruNode& nd = nodes_[i];
    TS_REQUIRE(!(nd.kind == CruKind::kCompute && nd.is_leaf()),
               "build: compute CRU '" << nd.name
                                      << "' is a leaf; every leaf must be a sensor "
                                         "(attach a sensor or remove the node)");
  }
  CruTree tree;
  tree.nodes_ = std::move(nodes_);
  tree.satellite_count_ = satellite_count_;
  nodes_.clear();
  satellite_count_ = 0;
  tree.finalize();
  return tree;
}

}  // namespace treesat
