#include "io/json.hpp"

#include <sstream>
#include <type_traits>
#include <variant>

#include "common/format.hpp"

namespace treesat {

namespace {

/// Shortest round-trippable double formatting.
std::string number(double v) { return shortest_round_trip(v); }

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string tree_to_json(const CruTree& tree) {
  std::ostringstream os;
  os << "{\"nodes\":[";
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    if (i) os << ',';
    os << "{\"id\":" << i << ",\"name\":\"" << json_escape(nd.name) << "\",\"kind\":\""
       << (nd.is_sensor() ? "sensor" : "compute") << "\",\"parent\":";
    if (nd.parent.valid()) {
      os << nd.parent.value();
    } else {
      os << "null";
    }
    os << ",\"host_time\":" << number(nd.host_time)
       << ",\"sat_time\":" << number(nd.sat_time)
       << ",\"comm_up\":" << number(nd.comm_up);
    if (nd.satellite.valid()) {
      os << ",\"satellite\":" << nd.satellite.value();
    }
    os << '}';
  }
  os << "],\"sensor_count\":" << tree.sensor_count()
     << ",\"satellite_count\":" << tree.satellite_count() << '}';
  return os.str();
}

std::string assignment_to_json(const Assignment& assignment) {
  const CruTree& tree = assignment.tree();
  const DelayBreakdown d = assignment.delay();
  std::ostringstream os;
  os << "{\"placements\":[";
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (i) os << ',';
    const SatelliteId sat = assignment.satellite_of(CruId{i});
    os << "{\"name\":\"" << json_escape(tree.node(CruId{i}).name) << "\",\"on\":";
    if (sat.valid()) {
      os << "\"satellite\",\"satellite\":" << sat.value();
    } else {
      os << "\"host\"";
    }
    os << '}';
  }
  os << "],\"cut\":[";
  for (std::size_t i = 0; i < assignment.cut_nodes().size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(tree.node(assignment.cut_nodes()[i]).name) << '"';
  }
  os << "],\"delay\":{\"host_time\":" << number(d.host_time)
     << ",\"bottleneck\":" << number(d.bottleneck) << ",\"end_to_end\":"
     << number(d.end_to_end()) << ",\"satellite_time\":[";
  for (std::size_t c = 0; c < d.satellite_time.size(); ++c) {
    if (c) os << ',';
    os << number(d.satellite_time[c]);
  }
  os << "]}}";
  return os.str();
}

namespace {

std::string stats_to_json(const MethodStats& stats) {
  std::ostringstream os;
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          os << "null";
        } else if constexpr (std::is_same_v<T, ColouredSsbStats>) {
          os << "{\"iterations\":" << s.iterations
             << ",\"edges_eliminated\":" << s.edges_eliminated
             << ",\"regions_expanded\":" << s.regions_expanded
             << ",\"composite_edges\":" << s.composite_edges
             << ",\"expanded_edge_count\":" << s.expanded_edge_count
             << ",\"fallback_nodes\":" << s.fallback_nodes
             << ",\"used_fallback\":" << (s.used_fallback ? "true" : "false")
             << ",\"stalled\":" << (s.stalled ? "true" : "false")
             << ",\"delegated_to_dp\":" << (s.delegated_to_dp ? "true" : "false")
             << ",\"warm_started\":" << (s.warm_started ? "true" : "false") << '}';
        } else if constexpr (std::is_same_v<T, ParetoDpStats>) {
          os << "{\"max_region_frontier\":" << s.max_region_frontier
             << ",\"max_colour_frontier\":" << s.max_colour_frontier
             << ",\"candidates_swept\":" << s.candidates_swept
             << ",\"arena_bytes\":" << s.arena_bytes
             << ",\"peak_frontier\":" << s.peak_frontier
             << ",\"minkowski_merges\":" << s.minkowski_merges
             << ",\"merge_points_generated\":" << s.merge_points_generated
             << ",\"merge_points_kept\":" << s.merge_points_kept
             << ",\"prune_ratio\":" << number(s.prune_ratio()) << '}';
        } else if constexpr (std::is_same_v<T, ExhaustiveStats>) {
          os << "{\"assignments_enumerated\":" << s.assignments_enumerated << '}';
        } else if constexpr (std::is_same_v<T, BranchBoundStats>) {
          os << "{\"nodes_visited\":" << s.nodes_visited
             << ",\"nodes_pruned\":" << s.nodes_pruned << '}';
        } else if constexpr (std::is_same_v<T, GeneticStats>) {
          os << "{\"generations_run\":" << s.generations_run
             << ",\"evaluations\":" << s.evaluations << '}';
        } else if constexpr (std::is_same_v<T, LocalSearchStats>) {
          os << "{\"moves_applied\":" << s.moves_applied
             << ",\"restarts_run\":" << s.restarts_run << '}';
        } else if constexpr (std::is_same_v<T, AnnealingStats>) {
          os << "{\"steps_run\":" << s.steps_run
             << ",\"moves_accepted\":" << s.moves_accepted << '}';
        }
      },
      stats);
  return os.str();
}

}  // namespace

std::string report_to_json(const SolveReport& report) {
  std::ostringstream os;
  os << "{\"method\":\"" << method_name(report.method) << "\",\"requested\":\""
     << method_name(report.requested) << "\",\"exact\":"
     << (report.exact ? "true" : "false")
     << ",\"objective\":" << number(report.objective_value)
     << ",\"wall_seconds\":" << number(report.wall_seconds)
     << ",\"stats\":" << stats_to_json(report.stats)
     << ",\"assignment\":" << assignment_to_json(report.assignment) << '}';
  return os.str();
}

std::string resolve_stats_to_json(const ResolveStats& stats) {
  std::ostringstream os;
  os << "{\"path\":\"" << resolve_path_name(stats.path) << "\",\"step\":" << stats.step
     << ",\"cold_reason\":\"" << json_escape(stats.cold_reason) << '"'
     << ",\"regions_total\":" << stats.regions_total
     << ",\"regions_reused\":" << stats.regions_reused
     << ",\"regions_recomputed\":" << stats.regions_recomputed
     << ",\"colours_total\":" << stats.colours_total
     << ",\"colours_reused\":" << stats.colours_reused
     << ",\"cache_entries\":" << stats.cache_entries
     << ",\"incumbent_used\":" << (stats.incumbent_used ? "true" : "false")
     << ",\"pool_reuses\":" << stats.pool_reuses
     << ",\"pool_allocs\":" << stats.pool_allocs
     << ",\"pool_served_bytes\":" << stats.pool_served_bytes
     << ",\"pool_grown_bytes\":" << stats.pool_grown_bytes << '}';
  return os.str();
}

std::string report_to_json(const SolveReport& report, const ResolveStats& resolve) {
  std::ostringstream os;
  os << "{\"method\":\"" << method_name(report.method) << "\",\"requested\":\""
     << method_name(report.requested) << "\",\"exact\":"
     << (report.exact ? "true" : "false")
     << ",\"objective\":" << number(report.objective_value)
     << ",\"wall_seconds\":" << number(report.wall_seconds)
     << ",\"resolve\":" << resolve_stats_to_json(resolve)
     << ",\"stats\":" << stats_to_json(report.stats)
     << ",\"assignment\":" << assignment_to_json(report.assignment) << '}';
  return os.str();
}

std::string sim_to_json(const SimResult& result) {
  std::ostringstream os;
  os << "{\"frames\":[";
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    if (f) os << ',';
    os << "{\"release\":" << number(result.frames[f].release)
       << ",\"completion\":" << number(result.frames[f].completion)
       << ",\"latency\":" << number(result.frames[f].latency()) << '}';
  }
  os << "],\"makespan\":" << number(result.makespan)
     << ",\"mean_latency\":" << number(result.mean_latency)
     << ",\"max_latency\":" << number(result.max_latency)
     << ",\"throughput\":" << number(result.throughput())
     << ",\"host_busy\":" << number(result.host_busy) << ",\"sat_busy\":[";
  for (std::size_t c = 0; c < result.sat_busy.size(); ++c) {
    if (c) os << ',';
    os << number(result.sat_busy[c]);
  }
  os << "],\"uplink_busy\":[";
  for (std::size_t c = 0; c < result.uplink_busy.size(); ++c) {
    if (c) os << ',';
    os << number(result.uplink_busy[c]);
  }
  os << "]}";
  return os.str();
}

}  // namespace treesat
