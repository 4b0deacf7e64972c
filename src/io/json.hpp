// JSON export of treesat's result objects -- the machine-readable side of
// the experiment pipeline (the Table writer covers the human-readable side).
// Emits standards-compliant JSON with escaped strings; numbers use
// round-trippable shortest formatting. Writer-only by design: treesat's
// ingestion format is the line-based tree text (tree/serialize.hpp), which
// stays trivially diffable; JSON is for dashboards and plotting scripts.
#pragma once

#include <string>

#include "core/assignment.hpp"
#include "core/incremental.hpp"
#include "core/solver.hpp"
#include "sim/simulator.hpp"
#include "tree/cru_tree.hpp"

namespace treesat {

/// The tree with per-node costs and structure.
[[nodiscard]] std::string tree_to_json(const CruTree& tree);

/// Placement of every CRU plus the delay breakdown.
[[nodiscard]] std::string assignment_to_json(const Assignment& assignment);

/// A facade solve: method (requested and resolved), exactness, value,
/// timing, the method-specific stats variant, and the assignment.
[[nodiscard]] std::string report_to_json(const SolveReport& report);

/// One ResolveSession step's warm/cold provenance (core/incremental.hpp):
/// which path ran, the cold reason when one did, and the reuse counters.
/// Deliberately excludes the wall clock -- this object appears in
/// byte-identity-checked response streams (service/service.hpp); timing
/// lives in the report's own wall_seconds and the service telemetry.
[[nodiscard]] std::string resolve_stats_to_json(const ResolveStats& stats);

/// A session re-solve: report_to_json plus a "resolve" section carrying
/// the warm/cold provenance of the step that produced it.
/// (The serving layer's own telemetry document lives with its type:
/// service_telemetry_to_json in service/telemetry.hpp -- io stays free of
/// upward dependencies and serializes core types only.)
[[nodiscard]] std::string report_to_json(const SolveReport& report,
                                         const ResolveStats& resolve);

/// A simulation: per-frame traces and resource busy times.
[[nodiscard]] std::string sim_to_json(const SimResult& result);

/// Escapes a string for inclusion inside JSON quotes.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace treesat
