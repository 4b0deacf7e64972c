#include "core/registry.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/format.hpp"

namespace treesat {

namespace {

const std::vector<MethodInfo>& registry_storage() {
  static const std::vector<MethodInfo> kRegistry = {
      {SolveMethod::kColouredSsb, method_name(SolveMethod::kColouredSsb), "§5.4",
       "the paper's adapted coloured SSB path search", /*exact=*/true, /*seeded=*/false,
       "expansion_cap,fallback_node_cap,delegate_on_cap,eager_expansion"},
      {SolveMethod::kParetoDp, method_name(SolveMethod::kParetoDp), "extension (DESIGN.md §6)",
       "Pareto-frontier dynamic program", /*exact=*/true, /*seeded=*/false,
       "max_frontier,dp_threads"},
      {SolveMethod::kExhaustive, method_name(SolveMethod::kExhaustive), "§3 (oracle)",
       "brute-force enumeration of every monotone cut", /*exact=*/true,
       /*seeded=*/false, "cap"},
      {SolveMethod::kBranchBound, method_name(SolveMethod::kBranchBound), "§6 future work",
       "branch-and-bound over cuts (exact on trees)", /*exact=*/true,
       /*seeded=*/false, "node_cap,greedy_incumbent"},
      {SolveMethod::kGenetic, method_name(SolveMethod::kGenetic), "§6 future work", "genetic algorithm",
       /*exact=*/false, /*seeded=*/true,
       "population,generations,tournament,elites,crossover_prob,mutation_prob"},
      {SolveMethod::kLocalSearch, method_name(SolveMethod::kLocalSearch), "§6 (comparison point)",
       "hill climbing with random restarts", /*exact=*/false, /*seeded=*/true,
       "restarts,max_moves"},
      {SolveMethod::kGreedy, method_name(SolveMethod::kGreedy), "§6 (comparison point)",
       "greedy bottleneck descent", /*exact=*/false, /*seeded=*/false, ""},
      {SolveMethod::kAnnealing, method_name(SolveMethod::kAnnealing), "§6 (comparison point)",
       "simulated annealing with geometric cooling", /*exact=*/false, /*seeded=*/true,
       "steps,initial_temperature,cooling"},
      {SolveMethod::kAutomatic, method_name(SolveMethod::kAutomatic), "facade",
       "inspects the instance and picks one of the above", /*exact=*/false,
       /*seeded=*/false, "exhaustive_cutoff"},
  };
  return kRegistry;
}

[[noreturn]] void bad_value(std::string_view key, std::string_view value) {
  throw InvalidArgument("parse_plan: cannot parse value '" + std::string(value) +
                        "' for key '" + std::string(key) + "'");
}

double parse_double(std::string_view key, std::string_view value) {
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) bad_value(key, value);
  return out;
}

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) bad_value(key, value);
  return out;
}

std::size_t parse_size(std::string_view key, std::string_view value) {
  return static_cast<std::size_t>(parse_u64(key, value));
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  bad_value(key, value);
}

[[noreturn]] void unknown_key(const MethodInfo& info, std::string_view key) {
  std::ostringstream oss;
  oss << "parse_plan: unknown key '" << key << "' for method '" << info.name << "'"
      << " (accepted: lambda,s_coeff,b_coeff,threads,deadline_ms,fail_fast,warm_start,"
      << "priority"
      << (info.seeded ? ",seed" : "");
  if (info.option_keys[0] != '\0') oss << ',' << info.option_keys;
  oss << ")";
  throw InvalidArgument(oss.str());
}

/// Objective coefficients must stay in the model's domain: silently
/// accepting nan or a negative weight would corrupt every comparison the
/// solvers make.
double parse_coefficient(std::string_view key, std::string_view value) {
  const double out = parse_double(key, value);
  if (!std::isfinite(out) || out < 0.0) {
    throw InvalidArgument("parse_plan: key '" + std::string(key) +
                          "' must be a finite non-negative number, got '" +
                          std::string(value) + "'");
  }
  return out;
}

/// The keys every method understands: the §4.1 objective weighting.
bool apply_objective_key(SsbObjective& objective, std::string_view key,
                         std::string_view value) {
  if (key == "lambda") {
    objective = SsbObjective::from_lambda(parse_double(key, value));
    return true;
  }
  if (key == "s_coeff") {
    objective.s_coeff = parse_coefficient(key, value);
    return true;
  }
  if (key == "b_coeff") {
    objective.b_coeff = parse_coefficient(key, value);
    return true;
  }
  return false;
}

/// The other common key family: the batch-execution knobs of
/// core/executor.hpp, accepted by every method and carried on the plan.
bool apply_executor_key(ExecutorOptions& executor, std::string_view key,
                        std::string_view value) {
  if (key == "threads") {
    if (value == "auto") {  // one worker per hardware thread
      executor.threads = 0;
      return true;
    }
    executor.threads = parse_size(key, value);
    if (executor.threads == 0) {
      throw InvalidArgument(
          "parse_plan: key 'threads' must be >= 1 or 'auto', got '" +
          std::string(value) + "' (omit the key for the single-threaded default)");
    }
    return true;
  }
  if (key == "deadline_ms") {
    const double ms = parse_double(key, value);
    if (!std::isfinite(ms) || ms < 0.0) {
      throw InvalidArgument("parse_plan: key 'deadline_ms' must be a finite "
                            "non-negative number, got '" +
                            std::string(value) + "'");
    }
    executor.deadline_seconds = ms / 1e3;
    return true;
  }
  if (key == "fail_fast") {
    executor.fail_fast = parse_bool(key, value);
    return true;
  }
  if (key == "warm_start") {
    executor.warm_start = parse_bool(key, value);
    return true;
  }
  if (key == "priority") {
    if (value == "cost") {
      executor.priority = BatchPriority::kCost;
      return true;
    }
    if (value == "none") {
      executor.priority = BatchPriority::kNone;
      return true;
    }
    throw InvalidArgument("parse_plan: key 'priority' must be 'cost' or 'none', got '" +
                          std::string(value) + "'");
  }
  return false;
}

/// Shortest round-trippable formatting, so plan_spec stays readable.
std::string fmt(double v) { return shortest_round_trip(v); }

std::string fmt(std::uint64_t v) { return std::to_string(v); }
std::string fmt(bool v) { return v ? "true" : "false"; }

struct KeyValue {
  std::string_view key;
  std::string_view value;
};

std::vector<KeyValue> split_pairs(std::string_view spec, std::string_view rest) {
  std::vector<KeyValue> pairs;
  while (true) {
    const auto comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const auto eq = pair.find('=');
    if (pair.empty() || eq == std::string_view::npos || eq == 0) {
      throw InvalidArgument("parse_plan: malformed 'key=value' pair '" +
                            std::string(pair) + "' in '" + std::string(spec) + "'");
    }
    pairs.push_back({pair.substr(0, eq), pair.substr(eq + 1)});
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return pairs;
}

}  // namespace

const std::vector<MethodInfo>& method_registry() { return registry_storage(); }

const MethodInfo& method_info(SolveMethod method) {
  for (const MethodInfo& info : registry_storage()) {
    if (info.method == method) return info;
  }
  throw LogicError("method_info: unregistered method");
}

const MethodInfo* find_method(std::string_view name) {
  std::string canonical(name);
  for (char& c : canonical) {
    if (c == '_') c = '-';
  }
  for (const MethodInfo& info : registry_storage()) {
    if (canonical == info.name) return &info;
  }
  return nullptr;
}

namespace {

/// The per-method half of parse_plan: `pairs` holds only the objective and
/// per-method keys (executor keys were already peeled off).
SolvePlan build_method_plan(const MethodInfo* info, const std::vector<KeyValue>& pairs) {
  switch (info->method) {
    case SolveMethod::kColouredSsb: {
      ColouredSsbOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "expansion_cap" || key == "expansion_cap_per_region") {
          o.expansion_cap_per_region = parse_size(key, value);
        } else if (key == "fallback_node_cap") {
          o.fallback_node_cap = parse_size(key, value);
        } else if (key == "delegate_on_cap") {
          o.delegate_on_cap = parse_bool(key, value);
        } else if (key == "eager_expansion") {
          o.eager_expansion = parse_bool(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::coloured_ssb(o);
    }
    case SolveMethod::kParetoDp: {
      ParetoDpOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "max_frontier") {
          o.max_frontier = parse_size(key, value);
        } else if (key == "dp_threads") {
          // Mirrors the executor's threads= contract: >= 1 or 'auto' (one
          // worker per hardware thread); a literal 0 is a confused spec.
          if (value == "auto") {
            o.dp_threads = 0;
          } else {
            o.dp_threads = parse_size(key, value);
            if (o.dp_threads == 0) {
              throw InvalidArgument(
                  "parse_plan: key 'dp_threads' must be >= 1 or 'auto', got '" +
                  std::string(value) + "' (omit the key for the inline default)");
            }
          }
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::pareto_dp(o);
    }
    case SolveMethod::kExhaustive: {
      ExhaustiveOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "cap") {
          o.cap = parse_size(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::exhaustive(o);
    }
    case SolveMethod::kBranchBound: {
      BranchBoundOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "node_cap") {
          o.node_cap = parse_size(key, value);
        } else if (key == "greedy_incumbent") {
          o.greedy_incumbent = parse_bool(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::branch_bound(o);
    }
    case SolveMethod::kGenetic: {
      GeneticOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "seed") {
          o.seed = parse_u64(key, value);
        } else if (key == "population") {
          o.population = parse_size(key, value);
        } else if (key == "generations") {
          o.generations = parse_size(key, value);
        } else if (key == "tournament") {
          o.tournament = parse_size(key, value);
        } else if (key == "elites") {
          o.elites = parse_size(key, value);
        } else if (key == "crossover_prob") {
          o.crossover_prob = parse_double(key, value);
        } else if (key == "mutation_prob") {
          o.mutation_prob = parse_double(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::genetic(o);
    }
    case SolveMethod::kLocalSearch: {
      LocalSearchOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "seed") {
          o.seed = parse_u64(key, value);
        } else if (key == "restarts") {
          o.restarts = parse_size(key, value);
        } else if (key == "max_moves") {
          o.max_moves = parse_size(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::local_search(o);
    }
    case SolveMethod::kGreedy: {
      GreedyOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        unknown_key(*info, key);
      }
      return SolvePlan::greedy(o);
    }
    case SolveMethod::kAnnealing: {
      AnnealingOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "seed") {
          o.seed = parse_u64(key, value);
        } else if (key == "steps") {
          o.steps = parse_size(key, value);
        } else if (key == "initial_temperature") {
          o.initial_temperature = parse_double(key, value);
        } else if (key == "cooling") {
          o.cooling = parse_double(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::annealing(o);
    }
    case SolveMethod::kAutomatic: {
      AutomaticOptions o;
      for (const auto& [key, value] : pairs) {
        if (apply_objective_key(o.objective, key, value)) continue;
        if (key == "exhaustive_cutoff") {
          o.exhaustive_cutoff = parse_size(key, value);
        } else {
          unknown_key(*info, key);
        }
      }
      return SolvePlan::automatic(o);
    }
  }
  throw LogicError("parse_plan: unhandled method");
}

}  // namespace

SolvePlan parse_plan(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  const MethodInfo* info = find_method(name);
  if (info == nullptr) {
    std::ostringstream oss;
    oss << "parse_plan: unknown method '" << name << "' (registered:";
    for (const MethodInfo& m : registry_storage()) oss << ' ' << m.name;
    oss << ")";
    throw InvalidArgument(oss.str());
  }

  std::vector<KeyValue> pairs;
  if (colon != std::string_view::npos) {
    pairs = split_pairs(spec, spec.substr(colon + 1));
  }

  // A repeated key is a confused spec, not a harmless override: reject it
  // instead of silently keeping whichever copy lands last. Aliases count as
  // the same key -- they set the same field.
  const auto canonical_key = [](std::string_view key) {
    return key == "expansion_cap_per_region" ? std::string_view("expansion_cap") : key;
  };
  for (std::size_t a = 0; a < pairs.size(); ++a) {
    for (std::size_t b = a + 1; b < pairs.size(); ++b) {
      if (canonical_key(pairs[a].key) == canonical_key(pairs[b].key)) {
        throw InvalidArgument("parse_plan: duplicate key '" + std::string(pairs[b].key) +
                              "' in '" + std::string(spec) + "'");
      }
    }
  }

  // Reject a seed on methods that would silently ignore it.
  for (const KeyValue& kv : pairs) {
    if (kv.key == "seed" && !info->seeded) {
      throw InvalidArgument("parse_plan: method '" + std::string(info->name) +
                            "' is deterministic and does not take a seed");
    }
  }

  // Peel off the batch-execution keys; the rest go to the method parser.
  ExecutorOptions executor;
  std::vector<KeyValue> method_pairs;
  method_pairs.reserve(pairs.size());
  for (const KeyValue& kv : pairs) {
    if (!apply_executor_key(executor, kv.key, kv.value)) method_pairs.push_back(kv);
  }

  SolvePlan plan = build_method_plan(info, method_pairs);
  plan.with_executor(executor);
  return plan;
}

std::string plan_spec(const SolvePlan& plan) {
  std::ostringstream oss;
  oss << method_name(plan.method());
  std::vector<std::string> keys;
  const auto add = [&](const char* key, const std::string& value) {
    keys.push_back(std::string(key) + '=' + value);
  };
  const SsbObjective objective = plan.objective();
  if (objective.s_coeff != 1.0) add("s_coeff", fmt(objective.s_coeff));
  if (objective.b_coeff != 1.0) add("b_coeff", fmt(objective.b_coeff));
  const ExecutorOptions& executor = plan.executor();
  if (executor.threads != 1) {
    add("threads", executor.threads == 0
                       ? std::string("auto")
                       : fmt(static_cast<std::uint64_t>(executor.threads)));
  }
  if (executor.deadline_seconds != 0.0) {
    add("deadline_ms", fmt(executor.deadline_seconds * 1e3));
  }
  if (!executor.fail_fast) add("fail_fast", fmt(false));
  if (executor.warm_start) add("warm_start", fmt(true));
  if (executor.priority != BatchPriority::kCost) add("priority", "none");
  switch (plan.method()) {
    case SolveMethod::kColouredSsb: {
      const auto& o = plan.options_as<ColouredSsbOptions>();
      add("expansion_cap", fmt(o.expansion_cap_per_region));
      add("fallback_node_cap", fmt(o.fallback_node_cap));
      add("delegate_on_cap", fmt(o.delegate_on_cap));
      add("eager_expansion", fmt(o.eager_expansion));
      break;
    }
    case SolveMethod::kParetoDp: {
      const auto& o = plan.options_as<ParetoDpOptions>();
      add("max_frontier", fmt(o.max_frontier));
      if (o.dp_threads != 1) {
        add("dp_threads", o.dp_threads == 0
                              ? std::string("auto")
                              : fmt(static_cast<std::uint64_t>(o.dp_threads)));
      }
      break;
    }
    case SolveMethod::kExhaustive:
      add("cap", fmt(plan.options_as<ExhaustiveOptions>().cap));
      break;
    case SolveMethod::kBranchBound: {
      const auto& o = plan.options_as<BranchBoundOptions>();
      add("node_cap", fmt(o.node_cap));
      add("greedy_incumbent", fmt(o.greedy_incumbent));
      break;
    }
    case SolveMethod::kGenetic: {
      const auto& o = plan.options_as<GeneticOptions>();
      add("population", fmt(o.population));
      add("generations", fmt(o.generations));
      add("tournament", fmt(o.tournament));
      add("elites", fmt(o.elites));
      add("crossover_prob", fmt(o.crossover_prob));
      add("mutation_prob", fmt(o.mutation_prob));
      add("seed", fmt(o.seed));
      break;
    }
    case SolveMethod::kLocalSearch: {
      const auto& o = plan.options_as<LocalSearchOptions>();
      add("restarts", fmt(o.restarts));
      add("max_moves", fmt(o.max_moves));
      add("seed", fmt(o.seed));
      break;
    }
    case SolveMethod::kGreedy:
      break;
    case SolveMethod::kAnnealing: {
      const auto& o = plan.options_as<AnnealingOptions>();
      add("steps", fmt(o.steps));
      add("initial_temperature", fmt(o.initial_temperature));
      add("cooling", fmt(o.cooling));
      add("seed", fmt(o.seed));
      break;
    }
    case SolveMethod::kAutomatic:
      add("exhaustive_cutoff", fmt(plan.options_as<AutomaticOptions>().exhaustive_cutoff));
      break;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    oss << (i == 0 ? ':' : ',') << keys[i];
  }
  return oss.str();
}

}  // namespace treesat
