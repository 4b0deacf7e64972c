#include "tree/serialize.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string_view>

#include "common/format.hpp"

namespace treesat {

namespace {

/// Shortest decimal that parses back to exactly `v`, so that
/// tree_from_text(to_text(t)) is the identity on every cost (the property
/// tests/serialize_round_trip_test.cpp asserts).
std::string number(double v) { return shortest_round_trip(v); }

/// A number field: the whole token, in range and finite. Ids are unsigned,
/// and from_chars takes no sign for them (std::stoul would accept "-667"
/// and wrap it).
template <typename T>
T number_field(std::string_view tok, const char* what, std::string_view line) {
  T value{};
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  TS_REQUIRE(ec == std::errc{} && ptr == tok.data() + tok.size() &&
                 std::isfinite(static_cast<double>(value)),
             "read_text: bad " << what << " '" << tok << "' in line '" << line << "'");
  return value;
}

}  // namespace

bool serializable_name(const std::string& name) {
  return !name.empty() && std::none_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

void write_text(std::ostream& os, const CruTree& tree) {
  os << "cru_tree v1\n";
  os << "# id parent kind name host_time sat_time comm_up satellite\n";
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    TS_REQUIRE(serializable_name(nd.name),
               "write_text: node " << i << " has an unserializable name '" << nd.name << "'");
    os << i << ' ';
    if (nd.parent.valid()) {
      os << nd.parent.value();
    } else {
      os << '-';
    }
    os << ' ' << (nd.is_sensor() ? "sensor" : "compute") << ' ' << nd.name << ' '
       << number(nd.host_time) << ' ' << number(nd.sat_time) << ' ' << number(nd.comm_up)
       << ' ';
    if (nd.satellite.valid()) {
      os << nd.satellite.value();
    } else {
      os << '-';
    }
    os << '\n';
  }
}

std::string to_text(const CruTree& tree) {
  std::ostringstream oss;
  write_text(oss, tree);
  return oss.str();
}

CruTree tree_from_text(const std::string& text) {
  std::string_view rest = text;
  const auto next_line = [&rest] {
    const std::size_t nl = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(std::min(nl + 1, rest.size()));
    return line;
  };
  const std::string_view header = next_line();
  TS_REQUIRE(header == "cru_tree v1", "read_text: bad header '" << header << "'");

  CruTreeBuilder builder;
  std::size_t expected_id = 0;
  while (!rest.empty()) {
    const std::string_view line = next_line();
    if (line.empty() || line[0] == '#') continue;
    // id parent kind name host_time sat_time comm_up satellite, split on
    // runs of whitespace; a ninth field is an error.
    std::array<std::string_view, 9> f;
    std::size_t fields = 0;
    for (std::size_t pos = 0; fields < f.size(); ++fields) {
      pos = line.find_first_not_of(" \t\r\f\v", pos);
      if (pos == std::string_view::npos) break;
      const std::size_t end = std::min(line.find_first_of(" \t\r\f\v", pos), line.size());
      f[fields] = line.substr(pos, end - pos);
      pos = end;
    }
    TS_REQUIRE(fields == 8, "read_text: malformed node line '" << line << "'");
    const auto id = number_field<std::size_t>(f[0], "node id", line);
    TS_REQUIRE(id == expected_id,
               "read_text: node ids must be dense and increasing; got " << id << ", expected "
                                                                        << expected_id);
    ++expected_id;
    const std::string_view kind = f[2];
    const std::string name(f[3]);
    const auto h = number_field<double>(f[4], "host_time", line);
    const auto s = number_field<double>(f[5], "sat_time", line);
    const auto c = number_field<double>(f[6], "comm_up", line);

    if (f[1] == "-") {
      TS_REQUIRE(id == 0, "read_text: only node 0 may be the root");
      TS_REQUIRE(kind == "compute", "read_text: the root must be a compute node");
      builder.root(name, h);
      continue;
    }
    const auto parent_id = number_field<std::size_t>(f[1], "parent", line);
    TS_REQUIRE(parent_id < id, "read_text: parent " << parent_id << " does not precede node "
                                                    << id);
    if (kind == "compute") {
      builder.compute(CruId{parent_id}, name, h, s, c);
    } else if (kind == "sensor") {
      TS_REQUIRE(f[7] != "-", "read_text: sensor node " << id << " lacks a satellite");
      const auto sat = number_field<std::size_t>(f[7], "satellite", line);
      builder.sensor(CruId{parent_id}, name, SatelliteId{sat}, c);
    } else {
      throw InvalidArgument("read_text: unknown node kind '" + std::string(kind) + "'");
    }
  }
  return builder.build();
}

CruTree read_text(std::istream& is) {
  return tree_from_text(std::string(std::istreambuf_iterator<char>(is), {}));
}

}  // namespace treesat
