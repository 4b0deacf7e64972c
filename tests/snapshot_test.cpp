// The storage subsystem's correctness wall (storage/snapshot.hpp):
//
//   * round-trip byte-identity -- for every scenario-library instance and
//     for drifted sessions, export -> encode -> decode -> import rebuilds a
//     session whose optimum, cache bytes and every *future* resolve are
//     byte-identical to the never-snapshotted original;
//   * determinism -- snapshotting the same session twice yields identical
//     bytes (the property the spill tier's deterministic gauges rest on);
//   * the corruption wall -- truncation at every header byte, flipped
//     content hash, foreign magic, unsupported version, trailing garbage
//     and hash-valid-but-structurally-broken payloads are all rejected
//     with a descriptive InvalidArgument, never a crash or a half-decoded
//     state (this suite rides in ci.sh's TSan stage with the service
//     suites);
//   * cross-build compatibility -- a snapshot written by an earlier build
//     (tests/golden/session_v1.tss: a drifted session, both caches
//     populated) restores, re-encodes byte for byte, and warm-resolves to
//     the cold optimum;
//   * the token codec and file IO edges (atomic write, missing paths).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/incremental.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

/// The two sessions must be indistinguishable: same optimum bit for bit,
/// same cache charge, same step counters.
void expect_sessions_identical(const ResolveSession& a, const ResolveSession& b) {
  const SolveReport& ra = a.current();
  const SolveReport& rb = b.current();
  ASSERT_EQ(std::memcmp(&ra.objective_value, &rb.objective_value, sizeof(double)), 0)
      << ra.objective_value << " vs " << rb.objective_value;
  EXPECT_EQ(ra.assignment.cut_nodes(), rb.assignment.cut_nodes());
  EXPECT_EQ(ra.exact, rb.exact);
  EXPECT_EQ(ra.method, rb.method);
  EXPECT_EQ(a.cached_bytes(), b.cached_bytes());
  const ResolveStats& sa = a.last_stats();
  const ResolveStats& sb = b.last_stats();
  EXPECT_EQ(sa.path, sb.path);
  EXPECT_EQ(sa.step, sb.step);
  EXPECT_EQ(sa.regions_total, sb.regions_total);
  EXPECT_EQ(sa.regions_reused, sb.regions_reused);
  EXPECT_EQ(sa.regions_recomputed, sb.regions_recomputed);
  EXPECT_EQ(sa.colours_total, sb.colours_total);
  EXPECT_EQ(sa.colours_reused, sb.colours_reused);
  EXPECT_EQ(sa.cache_entries, sb.cache_entries);
  EXPECT_EQ(sa.cold_reason, sb.cold_reason);
}

/// A deterministic drift script that works on any scenario tree (every
/// platform in the library has a satellite 0).
std::vector<Perturbation> drift_script() {
  std::vector<Perturbation> script;
  script.push_back(Perturbation::global_drift(1.05, 1.0, 1.0));
  script.push_back(
      Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.2, 0.9, 1.1));
  script.push_back(Perturbation::global_drift(0.97, 1.02, 1.0));
  script.push_back(
      Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 0.8, 1.1, 0.95));
  return script;
}

TEST(SnapshotRoundTrip, EveryScenarioInstanceSurvivesSaveLoad) {
  for (const Scenario& scenario : standard_scenarios()) {
    SCOPED_TRACE(scenario.name);
    const CruTree tree = scenario.workload.lower(scenario.platform);

    ResolveSession original{CruTree(tree)};
    const std::string bytes = encode_snapshot(original.export_state());
    ResolveSession restored = ResolveSession::import_state(decode_snapshot(bytes));
    expect_sessions_identical(original, restored);

    // Re-exporting the restored session reproduces the snapshot exactly:
    // save/load is idempotent at the byte level.
    EXPECT_EQ(encode_snapshot(restored.export_state()), bytes);

    // Every future resolve must be identical too -- the restored session
    // carries the full warm state, not just the answer.
    for (const Perturbation& p : drift_script()) {
      static_cast<void>(original.resolve(p));
      static_cast<void>(restored.resolve(p));
      expect_sessions_identical(original, restored);
    }
  }
}

TEST(SnapshotRoundTrip, DriftedSessionSurvivesSaveLoad) {
  // Snapshot *mid-history*: a session that has already warmed its caches
  // through several perturbations (the state a spill actually persists).
  const Scenario scenario = epilepsy_scenario();
  ResolveSession original{scenario.workload.lower(scenario.platform)};
  for (const Perturbation& p : drift_script()) static_cast<void>(original.resolve(p));

  const SessionState state = original.export_state();
  EXPECT_TRUE(state.has_session());
  EXPECT_GT(state.colour_cache.size() + state.region_cache.size(), 0u)
      << "a drifted session must carry cache entries or the test is vacuous";

  ResolveSession restored =
      ResolveSession::import_state(decode_snapshot(encode_snapshot(state)));
  expect_sessions_identical(original, restored);
  for (const Perturbation& p : drift_script()) {
    static_cast<void>(original.resolve(p));
    static_cast<void>(restored.resolve(p));
    expect_sessions_identical(original, restored);
  }
}

TEST(SnapshotRoundTrip, SnapshotBytesAreDeterministic) {
  const Scenario scenario = epilepsy_scenario();
  ResolveSession session{scenario.workload.lower(scenario.platform)};
  static_cast<void>(session.resolve(Perturbation::global_drift(1.1, 1.0, 1.0)));
  // Same session, two exports: identical bytes (cache entries are emitted
  // sorted, wall clocks zeroed -- unordered_map order must not leak).
  EXPECT_EQ(encode_snapshot(session.export_state()),
            encode_snapshot(session.export_state()));
}

TEST(SnapshotRoundTrip, SnapshotWrittenByAnEarlierBuildRestores) {
  // Written by the build that still stored cache entries as point vectors
  // with per-point cut vectors; the v1 format never changed, so today's
  // structure-of-arrays caches must read it and write it back unchanged.
  const std::string bytes = read_file_bytes(TREESAT_SOURCE_DIR "/tests/golden/session_v1.tss");
  const SessionState state = decode_snapshot(bytes);
  ASSERT_FALSE(state.colour_cache.empty());
  ASSERT_FALSE(state.region_cache.empty());
  ResolveSession restored = ResolveSession::import_state(state);
  EXPECT_EQ(encode_snapshot(restored.export_state()), bytes);

  // Its next warm resolve is a cold solve: a probe under one region's root
  // leaves every other region's cached frontier reusable.
  const CruTree& tree = restored.tree();
  const CruId attach = restored.colouring().region_roots().front();
  const CruId parent = tree.node(attach).is_sensor() ? tree.root() : attach;
  restored.resolve(Perturbation::insert_probe(parent, "cross_build_probe", SatelliteId{0u}, 0.5,
                                              0.25, 0.125, 0.0625));
  EXPECT_EQ(restored.last_stats().path, ResolvePath::kWarm);
  EXPECT_GT(restored.last_stats().regions_reused, 0u);
  const Colouring cold_colouring(restored.tree());
  const ParetoDpResult cold = pareto_dp_solve(cold_colouring);
  const SolveReport& warm = restored.current();
  EXPECT_EQ(std::memcmp(&warm.objective_value, &cold.objective, sizeof(double)), 0);
  EXPECT_EQ(warm.assignment.cut_nodes(), cold.assignment.cut_nodes());
}

TEST(SnapshotRoundTrip, TreeOnlyStateRoundTrips) {
  // A submitted-but-never-solved instance spills as a tree-only snapshot.
  SessionState state;
  state.tree_text = to_text(paper_running_example());
  state.tenant = "tenant a";  // space: exercises the token codec in-band
  state.instance = "w/0";
  const SessionState back = decode_snapshot(encode_snapshot(state));
  EXPECT_FALSE(back.has_session());
  EXPECT_EQ(back.tree_text, state.tree_text);
  EXPECT_EQ(back.tenant, state.tenant);
  EXPECT_EQ(back.instance, state.instance);
  EXPECT_TRUE(back.cut.empty());
  EXPECT_TRUE(back.colour_cache.empty() && back.region_cache.empty());
}

TEST(SnapshotTokens, CodecIsInjectiveAndStrict) {
  EXPECT_EQ(encode_token(""), "%");
  EXPECT_EQ(decode_token("%"), "");
  EXPECT_EQ(encode_token("plain-Token_0.9"), "plain-Token_0.9");
  for (const char* raw_cstr : {"a b/c%d", "\n\t", "100%"}) {
    const std::string raw = raw_cstr;
    const std::string enc = encode_token(raw);
    EXPECT_EQ(enc.find(' '), std::string::npos) << enc;
    EXPECT_EQ(decode_token(enc), raw);
  }
  EXPECT_EQ(snapshot_file_name("t 0", "w0"), "t%200@w0.tss");

  EXPECT_THROW(static_cast<void>(decode_token("a b")), InvalidArgument);   // raw space
  EXPECT_THROW(static_cast<void>(decode_token("ab%")), InvalidArgument);   // dangling %
  EXPECT_THROW(static_cast<void>(decode_token("%G1")), InvalidArgument);   // bad hex
  EXPECT_THROW(static_cast<void>(decode_token("%2f")), InvalidArgument);   // lowercase
  EXPECT_THROW(static_cast<void>(decode_token("")), InvalidArgument);      // no spelling
}

TEST(SnapshotCorruption, EveryHeaderTruncationIsRejected) {
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());

  // The header is the first three lines; every proper prefix of the file up
  // to (and past) it must be rejected -- including the empty file.
  const std::size_t header_end = bytes.find('\n', bytes.find('\n', bytes.find('\n') + 1) + 1) + 1;
  ASSERT_GT(header_end, 0u);
  for (std::size_t n = 0; n < header_end; ++n) {
    EXPECT_THROW(static_cast<void>(decode_snapshot(bytes.substr(0, n))), InvalidArgument)
        << "prefix of " << n << " bytes decoded";
  }
  // Truncated payload (one byte short) and over-long file (trailing junk).
  EXPECT_THROW(static_cast<void>(decode_snapshot(bytes.substr(0, bytes.size() - 1))),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(decode_snapshot(bytes + "x")), InvalidArgument);
}

TEST(SnapshotCorruption, HashVersionAndMagicAreVerified) {
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());

  // Flip one digit of the content hash: loud mismatch.
  {
    std::string bad = bytes;
    const std::size_t pos = bad.find("hash ") + 5;
    bad[pos] = bad[pos] == '0' ? '1' : '0';
    try {
      static_cast<void>(decode_snapshot(bad));
      FAIL() << "hash mismatch decoded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos) << e.what();
    }
  }
  // Flip one payload byte instead: the *hash* catches it.
  {
    std::string bad = bytes;
    bad[bytes.size() - 2] ^= 1;
    EXPECT_THROW(static_cast<void>(decode_snapshot(bad)), InvalidArgument);
  }
  // The hash is checked in the same pass as the parse, so corrupt frontier
  // points must still report as a hash mismatch -- both a byte that keeps
  // the line parseable (a cut delta digit) and one that does not.
  {
    const std::size_t point = bytes.find("\npoint ");
    ASSERT_NE(point, std::string::npos);
    const std::size_t last_digit = bytes.find('\n', point + 1) - 1;
    for (const char replacement : {bytes[last_digit] == '1' ? '2' : '1', 'x'}) {
      std::string bad = bytes;
      bad[last_digit] = replacement;
      try {
        static_cast<void>(decode_snapshot(bad));
        FAIL() << "corrupt point line decoded";
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("hash mismatch"), std::string::npos) << e.what();
      }
    }
  }
  // Unsupported version.
  {
    std::string bad = bytes;
    bad.replace(bad.find(" v1\n"), 4, " v9\n");
    try {
      static_cast<void>(decode_snapshot(bad));
      FAIL() << "foreign version decoded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
  }
  // Foreign magic (a checkpoint manifest is not a session snapshot).
  {
    std::string bad = bytes;
    bad.replace(0, std::strlen("treesat_snapshot"), "treesat_manifest");
    EXPECT_THROW(static_cast<void>(decode_snapshot(bad)), InvalidArgument);
  }
}

TEST(SnapshotCorruption, HashValidButBrokenPayloadsAreRejected) {
  // An attacker (or a bug) can re-frame arbitrary payloads with a correct
  // hash; structural validation must still hold the line.
  ResolveSession session{paper_running_example()};
  const SessionState good = session.export_state();

  {
    SessionState bad = good;  // cut node outside the encoded tree
    bad.cut.push_back(CruId{std::size_t{9999}});
    EXPECT_THROW(static_cast<void>(decode_snapshot(encode_snapshot(bad))),
                 InvalidArgument);
  }
  {
    SessionState bad = good;  // cache stamp from the future
    ASSERT_FALSE(bad.region_cache.empty());
    bad.region_cache.front().last_used = bad.attempt + 7;
    EXPECT_THROW(static_cast<void>(ResolveSession::import_state(
                     decode_snapshot(encode_snapshot(bad)))),
                 InvalidArgument);
  }
  {
    SessionState bad = good;  // duplicate cache key
    ASSERT_FALSE(bad.region_cache.empty());
    bad.region_cache.push_back(bad.region_cache.front());
    EXPECT_THROW(static_cast<void>(ResolveSession::import_state(
                     decode_snapshot(encode_snapshot(bad)))),
                 InvalidArgument);
  }
  // Raw payload tampering, re-framed with a *correct* hash: the line-level
  // parser rejects it.
  const std::string bytes = encode_snapshot(good);
  std::string_view payload = bytes;
  for (int header_line = 0; header_line < 3; ++header_line) {
    payload.remove_prefix(payload.find('\n') + 1);
  }
  {
    std::string broken(payload);
    broken.replace(broken.find("attempt "), 8, "attempt x");
    EXPECT_THROW(static_cast<void>(decode_snapshot(
                     frame_payload("treesat_snapshot", "v1", broken))),
                 InvalidArgument);
  }
  {
    std::string broken(payload);  // missing end sentinel
    broken.resize(broken.rfind("end\n"));
    EXPECT_THROW(static_cast<void>(decode_snapshot(
                     frame_payload("treesat_snapshot", "v1", broken))),
                 InvalidArgument);
  }
  // One bad byte in a hex coordinate or a cut delta, each named by the
  // parser rather than decoded as some other number.
  const auto rejects_byte = [&payload](std::size_t at, char byte, const std::string& why) {
    std::string broken(payload);
    broken[at] = byte;
    try {
      static_cast<void>(decode_snapshot(frame_payload("treesat_snapshot", "v1", broken)));
      ADD_FAILURE() << "accepted '" << byte << "' at " << at;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
  };
  const std::size_t point = payload.find("\npoint ") + 7;  // first load coordinate
  ASSERT_NE(point, std::string_view::npos + 7);
  for (const char byte : {'A', 'g', '/', ':', '`'}) rejects_byte(point, byte, "not lowercase hex");
  const std::size_t cut = payload.find(' ', point + 34) + 1;  // after "load host count"
  ASSERT_GT(payload.find('\n', point), cut);
  rejects_byte(cut, 'x', "not a number");
}

TEST(SnapshotFiles, AtomicWriteAndStrictRead) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/snapshot_test_roundtrip.tss";
  ResolveSession session{paper_running_example()};
  static_cast<void>(session.resolve(Perturbation::global_drift(1.2, 1.0, 1.0)));

  write_snapshot_file(path, session.export_state());
  ResolveSession restored = ResolveSession::import_state(read_snapshot_file(path));
  expect_sessions_identical(session, restored);

  // Zero-length file on disk: InvalidArgument (readable but not a snapshot).
  const std::string empty_path = dir + "/snapshot_test_empty.tss";
  write_file_atomic(empty_path, "");
  EXPECT_THROW(static_cast<void>(read_snapshot_file(empty_path)), InvalidArgument);

  // Missing file / unwritable directory: ResourceLimit, not a parse error.
  EXPECT_THROW(static_cast<void>(read_snapshot_file(dir + "/snapshot_test_absent.tss")),
               ResourceLimit);
  EXPECT_THROW(write_snapshot_file(dir + "/no_such_subdir/x.tss", session.export_state()),
               ResourceLimit);
}

}  // namespace
}  // namespace treesat
