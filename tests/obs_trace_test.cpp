// TraceRecorder (obs/trace.hpp): the span layer's two contracts.
//
//   1. Structure determinism -- names, nesting, and attributes are pure
//      functions of the request stream, and structure_json() canonicalizes
//      away the recording interleaving. The anchor test replays the
//      committed golden service trace at shards=1/dp_threads=1 and
//      shards=8/dp_threads=4 and requires the timing-stripped trace (and
//      the deterministic metrics exposition) to be byte-identical -- the
//      tracing extension of the service's response byte wall.
//   2. Recording safety -- concurrent spans from many threads (this suite
//      runs under TSan in ci.sh), the thread-local current-span nesting,
//      explicit cross-thread parents, and the disabled/uninstalled
//      recorder behaving as a total no-op.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/colouring.hpp"
#include "core/pareto_dp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "workload/generator.hpp"

namespace treesat::obs {
namespace {

TEST(TraceRecorder, RaiiSpansNestViaTheThreadLocalCurrent) {
  TraceRecorder rec;
  EXPECT_EQ(TraceRecorder::current(), 0u);
  {
    Span outer(&rec, "outer");
    ASSERT_TRUE(outer);
    EXPECT_EQ(TraceRecorder::current(), outer.id());
    outer.attr("k", std::uint64_t{7});
    {
      Span inner(&rec, "inner");
      EXPECT_EQ(TraceRecorder::current(), inner.id());
      inner.attr("tag", "warm");
      inner.attr("ratio", 0.5);
    }
    EXPECT_EQ(TraceRecorder::current(), outer.id());
  }
  EXPECT_EQ(TraceRecorder::current(), 0u);

  const std::vector<SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  // Timing off: no clock was read, every field stays zero.
  EXPECT_EQ(spans[1].start_seconds, 0.0);
  EXPECT_EQ(spans[1].duration_seconds, 0.0);

  EXPECT_EQ(rec.structure_json(),
            "{\"spans\":[{\"name\":\"outer\",\"attrs\":{\"k\":7},\"children\":"
            "[{\"name\":\"inner\",\"attrs\":{\"tag\":\"warm\",\"ratio\":0.5},"
            "\"children\":[]}]}]}\n");
}

TEST(TraceRecorder, CanonicalFormErasesTheRecordingInterleaving) {
  // The same logical forest recorded in two different orders (the way two
  // scheduler interleavings would) must export identically.
  TraceRecorder a;
  {
    const std::uint64_t root = a.begin("root", 0);
    const std::uint64_t x = a.begin("x", root);
    a.attr(x, "i", std::uint64_t{1});
    a.end(x);
    const std::uint64_t y = a.begin("y", root);
    a.end(y);
    a.end(root);
  }
  TraceRecorder b;
  {
    const std::uint64_t root = b.begin("root", 0);
    const std::uint64_t y = b.begin("y", root);
    const std::uint64_t x = b.begin("x", root);  // children land reversed
    b.end(y);
    b.attr(x, "i", std::uint64_t{1});
    b.end(x);
    b.end(root);
  }
  EXPECT_EQ(a.structure_json(), b.structure_json());
}

TEST(TraceRecorder, DisabledOrAbsentRecorderIsANoOp) {
  Span null_span(nullptr, "nothing");
  EXPECT_FALSE(null_span);
  null_span.attr("k", std::uint64_t{1});  // must not crash

  TraceRecorder rec;
  rec.set_enabled(false);
  {
    Span span(&rec, "invisible");
    EXPECT_FALSE(span);
    EXPECT_EQ(TraceRecorder::current(), 0u);
  }
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.structure_json(), "{\"spans\":[]}\n");

  rec.set_enabled(true);
  { Span span(&rec, "visible"); }
  EXPECT_EQ(rec.span_count(), 1u);
  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(TraceRecorder, TimingIsOptInAndFeedsTheChromeExport) {
  TraceRecorder rec(/*timing=*/true);
  {
    Span span(&rec, "timed");
    span.attr("k", "v");
  }
  const std::vector<SpanRecord> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_seconds, 0.0);
  const std::string chrome = rec.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"timed\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"k\":\"v\""), std::string::npos);
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreadsAllLand) {
  TraceRecorder rec;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 400;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&rec, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          Span outer(&rec, "worker");
          outer.attr("t", static_cast<std::uint64_t>(t));
          Span inner(&rec, "step");
          inner.attr("i", static_cast<std::uint64_t>(i));
        }
      });
    }
  }
  EXPECT_EQ(rec.span_count(), 2 * kThreads * kPerThread);
  EXPECT_EQ(rec.dropped_spans(), 0u);
  // Every "step" nested under a "worker" from its own thread.
  std::size_t nested = 0;
  for (const SpanRecord& span : rec.snapshot()) {
    if (span.name == "step" && span.parent != 0) ++nested;
  }
  EXPECT_EQ(nested, kThreads * kPerThread);
}

/// Serves the committed golden trace with a recorder + registry installed
/// and returns {structure_json, deterministic exposition}.
struct TracedReplay {
  std::string structure;
  std::string metrics_text;
};

TracedReplay traced_replay(const std::string& trace, const std::string& config) {
  TraceRecorder rec;  // timing off: the deterministic class only
  MetricsRegistry reg;
  install_trace(&rec);
  install_metrics(&reg);
  SolverService service(parse_service_config(config));
  std::istringstream in(trace);
  std::ostringstream out;
  const std::size_t errors = service.serve(in, out);
  static_cast<void>(service.telemetry());  // mirror the store gauges
  install_trace(nullptr);
  install_metrics(nullptr);
  EXPECT_EQ(errors, 0u) << config;
  EXPECT_GT(rec.span_count(), 0u);
  return {rec.structure_json(), reg.exposition(/*include_wallclock=*/false)};
}

TEST(TraceDeterminism, GoldenReplayStructureIsShardAndThreadInvariant) {
  std::ifstream file(TREESAT_SOURCE_DIR "/tests/golden/service_trace.jsonl");
  ASSERT_TRUE(file) << "golden trace missing";
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string trace = buffer.str();

  const TracedReplay one =
      traced_replay(trace, "shards=1,mem_budget=64m,plan=pareto-dp:dp_threads=1");
  const TracedReplay many =
      traced_replay(trace, "shards=8,mem_budget=64m,plan=pareto-dp:dp_threads=4");

  // The timing-stripped span forest and the deterministic metrics subset
  // are part of the byte wall: shard count and intra-solve parallelism
  // must be invisible in both.
  EXPECT_EQ(one.structure, many.structure);
  EXPECT_EQ(one.metrics_text, many.metrics_text);

  // The replay actually produced the service-path span taxonomy README
  // documents. (Sessions solve through the same engine as a cold solve,
  // cache in hand, so the DP phases are the cold ones -- but their colours
  // run inline, and the worklist never runs here.)
  for (const char* name : {"\"req.solve\"", "\"req.submit\"", "\"store.lookup\"",
                           "\"dp.solve\"", "\"dp.colour\"", "\"dp.sweep\"",
                           "\"dp.reconstruct\"", "\"session.resolve\""}) {
    EXPECT_NE(one.structure.find(name), std::string::npos) << name;
  }
  for (const char* family :
       {"treesat_requests_total", "treesat_warm_hits_total",
        "treesat_dp_minkowski_merges_total", "treesat_dp_merge_points_kept_total",
        "treesat_response_bytes_bucket", "treesat_store_bytes_used"}) {
    EXPECT_NE(one.metrics_text.find(family), std::string::npos) << family;
  }
  // And nothing wall-clock leaked into the deterministic subset.
  EXPECT_EQ(one.metrics_text.find(kWallClockMarker), std::string::npos);
  EXPECT_EQ(one.metrics_text.find("treesat_request_seconds"), std::string::npos);
}

TEST(TraceDeterminism, ArenaSolveStructureIsThreadCountInvariant) {
  // The arena engine's per-colour pipelines run on scheduler threads and
  // attach via explicit parents -- the canonicalization's hardest case.
  // The full phase taxonomy (fold, per-colour merges, reconstruction, the
  // worklist run) must serialize identically at dp_threads=1 and =4.
  Rng rng(0xA11);
  TreeGenOptions gen;
  gen.compute_nodes = 48;
  gen.satellites = 4;
  gen.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, gen);
  const Colouring colouring(tree);

  const auto traced_solve = [&](std::size_t threads) {
    TraceRecorder rec;
    install_trace(&rec);
    ParetoDpOptions opt;
    opt.dp_threads = threads;
    static_cast<void>(pareto_dp_solve(colouring, opt));
    install_trace(nullptr);
    return rec.structure_json();
  };
  const std::string inline_run = traced_solve(1);
  const std::string pooled_run = traced_solve(4);
  EXPECT_EQ(inline_run, pooled_run);
  for (const char* name : {"\"dp.solve\"", "\"dp.fold\"", "\"dp.colour\"",
                           "\"dp.sweep\"", "\"dp.reconstruct\""}) {
    EXPECT_NE(inline_run.find(name), std::string::npos) << name;
  }
}

TEST(TraceDeterminism, MetricsOpExposesTheSameDeterministicSubset) {
  // The protocol-level scrape: {"op":"metrics"} must return exactly the
  // registry's deterministic exposition (wall-clock only on request).
  MetricsRegistry reg;
  install_metrics(&reg);
  SolverService service(parse_service_config("shards=2"));
  std::istringstream in("{\"op\":\"metrics\"}\n");
  std::ostringstream out;
  EXPECT_EQ(service.serve(in, out), 0u);
  install_metrics(nullptr);

  std::string last;
  std::string line;
  std::istringstream responses(out.str());
  while (std::getline(responses, line)) {
    if (!line.empty()) last = line;
  }
  EXPECT_NE(last.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(last.find("treesat_requests_total"), std::string::npos);
  EXPECT_EQ(last.find("wall-clock"), std::string::npos);
}

}  // namespace
}  // namespace treesat::obs
