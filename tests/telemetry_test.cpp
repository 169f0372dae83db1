//===- tests/telemetry_test.cpp - Observability layer unit tests -----------===//
//
// Covers the telemetry registry's determinism contract (counters, gauges and
// histograms bit-identical at any thread count), span nesting, the phase
// profiler, the canonical JSON snapshot (golden), and the round-trip parser.
//
// The golden-snapshot suite must run first: Registry::reset() zeroes values
// but keeps registered metric names, so the exact snapshot text depends on no
// other suite having registered metrics yet. gtest runs suites in definition
// order within a binary, so keep `Golden` at the top of this file.
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace snowwhite {
namespace telemetry {
namespace {

TEST(Golden, MetricsJsonMatchesByteForByte) {
  Registry &R = Registry::global();
  R.reset();
  R.counter("a.count").add(3);
  R.gauge("queue").set(-2);
  Histogram &H = R.histogram("lat");
  H.record(0); // Bucket keyed "1".
  H.record(1); // Bucket keyed "2".
  H.record(7); // Bucket keyed "8" ([4, 8)).
  EXPECT_EQ(metricsJson(),
            "{\"schema\":\"snowwhite.metrics.v1\","
            "\"counters\":{\"a.count\":3},"
            "\"gauges\":{\"queue\":-2},"
            "\"histograms\":{\"lat\":{\"count\":3,\"sum\":8,\"max\":7,"
            "\"buckets\":{\"1\":1,\"2\":1,\"8\":1}}},"
            "\"phases\":{},"
            "\"spans_dropped\":0}");
  // A healthy snapshot is already canonical: the parser reproduces it.
  EXPECT_EQ(roundTripMetricsJson(metricsJson()), metricsJson());
}

TEST(Golden, CountersJsonIsSortedAndCompact) {
  Registry &R = Registry::global();
  R.reset();
  R.counter("b").add(2);
  R.counter("a").add(1);
  EXPECT_EQ(R.countersJson(), "{\"a\":1,\"a.count\":0,\"b\":2}");
}

// --- Primitives --------------------------------------------------------------

TEST(Histogram, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucketBound(0), 1u);
  EXPECT_EQ(Histogram::bucketBound(1), 2u);
  EXPECT_EQ(Histogram::bucketBound(3), 8u);
  EXPECT_EQ(Histogram::bucketBound(10), 1024u);
  EXPECT_EQ(Histogram::bucketBound(64), UINT64_MAX);
}

TEST(Histogram, RecordsIntoLogBuckets) {
  Histogram H;
  H.record(0);
  H.record(1);
  H.record(4);
  H.record(7);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  EXPECT_EQ(H.bucketCount(0), 1u); // Only the value 0.
  EXPECT_EQ(H.bucketCount(1), 1u); // [1, 2)
  EXPECT_EQ(H.bucketCount(3), 2u); // [4, 8)
  EXPECT_EQ(H.bucketCount(64), 1u);
}

TEST(Registry, MetricReferencesSurviveReset) {
  Registry &R = Registry::global();
  Counter &C = R.counter("stable.counter");
  C.add(5);
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  C.add(2);
  EXPECT_EQ(R.counter("stable.counter").value(), 2u);
  EXPECT_EQ(&C, &R.counter("stable.counter"));
}

// --- Determinism across thread counts ----------------------------------------

// The acceptance criterion: every counter, gauge and histogram aggregate is
// bit-identical at SNOWWHITE_THREADS in {1, 2, 4}. With no spans or phases
// recorded, the *entire* snapshot is deterministic, so compare it verbatim.
TEST(Determinism, SnapshotIdenticalAcrossThreadCounts) {
  const unsigned Restore = ThreadPool::threadsFromEnv();
  std::vector<std::string> Snapshots;
  std::vector<std::string> CounterSections;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Registry::global().reset();
    ThreadPool::resetGlobal(Threads);
    ThreadPool::global().parallelTasks(512, [](size_t Index) {
      counter("det.tasks").add();
      counter("det.weight").add(Index);
      histogram("det.values").record((Index * Index) % 4096);
      gauge("det.constant").set(7);
    });
    Snapshots.push_back(metricsJson());
    CounterSections.push_back(Registry::global().countersJson());
  }
  ThreadPool::resetGlobal(Restore);
  EXPECT_EQ(Snapshots[0], Snapshots[1]);
  EXPECT_EQ(Snapshots[0], Snapshots[2]);
  EXPECT_EQ(CounterSections[0], CounterSections[1]);
  EXPECT_EQ(CounterSections[0], CounterSections[2]);
  EXPECT_NE(Snapshots[0].find("\"det.tasks\":512"), std::string::npos);
}

// --- Spans --------------------------------------------------------------------

const SpanRecord &findSpan(const std::vector<SpanRecord> &Spans,
                           const std::string &Name) {
  for (const SpanRecord &Span : Spans)
    if (Span.Name == Name)
      return Span;
  static SpanRecord Missing;
  ADD_FAILURE() << "span not recorded: " << Name;
  return Missing;
}

TEST(Spans, NestingLinksParentsAndDepths) {
  Registry::global().reset();
  {
    Span Outer("outer");
    {
      Span Inner("inner");
      { Span Leaf("leaf"); }
    }
    { Span Sibling("sibling"); }
  }
  std::vector<SpanRecord> Spans = Registry::global().spans();
  ASSERT_EQ(Spans.size(), 4u);
  const SpanRecord &Outer = findSpan(Spans, "outer");
  const SpanRecord &Inner = findSpan(Spans, "inner");
  const SpanRecord &Leaf = findSpan(Spans, "leaf");
  const SpanRecord &Sibling = findSpan(Spans, "sibling");
  EXPECT_EQ(Outer.ParentId, 0u);
  EXPECT_EQ(Inner.ParentId, Outer.Id);
  EXPECT_EQ(Leaf.ParentId, Inner.Id);
  EXPECT_EQ(Sibling.ParentId, Outer.Id);
  EXPECT_EQ(Outer.Depth, 0u);
  EXPECT_EQ(Inner.Depth, 1u);
  EXPECT_EQ(Leaf.Depth, 2u);
  EXPECT_EQ(Sibling.Depth, 1u);
  // Process-unique non-zero ids; the enclosing span covers the enclosed.
  EXPECT_NE(Outer.Id, 0u);
  EXPECT_NE(Outer.Id, Inner.Id);
  EXPECT_GE(Outer.DurNs, Inner.DurNs);
  EXPECT_LE(Outer.StartNs, Inner.StartNs);
}

TEST(Spans, OverflowDropsInsteadOfGrowing) {
  Registry &R = Registry::global();
  R.reset();
  for (size_t I = 0; I < Registry::MaxSpans + 3; ++I) {
    Span S("flood");
  }
  EXPECT_EQ(R.spans().size(), Registry::MaxSpans);
  EXPECT_NE(metricsJson().find("\"spans_dropped\":3"), std::string::npos);
  R.reset();
  EXPECT_NE(metricsJson().find("\"spans_dropped\":0"), std::string::npos);
}

// Hot paths keep a handle instead of looking a metric up per event: the
// handle is the registry's own object, and reset() zeroes it in place.
TEST(Registry, CachedHandleSurvivesReset) {
  static decltype(auto) Handle = counter("test.cached_handle");
  static_assert(std::is_reference_v<decltype(Handle)>,
                "compiled in, a cached handle refers to the registry entry");
  EXPECT_EQ(&Handle, &counter("test.cached_handle"));
  Handle.add(5);
  Registry::global().reset();
  EXPECT_EQ(counter("test.cached_handle").value(), 0u);
  Handle.add(2);
  EXPECT_EQ(counter("test.cached_handle").value(), 2u);
}

TEST(Spans, TraceJsonOrdersByStartTime) {
  Registry::global().reset();
  {
    Span Outer("trace_outer");
    Span Inner("trace_inner");
  }
  std::string Trace = traceJson();
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
  size_t OuterAt = Trace.find("trace_outer");
  size_t InnerAt = Trace.find("trace_inner");
  ASSERT_NE(OuterAt, std::string::npos);
  ASSERT_NE(InnerAt, std::string::npos);
  EXPECT_LT(OuterAt, InnerAt) << "outer starts first, so it dumps first";
}

// --- Phase profiler -----------------------------------------------------------

TEST(Phases, AccumulatesWallAndCount) {
  Registry &R = Registry::global();
  R.reset();
  volatile uint64_t Sink = 0;
  for (int Round = 0; Round < 3; ++Round) {
    ScopedPhase Phase("test.phase");
    for (uint64_t I = 0; I < 20000; ++I)
      Sink = Sink + I;
  }
  PhaseStat Stat = R.phase("test.phase");
  EXPECT_EQ(Stat.Count, 3u);
  EXPECT_GT(Stat.WallNs, 0u);
  EXPECT_EQ(R.phase("never.entered").Count, 0u);
}

// --- Round-trip parser ---------------------------------------------------------

TEST(RoundTrip, NormalizesWhitespaceAndEscapes) {
  EXPECT_EQ(roundTripMetricsJson("{ \"a\" : 1 , \"b\" : { } }"),
            "{\"a\":1,\"b\":{}}");
  EXPECT_EQ(roundTripMetricsJson("{\"a\\nb\":-5}"), "{\"a\\nb\":-5}");
  EXPECT_EQ(roundTripMetricsJson("{\"\\u0007\":0}"), "{\"\\u0007\":0}");
}

TEST(RoundTrip, RejectsNonSnapshotJson) {
  EXPECT_EQ(roundTripMetricsJson(""), "");
  EXPECT_EQ(roundTripMetricsJson("{\"a\":1.5}"), "");   // Floats.
  EXPECT_EQ(roundTripMetricsJson("{\"a\":1e3}"), "");   // Exponents.
  EXPECT_EQ(roundTripMetricsJson("{\"a\":[1]}"), "");   // Arrays.
  EXPECT_EQ(roundTripMetricsJson("{\"a\":1"), "");      // Truncation.
  EXPECT_EQ(roundTripMetricsJson("{}x"), "");           // Trailing bytes.
  EXPECT_EQ(roundTripMetricsJson("{\"a\":null}"), "");  // Keywords.
  EXPECT_EQ(roundTripMetricsJson("{\"\\u1234\":0}"), ""); // Non-latin escape.
}

TEST(RoundTrip, LiveSnapshotIsAlwaysCanonical) {
  Registry &R = Registry::global();
  R.reset();
  R.counter("weird \"name\"\n").add(1);
  R.gauge("g").set(-9000000000);
  R.histogram("h").record(12345);
  {
    ScopedPhase Phase("rt.phase");
  }
  std::string Snapshot = metricsJson();
  EXPECT_EQ(roundTripMetricsJson(Snapshot), Snapshot);
}

} // namespace
} // namespace telemetry
} // namespace snowwhite
