//===- tests/telemetry_off_check.cpp - Compile-out verification -------------===//
//
// Built with SNOWWHITE_TELEMETRY_DISABLED=1 (see tests/CMakeLists.txt), so
// this translation unit sees the stub half of support/telemetry.h while the
// rest of the build keeps telemetry on. It proves the compile-out contract:
// every instrumentation spelling still compiles, produces no-op values, and
// the snapshot degrades to the schema-tagged "off" sentinel. The JSON
// round-trip helper is a pure string transform and stays fully functional.
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <type_traits>

static_assert(!SNOWWHITE_TELEMETRY_ENABLED,
              "this test must be compiled with telemetry disabled");

namespace snowwhite {
namespace telemetry {
namespace {

TEST(TelemetryOff, InstrumentationSitesAreNoOps) {
  counter("serving.submitted").add();
  counter("serving.submitted").add(41);
  gauge("serving.queue_depth").set(9);
  gauge("serving.queue_depth").add(-3);
  histogram("train.batch_ns").record(123456);
  {
    Span Request("serve.request");
    ScopedPhase Phase("train.total");
  }
  EXPECT_EQ(counter("serving.submitted").value(), 0u);
  EXPECT_EQ(gauge("serving.queue_depth").value(), 0);
  EXPECT_EQ(histogram("train.batch_ns").count(), 0u);
  EXPECT_EQ(nowNs(), 0u);
}

// The hot-path spelling: a handle looked up once and kept. Compiled out,
// decltype(auto) deduces the stub value type, so the handle is a no-op.
TEST(TelemetryOff, CachedHandlesAreNoOps) {
  static decltype(auto) Hits = counter("serve_cache.hits");
  static decltype(auto) Depth = gauge("serving.queue_depth");
  static decltype(auto) HitNs = histogram("serving.cache_hit_ns");
  static_assert(!std::is_reference_v<decltype(Hits)>,
                "compiled out, a cached handle is a value, not a reference");
  Hits.add();
  Depth.set(3);
  HitNs.record(42);
  EXPECT_EQ(Hits.value(), 0u);
  EXPECT_EQ(Depth.value(), 0);
  EXPECT_EQ(HitNs.count(), 0u);
}

TEST(TelemetryOff, SnapshotReportsOffSentinel) {
  EXPECT_EQ(metricsJson(),
            "{\"schema\":\"snowwhite.metrics.v1\",\"telemetry\":\"off\"}");
  EXPECT_EQ(traceJson(), "{\"traceEvents\":[]}");
}

TEST(TelemetryOff, RoundTripHelperStaysFunctional) {
  // Tooling can still validate snapshots (e.g. ones written by an
  // instrumented build) even when this process compiled telemetry out.
  EXPECT_EQ(roundTripMetricsJson(metricsJson()), metricsJson());
  EXPECT_EQ(roundTripMetricsJson("{ \"a\" : 12 }"), "{\"a\":12}");
  EXPECT_EQ(roundTripMetricsJson("{\"a\":1.5}"), "");
}

} // namespace
} // namespace telemetry
} // namespace snowwhite
