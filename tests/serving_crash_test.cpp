//===- tests/serving_crash_test.cpp - Crash-safe daemon restart tests ------===//
//
// Contracts under test (issue 7):
//  - a cache snapshot round-trips bit-identically, including across a shard
//    -count change, and a daemon restarted from its snapshot answers
//    previously-computed requests as `cached`-tier hits that are
//    byte-for-byte identical to the pre-restart answers, at multiple
//    SNOWWHITE_THREADS settings;
//  - every corruption class is contained: a truncated tail, a flipped
//    payload byte, and an oversized length field each quarantine only the
//    damaged segment (taxonomy-coded in the load report) while the rest of
//    the snapshot still loads; file-level damage (bad magic, wrong version,
//    header truncation) fails the whole load with the right ErrorCode;
//  - a kill during the snapshot write can never damage the previous
//    snapshot: saves go through writeFileAtomic, so a stale ".tmp" or a
//    failed save leaves the old file loadable;
//  - retryWithBackoff accounts its virtual backoff and surfaces it through
//    the fault.backoff_micros histogram and fault.retries counter;
//  - PredictionCache::checkStats() reconciles the Bytes/Entries counters
//    against a full shard walk even under heavy eviction and overwrite
//    pressure;
//  - the poison watchdog denylists a repeatedly-Suspect signature, restarts
//    the shard engine in place, and keeps the daemon-wide admission
//    identity Submitted == Rejected + Answered intact;
//  - overload shedding rejects before the quota check (a shed request burns
//    no tenant token) and hints a virtual-time retry-after round count.
//
//===----------------------------------------------------------------------===//

#include "model/serve_daemon.h"
#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {
namespace {

using dataset::Dataset;

const Dataset &sharedDataset() {
  static Dataset Data = [] {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 8;
    Spec.Seed = 177;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    return dataset::buildDataset(Corpus);
  }();
  return Data;
}

const Task &sharedTask() {
  static Task T = [] {
    TaskOptions Options;
    Options.MaxTrainSamples = 96;
    return Task(sharedDataset(), Options);
  }();
  return T;
}

struct CrashFixture {
  TrainResult Trained;
  CrashFixture() {
    TrainOptions Options;
    Options.MaxEpochs = 1;
    Options.BatchSize = 16;
    Options.EmbedDim = 12;
    Options.HiddenDim = 16;
    Options.MaxValidSamples = 32;
    Options.Seed = 515;
    Trained = trainModel(sharedTask(), Options);
  }
};

CrashFixture &fixture() {
  static CrashFixture F;
  return F;
}

std::vector<std::vector<std::string>> sampleInputs(size_t Count) {
  std::vector<std::vector<std::string>> Out;
  for (const dataset::TypeSample &Sample : sharedDataset().Samples) {
    if (Out.size() >= Count)
      break;
    Out.push_back(Sample.Input);
  }
  return Out;
}

bool samePredictions(const std::vector<TypePrediction> &A,
                     const std::vector<TypePrediction> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Tokens != B[I].Tokens ||
        std::memcmp(&A[I].LogProb, &B[I].LogProb, sizeof(float)) != 0)
      return false;
  return true;
}

CachedPrediction makeValue(const std::string &Token, float LogProb) {
  CachedPrediction Value;
  Value.ComputedBy = PredictionTier::Beam;
  TypePrediction P;
  P.Tokens = {Token, Token + " *"};
  P.LogProb = LogProb;
  Value.Predictions.push_back(std::move(P));
  return Value;
}

/// Fills Cache with Count synthetic entries keyed "key-<i>" and returns the
/// keys. Values differ per key so a cross-wired restore cannot pass the
/// bit-identity checks.
std::vector<std::string> fillCache(PredictionCache &Cache, size_t Count) {
  std::vector<std::string> Keys;
  for (size_t I = 0; I < Count; ++I) {
    std::string Key = "key-" + std::to_string(I);
    Cache.insert(hashString(Key), Key,
                 makeValue("type-" + std::to_string(I),
                           -0.25f * static_cast<float>(I + 1)));
    Keys.push_back(std::move(Key));
  }
  return Keys;
}

// --- Snapshot byte-surgery helpers -------------------------------------------
//
// The corruption tests patch snapshot files directly, so they encode the
// on-disk layout: u64 LE header fields (magic, version, segment count),
// then per segment u64 payload length, u64 FNV-1a checksum, payload.

uint64_t readLE(const std::vector<uint8_t> &Bytes, size_t Offset) {
  uint64_t Value = 0;
  for (size_t I = 0; I < 8; ++I)
    Value |= static_cast<uint64_t>(Bytes[Offset + I]) << (8 * I);
  return Value;
}

void writeLE(std::vector<uint8_t> &Bytes, size_t Offset, uint64_t Value) {
  for (size_t I = 0; I < 8; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>((Value >> (8 * I)) & 0xff);
}

struct SegmentView {
  size_t HeaderOffset = 0;  ///< Offset of the PayloadLen field.
  size_t PayloadOffset = 0; ///< Offset of the payload's first byte.
  uint64_t PayloadLen = 0;
  uint64_t EntryCount = 0;
};

/// Walks the segment framing and returns one view per segment.
std::vector<SegmentView> mapSegments(const std::vector<uint8_t> &Bytes) {
  std::vector<SegmentView> Out;
  uint64_t NumSegments = readLE(Bytes, 16);
  size_t Offset = 24;
  for (uint64_t Seg = 0; Seg < NumSegments; ++Seg) {
    SegmentView View;
    View.HeaderOffset = Offset;
    View.PayloadLen = readLE(Bytes, Offset);
    View.PayloadOffset = Offset + 16;
    View.EntryCount =
        View.PayloadLen >= 8 ? readLE(Bytes, View.PayloadOffset) : 0;
    Out.push_back(View);
    Offset = View.PayloadOffset + static_cast<size_t>(View.PayloadLen);
  }
  return Out;
}

/// Recomputes and patches a segment's checksum after its payload was edited
/// (the corruption under test is in the payload, not the checksum).
void resealSegment(std::vector<uint8_t> &Bytes, const SegmentView &View) {
  writeLE(Bytes, View.HeaderOffset + 8,
          hashBytes(Bytes.data() + View.PayloadOffset,
                    static_cast<size_t>(View.PayloadLen)));
}

std::vector<uint8_t> mustRead(const std::string &Path) {
  Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Path);
  EXPECT_TRUE(Bytes.isOk());
  return Bytes.isOk() ? Bytes.value() : std::vector<uint8_t>();
}

// --- Snapshot round-trip -------------------------------------------------------

TEST(CacheSnapshot, RoundTripIsBitIdentical) {
  PredictionCache::Config Cfg;
  Cfg.NumShards = 4;
  PredictionCache Original(Cfg);
  std::vector<std::string> Keys = fillCache(Original, 32);
  std::string Path = ::testing::TempDir() + "/crash_roundtrip.snapshot";
  ASSERT_TRUE(Original.saveSnapshot(Path).isOk());

  PredictionCache Restored(Cfg);
  Result<SnapshotLoadReport> Loaded = Restored.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk()) << Loaded.error().message();
  EXPECT_EQ(Loaded.value().SegmentsTotal, 4u);
  EXPECT_EQ(Loaded.value().SegmentsLoaded, 4u);
  EXPECT_EQ(Loaded.value().SegmentsQuarantined, 0u);
  EXPECT_EQ(Loaded.value().EntriesLoaded, Keys.size());
  EXPECT_TRUE(Restored.checkStats());
  EXPECT_EQ(Restored.totals().Entries, Keys.size());
  EXPECT_EQ(Restored.totals().Bytes, Original.totals().Bytes);

  for (const std::string &Key : Keys) {
    auto Before = Original.find(hashString(Key), Key);
    auto After = Restored.find(hashString(Key), Key);
    ASSERT_TRUE(Before.has_value());
    ASSERT_TRUE(After.has_value()) << Key;
    EXPECT_EQ(After->ComputedBy, Before->ComputedBy);
    EXPECT_TRUE(samePredictions(After->Predictions, Before->Predictions))
        << Key;
  }
}

// A snapshot taken with one shard count must load into a cache with
// another: restore routes by the current shard count, not the saved one.
TEST(CacheSnapshot, LoadsAcrossShardCountChange) {
  PredictionCache::Config WideCfg;
  WideCfg.NumShards = 8;
  PredictionCache Wide(WideCfg);
  std::vector<std::string> Keys = fillCache(Wide, 24);
  std::string Path = ::testing::TempDir() + "/crash_reshard.snapshot";
  ASSERT_TRUE(Wide.saveSnapshot(Path).isOk());

  PredictionCache::Config NarrowCfg;
  NarrowCfg.NumShards = 3;
  PredictionCache Narrow(NarrowCfg);
  Result<SnapshotLoadReport> Loaded = Narrow.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk());
  EXPECT_EQ(Loaded.value().EntriesLoaded, Keys.size());
  EXPECT_TRUE(Narrow.checkStats());
  for (const std::string &Key : Keys)
    EXPECT_TRUE(Narrow.find(hashString(Key), Key).has_value()) << Key;
}

// --- Corruption classes --------------------------------------------------------

TEST(CacheSnapshot, TruncatedTailQuarantinesOnlyTheTail) {
  PredictionCache Cache;
  fillCache(Cache, 32);
  std::string Path = ::testing::TempDir() + "/crash_truncated.snapshot";
  ASSERT_TRUE(Cache.saveSnapshot(Path).isOk());

  std::vector<uint8_t> Bytes = mustRead(Path);
  std::vector<SegmentView> Segments = mapSegments(Bytes);
  ASSERT_EQ(Segments.size(), 4u);
  // Cut into the last segment's payload: earlier segments stay intact.
  const SegmentView &Last = Segments.back();
  ASSERT_GT(Last.EntryCount, 0u);
  Bytes.resize(Last.PayloadOffset + 4);
  ASSERT_TRUE(io::writeFileAtomic(Path, Bytes).isOk());

  PredictionCache Restored;
  Result<SnapshotLoadReport> Loaded = Restored.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk()) << "segment damage must not fail the load";
  const SnapshotLoadReport &Report = Loaded.value();
  EXPECT_EQ(Report.SegmentsTotal, 4u);
  EXPECT_EQ(Report.SegmentsLoaded, 3u);
  EXPECT_EQ(Report.SegmentsQuarantined, 1u);
  EXPECT_EQ(Report.QuarantinedByCode.count(ErrorCode::Truncated), 1u);
  EXPECT_GT(Report.EntriesLoaded, 0u);
  EXPECT_TRUE(Restored.checkStats());
}

TEST(CacheSnapshot, FlippedPayloadByteQuarantinesOneSegment) {
  PredictionCache Cache;
  std::vector<std::string> Keys = fillCache(Cache, 32);
  std::string Path = ::testing::TempDir() + "/crash_bitflip.snapshot";
  ASSERT_TRUE(Cache.saveSnapshot(Path).isOk());

  std::vector<uint8_t> Bytes = mustRead(Path);
  std::vector<SegmentView> Segments = mapSegments(Bytes);
  size_t Victim = Segments.size();
  for (size_t I = 0; I < Segments.size(); ++I)
    if (Segments[I].EntryCount > 0) {
      Victim = I;
      break;
    }
  ASSERT_LT(Victim, Segments.size());
  // Flip one bit mid-payload; the framing stays valid, so only this
  // segment's checksum can notice.
  Bytes[Segments[Victim].PayloadOffset +
        static_cast<size_t>(Segments[Victim].PayloadLen) / 2] ^= 0x01;
  ASSERT_TRUE(io::writeFileAtomic(Path, Bytes).isOk());

  PredictionCache Restored;
  Result<SnapshotLoadReport> Loaded = Restored.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk());
  const SnapshotLoadReport &Report = Loaded.value();
  EXPECT_EQ(Report.SegmentsTotal, Segments.size());
  EXPECT_EQ(Report.SegmentsQuarantined, 1u);
  EXPECT_EQ(Report.SegmentsLoaded, Segments.size() - 1);
  auto It = Report.QuarantinedByCode.find(ErrorCode::ChecksumMismatch);
  ASSERT_NE(It, Report.QuarantinedByCode.end());
  EXPECT_EQ(It->second, 1u);
  // The undamaged shards' entries survived.
  EXPECT_EQ(Report.EntriesLoaded,
            Keys.size() - Segments[Victim].EntryCount);
  EXPECT_TRUE(Restored.checkStats());
}

TEST(CacheSnapshot, OversizedLengthFieldQuarantinesSegment) {
  PredictionCache Cache;
  fillCache(Cache, 32);
  std::string Path = ::testing::TempDir() + "/crash_oversized.snapshot";
  ASSERT_TRUE(Cache.saveSnapshot(Path).isOk());

  std::vector<uint8_t> Bytes = mustRead(Path);
  std::vector<SegmentView> Segments = mapSegments(Bytes);
  size_t Victim = Segments.size();
  for (size_t I = 0; I < Segments.size(); ++I)
    if (Segments[I].EntryCount > 0) {
      Victim = I;
      break;
    }
  ASSERT_LT(Victim, Segments.size());
  // Inflate the first entry's key length (payload offset 8, right after the
  // entry count) past the field cap, and reseal the checksum so the limit
  // check — not the checksum — is what rejects it.
  writeLE(Bytes, Segments[Victim].PayloadOffset + 8, 1ull << 30);
  resealSegment(Bytes, Segments[Victim]);
  ASSERT_TRUE(io::writeFileAtomic(Path, Bytes).isOk());

  PredictionCache Restored;
  Result<SnapshotLoadReport> Loaded = Restored.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk());
  const SnapshotLoadReport &Report = Loaded.value();
  EXPECT_EQ(Report.SegmentsQuarantined, 1u);
  EXPECT_EQ(Report.QuarantinedByCode.count(ErrorCode::LimitExceeded), 1u);
  EXPECT_TRUE(Restored.checkStats());
}

TEST(CacheSnapshot, FileLevelDamageFailsTheWholeLoad) {
  PredictionCache Cache;
  fillCache(Cache, 8);
  std::string Path = ::testing::TempDir() + "/crash_filelevel.snapshot";
  ASSERT_TRUE(Cache.saveSnapshot(Path).isOk());
  std::vector<uint8_t> Good = mustRead(Path);

  // Wrong version: refused as Unsupported (a future format, not damage).
  std::vector<uint8_t> Versioned = Good;
  writeLE(Versioned, 8, PredictionCache::SnapshotVersion + 1);
  ASSERT_TRUE(io::writeFileAtomic(Path, Versioned).isOk());
  PredictionCache A;
  Result<SnapshotLoadReport> Loaded = A.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Unsupported);
  EXPECT_EQ(A.totals().Entries, 0u);

  // Bad magic: not a snapshot at all.
  std::vector<uint8_t> Magicked = Good;
  Magicked[0] ^= 0xff;
  ASSERT_TRUE(io::writeFileAtomic(Path, Magicked).isOk());
  PredictionCache B;
  Loaded = B.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed);

  // Header truncation: shorter than the three header fields.
  std::vector<uint8_t> Stub(Good.begin(), Good.begin() + 10);
  ASSERT_TRUE(io::writeFileAtomic(Path, Stub).isOk());
  PredictionCache C;
  Loaded = C.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Truncated);

  // Hostile segment count: refused outright instead of reporting
  // quadrillions of phantom quarantined segments.
  std::vector<uint8_t> Bloated = Good;
  writeLE(Bloated, 16, 1ull << 40);
  ASSERT_TRUE(io::writeFileAtomic(Path, Bloated).isOk());
  PredictionCache E;
  Loaded = E.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::LimitExceeded);

  // Missing file: IoError, so a caller can tell cold start from damage.
  PredictionCache D;
  Loaded = D.loadSnapshot(::testing::TempDir() + "/crash_nonexistent.snap");
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::IoError);
}

// --- Kill during snapshot write ------------------------------------------------

TEST(CacheSnapshot, KilledSaveLeavesPreviousSnapshotIntact) {
  PredictionCache Cache;
  std::vector<std::string> Keys = fillCache(Cache, 16);
  std::string Path = ::testing::TempDir() + "/crash_killed.snapshot";
  ASSERT_TRUE(Cache.saveSnapshot(Path).isOk());
  std::vector<uint8_t> Good = mustRead(Path);

  // A crash between the temp write and the rename leaves a stray ".tmp";
  // the published snapshot must be unaffected by it.
  std::vector<uint8_t> Garbage(64, 0xa5);
  ASSERT_TRUE(io::writeFileAtomic(Path + ".tmp", Garbage).isOk());

  // A save whose every write attempt fails (exhausting the retry policy)
  // must report the failure without touching the published file.
  fault::FaultConfig FaultCfg;
  FaultCfg.Seed = 7;
  FaultCfg.IoFailureRate = 1.0;
  fault::FaultInjector Faults(FaultCfg);
  PredictionCache Bigger;
  fillCache(Bigger, 64);
  Result<void> Saved = Bigger.saveSnapshot(Path, &Faults);
  ASSERT_TRUE(Saved.isErr());
  EXPECT_EQ(Saved.error().code(), ErrorCode::IoTransient);
  EXPECT_EQ(mustRead(Path), Good);

  PredictionCache Restored;
  Result<SnapshotLoadReport> Loaded = Restored.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk());
  EXPECT_EQ(Loaded.value().EntriesLoaded, Keys.size());
  EXPECT_EQ(Loaded.value().SegmentsQuarantined, 0u);
  for (const std::string &Key : Keys)
    EXPECT_TRUE(Restored.find(hashString(Key), Key).has_value());
}

// --- Retry backoff telemetry (satellite: fault.backoff_micros) -----------------

TEST(RetryBackoff, AccountsVirtualBackoffAndTelemetry) {
  telemetry::Registry::global().reset();
  fault::RetryPolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.InitialBackoffMicros = 100;
  Policy.BackoffMultiplier = 2.0;

  // Fails once, then succeeds: one retry, one backoff step.
  int Calls = 0;
  uint64_t Spent = 0;
  Result<void> Ok = fault::retryWithBackoff(
      Policy,
      [&]() -> Result<void> {
        if (++Calls == 1)
          return Error(ErrorCode::IoTransient, "flaky once");
        return {};
      },
      &Spent);
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Calls, 2);
  EXPECT_EQ(Spent, 100u);
  EXPECT_EQ(telemetry::counter("fault.retries").value(), 1u);
  EXPECT_EQ(telemetry::histogram("fault.backoff_micros").count(), 1u);

  // Fails every attempt: the full 100 + 200 schedule is accounted.
  Spent = 0;
  Result<void> Err = fault::retryWithBackoff(
      Policy,
      [&]() -> Result<void> {
        return Error(ErrorCode::IoTransient, "always down");
      },
      &Spent);
  EXPECT_TRUE(Err.isErr());
  EXPECT_EQ(Spent, 300u);
  // One counter bump per retry loop that backed off, not per attempt.
  EXPECT_EQ(telemetry::counter("fault.retries").value(), 2u);
  EXPECT_EQ(telemetry::histogram("fault.backoff_micros").count(), 2u);

  // Non-transient errors never retry and never record backoff.
  Spent = 0;
  Calls = 0;
  Result<void> Hard = fault::retryWithBackoff(
      Policy,
      [&]() -> Result<void> {
        ++Calls;
        return Error(ErrorCode::Malformed, "not transient");
      },
      &Spent);
  EXPECT_TRUE(Hard.isErr());
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Spent, 0u);
}

// --- checkStats under pressure (satellite: counter reconciliation) -------------

TEST(CacheCheckStats, ReconcilesUnderEvictionAndOverwritePressure) {
  PredictionCache::Config Cfg;
  Cfg.NumShards = 2;
  Cfg.ByteBudget = 4096; // Tiny: forces constant eviction.
  PredictionCache Cache(Cfg);
  for (size_t Round = 0; Round < 4; ++Round) {
    for (size_t I = 0; I < 64; ++I) {
      std::string Key = "pressure-" + std::to_string(I % 48);
      Cache.insert(hashString(Key), Key,
                   makeValue(std::string(16 + (I % 7) * 8, 'x'),
                             -1.0f * static_cast<float>(Round)));
      ASSERT_TRUE(Cache.checkStats()) << "round " << Round << " insert " << I;
    }
    for (size_t I = 0; I < 48; ++I) {
      std::string Key = "pressure-" + std::to_string(I);
      (void)Cache.find(hashString(Key), Key);
    }
    ASSERT_TRUE(Cache.checkStats());
  }
  CacheStats Totals = Cache.totals();
  EXPECT_GT(Totals.Evictions, 0u);
  EXPECT_LE(Totals.Bytes, Cfg.ByteBudget);
}

// --- Poison watchdog -----------------------------------------------------------

TEST(DaemonWatchdog, PoisonedSignatureIsDenylistedAndShardRestarted) {
  ThreadPool::resetGlobal(2);
  CrashFixture &F = fixture();
  DaemonOptions Opts;
  Opts.NumWorkers = 1;
  Opts.UseCache = false; // A cache hit would mask the repeat fault.
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 64;
  fault::FaultConfig FaultCfg;
  FaultCfg.Seed = 33;
  FaultCfg.ModelFailureRate = 1.0; // Every decode faults: all answers Suspect.
  Opts.WorkerFaults = FaultCfg;
  Opts.PoisonStrikeLimit = 2;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(2);
  ASSERT_GE(Inputs.size(), 2u);
  uint64_t Id = 0;
  auto SubmitPoison = [&]() {
    DaemonRequest Request;
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Inputs[0];
    return Daemon.submit(std::move(Request));
  };

  // Strike one: the answer degrades to baseline (the ladder still answers)
  // and the signature is charged.
  ASSERT_EQ(SubmitPoison().Outcome, AdmitOutcome::Admitted);
  std::vector<ServeResponse> Round1 = Daemon.pump();
  ASSERT_EQ(Round1.size(), 1u);
  EXPECT_EQ(Round1[0].Outcome, ServeOutcome::OkBaseline);
  EXPECT_TRUE(Round1[0].Suspect);
  EXPECT_FALSE(Round1[0].Predictions.empty());
  EXPECT_EQ(Daemon.stats().WatchdogStrikes, 1u);
  EXPECT_EQ(Daemon.stats().ShardRestarts, 0u);

  // Strike two reaches the limit: denylist + in-place engine restart.
  ASSERT_EQ(SubmitPoison().Outcome, AdmitOutcome::Admitted);
  ASSERT_EQ(Daemon.pump().size(), 1u);
  EXPECT_EQ(Daemon.stats().WatchdogStrikes, 2u);
  EXPECT_EQ(Daemon.stats().ShardRestarts, 1u);
  EXPECT_EQ(Daemon.denylistSize(), 1u);
  ServeRequest Probe;
  Probe.InputTokens = Inputs[0];
  EXPECT_TRUE(Daemon.isDenylisted(Probe));

  // The poisoned signature is now refused without touching a worker...
  AdmitResult Refused = SubmitPoison();
  EXPECT_EQ(Refused.Outcome, AdmitOutcome::RejectedPoisoned);
  EXPECT_EQ(Daemon.stats().RejectedPoisoned, 1u);

  // ...while a different input is admitted and answered by the restarted
  // engine, and the daemon-wide admission identity still balances.
  DaemonRequest Other;
  Other.Request.Id = Id++;
  Other.Request.InputTokens = Inputs[1];
  ASSERT_EQ(Daemon.submit(std::move(Other)).Outcome, AdmitOutcome::Admitted);
  EXPECT_EQ(Daemon.pump().size(), 1u);
  EXPECT_TRUE(Daemon.checkStats());
  Daemon.shutdown();
  EXPECT_TRUE(Daemon.checkStats());
  ServingStats Totals = Daemon.engineTotals();
  EXPECT_EQ(Totals.Submitted, Totals.Rejected + Totals.Answered);
}

// --- Overload shedding ---------------------------------------------------------

TEST(DaemonOverload, ShedsBeforeQuotaWithRetryHint) {
  ThreadPool::resetGlobal(2);
  CrashFixture &F = fixture();
  DaemonOptions Opts;
  Opts.NumWorkers = 1;
  Opts.Serving.DefaultStepBudget = 64;
  Opts.Serving.QueueCapacity = 32;
  Opts.ShardCostBudget = 64; // Exactly one default-budget request fits.
  Opts.TenantCapacity = 8;
  Opts.TenantRefill = 8;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(2);
  ASSERT_GE(Inputs.size(), 2u);
  uint64_t Id = 0;
  auto Submit = [&](size_t Input) {
    DaemonRequest Request;
    Request.Tenant = "acme";
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Inputs[Input];
    return Daemon.submit(std::move(Request));
  };

  ASSERT_EQ(Submit(0).Outcome, AdmitOutcome::Admitted);
  EXPECT_EQ(Daemon.shardPendingCost(0), 64u);
  EXPECT_EQ(Daemon.tenantTokens("acme"), 7u);

  // The shard is full for this round: shed with a virtual-time hint, and —
  // because overload is checked before quota — without burning a token.
  AdmitResult Shed = Submit(1);
  EXPECT_EQ(Shed.Outcome, AdmitOutcome::RejectedOverload);
  EXPECT_EQ(Shed.RetryAfterRounds, 2u); // (64 pending + 64 new) / 64.
  EXPECT_EQ(Daemon.tenantTokens("acme"), 7u);
  EXPECT_EQ(Daemon.stats().RejectedOverload, 1u);

  // One pump round drains the backlog; the shed request now fits.
  EXPECT_EQ(Daemon.pump().size(), 1u);
  EXPECT_EQ(Daemon.shardPendingCost(0), 0u);
  ASSERT_EQ(Submit(1).Outcome, AdmitOutcome::Admitted);
  EXPECT_EQ(Daemon.pump().size(), 1u);
  EXPECT_TRUE(Daemon.checkStats());

  // A request with its own smaller budget costs what it declared.
  DaemonRequest Cheap;
  Cheap.Tenant = "acme";
  Cheap.Request.Id = Id++;
  Cheap.Request.InputTokens = Inputs[0];
  Cheap.Request.StepBudget = 16;
  ASSERT_EQ(Daemon.submit(std::move(Cheap)).Outcome, AdmitOutcome::Admitted);
  EXPECT_EQ(Daemon.shardPendingCost(0), 16u);
  EXPECT_EQ(Daemon.pump().size(), 1u);
  EXPECT_TRUE(Daemon.checkStats());
}

// --- Warm restart through the daemon -------------------------------------------

struct RestartRunResult {
  std::vector<ServeResponse> Cold; ///< First run: computed answers.
  std::vector<ServeResponse> Warm; ///< After restart: must all be cached.
};

RestartRunResult runRestartWorkload(unsigned Threads) {
  ThreadPool::resetGlobal(Threads);
  CrashFixture &F = fixture();
  std::string Path = ::testing::TempDir() + "/crash_restart_t" +
                     std::to_string(Threads) + ".snapshot";
  std::remove(Path.c_str());
  DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 128;
  Opts.Serving.QueueCapacity = 64;
  Opts.SnapshotPath = Path;

  std::vector<std::vector<std::string>> Inputs = sampleInputs(8);
  RestartRunResult Out;
  {
    ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);
    uint64_t Id = 0;
    for (const std::vector<std::string> &Input : Inputs) {
      DaemonRequest Request;
      Request.Request.Id = Id++;
      Request.Request.InputTokens = Input;
      EXPECT_EQ(Daemon.submit(std::move(Request)).Outcome,
                AdmitOutcome::Admitted);
    }
    Out.Cold = Daemon.pump();
    EXPECT_TRUE(Daemon.checkStats());
    // The kill: shutdown writes the final snapshot (the only save so far).
    Daemon.shutdown();
    EXPECT_EQ(Daemon.stats().SnapshotSaves, 1u);
  }
  {
    ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);
    Result<SnapshotLoadReport> Loaded = Daemon.loadSnapshotNow();
    EXPECT_TRUE(Loaded.isOk());
    if (Loaded.isOk()) {
      EXPECT_EQ(Loaded.value().SegmentsQuarantined, 0u);
      EXPECT_GT(Loaded.value().EntriesLoaded, 0u);
    }
    EXPECT_TRUE(Daemon.lastLoadReport().has_value());
    uint64_t Id = 1000;
    for (const std::vector<std::string> &Input : Inputs) {
      DaemonRequest Request;
      Request.Request.Id = Id++;
      Request.Request.InputTokens = Input;
      EXPECT_EQ(Daemon.submit(std::move(Request)).Outcome,
                AdmitOutcome::Admitted);
    }
    Out.Warm = Daemon.pump();
    EXPECT_TRUE(Daemon.checkStats());
    // The restarted daemon never decoded: every answer replayed from the
    // snapshot-warmed cache.
    EXPECT_EQ(Daemon.engineTotals().CachedAnswers, Inputs.size());
    std::string Health = Daemon.healthReport();
    EXPECT_NE(Health.find("snapshot.entries_loaded="), std::string::npos);
    Daemon.shutdown();
  }
  return Out;
}

TEST(DaemonRestart, WarmHitsAreBitIdenticalAcrossThreadCounts) {
  RestartRunResult Baseline = runRestartWorkload(1);
  ASSERT_EQ(Baseline.Cold.size(), 8u);
  ASSERT_EQ(Baseline.Warm.size(), 8u);
  for (size_t I = 0; I < Baseline.Warm.size(); ++I) {
    EXPECT_EQ(Baseline.Warm[I].Outcome, ServeOutcome::OkCached);
    EXPECT_EQ(Baseline.Warm[I].Tier, PredictionTier::Cached);
    EXPECT_EQ(Baseline.Warm[I].DecodeStepsUsed, 0u);
    EXPECT_TRUE(samePredictions(Baseline.Warm[I].Predictions,
                                Baseline.Cold[I].Predictions))
        << "request " << I;
  }

  RestartRunResult Wide = runRestartWorkload(4);
  ASSERT_EQ(Wide.Warm.size(), Baseline.Warm.size());
  for (size_t I = 0; I < Wide.Warm.size(); ++I) {
    EXPECT_EQ(Wide.Warm[I].Outcome, ServeOutcome::OkCached);
    EXPECT_TRUE(samePredictions(Wide.Warm[I].Predictions,
                                Baseline.Warm[I].Predictions))
        << "thread-count variance at request " << I;
  }
  ThreadPool::resetGlobal(0);
}

// --- Snapshot cadence ----------------------------------------------------------

TEST(DaemonRestart, CadenceSnapshotsDuringSteadyTraffic) {
  ThreadPool::resetGlobal(2);
  CrashFixture &F = fixture();
  std::string Path = ::testing::TempDir() + "/crash_cadence.snapshot";
  std::remove(Path.c_str());
  DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.DefaultStepBudget = 64;
  Opts.SnapshotPath = Path;
  Opts.SnapshotEveryInsertions = 2;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(6);
  ASSERT_GE(Inputs.size(), 6u);
  std::set<std::vector<std::string>> Unique(Inputs.begin(), Inputs.end());
  ASSERT_GE(Unique.size(), 2u);
  uint64_t Id = 0;
  for (const std::vector<std::string> &Input : Inputs) {
    DaemonRequest Request;
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Input;
    ASSERT_EQ(Daemon.submit(std::move(Request)).Outcome,
              AdmitOutcome::Admitted);
    Daemon.pump();
  }
  // Each distinct input is one cache insertion, and the cadence saves every
  // second insertion: the snapshot existed well before shutdown, so a hard
  // kill here would still have warm state on disk.
  EXPECT_GE(Daemon.stats().SnapshotSaves, Unique.size() / 2);
  std::vector<uint8_t> MidRun = mustRead(Path);
  EXPECT_FALSE(MidRun.empty());
  PredictionCache Probe;
  Result<SnapshotLoadReport> Loaded = Probe.loadSnapshot(Path);
  ASSERT_TRUE(Loaded.isOk());
  EXPECT_GT(Loaded.value().EntriesLoaded, 0u);
  Daemon.shutdown();
  EXPECT_TRUE(Daemon.checkStats());
}

// The snapshot's bytes are pinned by hash: the byte codec underneath may
// change, the format may not. The fill covers every tier, an entry with no
// predictions, several predictions per entry, an empty token, and an LRU
// refresh that reorders one shard.
TEST(SnapshotFormat, SerializeGolden) {
  PredictionCache::Config Cfg;
  Cfg.NumShards = 3;
  PredictionCache Cache(Cfg);
  std::vector<std::string> Keys = fillCache(Cache, 7);
  CachedPrediction Mixed;
  Mixed.ComputedBy = PredictionTier::Greedy;
  Mixed.Predictions.push_back(makeValue("u32", -1.5f).Predictions[0]);
  TypePrediction Empty;
  Empty.Tokens = {"", "pointer"};
  Empty.LogProb = -std::numeric_limits<float>::infinity();
  Mixed.Predictions.push_back(Empty);
  Cache.insert(hashString("mixed"), "mixed", Mixed);
  CachedPrediction None;
  None.ComputedBy = PredictionTier::Baseline;
  Cache.insert(hashString("none"), "none", None);
  CachedPrediction Replayed = makeValue("f64", -0.125f);
  Replayed.ComputedBy = PredictionTier::Cached;
  Cache.insert(hashString("replayed"), "replayed", Replayed);
  ASSERT_TRUE(Cache.find(hashString(Keys[1]), Keys[1]).has_value());
  std::vector<uint8_t> Bytes = Cache.serializeSnapshot();
  EXPECT_EQ(Bytes.size(), 829u);
  EXPECT_EQ(hashToHex(hashVector(Bytes)), "105c349040c8cbfe");
}

} // namespace
} // namespace model
} // namespace snowwhite
