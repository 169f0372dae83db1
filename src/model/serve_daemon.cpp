#include "model/serve_daemon.h"

#include "analysis/evidence.h"
#include "support/bytes.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/leb128.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <type_traits>

namespace snowwhite {
namespace model {

//===----------------------------------------------------------------------===//
// PredictionCache
//===----------------------------------------------------------------------===//

PredictionCache::PredictionCache(const Config &Cfg) {
  size_t NumShards = std::max<size_t>(1, Cfg.NumShards);
  uint64_t PerShard = Cfg.ByteBudget / NumShards;
  for (size_t I = 0; I < NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>());
    Shards.back()->ByteBudget = PerShard;
  }
}

namespace {

/// The token frame shared by the cache key and the watchdog signature:
/// ULEB128 token count, then each token's ULEB128 byte length and its
/// bytes. Every token is length-prefixed, so no other token split of the
/// same bytes (and no token that merely looks like a length) has the same
/// frame.
void appendTokenFrame(const std::vector<std::string> &Tokens,
                      std::string &Out) {
  encodeULEB128(Tokens.size(), Out);
  for (const std::string &Tok : Tokens) {
    encodeULEB128(Tok.size(), Out);
    Out += Tok;
  }
}

/// Every stored field of an evidence struct (analysis::forEachField), in
/// declaration order, one ULEB128 each; CallTargets is its count then each
/// target.
template <typename Evidence>
void appendEvidence(const Evidence &E, std::string &Out) {
  analysis::forEachField(E, [&Out](const char *, const auto &Field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(Field)>,
                                 std::vector<uint32_t>>) {
      encodeULEB128(Field.size(), Out);
      for (uint32_t Element : Field)
        encodeULEB128(Element, Out);
    } else {
      encodeULEB128(static_cast<uint64_t>(Field), Out);
    }
  });
}

} // namespace

std::string PredictionCache::requestKey(const ServeRequest &Request,
                                        uint64_t Budget, unsigned K,
                                        unsigned Width) {
  std::string Key;
  size_t FrameBytes = 0;
  for (const std::string &Tok : Request.InputTokens)
    FrameBytes += Tok.size() + 1;
  Key.reserve(FrameBytes + 64);
  appendTokenFrame(Request.InputTokens, Key);
  // Everything that changes the answer is part of the identity: budget, K,
  // width, and the evidence the gate will apply. The frame above fixes
  // where the tokens end, and each field below is self-delimiting, so the
  // key parses back one way only.
  encodeULEB128(Budget, Key);
  encodeULEB128(K, Key);
  encodeULEB128(Width, Key);
  const analysis::QueryEvidence &Evidence = Request.Evidence;
  Key.push_back(static_cast<char>((Evidence.Param ? 1 : 0) |
                                  (Evidence.Ret ? 2 : 0)));
  if (Evidence.Param)
    appendEvidence(*Evidence.Param, Key);
  if (Evidence.Ret)
    appendEvidence(*Evidence.Ret, Key);
  return Key;
}

uint64_t PredictionCache::keyHash(std::string_view Key) {
  // One multiply-xorshift step per 8-byte word: a ~1 KB request key takes
  // ~135 dependent steps where byte-serial FNV-1a takes ~1,080. The length
  // is mixed in first, so a key and its zero-padded extension differ.
  constexpr uint64_t Mul = 0x9e3779b97f4a7c15ull;
  auto Step = [](uint64_t H, uint64_t Word) {
    H = (H ^ Word) * Mul;
    return H ^ (H >> 32);
  };
  auto LoadLE = [](const char *P, size_t N) {
    uint64_t Word = 0;
    if (N == 8 && std::endian::native == std::endian::little) {
      std::memcpy(&Word, P, 8);
      return Word;
    }
    for (size_t I = 0; I < N; ++I)
      Word |= uint64_t(static_cast<unsigned char>(P[I])) << (8 * I);
    return Word;
  };
  const char *P = Key.data();
  size_t Left = Key.size();
  uint64_t H = Step(0x243f6a8885a308d3ull, Left);
  for (; Left >= 8; P += 8, Left -= 8)
    H = Step(H, LoadLE(P, 8));
  if (Left)
    H = Step(H, LoadLE(P, Left));
  // MurmurHash3's fmix64: every input bit reaches the low bits that pick
  // the shard (Hash % NumShards).
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

uint64_t PredictionCache::entryBytes(const std::string &Key,
                                     const CachedPrediction &Value) {
  // Deterministic estimate (not allocator truth): key bytes + per-token
  // bytes + fixed per-object overheads. Stable across platforms so byte
  // budgets behave identically everywhere.
  uint64_t Bytes = 64 + Key.size();
  for (const TypePrediction &P : Value.Predictions) {
    Bytes += 32;
    for (const std::string &Tok : P.Tokens)
      Bytes += Tok.size() + 16;
  }
  return Bytes;
}

bool PredictionCache::shardConsistent(const Shard &S) {
  uint64_t Bytes = 0;
  uint64_t Entries = 0;
  for (const auto &[Hash, Bucket] : S.Buckets)
    for (const Entry &E : Bucket) {
      Bytes += E.Bytes;
      ++Entries;
    }
  return Bytes == S.Stats.Bytes && Entries == S.Stats.Entries;
}

bool PredictionCache::checkStats() const {
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    if (!shardConsistent(*S))
      return false;
  }
  return true;
}

std::optional<CachedPrediction> PredictionCache::find(uint64_t Hash,
                                                      std::string_view Key) {
  Shard &S = *Shards[Hash % Shards.size()];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Buckets.find(Hash);
  if (It != S.Buckets.end()) {
    for (Entry &E : It->second) {
      if (E.Key == Key) {
        E.LastUse = ++S.Clock;
        ++S.Stats.Hits;
        static decltype(auto) HitCount =
            telemetry::counter("serve_cache.hits");
        HitCount.add();
        return E.Value; // Copy: safe to use after the lock drops.
      }
    }
  }
  ++S.Stats.Misses;
  static decltype(auto) MissCount = telemetry::counter("serve_cache.misses");
  MissCount.add();
  return std::nullopt;
}

void PredictionCache::insert(uint64_t Hash, std::string Key,
                             CachedPrediction Value) {
  admit(Hash, std::move(Key), std::move(Value), /*Restored=*/false);
}

void PredictionCache::admit(uint64_t Hash, std::string Key,
                            CachedPrediction Value, bool Restored) {
  Shard &S = *Shards[Hash % Shards.size()];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  std::vector<Entry> &Bucket = S.Buckets[Hash];
  for (Entry &E : Bucket) {
    if (E.Key == Key) {
      // Same key recomputed (e.g. after eviction raced a lookup): computes
      // are deterministic, so refreshing recency is all there is to do.
      E.LastUse = ++S.Clock;
      return;
    }
  }
  bool Collided = !Bucket.empty();
  Entry E;
  E.Bytes = entryBytes(Key, Value);
  E.Key = std::move(Key);
  E.Value = std::move(Value);
  E.LastUse = ++S.Clock;
  S.Stats.Bytes += E.Bytes;
  ++S.Stats.Entries;
  // A restore re-admits what an earlier insert already counted, so it
  // leaves the insertion cadence (and the collision count) alone.
  if (!Restored) {
    ++S.Stats.Insertions;
    telemetry::counter("serve_cache.insertions").add();
    if (Collided) {
      // Distinct key, same 64-bit hash: a detected collision. Both entries
      // stay resident side by side; byte-wise key comparison keeps their
      // answers apart.
      ++S.Stats.Collisions;
      telemetry::counter("serve_cache.collisions").add();
    }
  }
  Bucket.push_back(std::move(E));
  evictOverBudget(S);
  assert(shardConsistent(S) && "cache counters diverged after admit");
}

void PredictionCache::evictOverBudget(Shard &S) {
  // Scan-min LRU: resident entry counts are small (bounded by the byte
  // budget), so a linear victim scan is simpler than an intrusive list and
  // has no pointer-stability hazards. The just-inserted entry holds the
  // newest LastUse, so it is always the last possible victim; the
  // Entries > 1 guard lets one oversize entry stay resident until the next
  // insert displaces it.
  while (S.Stats.Bytes > S.ByteBudget && S.Stats.Entries > 1) {
    auto VictimBucket = S.Buckets.end();
    size_t VictimIndex = 0;
    uint64_t OldestUse = UINT64_MAX;
    for (auto It = S.Buckets.begin(); It != S.Buckets.end(); ++It)
      for (size_t I = 0; I < It->second.size(); ++I)
        if (It->second[I].LastUse < OldestUse) {
          OldestUse = It->second[I].LastUse;
          VictimBucket = It;
          VictimIndex = I;
        }
    assert(VictimBucket != S.Buckets.end() && "entries but no victim");
    std::vector<Entry> &Bucket = VictimBucket->second;
    S.Stats.Bytes -= Bucket[VictimIndex].Bytes;
    --S.Stats.Entries;
    ++S.Stats.Evictions;
    telemetry::counter("serve_cache.evictions").add();
    Bucket.erase(Bucket.begin() +
                 static_cast<std::ptrdiff_t>(VictimIndex));
    if (Bucket.empty())
      S.Buckets.erase(VictimBucket);
  }
  assert(shardConsistent(S) && "cache counters diverged after eviction");
}

CacheStats PredictionCache::shardStats(size_t ShardIndex) const {
  const Shard &S = *Shards[ShardIndex];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Stats;
}

CacheStats PredictionCache::totals() const {
  CacheStats Total;
  for (size_t I = 0; I < Shards.size(); ++I) {
    CacheStats S = shardStats(I);
    Total.Hits += S.Hits;
    Total.Misses += S.Misses;
    Total.Insertions += S.Insertions;
    Total.Evictions += S.Evictions;
    Total.Collisions += S.Collisions;
    Total.Bytes += S.Bytes;
    Total.Entries += S.Entries;
  }
  return Total;
}

void PredictionCache::publishGauges() const {
  CacheStats Total;
  for (size_t I = 0; I < Shards.size(); ++I) {
    CacheStats S = shardStats(I);
    std::string Prefix = "serve_cache.shard" + std::to_string(I);
    telemetry::gauge(Prefix + ".bytes").set(static_cast<int64_t>(S.Bytes));
    telemetry::gauge(Prefix + ".entries")
        .set(static_cast<int64_t>(S.Entries));
    Total.Bytes += S.Bytes;
    Total.Entries += S.Entries;
  }
  telemetry::gauge("serve_cache.bytes").set(static_cast<int64_t>(Total.Bytes));
  telemetry::gauge("serve_cache.entries")
      .set(static_cast<int64_t>(Total.Entries));
}

//===----------------------------------------------------------------------===//
// Snapshot serialization
//
// Layout (every integer a u64 slot of the bytes:: codec, support/bytes.h):
//
//   Magic  Version  NumSegments
//   per segment: PayloadLen  Checksum(FNV-1a over payload)  payload
//   payload: EntryCount, then entries oldest-LRU-first:
//     KeyLen key  ComputedBy  NumPredictions
//     per prediction: LogProbBits(float bits)  NumTokens  (TokLen tok)*
//
// Each segment carries its own checksum so one shard's bit rot quarantines
// one segment, not the whole snapshot.
//===----------------------------------------------------------------------===//

namespace {

// "SNOWCSH1" little-endian; distinct from the model/checkpoint magics so a
// snapshot can never be mistaken for either.
constexpr uint64_t SnapshotMagic = 0x31485343574f4e53ULL;
// Hard cap on any single length field. Well over any real key or token, so
// only a corrupt or hostile length trips it — before it becomes an
// allocation bomb.
constexpr uint64_t MaxSnapshotFieldBytes = 1ull << 24;

struct StagedEntry {
  std::string Key;
  CachedPrediction Value;
};

/// Parses one segment payload into Staged. All-or-nothing: any failure
/// leaves Staged untouched and reports the taxonomy code, so a half-parsed
/// segment never leaks partial entries into the cache.
Result<void> parseSegment(std::span<const uint8_t> Payload,
                          std::vector<StagedEntry> &Staged) {
  bytes::Reader R(Payload);
  auto ReadString = [&R](std::string &Out) -> Result<void> {
    bytes::StringRead Read = R.string(Out, MaxSnapshotFieldBytes);
    if (Read.Status == bytes::StringStatus::ShortLength)
      return Error(ErrorCode::Truncated, "length field truncated");
    if (Read.Status == bytes::StringStatus::OverCap)
      return Error(ErrorCode::LimitExceeded,
                   "field of " + std::to_string(Read.Length) +
                       " bytes exceeds cap");
    if (Read.Status == bytes::StringStatus::ShortBody)
      return Error(ErrorCode::Truncated, "field overruns its segment");
    return {};
  };
  std::vector<StagedEntry> Local;
  uint64_t EntryCount = 0;
  if (!R.u64(EntryCount))
    return Error(ErrorCode::Truncated, "entry count truncated");
  if (EntryCount > MaxSnapshotFieldBytes)
    return Error(ErrorCode::LimitExceeded, "entry count exceeds cap");
  for (uint64_t E = 0; E < EntryCount; ++E) {
    StagedEntry Entry;
    if (Result<void> Key = ReadString(Entry.Key); Key.isErr())
      return Key;
    uint64_t ComputedBy = 0;
    if (!R.u64(ComputedBy))
      return Error(ErrorCode::Truncated, "tier field truncated");
    if (ComputedBy > static_cast<uint64_t>(PredictionTier::Cached))
      return Error(ErrorCode::Malformed,
                   "unknown prediction tier " + std::to_string(ComputedBy));
    Entry.Value.ComputedBy = static_cast<PredictionTier>(ComputedBy);
    uint64_t NumPredictions = 0;
    if (!R.u64(NumPredictions))
      return Error(ErrorCode::Truncated, "prediction count truncated");
    if (NumPredictions > MaxSnapshotFieldBytes)
      return Error(ErrorCode::LimitExceeded, "prediction count exceeds cap");
    for (uint64_t P = 0; P < NumPredictions; ++P) {
      TypePrediction Pred;
      if (!R.f32AsU64(Pred.LogProb))
        return Error(ErrorCode::Truncated, "log-prob field truncated");
      uint64_t NumTokens = 0;
      if (!R.u64(NumTokens))
        return Error(ErrorCode::Truncated, "token count truncated");
      if (NumTokens > MaxSnapshotFieldBytes)
        return Error(ErrorCode::LimitExceeded, "token count exceeds cap");
      Pred.Tokens.reserve(static_cast<size_t>(NumTokens));
      for (uint64_t T = 0; T < NumTokens; ++T) {
        std::string Tok;
        if (Result<void> Read = ReadString(Tok); Read.isErr())
          return Read;
        Pred.Tokens.push_back(std::move(Tok));
      }
      Entry.Value.Predictions.push_back(std::move(Pred));
    }
    Local.push_back(std::move(Entry));
  }
  Staged = std::move(Local);
  return {};
}

} // namespace

std::vector<uint8_t> PredictionCache::serializeSnapshot() const {
  std::vector<uint8_t> Out;
  bytes::Writer W(Out);
  W.u64(SnapshotMagic);
  W.u64(SnapshotVersion);
  W.u64(Shards.size());
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    // Oldest-LRU-first, so a load replays recency in file order and
    // a budget-constrained load evicts exactly what the live cache would
    // have evicted next.
    std::vector<const Entry *> Ordered;
    Ordered.reserve(S->Stats.Entries);
    for (const auto &[Hash, Bucket] : S->Buckets)
      for (const Entry &E : Bucket)
        Ordered.push_back(&E);
    std::sort(Ordered.begin(), Ordered.end(),
              [](const Entry *A, const Entry *B) {
                return A->LastUse < B->LastUse;
              });
    std::vector<uint8_t> Payload;
    bytes::Writer PW(Payload);
    PW.u64(Ordered.size());
    for (const Entry *E : Ordered) {
      PW.string(E->Key);
      PW.u64(static_cast<uint64_t>(E->Value.ComputedBy));
      PW.u64(E->Value.Predictions.size());
      for (const TypePrediction &P : E->Value.Predictions) {
        PW.f32AsU64(P.LogProb);
        PW.u64(P.Tokens.size());
        for (const std::string &Tok : P.Tokens)
          PW.string(Tok);
      }
    }
    W.u64(Payload.size());
    W.u64(hashVector(Payload));
    Out.insert(Out.end(), Payload.begin(), Payload.end());
  }
  return Out;
}

Result<void> PredictionCache::saveSnapshot(
    const std::string &Path, fault::FaultInjector *Faults,
    const fault::RetryPolicy &Policy) const {
  telemetry::ScopedPhase Phase("serve_cache.snapshot.save");
  std::vector<uint8_t> Bytes = serializeSnapshot();
  telemetry::histogram("serve_cache.snapshot.bytes").record(Bytes.size());
  Result<void> Written = io::writeFileAtomic(Path, Bytes, Faults, Policy);
  if (Written.isOk())
    telemetry::counter("serve_cache.snapshot.saves").add();
  else
    telemetry::counter("serve_cache.snapshot.save_failures").add();
  return Written.withContext("cache snapshot '" + Path + "'");
}

Result<SnapshotLoadReport>
PredictionCache::loadSnapshot(const std::string &Path,
                              fault::FaultInjector *Faults) {
  telemetry::ScopedPhase Phase("serve_cache.snapshot.load");
  Result<std::vector<uint8_t>> Read = io::readFileBytes(Path, Faults);
  if (Read.isErr())
    return Read.error().withContext("cache snapshot '" + Path + "'");
  std::vector<uint8_t> Bytes = Read.take();
  std::string Where = "cache snapshot '" + Path + "': ";
  bytes::Reader R(Bytes);
  uint64_t Magic = 0, Version = 0, NumSegments = 0;
  if (!R.u64(Magic) || !R.u64(Version) || !R.u64(NumSegments))
    return Error(ErrorCode::Truncated, Where + "header truncated");
  if (Magic != SnapshotMagic)
    return Error(ErrorCode::Malformed, Where + "bad magic");
  if (Version != SnapshotVersion)
    return Error(ErrorCode::Unsupported,
                 Where + "version " + std::to_string(Version) +
                     " (expected " + std::to_string(SnapshotVersion) + ")");
  // A hostile segment count would otherwise dominate the quarantine
  // accounting (and its telemetry) with quadrillions of phantom segments.
  if (NumSegments > MaxSnapshotFieldBytes)
    return Error(ErrorCode::LimitExceeded,
                 Where + "segment count " + std::to_string(NumSegments) +
                     " exceeds cap");
  SnapshotLoadReport Report;
  Report.SegmentsTotal = NumSegments;
  auto Quarantine = [&](ErrorCode Code, uint64_t Count) {
    Report.SegmentsQuarantined += Count;
    Report.QuarantinedByCode[Code] += Count;
    telemetry::counter("serve_cache.snapshot.quarantined").add(Count);
  };
  for (uint64_t Seg = 0; Seg < NumSegments; ++Seg) {
    uint64_t PayloadLen = 0, Checksum = 0;
    std::span<const uint8_t> Payload;
    if (!R.u64(PayloadLen) || !R.u64(Checksum) ||
        !R.raw(PayloadLen, Payload)) {
      // The file ends before this segment does; everything from here on is
      // unrecoverable, so quarantine the rest in one stroke.
      Quarantine(ErrorCode::Truncated, NumSegments - Seg);
      break;
    }
    if (hashBytes(Payload.data(), Payload.size()) != Checksum) {
      // The length framing held, so later segments are still addressable:
      // skip just this one.
      Quarantine(ErrorCode::ChecksumMismatch, 1);
      continue;
    }
    std::vector<StagedEntry> Staged;
    Result<void> Parsed = parseSegment(Payload, Staged);
    if (Parsed.isErr()) {
      Quarantine(Parsed.error().code(), 1);
      continue;
    }
    // Shard by the current configuration, not the snapshot's: a snapshot
    // taken at a different NumShards still lands every entry on the shard
    // find() will consult.
    for (StagedEntry &E : Staged) {
      uint64_t Hash = keyHash(E.Key);
      admit(Hash, std::move(E.Key), std::move(E.Value), /*Restored=*/true);
    }
    ++Report.SegmentsLoaded;
    Report.EntriesLoaded += Staged.size();
  }
  telemetry::counter("serve_cache.snapshot.loads").add();
  telemetry::counter("serve_cache.snapshot.entries_loaded")
      .add(Report.EntriesLoaded);
  return Report;
}

//===----------------------------------------------------------------------===//
// ServeDaemon
//===----------------------------------------------------------------------===//

const char *admitOutcomeCode(AdmitOutcome Outcome) {
  switch (Outcome) {
  case AdmitOutcome::Admitted:
    return "admitted";
  case AdmitOutcome::RejectedQuota:
    return "rejected-quota";
  case AdmitOutcome::RejectedQueueFull:
    return "rejected-queue-full";
  case AdmitOutcome::RejectedShutdown:
    return "rejected-shutdown";
  case AdmitOutcome::RejectedOverload:
    return "rejected-overload";
  case AdmitOutcome::RejectedPoisoned:
    return "rejected-poisoned";
  }
  return "?";
}

namespace {

void accumulateStats(ServingStats &Total, const ServingStats &S) {
  Total.Submitted += S.Submitted;
  Total.Rejected += S.Rejected;
  Total.RejectedQueueFull += S.RejectedQueueFull;
  Total.RejectedShutdown += S.RejectedShutdown;
  Total.Answered += S.Answered;
  Total.BeamAnswers += S.BeamAnswers;
  Total.GreedyAnswers += S.GreedyAnswers;
  Total.BaselineAnswers += S.BaselineAnswers;
  Total.CachedAnswers += S.CachedAnswers;
  Total.DecodeSteps += S.DecodeSteps;
  Total.GatedCandidates += S.GatedCandidates;
  Total.GateDegradations += S.GateDegradations;
  Total.BudgetExhaustions += S.BudgetExhaustions;
}

} // namespace

ServeDaemon::ServeDaemon(nn::Seq2SeqModel &Model, const Task &BoundTask,
                         const DaemonOptions &Opts)
    : Model(Model), BoundTask(BoundTask), Options(Opts) {
  Options.NumWorkers = std::max<size_t>(1, Options.NumWorkers);
  if (Options.Cache.ByteBudget > 0)
    Cache = std::make_unique<PredictionCache>(Options.Cache);
  if (Options.WorkerFaults) {
    // One injector per worker, each with an independent deterministic
    // stream: safe at any NumWorkers, and a restarted shard keeps its
    // injector so the fault schedule survives the restart.
    for (size_t I = 0; I < Options.NumWorkers; ++I) {
      fault::FaultConfig Cfg = *Options.WorkerFaults;
      Cfg.Seed = hashCombine(Cfg.Seed, I);
      WorkerInjectors.push_back(std::make_unique<fault::FaultInjector>(Cfg));
    }
  }
  Workers.resize(Options.NumWorkers);
  for (size_t I = 0; I < Workers.size(); ++I)
    Workers[I].Engine =
        std::make_unique<ServingEngine>(Model, BoundTask, workerOptions(I));
}

ServingOptions ServeDaemon::workerOptions(size_t Shard) const {
  ServingOptions PerWorker = Options.Serving;
  PerWorker.Cache = Cache.get();
  PerWorker.Faults = Shard < WorkerInjectors.size()
                         ? WorkerInjectors[Shard].get()
                         : nullptr;
  return PerWorker;
}

size_t ServeDaemon::shardOf(const ServeRequest &Request) const {
  if (Workers.size() == 1)
    return 0;
  // Route by the token sequence alone so byte-identical inputs always land
  // on the same worker — duplicates then replay sequentially in submission
  // order there, which is what makes warm-cache behaviour deterministic.
  uint64_t Hash = 0xdaef00dULL;
  for (const std::string &Tok : Request.InputTokens)
    Hash = hashCombine(Hash, hashString(Tok));
  return static_cast<size_t>(Hash % Workers.size());
}

std::string ServeDaemon::requestSignature(const ServeRequest &Request) {
  std::string Sig;
  appendTokenFrame(Request.InputTokens, Sig);
  return Sig;
}

uint64_t ServeDaemon::effectiveCost(const ServeRequest &Request) const {
  uint64_t Budget = Request.StepBudget != 0 ? Request.StepBudget
                                            : Options.Serving.DefaultStepBudget;
  // A zero-budget request still occupies a queue slot and a pump turn.
  return std::max<uint64_t>(1, Budget);
}

void ServeDaemon::countQueueRejection(ServeOutcome Cause) {
  ++Ledger.Submitted;
  ++Ledger.Rejected;
  // Per-request metrics are looked up once per process: the registry keeps
  // metric addresses stable, and decltype(auto) binds a reference (or a
  // no-op value when telemetry is compiled out).
  static decltype(auto) SubmittedCount =
      telemetry::counter("serving.submitted");
  SubmittedCount.add();
  telemetry::counter("serving.rejected").add();
  if (Cause == ServeOutcome::RejectedShutdown) {
    ++Ledger.RejectedShutdown;
    telemetry::counter("serving.rejected.shutdown").add();
  } else {
    ++Ledger.RejectedQueueFull;
    telemetry::counter("serving.rejected.queue_full").add();
  }
}

AdmitResult ServeDaemon::submit(DaemonRequest Request) {
  ++Stats.Submitted;
  static decltype(auto) SubmittedCount =
      telemetry::counter("daemon.submitted");
  SubmittedCount.add();
  if (Stopped) {
    countQueueRejection(ServeOutcome::RejectedShutdown);
    return {AdmitOutcome::RejectedShutdown, 0};
  }
  size_t Shard = shardOf(Request.Request);
  Worker &W = Workers[Shard];
  std::string Signature;
  if (Options.PoisonStrikeLimit > 0) {
    Signature = requestSignature(Request.Request);
    if (Denylist.count(Signature) > 0) {
      ++Stats.RejectedPoisoned;
      telemetry::counter("daemon.rejected.poisoned").add();
      return {AdmitOutcome::RejectedPoisoned, 0};
    }
  }
  // Overload shedding before the quota check: a shed request should not
  // burn a tenant token it never got to use.
  uint64_t Cost = effectiveCost(Request.Request);
  if (Options.ShardCostBudget > 0 &&
      W.PendingCost + Cost > Options.ShardCostBudget) {
    ++Stats.RejectedOverload;
    telemetry::counter("daemon.rejected.overload").add();
    // Each pump round drains the shard's whole queue, so the backlog
    // clears at ShardCostBudget per round (virtual time): hint the round
    // count after which this request's cost fits.
    uint64_t RetryAfter =
        (W.PendingCost + Cost + Options.ShardCostBudget - 1) /
        Options.ShardCostBudget;
    return {AdmitOutcome::RejectedOverload, RetryAfter};
  }
  if (Options.TenantCapacity > 0) {
    auto [It, IsNew] = Tenants.try_emplace(Request.Tenant);
    if (IsNew)
      It->second.Tokens = Options.TenantCapacity;
    if (It->second.Tokens == 0) {
      ++Stats.RejectedQuota;
      telemetry::counter("daemon.rejected.quota").add();
      return {AdmitOutcome::RejectedQuota, 0};
    }
    --It->second.Tokens;
  }
  if (W.Queue.size() >= Options.Serving.QueueCapacity) {
    countQueueRejection(ServeOutcome::RejectedQueueFull);
    return {AdmitOutcome::RejectedQueueFull, 0};
  }
  W.Queue.push_back({std::move(Request.Request), std::move(Signature)});
  W.PendingCost += Cost;
  static decltype(auto) QueueDepth = telemetry::gauge("serving.queue_depth");
  QueueDepth.set(static_cast<int64_t>(W.Queue.size()));
  return {AdmitOutcome::Admitted, 0};
}

std::vector<ServeResponse> ServeDaemon::pump() {
  telemetry::ScopedPhase Phase("daemon.pump");
  ++Stats.PumpRounds;
  std::vector<std::vector<ServeResponse>> PerShard(Workers.size());
  // Each task answers exactly one worker's queue (disjoint state); the
  // shared model is read-only at inference and the cache is internally
  // locked.
  ThreadPool::global().parallelTasks(Workers.size(), [&](size_t Shard) {
    Worker &W = Workers[Shard];
    PerShard[Shard].reserve(W.Queue.size());
    for (const QueuedRequest &Entry : W.Queue)
      PerShard[Shard].push_back(W.Engine->processOne(Entry.Request));
  });
  size_t Total = 0;
  for (const std::vector<ServeResponse> &Responses : PerShard)
    Total += Responses.size();
  if (Total > 0) // The depth gauge is shared; an idle round leaves it.
    telemetry::gauge("serving.queue_depth").set(0);
  // Poison watchdog: each response pairs with its queue entry, which holds
  // the signature. Strikes can restart engines, so they run after the
  // parallel round is fully done.
  for (size_t Shard = 0; Shard < Workers.size(); ++Shard) {
    Worker &W = Workers[Shard];
    if (Options.PoisonStrikeLimit > 0)
      for (size_t I = 0; I < W.Queue.size(); ++I)
        if (PerShard[Shard][I].Suspect)
          strikeSignature(W.Queue[I].Signature, Shard);
    // Every queued request was answered, so the pending cost resets; new
    // submissions start the next round's backlog from zero.
    W.Queue.clear();
    W.PendingCost = 0;
  }
  std::vector<ServeResponse> Out;
  Out.reserve(Total);
  for (std::vector<ServeResponse> &Responses : PerShard)
    for (ServeResponse &Response : Responses)
      Out.push_back(std::move(Response));
  std::stable_sort(Out.begin(), Out.end(),
                   [](const ServeResponse &A, const ServeResponse &B) {
                     return A.Id < B.Id;
                   });
  // Virtual-time quota refill: one refill per pump round, never wall clock,
  // so admission decisions replay identically run to run.
  if (Options.TenantCapacity > 0 && Options.TenantRefill > 0)
    for (auto &[Name, Bucket] : Tenants)
      Bucket.Tokens = std::min(Options.TenantCapacity,
                               Bucket.Tokens + Options.TenantRefill);
  maybeSnapshotOnCadence();
  if (Cache)
    Cache->publishGauges();
  for (size_t I = 0; I < Workers.size(); ++I)
    telemetry::gauge("daemon.shard" + std::to_string(I) + ".queued")
        .set(static_cast<int64_t>(Workers[I].Queue.size()));
  return Out;
}

void ServeDaemon::strikeSignature(const std::string &Signature, size_t Shard) {
  size_t Count = ++Strikes[Signature];
  ++Stats.WatchdogStrikes;
  telemetry::counter("daemon.watchdog.strikes").add();
  if (Count < Options.PoisonStrikeLimit || Denylist.count(Signature) > 0)
    return;
  Denylist.insert(Signature);
  telemetry::counter("daemon.denylisted").add();
  restartShard(Shard);
}

void ServeDaemon::restartShard(size_t Shard) {
  // Archive the old engine's stats first so engineTotals() and the
  // admission identity keep counting every request it ever answered. The
  // queue is the daemon's, so replacing the engine loses no request.
  Worker &W = Workers[Shard];
  accumulateStats(Ledger, W.Engine->stats());
  W.Engine = std::make_unique<ServingEngine>(Model, BoundTask,
                                             workerOptions(Shard));
  ++Stats.ShardRestarts;
  telemetry::counter("daemon.shard_restarts").add();
}

void ServeDaemon::maybeSnapshotOnCadence() {
  if (!Cache || Options.SnapshotPath.empty() ||
      Options.SnapshotEveryInsertions == 0)
    return;
  uint64_t Insertions = Cache->totals().Insertions;
  if (Insertions - LastSnapshotInsertions < Options.SnapshotEveryInsertions)
    return;
  LastSnapshotInsertions = Insertions;
  // Failures are recorded (telemetry + health report), not fatal: the
  // daemon keeps serving and retries at the next cadence point.
  (void)saveSnapshotNow();
}

Result<void> ServeDaemon::saveSnapshotNow() {
  if (!Cache)
    return Error(ErrorCode::Unsupported, "daemon has no prediction cache");
  if (Options.SnapshotPath.empty())
    return Error(ErrorCode::Unsupported, "no snapshot path configured");
  Result<void> Saved = Cache->saveSnapshot(Options.SnapshotPath);
  LastSaveOk = Saved.isOk();
  if (Saved.isOk())
    ++Stats.SnapshotSaves;
  return Saved;
}

Result<SnapshotLoadReport> ServeDaemon::loadSnapshotNow() {
  if (!Cache)
    return Error(ErrorCode::Unsupported, "daemon has no prediction cache");
  if (Options.SnapshotPath.empty())
    return Error(ErrorCode::Unsupported, "no snapshot path configured");
  Result<SnapshotLoadReport> Loaded = Cache->loadSnapshot(Options.SnapshotPath);
  if (Loaded.isOk()) {
    LastLoad = Loaded.value();
    // Cadence accounting starts from the post-load insertion count so a
    // warm start does not trigger an immediate save of what it just read.
    LastSnapshotInsertions = Cache->totals().Insertions;
  }
  return Loaded;
}

std::vector<ServeResponse> ServeDaemon::shutdown() {
  bool WasStopped = Stopped;
  Stopped = true;
  std::vector<ServeResponse> Out;
  // Admitted-but-unprocessed requests must not vanish at teardown: each one
  // gets an explicit rejected-shutdown response, keeping the accounting
  // invariant Submitted == Rejected + Answered exact at exit.
  for (Worker &W : Workers) {
    for (const QueuedRequest &Entry : W.Queue) {
      ServeResponse Response;
      Response.Id = Entry.Request.Id;
      Response.Outcome = ServeOutcome::RejectedShutdown;
      Response.Detail = "engine shut down before request was processed";
      Out.push_back(std::move(Response));
      countQueueRejection(ServeOutcome::RejectedShutdown);
    }
    W.Queue.clear();
    W.PendingCost = 0;
  }
  telemetry::gauge("serving.queue_depth").set(0);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const ServeResponse &A, const ServeResponse &B) {
                     return A.Id < B.Id;
                   });
  // Final snapshot after the queues are flushed: the warm state a restart
  // will reload. Only on the first shutdown — the cache cannot have
  // changed since.
  if (!WasStopped && Cache && !Options.SnapshotPath.empty())
    (void)saveSnapshotNow();
  return Out;
}

size_t ServeDaemon::queued() const {
  size_t Total = 0;
  for (const Worker &W : Workers)
    Total += W.Queue.size();
  return Total;
}

ServingStats ServeDaemon::engineTotals() const {
  ServingStats Total = Ledger;
  for (const Worker &W : Workers) {
    accumulateStats(Total, W.Engine->stats());
    // Admitted requests count as submitted from admission on.
    Total.Submitted += W.Queue.size();
  }
  return Total;
}

uint64_t ServeDaemon::tenantTokens(const std::string &Tenant) const {
  if (Options.TenantCapacity == 0)
    return 0;
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? Options.TenantCapacity : It->second.Tokens;
}

std::string ServeDaemon::healthReport() const {
  ServingStats Engine = engineTotals();
  std::string Report;
  auto Line = [&Report](const std::string &Key, const std::string &Value) {
    Report += Key;
    Report.push_back('=');
    Report += Value;
    Report.push_back('\n');
  };
  Line("status", Stopped ? "stopped" : "running");
  Line("workers", std::to_string(Workers.size()));
  Line("queued", std::to_string(queued()));
  Line("submitted", std::to_string(Stats.Submitted));
  Line("rejected.quota", std::to_string(Stats.RejectedQuota));
  Line("rejected.poisoned", std::to_string(Stats.RejectedPoisoned));
  Line("rejected.overload", std::to_string(Stats.RejectedOverload));
  Line("answered", std::to_string(Engine.Answered));
  Line("pump_rounds", std::to_string(Stats.PumpRounds));
  Line("watchdog.strikes", std::to_string(Stats.WatchdogStrikes));
  Line("watchdog.denylist", std::to_string(Denylist.size()));
  Line("shard_restarts", std::to_string(Stats.ShardRestarts));
  if (Cache) {
    CacheStats C = Cache->totals();
    Line("cache.entries", std::to_string(C.Entries));
    Line("cache.bytes", std::to_string(C.Bytes));
    Line("cache.hits", std::to_string(C.Hits));
    Line("cache.misses", std::to_string(C.Misses));
    Line("cache.evictions", std::to_string(C.Evictions));
  }
  Line("snapshot.path",
       Options.SnapshotPath.empty() ? "(none)" : Options.SnapshotPath);
  Line("snapshot.saves", std::to_string(Stats.SnapshotSaves));
  Line("snapshot.last_save_ok", LastSaveOk ? "yes" : "no");
  if (LastLoad) {
    Line("snapshot.loaded_segments",
         std::to_string(LastLoad->SegmentsLoaded) + "/" +
             std::to_string(LastLoad->SegmentsTotal));
    Line("snapshot.quarantined_segments",
         std::to_string(LastLoad->SegmentsQuarantined));
    Line("snapshot.entries_loaded", std::to_string(LastLoad->EntriesLoaded));
  }
  Line("stats_consistent", checkStats() ? "yes" : "no");
  return Report;
}

bool ServeDaemon::checkStats() const {
  for (const Worker &W : Workers)
    if (!W.Engine->checkStats())
      return false;
  if (Cache && !Cache->checkStats())
    return false;
  ServingStats Total = engineTotals();
  return Total.Submitted == Total.Rejected + Total.Answered + queued() &&
         Total.Rejected == Total.RejectedQueueFull + Total.RejectedShutdown &&
         Stats.Submitted == Stats.RejectedQuota + Stats.RejectedPoisoned +
                                Stats.RejectedOverload + Total.Submitted;
}

} // namespace model
} // namespace snowwhite
