//===- tests/serving_daemon_test.cpp - Daemon + prediction-cache tests -----===//
//
// Contracts under test (issue 6):
//  - a cache hit returns a bit-identical prediction to a cold compute, with
//    the `cached` provenance tier and zero decode steps;
//  - a 64-bit hash collision can never replay another request's answer (the
//    cache compares full keys byte-wise; colliding entries live side by
//    side);
//  - the binary request key is injective: token re-splits, evidence
//    presence and every stored evidence field change it, and the watchdog
//    signature is its prefix;
//  - LRU eviction respects the byte budget;
//  - per-shard stats sum to the cache/daemon totals (and to the telemetry
//    registry) at any SNOWWHITE_THREADS, and warm-path responses are
//    bit-identical across thread counts;
//  - the daemon's queues are bounded, its ledger (engineTotals) holds after
//    every call and matches the telemetry registry, and shutdown rejects
//    admitted-but-unprocessed requests with a distinct outcome so
//    Submitted == Rejected + Answered holds at exit;
//  - per-tenant token buckets admit deterministically in virtual time.
//
//===----------------------------------------------------------------------===//

#include "model/serve_daemon.h"
#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/scratch_dir.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
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

struct DaemonFixture {
  TrainResult Trained;
  DaemonFixture() {
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

DaemonFixture &fixture() {
  static DaemonFixture F;
  return F;
}

/// Input-token sequences for requests: real samples from the dataset.
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
  TypePrediction P;
  P.Tokens = {Token};
  P.LogProb = LogProb;
  Value.Predictions.push_back(std::move(P));
  return Value;
}

// --- PredictionCache unit tests ----------------------------------------------

// Regression (issue 6): before the collision-safe key check, a cache keyed
// on the bare 64-bit hash would return entry A's answer for colliding
// entry B. Forced collision via the explicit-hash seam.
TEST(PredictionCache, ForcedHashCollisionNeverCrossesAnswers) {
  PredictionCache Cache;
  Cache.insert(42, "key-a", makeValue("int", -1.0f));
  Cache.insert(42, "key-b", makeValue("char *", -2.0f));

  auto A = Cache.find(42, "key-a");
  auto B = Cache.find(42, "key-b");
  ASSERT_TRUE(A.has_value());
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(A->Predictions[0].Tokens[0], "int");
  EXPECT_EQ(B->Predictions[0].Tokens[0], "char *");
  EXPECT_FALSE(Cache.find(42, "key-c").has_value());

  CacheStats Totals = Cache.totals();
  EXPECT_EQ(Totals.Collisions, 1u);
  EXPECT_EQ(Totals.Entries, 2u);
  EXPECT_EQ(Totals.Hits, 2u);
  EXPECT_EQ(Totals.Misses, 1u);
}

TEST(PredictionCache, EvictionRespectsByteBudgetWithLruOrder) {
  PredictionCache::Config Cfg;
  Cfg.NumShards = 1; // One shard so the budget applies to every entry.
  CachedPrediction Probe = makeValue("t", -1.0f);
  uint64_t PerEntry = PredictionCache::entryBytes("key-00", Probe);
  Cfg.ByteBudget = PerEntry * 4; // Room for exactly four entries.
  PredictionCache Cache(Cfg);

  auto KeyOf = [](int I) {
    std::string Key = "key-" + std::to_string(I / 10) + std::to_string(I % 10);
    return Key;
  };
  for (int I = 0; I < 4; ++I)
    Cache.insert(hashString(KeyOf(I)), KeyOf(I), Probe);
  EXPECT_EQ(Cache.totals().Entries, 4u);
  EXPECT_EQ(Cache.totals().Evictions, 0u);

  // Touch key-00 so key-01 becomes the least recently used.
  EXPECT_TRUE(Cache.find(hashString(KeyOf(0)), KeyOf(0)).has_value());
  Cache.insert(hashString(KeyOf(4)), KeyOf(4), Probe);

  CacheStats Totals = Cache.totals();
  EXPECT_EQ(Totals.Entries, 4u);
  EXPECT_EQ(Totals.Evictions, 1u);
  EXPECT_LE(Totals.Bytes, Cfg.ByteBudget);
  EXPECT_TRUE(Cache.find(hashString(KeyOf(0)), KeyOf(0)).has_value());
  EXPECT_FALSE(Cache.find(hashString(KeyOf(1)), KeyOf(1)).has_value());
  EXPECT_TRUE(Cache.find(hashString(KeyOf(4)), KeyOf(4)).has_value());
}

TEST(PredictionCache, OversizeEntryAdmittedAloneThenDisplaced) {
  PredictionCache::Config Cfg;
  Cfg.NumShards = 1;
  Cfg.ByteBudget = 16; // Smaller than any entry.
  PredictionCache Cache(Cfg);
  CachedPrediction Value = makeValue("giant", -1.0f);
  Cache.insert(1, "big", Value);
  EXPECT_EQ(Cache.totals().Entries, 1u);
  EXPECT_TRUE(Cache.find(1, "big").has_value());
  Cache.insert(2, "next", Value);
  // The older oversize entry is the LRU victim; one entry stays resident.
  EXPECT_EQ(Cache.totals().Entries, 1u);
  EXPECT_FALSE(Cache.find(1, "big").has_value());
  EXPECT_TRUE(Cache.find(2, "next").has_value());
}

TEST(PredictionCache, RequestKeyCoversAnswerAffectingKnobs) {
  ServeRequest Request;
  Request.InputTokens = {"i32", "<begin>", "i32.load", "<end>"};
  std::string Base = PredictionCache::requestKey(Request, 128, 3, 3);
  EXPECT_NE(PredictionCache::requestKey(Request, 64, 3, 3), Base);
  EXPECT_NE(PredictionCache::requestKey(Request, 128, 5, 3), Base);
  EXPECT_NE(PredictionCache::requestKey(Request, 128, 3, 8), Base);
  ServeRequest WithEvidence = Request;
  analysis::ParamEvidence Param;
  Param.DirectLoads = 2;
  WithEvidence.Evidence.Param = Param;
  EXPECT_NE(PredictionCache::requestKey(WithEvidence, 128, 3, 3), Base);
  // Token boundaries are unambiguous: the qualifier block is separated by a
  // byte that cannot appear in tokens.
  ServeRequest Joined;
  Joined.InputTokens = {"i32", "<begin> i32.load", "<end>"};
  EXPECT_NE(PredictionCache::requestKey(Joined, 128, 3, 3), Base);
}

// The binary key's framing: token boundaries are length-prefixed, so no
// re-split of the same bytes and no token that looks like a length prefix
// can alias another request.
TEST(PredictionCache, RequestKeyFramesTokensUnambiguously) {
  auto KeyOf = [](std::vector<std::string> Tokens) {
    ServeRequest Request;
    Request.InputTokens = std::move(Tokens);
    return PredictionCache::requestKey(Request, 128, 3, 3);
  };
  EXPECT_NE(KeyOf({"ab", "c"}), KeyOf({"a", "bc"}));
  EXPECT_NE(KeyOf({"abc"}), KeyOf({"ab", "c"}));
  EXPECT_NE(KeyOf({"ab", ""}), KeyOf({"ab"}));
  EXPECT_NE(KeyOf({""}), KeyOf({}));
  // A token made of what a length byte and a second token would look like:
  // {"a\x01b"} against {"a", "b"} (frame 02 01 'a' 01 'b').
  EXPECT_NE(KeyOf({std::string("a\x01b", 3)}), KeyOf({"a", "b"}));
  EXPECT_NE(KeyOf({std::string("\x01\x01" "a\x01" "b", 5)}),
            KeyOf({"a", "b"}));
  // A 128-byte token needs a two-byte length; it still frames one token.
  EXPECT_NE(KeyOf({std::string(128, 'x')}),
            KeyOf({std::string(1, 'x'), std::string(127, 'x')}));
}

TEST(PredictionCache, RequestKeySeparatesEvidencePresence) {
  ServeRequest Bare;
  Bare.InputTokens = {"i32", "<begin>", "<end>"};
  ServeRequest ZeroParam = Bare;
  ZeroParam.Evidence.Param = analysis::ParamEvidence();
  ServeRequest ZeroRet = Bare;
  ZeroRet.Evidence.Ret = analysis::ReturnEvidence();
  ServeRequest ZeroBoth = ZeroParam;
  ZeroBoth.Evidence.Ret = analysis::ReturnEvidence();
  // Param evidence whose call targets continue with zeros where a return
  // evidence would follow: the same run of zero values as ZeroBoth once
  // the target count and the presence byte are taken away.
  ServeRequest Spelled = ZeroParam;
  Spelled.Evidence.Param->CallTargets.assign(11, 0);
  std::set<std::string> Keys;
  for (const ServeRequest *R :
       {&Bare, &ZeroParam, &ZeroRet, &ZeroBoth, &Spelled})
    Keys.insert(PredictionCache::requestKey(*R, 128, 3, 3));
  // Absent evidence is not all-zero evidence, and param-only is not
  // return-only.
  EXPECT_EQ(Keys.size(), 5u);
}

// Changing any one stored evidence field changes the key. The derived
// predicates (usedAsAddress, storedThrough, ...) are functions of these.
TEST(PredictionCache, RequestKeyCoversEveryEvidenceField) {
  ServeRequest Base;
  Base.InputTokens = {"i32", "<begin>", "i32.load", "<end>"};
  Base.Evidence.Param = analysis::ParamEvidence();
  Base.Evidence.Param->CallTargets = {3, 9};
  Base.Evidence.Ret = analysis::ReturnEvidence();
  std::string BaseKey = PredictionCache::requestKey(Base, 128, 3, 3);
  auto KeyWithParam = [&](auto Edit) {
    ServeRequest R = Base;
    Edit(*R.Evidence.Param);
    return PredictionCache::requestKey(R, 128, 3, 3);
  };
  auto KeyWithRet = [&](auto Edit) {
    ServeRequest R = Base;
    Edit(*R.Evidence.Ret);
    return PredictionCache::requestKey(R, 128, 3, 3);
  };
  using analysis::ParamEvidence;
  using analysis::ReturnEvidence;
  std::vector<std::pair<const char *, std::string>> Param = {
      {"LowType", KeyWithParam([](ParamEvidence &E) {
         E.LowType = wasm::ValType::I64;
       })},
      {"DirectLoads",
       KeyWithParam([](ParamEvidence &E) { E.DirectLoads = 1; })},
      {"DirectStores",
       KeyWithParam([](ParamEvidence &E) { E.DirectStores = 1; })},
      {"DerivedLoads",
       KeyWithParam([](ParamEvidence &E) { E.DerivedLoads = 1; })},
      {"DerivedStores",
       KeyWithParam([](ParamEvidence &E) { E.DerivedStores = 1; })},
      {"MinAccessBytes",
       KeyWithParam([](ParamEvidence &E) { E.MinAccessBytes = 1; })},
      {"MaxAccessBytes",
       KeyWithParam([](ParamEvidence &E) { E.MaxAccessBytes = 8; })},
      {"SignExtLoads",
       KeyWithParam([](ParamEvidence &E) { E.SignExtLoads = 1; })},
      {"ZeroExtLoads",
       KeyWithParam([](ParamEvidence &E) { E.ZeroExtLoads = 1; })},
      {"SignedOps", KeyWithParam([](ParamEvidence &E) { E.SignedOps = 1; })},
      {"UnsignedOps",
       KeyWithParam([](ParamEvidence &E) { E.UnsignedOps = 1; })},
      {"SignedCmps", KeyWithParam([](ParamEvidence &E) { E.SignedCmps = 1; })},
      {"UnsignedCmps",
       KeyWithParam([](ParamEvidence &E) { E.UnsignedCmps = 1; })},
      {"FloatOps", KeyWithParam([](ParamEvidence &E) { E.FloatOps = 1; })},
      {"Conditions", KeyWithParam([](ParamEvidence &E) { E.Conditions = 1; })},
      {"EscapesToCalls",
       KeyWithParam([](ParamEvidence &E) { E.EscapesToCalls = 1; })},
      {"EscapesIndirect",
       KeyWithParam([](ParamEvidence &E) { E.EscapesIndirect = 1; })},
      {"StoredToMemory",
       KeyWithParam([](ParamEvidence &E) { E.StoredToMemory = 1; })},
      {"MustDirectLoads",
       KeyWithParam([](ParamEvidence &E) { E.MustDirectLoads = 1; })},
      {"MustDirectStores",
       KeyWithParam([](ParamEvidence &E) { E.MustDirectStores = 1; })},
      {"MustDerivedLoads",
       KeyWithParam([](ParamEvidence &E) { E.MustDerivedLoads = 1; })},
      {"MustDerivedStores",
       KeyWithParam([](ParamEvidence &E) { E.MustDerivedStores = 1; })},
      {"MustSignedOps",
       KeyWithParam([](ParamEvidence &E) { E.MustSignedOps = 1; })},
      {"MustUnsignedOps",
       KeyWithParam([](ParamEvidence &E) { E.MustUnsignedOps = 1; })},
      {"DereferencedViaCallee", KeyWithParam([](ParamEvidence &E) {
         E.DereferencedViaCallee = true;
       })},
      {"StoredViaCallee",
       KeyWithParam([](ParamEvidence &E) { E.StoredViaCallee = true; })},
      {"CallTargets order", KeyWithParam([](ParamEvidence &E) {
         E.CallTargets = {9, 3};
       })},
      {"CallTargets count", KeyWithParam([](ParamEvidence &E) {
         E.CallTargets = {3, 9, 9};
       })},
      {"CallTargets value", KeyWithParam([](ParamEvidence &E) {
         E.CallTargets = {3, 10};
       })},
      {"CallTargetsOverflow", KeyWithParam([](ParamEvidence &E) {
         E.CallTargetsOverflow = true;
       })},
  };
  std::vector<std::pair<const char *, std::string>> Ret = {
      {"LowType", KeyWithRet([](ReturnEvidence &E) {
         E.LowType = wasm::ValType::F64;
       })},
      {"TotalReturns",
       KeyWithRet([](ReturnEvidence &E) { E.TotalReturns = 1; })},
      {"FromLoad", KeyWithRet([](ReturnEvidence &E) { E.FromLoad = 1; })},
      {"FromComparison",
       KeyWithRet([](ReturnEvidence &E) { E.FromComparison = 1; })},
      {"FromConst", KeyWithRet([](ReturnEvidence &E) { E.FromConst = 1; })},
      {"FromCall", KeyWithRet([](ReturnEvidence &E) { E.FromCall = 1; })},
      {"FromParam", KeyWithRet([](ReturnEvidence &E) { E.FromParam = 1; })},
      {"FromOther", KeyWithRet([](ReturnEvidence &E) { E.FromOther = 1; })},
      {"MinLoadBytes",
       KeyWithRet([](ReturnEvidence &E) { E.MinLoadBytes = 1; })},
      {"MaxLoadBytes",
       KeyWithRet([](ReturnEvidence &E) { E.MaxLoadBytes = 4; })},
      {"SignExtLoads",
       KeyWithRet([](ReturnEvidence &E) { E.SignExtLoads = 1; })},
  };
  // Every ParamEvidence field but the vector is counted once above, plus
  // three CallTargets variants; keep the lists in step with the structs.
  EXPECT_EQ(Param.size(), 27u + 3u);
  EXPECT_EQ(Ret.size(), 11u);
  std::set<std::string> Distinct = {BaseKey};
  for (const auto &[Field, Key] : Param) {
    EXPECT_NE(Key, BaseKey) << "param field " << Field;
    Distinct.insert(Key);
  }
  for (const auto &[Field, Key] : Ret) {
    EXPECT_NE(Key, BaseKey) << "return field " << Field;
    Distinct.insert(Key);
  }
  EXPECT_EQ(Distinct.size(), 1 + Param.size() + Ret.size());
}

// Pins the key bytes for a request with both evidences present and every
// stored field nonzero and distinct (several past one ULEB128 byte), so a
// reordered, dropped or re-encoded field fails here. Captured on the code
// that wrote the key before the evidence packers shared a field visitor.
TEST(PredictionCache, RequestKeyGolden) {
  ServeRequest Request;
  Request.InputTokens = {"i32", "<begin>", "local.get", "i32.load", "<end>"};
  analysis::ParamEvidence &P = Request.Evidence.Param.emplace();
  P.LowType = wasm::ValType::I64;
  P.DirectLoads = 1;
  P.DirectStores = 2;
  P.DerivedLoads = 3;
  P.DerivedStores = 4;
  P.MinAccessBytes = 5;
  P.MaxAccessBytes = 200;
  P.SignExtLoads = 7;
  P.ZeroExtLoads = 8;
  P.SignedOps = 9;
  P.UnsignedOps = 10;
  P.SignedCmps = 11;
  P.UnsignedCmps = 12;
  P.FloatOps = 13;
  P.Conditions = 14;
  P.EscapesToCalls = 15;
  P.EscapesIndirect = 16;
  P.StoredToMemory = 17;
  P.MustDirectLoads = 18;
  P.MustDirectStores = 19;
  P.MustDerivedLoads = 20;
  P.MustDerivedStores = 21;
  P.MustSignedOps = 22;
  P.MustUnsignedOps = 300;
  P.DereferencedViaCallee = true;
  P.StoredViaCallee = true;
  P.CallTargets = {3, 9, 70000};
  P.CallTargetsOverflow = true;
  analysis::ReturnEvidence &R = Request.Evidence.Ret.emplace();
  R.LowType = wasm::ValType::F64;
  R.TotalReturns = 31;
  R.FromLoad = 32;
  R.FromComparison = 33;
  R.FromConst = 34;
  R.FromCall = 35;
  R.FromParam = 36;
  R.FromOther = 37;
  R.MinLoadBytes = 38;
  R.MaxLoadBytes = 129;
  R.SignExtLoads = 1u << 30;
  std::string Key = PredictionCache::requestKey(Request, 256, 5, 5);
  EXPECT_EQ(Key.size(), 94u);
  EXPECT_EQ(hashToHex(hashString(Key)), "a0844e74c14b1e14");
}

// The watchdog signature and the cache key share one token frame: the
// signature is the key's prefix, whatever the knobs and evidence.
TEST(PredictionCache, RequestSignatureIsTheKeyPrefix) {
  ServeRequest Request;
  Request.InputTokens = {"i32", "<begin>", "local.get", std::string(200, 'z'),
                         "", "<end>"};
  Request.Evidence.Param = analysis::ParamEvidence();
  Request.Evidence.Param->DirectLoads = 300;
  std::string Sig = ServeDaemon::requestSignature(Request);
  std::string Key = PredictionCache::requestKey(Request, 1u << 20, 5, 7);
  ASSERT_LT(Sig.size(), Key.size());
  EXPECT_EQ(Key.compare(0, Sig.size(), Sig), 0);
  ServeRequest Other = Request;
  Other.InputTokens.back() = "<end2>";
  EXPECT_NE(ServeDaemon::requestSignature(Other), Sig);
}

/// A 156-token request of wasm-like tokens whose cache key is ~1 KB, the
/// size of an average serve-repeat key.
ServeRequest longRequest() {
  const char *const Vocab[] = {"local.get", "<param>", "i32.const", "8",
                               "i32.add",   "i32.load", "call",      "<func>",
                               "br_if",     "i32.store", "end",      "if"};
  ServeRequest Request;
  for (size_t I = 0; I < 156; ++I)
    Request.InputTokens.push_back(Vocab[(I * 7) % std::size(Vocab)]);
  return Request;
}

// keyHash only buckets, but its values are part of the cache's behaviour
// (which shard a key lands on), and they must not depend on the platform's
// byte order: pinned for keys of length 0-17 (every tail length, up to two
// full words plus one byte) and for a ~1 KB request key.
TEST(PredictionCache, KeyHashGolden) {
  const std::string Text = "snowwhite-cache-k";
  const char *const Golden[] = {
      "149aeec19b31d6cc", "4b7b483bcb201be8", "d8f43406f7efd901",
      "54da1601144e2b8a", "98f1cb358fdd2337", "33f5b23637ac9a9b",
      "ba8fe31c84e22ce0", "a67f8bb2d9129baa", "1b086944e50fb2d7",
      "8ed0a33e044179ea", "a3c33f8fddea6600", "6dce3bfd9ebae40b",
      "68c37ef98a7db375", "f8b27368ebaa8e28", "bb319666c3f7c87f",
      "35fe400a25fba33e", "e88a749b7d35f294", "892004d91163fbd4"};
  std::vector<std::string> Got;
  for (size_t Len = 0; Len <= Text.size(); ++Len)
    Got.push_back(hashToHex(PredictionCache::keyHash(Text.substr(0, Len))));
  ASSERT_EQ(Got.size(), std::size(Golden));
  for (size_t Len = 0; Len < Got.size(); ++Len)
    EXPECT_EQ(Got[Len], Golden[Len]) << "length " << Len;

  std::string Key = PredictionCache::requestKey(longRequest(), 128, 5, 5);
  EXPECT_EQ(Key.size(), 1073u);
  EXPECT_EQ(hashToHex(PredictionCache::keyHash(Key)), "083947dd5570d6ba");

  // Keys that differ only in their last byte hash apart, at every tail
  // length and at full size; so do a key and its zero-padded extension.
  std::vector<std::string> Keys;
  for (size_t Len = 1; Len <= Text.size(); ++Len)
    Keys.push_back(Text.substr(0, Len));
  Keys.push_back(Key);
  for (const std::string &K : Keys) {
    std::string Flipped = K;
    Flipped.back() ^= 1;
    EXPECT_NE(PredictionCache::keyHash(K), PredictionCache::keyHash(Flipped))
        << K.size();
    EXPECT_NE(PredictionCache::keyHash(K),
              PredictionCache::keyHash(K + std::string(1, '\0')))
        << K.size();
  }
}

// Hash % NumShards picks the shard, so near-identical keys must spread
// evenly over any shard count, not just a power of two.
TEST(PredictionCache, KeyHashSpreadsOverShards) {
  constexpr size_t NumKeys = 6000;
  for (size_t NumShards : {3u, 4u, 7u}) {
    std::vector<size_t> PerShard(NumShards);
    ServeRequest Request = longRequest();
    for (size_t I = 0; I < NumKeys; ++I) {
      Request.InputTokens.back() = std::to_string(I);
      std::string Key = PredictionCache::requestKey(Request, 128, 5, 5);
      ++PerShard[PredictionCache::keyHash(Key) % NumShards];
    }
    double Expected = double(NumKeys) / double(NumShards);
    for (size_t Count : PerShard) {
      EXPECT_GT(double(Count), 0.9 * Expected) << NumShards << " shards";
      EXPECT_LT(double(Count), 1.1 * Expected) << NumShards << " shards";
    }
  }
}

// --- Engine-level cache semantics --------------------------------------------

TEST(ServingCache, HitIsBitIdenticalToColdCompute) {
  DaemonFixture &F = fixture();
  ServingOptions Opts;
  Opts.TopK = 3;
  Opts.DefaultStepBudget = 128;

  // Cold engine without a cache: the reference compute.
  ServingEngine Reference(*F.Trained.Model, sharedTask(), Opts);

  PredictionCache Cache;
  ServingOptions CachedOpts = Opts;
  CachedOpts.Cache = &Cache;
  ServingEngine Engine(*F.Trained.Model, sharedTask(), CachedOpts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(8);
  ASSERT_FALSE(Inputs.empty());
  uint64_t Id = 0;
  for (const std::vector<std::string> &Input : Inputs) {
    ServeRequest Request;
    Request.Id = Id++;
    Request.InputTokens = Input;
    ServeResponse Cold = Engine.processOne(Request);
    ServeResponse Ref = Reference.processOne(Request);
    ServeResponse Warm = Engine.processOne(Request);

    EXPECT_NE(Cold.Tier, PredictionTier::Cached);
    EXPECT_TRUE(samePredictions(Cold.Predictions, Ref.Predictions));
    EXPECT_EQ(Warm.Tier, PredictionTier::Cached);
    EXPECT_EQ(Warm.Outcome, ServeOutcome::OkCached);
    EXPECT_EQ(Warm.DecodeStepsUsed, 0u);
    EXPECT_EQ(Warm.Detail, std::string("cache: hit (computed by ") +
                               tierName(Cold.Tier) + ")");
    EXPECT_TRUE(samePredictions(Warm.Predictions, Cold.Predictions));
    EXPECT_TRUE(Engine.checkStats());
  }
  const ServingStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.CachedAnswers, Inputs.size());
  EXPECT_EQ(Stats.Answered, 2 * Inputs.size());
  CacheStats Totals = Cache.totals();
  EXPECT_EQ(Totals.Hits, Inputs.size());
  EXPECT_EQ(Totals.Misses, Inputs.size());
}

// --- Admission and the serving ledger ----------------------------------------

/// A one-worker daemon without a cache; every request is the same input.
struct LedgerRig {
  static DaemonOptions oneWorkerNoCache(DaemonOptions Opts) {
    Opts.NumWorkers = 1;
    Opts.Cache.ByteBudget = 0;
    return Opts;
  }

  ServeDaemon Daemon;
  std::vector<std::string> Input = sampleInputs(1).at(0);
  uint64_t NextId = 0;

  explicit LedgerRig(const DaemonOptions &Opts)
      : Daemon(*fixture().Trained.Model, sharedTask(), oneWorkerNoCache(Opts)) {
  }

  AdmitOutcome submit(uint64_t StepBudget = 0) {
    DaemonRequest Request;
    Request.Request.Id = NextId++;
    Request.Request.InputTokens = Input;
    Request.Request.StepBudget = StepBudget;
    return Daemon.submit(std::move(Request)).Outcome;
  }
};

TEST(ServeDaemonTest, AdmissionQueueIsBounded) {
  DaemonOptions Opts;
  Opts.Serving.QueueCapacity = 4;
  LedgerRig Rig(Opts);
  size_t Accepted = 0, Rejected = 0;
  for (int I = 0; I < 10; ++I) {
    AdmitOutcome Outcome = Rig.submit();
    EXPECT_TRUE(Outcome == AdmitOutcome::Admitted ||
                Outcome == AdmitOutcome::RejectedQueueFull);
    (Outcome == AdmitOutcome::Admitted ? Accepted : Rejected) += 1;
  }
  EXPECT_EQ(Accepted, 4u);
  EXPECT_EQ(Rejected, 6u);
  EXPECT_EQ(Rig.Daemon.engineTotals().RejectedQueueFull, 6u);
  EXPECT_EQ(Rig.Daemon.pump().size(), 4u);
  EXPECT_EQ(Rig.Daemon.engineTotals().Answered, 4u);
}

// The ledger is checked after every externally observable state change,
// under injected model failures, across every way a request leaves the
// daemon's queues: queue-full rejection, each ladder tier, a budget too
// small for any model tier, shutdown of a queued request and submission
// after shutdown.
TEST(ServeDaemonTest, StatsInvariantHoldsOnEveryExitPath) {
  DaemonOptions Opts;
  Opts.Serving.TopK = 3;
  Opts.Serving.QueueCapacity = 6;
  fault::FaultConfig Faults;
  Faults.Seed = 11;
  Faults.ModelFailureRate = 0.5;
  Opts.WorkerFaults = Faults;
  LedgerRig Rig(Opts);
  ServeDaemon &Daemon = Rig.Daemon;

  // Overfill the bounded queue: 6 admissions, 4 rejections.
  for (int I = 0; I < 10; ++I) {
    Rig.submit();
    ASSERT_TRUE(Daemon.checkStats()) << "after submit " << I;
  }
  Daemon.pump();
  ASSERT_TRUE(Daemon.checkStats()) << "after pump";
  EXPECT_EQ(Rig.submit(/*StepBudget=*/1), AdmitOutcome::Admitted);
  ASSERT_TRUE(Daemon.checkStats()) << "after budget-starved submit";
  Daemon.pump();
  ASSERT_TRUE(Daemon.checkStats()) << "after budget-starved pump";
  EXPECT_EQ(Rig.submit(), AdmitOutcome::Admitted);
  EXPECT_EQ(Daemon.shutdown().size(), 1u);
  ASSERT_TRUE(Daemon.checkStats()) << "after shutdown";
  EXPECT_EQ(Rig.submit(), AdmitOutcome::RejectedShutdown);
  ASSERT_TRUE(Daemon.checkStats()) << "after late submit";

  ServingStats Stats = Daemon.engineTotals();
  EXPECT_EQ(Stats.Submitted, 13u);
  EXPECT_EQ(Stats.Rejected, 6u);
  EXPECT_EQ(Stats.RejectedQueueFull, 4u);
  EXPECT_EQ(Stats.RejectedShutdown, 2u);
  EXPECT_EQ(Stats.Answered, 7u);
  EXPECT_GT(Stats.BaselineAnswers, 0u);
  EXPECT_EQ(Daemon.queued(), 0u);
}

// The registry mirrors are views over the same events the ledger counts:
// after a run against a fresh registry, both must agree exactly. Registry
// inspection needs the live telemetry build.
#if SNOWWHITE_TELEMETRY_ENABLED
TEST(ServeDaemonTest, RegistryCountersMirrorEngineTotals) {
  telemetry::Registry::global().reset();
  DaemonOptions Opts;
  Opts.Serving.QueueCapacity = 4;
  LedgerRig Rig(Opts);
  ServeDaemon &Daemon = Rig.Daemon;
  for (int I = 0; I < 7; ++I)
    Rig.submit();
  EXPECT_EQ(telemetry::gauge("serving.queue_depth").value(), 4);
  Daemon.pump();
  // A budget just wide enough to admit the beam tier but far too small for
  // width x length decoding: the beam burns its allowance and the
  // exhaustion is tallied (in both the ledger and its registry mirror).
  Rig.submit(2 * fixture().Trained.Model->config().MaxTgtLen);
  Daemon.pump();
  Rig.submit();
  Daemon.shutdown();

  ServingStats Stats = Daemon.engineTotals();
  EXPECT_GT(Stats.BudgetExhaustions, 0u)
      << "the starved beam must be tallied, not silently degraded";
  EXPECT_EQ(Stats.RejectedQueueFull, 3u);
  EXPECT_EQ(Stats.RejectedShutdown, 1u);
  EXPECT_EQ(telemetry::counter("serving.submitted").value(), Stats.Submitted);
  EXPECT_EQ(telemetry::counter("serving.rejected").value(), Stats.Rejected);
  EXPECT_EQ(telemetry::counter("serving.rejected.queue_full").value(),
            Stats.RejectedQueueFull);
  EXPECT_EQ(telemetry::counter("serving.rejected.shutdown").value(),
            Stats.RejectedShutdown);
  EXPECT_EQ(telemetry::counter("serving.answered").value(), Stats.Answered);
  EXPECT_EQ(telemetry::counter("serving.answers.beam").value(),
            Stats.BeamAnswers);
  EXPECT_EQ(telemetry::counter("serving.answers.greedy").value(),
            Stats.GreedyAnswers);
  EXPECT_EQ(telemetry::counter("serving.answers.baseline").value(),
            Stats.BaselineAnswers);
  EXPECT_EQ(telemetry::counter("serving.budget_exhaustions").value(),
            Stats.BudgetExhaustions);
  EXPECT_EQ(telemetry::gauge("serving.queue_depth").value(),
            static_cast<int64_t>(Daemon.queued()));
  EXPECT_EQ(telemetry::histogram("serving.request_ns").count(),
            Stats.Answered);
}
#endif // SNOWWHITE_TELEMETRY_ENABLED

TEST(ServeDaemonTest, KillDuringLoadAccountsForEveryRequest) {
  DaemonFixture &F = fixture();
  DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.DefaultStepBudget = 64;
  Opts.Serving.QueueCapacity = 32;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(6);
  ASSERT_GE(Inputs.size(), 4u);
  uint64_t Id = 0;
  // First wave is processed...
  for (size_t I = 0; I < 2; ++I) {
    DaemonRequest Request;
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Inputs[I];
    ASSERT_EQ(Daemon.submit(std::move(Request)).Outcome,
              AdmitOutcome::Admitted);
  }
  EXPECT_EQ(Daemon.pump().size(), 2u);
  // ...second wave is admitted but never pumped: the kill-during-load.
  for (size_t I = 0; I < Inputs.size(); ++I) {
    DaemonRequest Request;
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Inputs[I];
    ASSERT_EQ(Daemon.submit(std::move(Request)).Outcome,
              AdmitOutcome::Admitted);
  }
  EXPECT_EQ(Daemon.queued(), Inputs.size());

  std::vector<ServeResponse> Victims = Daemon.shutdown();
  ASSERT_EQ(Victims.size(), Inputs.size());
  for (size_t I = 0; I + 1 < Victims.size(); ++I)
    EXPECT_LT(Victims[I].Id, Victims[I + 1].Id); // Merged and Id-sorted.
  for (const ServeResponse &Victim : Victims) {
    EXPECT_EQ(Victim.Outcome, ServeOutcome::RejectedShutdown);
    EXPECT_TRUE(Victim.Predictions.empty());
  }

  EXPECT_TRUE(Daemon.stopped());
  EXPECT_TRUE(Daemon.checkStats());
  ServingStats Totals = Daemon.engineTotals();
  EXPECT_EQ(Totals.Submitted, Totals.Rejected + Totals.Answered);
  EXPECT_EQ(Totals.RejectedShutdown, Inputs.size());
  EXPECT_EQ(Daemon.queued(), 0u);

  DaemonRequest Late;
  Late.Request.Id = Id++;
  Late.Request.InputTokens = Inputs[0];
  EXPECT_EQ(Daemon.submit(std::move(Late)).Outcome,
            AdmitOutcome::RejectedShutdown);
  EXPECT_EQ(Daemon.engineTotals().RejectedShutdown, Inputs.size() + 1);
  EXPECT_TRUE(Daemon.checkStats());
  // Idempotent: a second shutdown has nothing left to reject.
  EXPECT_TRUE(Daemon.shutdown().empty());
}

// --- Tenant quotas -------------------------------------------------------------

TEST(ServeDaemonTest, TenantTokenBucketsAdmitDeterministically) {
  DaemonFixture &F = fixture();
  DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.DefaultStepBudget = 64;
  Opts.Serving.QueueCapacity = 32;
  Opts.TenantCapacity = 2;
  Opts.TenantRefill = 1;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(3);
  ASSERT_GE(Inputs.size(), 3u);
  uint64_t Id = 0;
  auto Submit = [&](const std::string &Tenant, size_t Input) {
    DaemonRequest Request;
    Request.Tenant = Tenant;
    Request.Request.Id = Id++;
    Request.Request.InputTokens = Inputs[Input];
    return Daemon.submit(std::move(Request)).Outcome;
  };

  EXPECT_EQ(Daemon.tenantTokens("acme"), 2u);
  EXPECT_EQ(Submit("acme", 0), AdmitOutcome::Admitted);
  EXPECT_EQ(Submit("acme", 1), AdmitOutcome::Admitted);
  // Bucket empty: third submission this round is rejected by quota.
  EXPECT_EQ(Submit("acme", 2), AdmitOutcome::RejectedQuota);
  EXPECT_EQ(Daemon.tenantTokens("acme"), 0u);
  // Another tenant is unaffected.
  EXPECT_EQ(Submit("umbrella", 0), AdmitOutcome::Admitted);
  EXPECT_TRUE(Daemon.checkStats());
  EXPECT_EQ(Daemon.stats().RejectedQuota, 1u);

  // pump() is the virtual-time refill tick.
  EXPECT_EQ(Daemon.pump().size(), 3u);
  EXPECT_EQ(Daemon.tenantTokens("acme"), 1u);
  EXPECT_EQ(Submit("acme", 2), AdmitOutcome::Admitted);
  EXPECT_EQ(Submit("acme", 0), AdmitOutcome::RejectedQuota);
  EXPECT_TRUE(Daemon.checkStats());
}

// --- Per-shard stats and thread-count invariance -------------------------------

struct WarmRunResult {
  std::vector<ServeResponse> Responses;
  CacheStats Cache;
  ServingStats Engines;
};

WarmRunResult runWarmWorkload(unsigned Threads) {
  ThreadPool::resetGlobal(Threads);
  telemetry::Registry::global().reset();
  DaemonFixture &F = fixture();
  DaemonOptions Opts;
  Opts.NumWorkers = 3;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 128;
  Opts.Serving.QueueCapacity = 64;
  ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);

  std::vector<std::vector<std::string>> Inputs = sampleInputs(10);
  WarmRunResult Out;
  uint64_t Id = 0;
  for (int Round = 0; Round < 3; ++Round) {
    for (const std::vector<std::string> &Input : Inputs) {
      DaemonRequest Request;
      Request.Request.Id = Id++;
      Request.Request.InputTokens = Input;
      EXPECT_EQ(Daemon.submit(std::move(Request)).Outcome,
                AdmitOutcome::Admitted);
    }
    for (ServeResponse &Response : Daemon.pump())
      Out.Responses.push_back(std::move(Response));
  }
  EXPECT_TRUE(Daemon.checkStats());

  // Per-shard stats must sum to the totals...
  PredictionCache *Cache = Daemon.cache();
  CacheStats Summed;
  for (size_t I = 0; I < Cache->numShards(); ++I) {
    CacheStats S = Cache->shardStats(I);
    Summed.Hits += S.Hits;
    Summed.Misses += S.Misses;
    Summed.Insertions += S.Insertions;
    Summed.Evictions += S.Evictions;
    Summed.Collisions += S.Collisions;
    Summed.Bytes += S.Bytes;
    Summed.Entries += S.Entries;
  }
  Out.Cache = Cache->totals();
  EXPECT_EQ(Summed.Hits, Out.Cache.Hits);
  EXPECT_EQ(Summed.Misses, Out.Cache.Misses);
  EXPECT_EQ(Summed.Insertions, Out.Cache.Insertions);
  EXPECT_EQ(Summed.Evictions, Out.Cache.Evictions);
  EXPECT_EQ(Summed.Collisions, Out.Cache.Collisions);
  EXPECT_EQ(Summed.Bytes, Out.Cache.Bytes);
  EXPECT_EQ(Summed.Entries, Out.Cache.Entries);

  // ...and to the telemetry registry's counters (reset above, so this run
  // is the only contributor).
  EXPECT_EQ(telemetry::counter("serve_cache.hits").value(), Out.Cache.Hits);
  EXPECT_EQ(telemetry::counter("serve_cache.misses").value(),
            Out.Cache.Misses);
  EXPECT_EQ(telemetry::counter("serve_cache.insertions").value(),
            Out.Cache.Insertions);
  EXPECT_EQ(telemetry::counter("serve_cache.evictions").value(),
            Out.Cache.Evictions);

  Out.Engines = Daemon.engineTotals();
  EXPECT_EQ(telemetry::counter("serving.answers.cached").value(),
            Out.Engines.CachedAnswers);
  return Out;
}

TEST(ServeDaemonTest, ShardStatsSumToTotalsAtAnyThreadCount) {
  WarmRunResult One = runWarmWorkload(1);
  WarmRunResult Four = runWarmWorkload(4);
  ThreadPool::resetGlobal(ThreadPool::threadsFromEnv());

  // No eviction pressure: the whole run is bit-identical across thread
  // counts — responses, tiers, predictions, cache and engine aggregates.
  EXPECT_EQ(One.Cache.Hits, Four.Cache.Hits);
  EXPECT_EQ(One.Cache.Misses, Four.Cache.Misses);
  EXPECT_EQ(One.Cache.Evictions, 0u);
  EXPECT_EQ(Four.Cache.Evictions, 0u);
  EXPECT_EQ(One.Cache.Bytes, Four.Cache.Bytes);
  EXPECT_EQ(One.Engines.CachedAnswers, Four.Engines.CachedAnswers);
  EXPECT_EQ(One.Engines.DecodeSteps, Four.Engines.DecodeSteps);

  ASSERT_EQ(One.Responses.size(), Four.Responses.size());
  for (size_t I = 0; I < One.Responses.size(); ++I) {
    EXPECT_EQ(One.Responses[I].Id, Four.Responses[I].Id);
    EXPECT_EQ(One.Responses[I].Tier, Four.Responses[I].Tier);
    EXPECT_EQ(One.Responses[I].Outcome, Four.Responses[I].Outcome);
    EXPECT_TRUE(samePredictions(One.Responses[I].Predictions,
                                Four.Responses[I].Predictions));
  }
  // The dedup-heavy workload actually exercised the cache: rounds 2 and 3
  // answered entirely from it.
  EXPECT_GT(One.Engines.CachedAnswers, 0u);
}

// A snapshot saved by one daemon warms a restarted one: restore re-hashes
// every stored key with keyHash, the hash the hit path looks up with, so
// each restored entry answers as a hit — here into a cache with a different
// shard count, so every entry is routed afresh.
TEST(ServeDaemonTest, RestartedDaemonAnswersRestoredEntriesAsHits) {
  DaemonFixture &F = fixture();
  std::string Path = scratchPath("daemon_restart.snapshot");
  std::remove(Path.c_str());
  DaemonOptions Opts;
  Opts.NumWorkers = 1;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 128;
  Opts.Cache.NumShards = 4;
  Opts.SnapshotPath = Path;

  std::vector<std::vector<std::string>> Inputs = sampleInputs(12);
  ASSERT_FALSE(Inputs.empty());
  auto Serve = [&](ServeDaemon &Daemon, uint64_t FirstId) {
    uint64_t Id = FirstId;
    for (const std::vector<std::string> &Input : Inputs) {
      DaemonRequest Request;
      Request.Request.Id = Id++;
      Request.Request.InputTokens = Input;
      EXPECT_EQ(Daemon.submit(std::move(Request)).Outcome,
                AdmitOutcome::Admitted);
    }
    return Daemon.pump();
  };

  std::vector<ServeResponse> Cold;
  {
    ServeDaemon Daemon(*F.Trained.Model, sharedTask(), Opts);
    Cold = Serve(Daemon, 0);
    Daemon.shutdown(); // Writes the snapshot.
  }
  ASSERT_EQ(Cold.size(), Inputs.size());
  std::set<std::vector<std::string>> Distinct(Inputs.begin(), Inputs.end());

  Opts.Cache.NumShards = 7;
  ServeDaemon Restarted(*F.Trained.Model, sharedTask(), Opts);
  Result<SnapshotLoadReport> Loaded = Restarted.loadSnapshotNow();
  ASSERT_TRUE(Loaded.isOk());
  EXPECT_EQ(Loaded.value().EntriesLoaded, Distinct.size());
  std::vector<ServeResponse> Warm = Serve(Restarted, 1000);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I < Warm.size(); ++I) {
    EXPECT_EQ(Warm[I].Outcome, ServeOutcome::OkCached) << I;
    EXPECT_EQ(Warm[I].DecodeStepsUsed, 0u) << I;
    EXPECT_TRUE(samePredictions(Warm[I].Predictions, Cold[I].Predictions))
        << I;
  }
  CacheStats Totals = Restarted.cache()->totals();
  EXPECT_EQ(Totals.Hits, Inputs.size());
  EXPECT_EQ(Totals.Misses, 0u);
  EXPECT_EQ(Restarted.engineTotals().DecodeSteps, 0u);
  EXPECT_TRUE(Restarted.checkStats());
  Restarted.shutdown();
}

} // namespace
} // namespace model
} // namespace snowwhite
