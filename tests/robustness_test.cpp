//===- tests/robustness_test.cpp - Self-healing trainer + serving tests ----===//
//
// The supervisor contract: a training run whose gradients are poisoned with
// NaN by the fault injector completes without aborting, logs every recovery
// action, and produces weights bit-identical to a run where the poisoned
// batch was skipped by hand — at any thread count. The serving contract:
// every admitted request is answered, tagged with the degradation-ladder
// tier that produced it, even when the model itself is failing.
//
//===----------------------------------------------------------------------===//

#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/scratch_dir.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {
namespace {

using dataset::Dataset;

/// One shared small corpus/dataset for every fixture in this file.
const Dataset &sharedDataset() {
  static Dataset Data = [] {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 8;
    Spec.Seed = 77;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    return dataset::buildDataset(Corpus);
  }();
  return Data;
}

const Task &sharedTask() {
  static Task T = [] {
    TaskOptions Options;
    Options.MaxTrainSamples = 96; // 6 batches of 16 per epoch.
    return Task(sharedDataset(), Options);
  }();
  return T;
}

/// Training configuration small enough that this file can afford several
/// full runs.
TrainOptions tinyTrainOptions() {
  TrainOptions Options;
  Options.MaxEpochs = 1;
  Options.BatchSize = 16;
  Options.EmbedDim = 12;
  Options.HiddenDim = 16;
  Options.MaxValidSamples = 32;
  Options.Seed = 99;
  return Options;
}

/// One trained model shared by the serving tests (training is the slow part).
struct ServingFixture {
  TrainResult Trained;
  ServingFixture() { Trained = trainModel(sharedTask(), tinyTrainOptions()); }
};

ServingFixture &servingFixture() {
  static ServingFixture Fixture;
  return Fixture;
}

// --- Supervisor: NaN detection and skip ---------------------------------------

TEST(Supervisor, NanGradSkipMatchesHandSkip) {
  // Run A: the injector poisons batch 3's gradients with NaN; the supervisor
  // must detect it and skip the batch.
  fault::FaultConfig Config;
  Config.PoisonGradBatches = {3};
  fault::FaultInjector Injector(Config);
  TrainOptions Poisoned = tinyTrainOptions();
  Poisoned.Faults = &Injector;
  TrainResult A = trainModel(sharedTask(), Poisoned);

  EXPECT_EQ(A.Recovery.BatchesSkipped, 1u);
  EXPECT_EQ(A.Recovery.Rollbacks, 0u);
  EXPECT_FALSE(A.Recovery.Diverged);
  ASSERT_FALSE(A.Recovery.Log.empty());
  EXPECT_NE(A.Recovery.Log[0].find("batch 3"), std::string::npos);
  EXPECT_NE(A.Recovery.Log[0].find("non-finite"), std::string::npos);

  // Run B: no fault at all, but batch 3 is skipped by hand. Bit-identical
  // weights prove the detector fired exactly on the poisoned batch and that
  // skipping has no side effects beyond not stepping.
  TrainOptions HandSkip = tinyTrainOptions();
  HandSkip.ForceSkipBatches = {3};
  TrainResult B = trainModel(sharedTask(), HandSkip);
  EXPECT_EQ(B.Recovery.BatchesSkipped, 1u);

  EXPECT_EQ(A.Model->serialize(), B.Model->serialize());

  // And both must differ from the clean run — the skip actually did
  // something.
  TrainResult Clean = trainModel(sharedTask(), tinyTrainOptions());
  EXPECT_NE(A.Model->serialize(), Clean.Model->serialize());
}

TEST(Supervisor, DisabledSupervisorPreservesLegacyBehaviour) {
  // With the supervisor off and no faults, results match the default run:
  // detection never fires on a healthy run, so enabling it is free.
  TrainOptions WithSupervisor = tinyTrainOptions();
  TrainOptions Without = tinyTrainOptions();
  Without.Recovery.Enabled = false;
  TrainResult A = trainModel(sharedTask(), WithSupervisor);
  TrainResult B = trainModel(sharedTask(), Without);
  EXPECT_EQ(A.Model->serialize(), B.Model->serialize());
  EXPECT_TRUE(A.Recovery.Log.empty());
}

// --- Supervisor: rollback + LR backoff ----------------------------------------

TEST(Supervisor, RollbackIsDeterministicAcrossThreadCounts) {
  // Three consecutive poisoned batches with a rollback threshold of 2:
  // skip, then rollback + LR backoff, then skip again.
  auto Run = [&] {
    fault::FaultConfig Config;
    Config.PoisonGradBatches = {3, 4, 5};
    fault::FaultInjector Injector(Config);
    TrainOptions Options = tinyTrainOptions();
    Options.Faults = &Injector;
    Options.Recovery.RollbackAfterConsecutive = 2;
    Options.Recovery.SnapshotEveryBatches = 2;
    return trainModel(sharedTask(), Options);
  };

  ThreadPool::resetGlobal(1);
  TrainResult SingleThread = Run();
  ThreadPool::resetGlobal(4);
  TrainResult FourThreads = Run();
  ThreadPool::resetGlobal(0); // Back to the environment-sized pool.

  EXPECT_GE(SingleThread.Recovery.Rollbacks, 1u);
  EXPECT_GE(SingleThread.Recovery.LrBackoffs, 1u);
  EXPECT_GE(SingleThread.Recovery.BatchesSkipped, 1u);
  EXPECT_FALSE(SingleThread.Recovery.Diverged);
  EXPECT_EQ(SingleThread.Recovery.Rollbacks, FourThreads.Recovery.Rollbacks);
  EXPECT_EQ(SingleThread.Recovery.BatchesSkipped,
            FourThreads.Recovery.BatchesSkipped);
  EXPECT_EQ(SingleThread.Recovery.Log, FourThreads.Recovery.Log);
  EXPECT_EQ(SingleThread.Model->serialize(), FourThreads.Model->serialize());
}

TEST(Supervisor, SpikeDetectorExhaustsBudgetAndStopsCleanly) {
  // A spike factor below 1 flags every post-warmup batch as divergence, so
  // the recovery budget must run out and training must stop with the
  // Diverged flag — no abort, no infinite loop, model still returned.
  TrainOptions Options = tinyTrainOptions();
  Options.MaxEpochs = 4;
  Options.Recovery.LossSpikeFactor = 0.5f;
  Options.Recovery.EmaWarmupBatches = 2;
  Options.Recovery.MaxRecoveries = 4;
  Options.Recovery.RollbackAfterConsecutive = 2;
  TrainResult Run = trainModel(sharedTask(), Options);

  ASSERT_NE(Run.Model, nullptr);
  EXPECT_TRUE(Run.Recovery.Diverged);
  EXPECT_EQ(Run.Recovery.BatchesSkipped + Run.Recovery.Rollbacks, 4u);
  ASSERT_FALSE(Run.Recovery.Log.empty());
  EXPECT_NE(Run.Recovery.Log.back().find("budget exhausted"),
            std::string::npos);
}

// --- Serving: degradation ladder ----------------------------------------------

TEST(Serving, EveryRequestAnsweredUnderInjectedModelFailure) {
  ServingFixture &Fixture = servingFixture();
  fault::FaultConfig Config;
  Config.Seed = 5;
  Config.ModelFailureRate = 0.6;
  fault::FaultInjector Injector(Config);

  ServingOptions Options;
  Options.TopK = 3;
  Options.DefaultStepBudget = 128;
  Options.Faults = &Injector;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);

  const Dataset &Data = sharedDataset();
  size_t Requests = 0;
  for (uint32_t Index : Data.Test) {
    if (Requests >= 40)
      break;
    ServeRequest Request;
    Request.Id = Requests++;
    Request.InputTokens = Data.Samples[Index].Input;
    ServeResponse Response = Engine.processOne(Request);
    EXPECT_FALSE(Response.Predictions.empty())
        << "request " << Response.Id << " got no prediction";
    EXPECT_LE(Response.DecodeStepsUsed, Options.DefaultStepBudget);
  }
  ASSERT_GE(Requests, 10u);
  // At a 60% per-call failure rate all three tiers must appear: the ladder's
  // bottom rung is exercised for real, not just reachable in theory.
  const ServingStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.Answered, Requests);
  EXPECT_GT(Stats.BeamAnswers, 0u);
  EXPECT_GT(Stats.GreedyAnswers, 0u);
  EXPECT_GT(Stats.BaselineAnswers, 0u);
  EXPECT_EQ(Stats.Rejected, 0u);
}

TEST(Serving, NonFiniteWeightsDegradeToBaseline) {
  // Poison the model's weights directly: every decode step yields non-finite
  // logits, so both model tiers fail and the baseline answers everything.
  ServingFixture &Fixture = servingFixture();
  std::vector<std::vector<float>> Saved;
  for (nn::Parameter *P : Fixture.Trained.Model->parameters()) {
    Saved.push_back(P->Value);
    for (float &V : P->Value)
      V = std::numeric_limits<float>::quiet_NaN();
  }

  ServingOptions Options;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  ServeRequest Request;
  Request.Id = 1;
  Request.InputTokens = Data.Samples[Data.Test[0]].Input;
  ServeResponse Response = Engine.processOne(Request);
  EXPECT_EQ(Response.Tier, PredictionTier::Baseline);
  EXPECT_EQ(Response.Outcome, ServeOutcome::OkBaseline);
  EXPECT_FALSE(Response.Predictions.empty());
  EXPECT_NE(Response.Detail.find("non-finite"), std::string::npos);

  // Restore the fixture for any test running after this one.
  std::vector<nn::Parameter *> Params = Fixture.Trained.Model->parameters();
  for (size_t I = 0; I < Params.size(); ++I)
    Params[I]->Value = Saved[I];
}

TEST(Serving, StepBudgetDrivesTheLadder) {
  ServingFixture &Fixture = servingFixture();
  ServingOptions Options;
  ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
  const Dataset &Data = sharedDataset();
  uint64_t MaxTgtLen = Fixture.Trained.Model->config().MaxTgtLen;

  ServeRequest Request;
  Request.InputTokens = Data.Samples[Data.Test[0]].Input;

  // A budget below one greedy pass cannot touch the model: straight to the
  // baseline, zero decode steps spent.
  Request.Id = 1;
  Request.StepBudget = MaxTgtLen - 1;
  ServeResponse Tiny = Engine.processOne(Request);
  EXPECT_EQ(Tiny.Tier, PredictionTier::Baseline);
  EXPECT_EQ(Tiny.DecodeStepsUsed, 0u);
  EXPECT_FALSE(Tiny.Predictions.empty());

  // A budget with room for greedy but not beam+greedy skips the beam tier.
  Request.Id = 2;
  Request.StepBudget = MaxTgtLen;
  ServeResponse Mid = Engine.processOne(Request);
  EXPECT_EQ(Mid.Tier, PredictionTier::Greedy);
  EXPECT_EQ(Mid.Outcome, ServeOutcome::OkGreedy);
  EXPECT_LE(Mid.DecodeStepsUsed, Request.StepBudget);
  EXPECT_FALSE(Mid.Predictions.empty());

  // A generous budget answers from the top tier.
  Request.Id = 3;
  Request.StepBudget = 0; // Default (256).
  ServeResponse Full = Engine.processOne(Request);
  EXPECT_EQ(Full.Tier, PredictionTier::Beam);
  EXPECT_EQ(Full.Outcome, ServeOutcome::OkBeam);
  EXPECT_FALSE(Full.Predictions.empty());
}

// Pins every field of every ladder response, and the engine's counters, over
// the test split at four injected failure rates and at budgets below the
// greedy floor, between the two floors, at the beam floor (the beam runs out
// of steps) and above both, with and without evidence that contradicts every
// scalar candidate, and once more with non-finite weights. The hash was
// captured before the two model rungs shared one loop; a change to the
// ladder must keep it, not re-capture it.
TEST(Serving, LadderResponsesGolden) {
  ServingFixture &Fixture = servingFixture();
  const Dataset &Data = sharedDataset();
  const uint64_t Floor = Fixture.Trained.Model->config().MaxTgtLen;
  analysis::QueryEvidence Deref;
  Deref.Param.emplace();
  Deref.Param->DirectLoads = 1;
  Deref.Param->MustDirectLoads = 1;

  // The last pass injects no faults but poisons the weights, so both model
  // rungs see non-finite logits.
  constexpr double NanWeights = -1.0;
  std::vector<nn::Parameter *> Params = Fixture.Trained.Model->parameters();
  std::vector<std::vector<float>> Saved;
  std::string Text;
  for (double Rate : {0.0, 0.2, 0.5, 0.8, NanWeights}) {
    if (Rate == NanWeights)
      for (nn::Parameter *P : Params) {
        Saved.push_back(P->Value);
        for (float &V : P->Value)
          V = std::numeric_limits<float>::quiet_NaN();
      }
    fault::FaultConfig Config;
    Config.Seed = 19;
    Config.ModelFailureRate = std::max(Rate, 0.0);
    fault::FaultInjector Injector(Config);
    ServingOptions Options;
    Options.TopK = 3;
    Options.Faults = &Injector;
    ServingEngine Engine(*Fixture.Trained.Model, sharedTask(), Options);
    uint64_t Id = 0;
    for (uint32_t Index : Data.Test)
      for (uint64_t Budget : {Floor - 1, Floor, 2 * Floor - 1, 2 * Floor,
                              uint64_t{256}})
        for (bool Gated : {false, true}) {
          ServeRequest Request;
          Request.Id = Id++;
          Request.InputTokens = Data.Samples[Index].Input;
          Request.StepBudget = Budget;
          if (Gated)
            Request.Evidence = Deref;
          ServeResponse R = Engine.processOne(Request);
          Text += std::to_string(R.Id) + " " + outcomeCode(R.Outcome) + " " +
                  tierName(R.Tier) + " " + std::to_string(R.DecodeStepsUsed) +
                  " " + (R.Suspect ? "suspect" : "-") + " [" + R.Detail + "]";
          for (const TypePrediction &P : R.Predictions) {
            uint32_t Bits;
            std::memcpy(&Bits, &P.LogProb, sizeof(Bits));
            Text += " " + std::to_string(Bits);
            for (const std::string &Token : P.Tokens)
              Text += " " + Token;
            Text += ";";
          }
          Text += "\n";
        }
    const ServingStats &S = Engine.stats();
    for (uint64_t Count :
         {S.Submitted, S.Answered, S.BeamAnswers, S.GreedyAnswers,
          S.BaselineAnswers, S.DecodeSteps, S.GatedCandidates,
          S.GateDegradations, S.BudgetExhaustions})
      Text += std::to_string(Count) + " ";
    Text += "\n";
  }
  for (size_t I = 0; I < Params.size(); ++I)
    Params[I]->Value = Saved[I];
  EXPECT_EQ(hashToHex(hashString(Text)), "e35a1c4540f3a8a1");
}

// --- Trainer: accumulated time survives kill-and-resume -------------------------

// Regression for the TrainSeconds reset bug: each resumed process used to
// report only its own wall time, so a kill-and-resume cycle made the
// reported training time go *down*. The checkpoint now carries the
// accumulated seconds, so time is monotone across any number of resumes.
TEST(TrainerTime, AccumulatedSecondsAreMonotoneAcrossResumes) {
  std::string Ckpt = scratchPath("robustness_time.ckpt");
  std::remove(Ckpt.c_str());

  auto RunSegment = [&](uint64_t CrashAtTick, bool Resume) {
    TrainOptions Options = tinyTrainOptions();
    Options.MaxEpochs = 2; // 12 batches total; segments crash mid-run.
    Options.CheckpointPath = Ckpt;
    Options.CheckpointEveryBatches = 1;
    Options.Resume = Resume;
    fault::FaultConfig Config;
    Config.CrashAtTick = CrashAtTick;
    fault::FaultInjector Injector(Config);
    Options.Faults = CrashAtTick ? &Injector : nullptr;
    return trainModel(sharedTask(), Options);
  };

  // Segment 1 runs nine batches before the kill; segment 2 only two. Without
  // the accumulated-seconds fix, segment 2 would report just its own short
  // elapsed time — strictly less than segment 1's — and this test fails.
  TrainResult First = RunSegment(10, false);
  ASSERT_TRUE(First.Interrupted);
  EXPECT_GT(First.TrainSeconds, 0.0);

  TrainResult Second = RunSegment(3, true);
  ASSERT_TRUE(Second.Interrupted);
  EXPECT_GT(Second.TrainSeconds, First.TrainSeconds)
      << "resume must add to the accumulated time, not restart the clock";

  TrainResult Final = RunSegment(0, true);
  EXPECT_FALSE(Final.Interrupted);
  EXPECT_GT(Final.TrainSeconds, Second.TrainSeconds);
  std::remove(Ckpt.c_str());
}

// --- Checkpoint integrity -----------------------------------------------------

TEST(CheckpointIntegrity, CorruptedModelFileIsRejectedWithTaxonomyCode) {
  ServingFixture &Fixture = servingFixture();
  std::string Path = scratchPath("robustness_model.bin");
  ASSERT_TRUE(Fixture.Trained.Model->save(Path).isOk());

  Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Path);
  ASSERT_TRUE(Bytes.isOk());
  std::vector<uint8_t> Corrupt = *Bytes;
  Corrupt[Corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(io::writeFileAtomic(Path, Corrupt).isOk());

  Result<nn::Seq2SeqModel> Loaded = nn::Seq2SeqModel::load(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::ChecksumMismatch);
  std::remove(Path.c_str());
}

} // namespace
} // namespace model
} // namespace snowwhite
