#include "model/trainer.h"

#include "support/bytes.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace snowwhite {
namespace model {

using nn::AdamOptimizer;
using nn::Parameter;
using nn::Seq2SeqConfig;
using nn::Seq2SeqModel;

namespace {

float validationLoss(Seq2SeqModel &Model, const Task &TrainTask,
                     size_t MaxSamples, size_t BatchSize) {
  telemetry::ScopedPhase ValidPhase("train.validation");
  const std::vector<EncodedSample> &Valid = TrainTask.valid();
  size_t Count = Valid.size();
  if (MaxSamples != 0)
    Count = std::min(Count, MaxSamples);
  if (Count == 0)
    return 0.0f;
  // Evaluation batches are independent (no weight updates, no dropout), so
  // they run concurrently; the sum is taken in ascending batch order so the
  // reported loss is bit-identical for any thread count.
  size_t Batches = (Count + BatchSize - 1) / BatchSize;
  std::vector<float> BatchLoss(Batches, 0.0f);
  double Total = 0.0;
  ThreadPool::global().mapReduceOrdered(
      Batches,
      [&](size_t Batch) {
        size_t Begin = Batch * BatchSize;
        size_t End = std::min(Begin + BatchSize, Count);
        std::vector<std::vector<uint32_t>> Sources, Targets;
        for (size_t I = Begin; I < End; ++I) {
          Sources.push_back(Valid[I].Source);
          Targets.push_back(Valid[I].Target);
        }
        BatchLoss[Batch] = Model.evaluateLoss(Sources, Targets);
      },
      [&](size_t Batch) { Total += BatchLoss[Batch]; });
  return static_cast<float>(Total / static_cast<double>(Batches));
}

// --- Checkpoint format ------------------------------------------------------
//
// Everything the training loop's future depends on, so a resumed run replays
// the uninterrupted one bit-for-bit: weights + Adam moments + step count,
// both RNG states (shuffle and the model's dropout-seeding RNG), the current
// epoch's shuffle order and position, and the early-stopping state. Framed
// by the bytes:: codec (support/bytes.h) and written via
// io::writeFileChecksummed (atomic + content checksum).

// Version 2 added the supervisor fields (EMA loss state, recovery budget,
// LR scale) so a killed-and-resumed run replays recovery decisions exactly.
// Version 3 added accumulated training seconds: TrainSeconds used to restart
// from zero on every resume, so killed-and-resumed runs under-reported total
// training time.
constexpr uint64_t CheckpointMagic = 0x534e4f57434b5054ULL; // "SNOWCKPT"
constexpr uint64_t CheckpointVersion = 3;

/// In-memory image of the resumable loop state (everything but the model and
/// optimizer objects, which are restored in place).
struct LoopState {
  uint64_t Epoch = 0;
  uint64_t NextBegin = 0; ///< First un-trained index into Order.
  uint64_t BatchesRun = 0;
  uint64_t StepCount = 0;
  uint64_t ChecksWithoutImprovement = 0;
  float BestLoss = std::numeric_limits<float>::infinity();
  bool Stop = false;
  bool HasBest = false;
  // Supervisor state (checkpointed so resumed runs keep making the same
  // recovery decisions).
  double EmaLoss = 0.0;
  uint64_t EmaCount = 0;       ///< Healthy batches folded into the EMA.
  uint64_t ConsecutiveBad = 0; ///< Bad batches since the last healthy step.
  uint64_t RecoveriesUsed = 0; ///< Spent recovery budget (skips + rollbacks).
  float LrScale = 1.0f;        ///< Cumulative LR backoff multiplier.
  /// Wall-clock seconds spent training across *all* prior runs of this
  /// checkpoint lineage, as of the moment the checkpoint was written. A
  /// resumed run reports PriorSeconds + its own elapsed time, so
  /// TrainResult::TrainSeconds is monotone across kill-and-resume.
  double AccumSeconds = 0.0;
};

/// Last-known-good model state for in-run rollback: weights, Adam moments,
/// and the step counter (so bias correction matches the restored moments).
/// In memory only — the on-disk checkpoint (PR 2) stays the crash-recovery
/// layer; this is the divergence-recovery layer.
struct ModelSnapshot {
  bool Valid = false;
  std::vector<std::vector<float>> Value, AdamM, AdamV;
  uint64_t StepCount = 0;

  void capture(Seq2SeqModel &Model, const AdamOptimizer &Optimizer) {
    Value.clear();
    AdamM.clear();
    AdamV.clear();
    for (Parameter *P : Model.parameters()) {
      Value.push_back(P->Value);
      AdamM.push_back(P->AdamM);
      AdamV.push_back(P->AdamV);
    }
    StepCount = Optimizer.stepCount();
    Valid = true;
  }

  void restore(Seq2SeqModel &Model, AdamOptimizer &Optimizer) const {
    assert(Valid && "restore from empty snapshot");
    std::vector<Parameter *> Params = Model.parameters();
    for (size_t I = 0; I < Params.size(); ++I) {
      Params[I]->Value = Value[I];
      Params[I]->AdamM = AdamM[I];
      Params[I]->AdamV = AdamV[I];
    }
    Optimizer.setStepCount(StepCount);
  }
};

std::vector<uint8_t> serializeCheckpoint(
    const LoopState &State, const Rng &ShuffleRng, Seq2SeqModel &Model,
    const std::vector<size_t> &Order,
    const std::vector<std::vector<float>> &BestWeights) {
  std::vector<uint8_t> Out;
  bytes::Writer W(Out);
  W.u64(CheckpointMagic);
  W.u64(CheckpointVersion);
  W.u64(State.Epoch);
  W.u64(State.NextBegin);
  W.u64(State.BatchesRun);
  W.u64(State.StepCount);
  W.u64(State.ChecksWithoutImprovement);
  W.f32AsU64(State.BestLoss);
  W.u64(State.Stop ? 1 : 0);
  W.u64(State.HasBest ? 1 : 0);
  W.f64(State.EmaLoss);
  W.u64(State.EmaCount);
  W.u64(State.ConsecutiveBad);
  W.u64(State.RecoveriesUsed);
  W.f32AsU64(State.LrScale);
  W.f64(State.AccumSeconds);
  auto WriteRng = [&](const Rng &R) {
    for (uint64_t Word : R.state())
      W.u64(Word);
  };
  WriteRng(ShuffleRng);
  WriteRng(Model.modelRng());
  W.u64(Order.size());
  for (size_t Index : Order)
    W.u64(Index);
  std::vector<Parameter *> Params = Model.parameters();
  W.u64(Params.size());
  for (const Parameter *P : Params) {
    W.floats(P->Value);
    W.floats(P->AdamM);
    W.floats(P->AdamV);
  }
  if (State.HasBest)
    for (const std::vector<float> &Weights : BestWeights)
      W.floats(Weights);
  return Out;
}

Result<void> deserializeCheckpoint(const std::vector<uint8_t> &Bytes,
                                   LoopState &State, Rng &ShuffleRng,
                                   Seq2SeqModel &Model,
                                   std::vector<size_t> &Order,
                                   std::vector<std::vector<float>> &BestWeights) {
  bytes::Reader In(Bytes);
  uint64_t Value;
  if (!In.u64(Value) || Value != CheckpointMagic)
    return Error(ErrorCode::Malformed, "bad checkpoint magic");
  if (!In.u64(Value) || Value != CheckpointVersion)
    return Error(ErrorCode::Unsupported, "unknown checkpoint version");
  auto Truncated = [] {
    return Error(ErrorCode::Truncated, "truncated checkpoint");
  };
  auto ReadFlag = [&](bool &Flag) {
    if (!In.u64(Value))
      return false;
    Flag = Value != 0;
    return true;
  };
  auto ReadRng = [&](Rng &R) {
    std::array<uint64_t, 4> RngState;
    for (uint64_t &Word : RngState)
      if (!In.u64(Word))
        return false;
    R.restoreState(RngState);
    return true;
  };
  if (!In.u64(State.Epoch) || !In.u64(State.NextBegin) ||
      !In.u64(State.BatchesRun) || !In.u64(State.StepCount) ||
      !In.u64(State.ChecksWithoutImprovement) ||
      !In.f32AsU64(State.BestLoss) || !ReadFlag(State.Stop) ||
      !ReadFlag(State.HasBest) || !In.f64(State.EmaLoss) ||
      !In.u64(State.EmaCount) || !In.u64(State.ConsecutiveBad) ||
      !In.u64(State.RecoveriesUsed) || !In.f32AsU64(State.LrScale) ||
      !In.f64(State.AccumSeconds) || !ReadRng(ShuffleRng) ||
      !ReadRng(Model.modelRng()) || !In.u64(Value))
    return Truncated();
  if (Value != Order.size())
    return Error(ErrorCode::Malformed,
                 "checkpoint shuffle order is for a different dataset size");
  for (size_t &Index : Order) {
    uint64_t Raw;
    if (!In.u64(Raw))
      return Truncated();
    if (Raw >= Order.size())
      return Error(ErrorCode::Malformed,
                   "checkpoint shuffle order index out of range");
    Index = Raw;
  }
  std::vector<Parameter *> Params = Model.parameters();
  if (!In.u64(Value) || Value != Params.size())
    return Error(ErrorCode::Malformed, "checkpoint parameter count mismatch");
  for (Parameter *P : Params)
    if (!In.floats(P->Value) || !In.floats(P->AdamM) ||
        !In.floats(P->AdamV))
      return Truncated();
  BestWeights.clear();
  if (State.HasBest) {
    for (Parameter *P : Params) {
      BestWeights.emplace_back(P->Value.size());
      if (!In.floats(BestWeights.back()))
        return Truncated();
    }
  }
  if (!In.atEnd())
    return Error(ErrorCode::Malformed, "trailing bytes after checkpoint data");
  return {};
}

} // namespace

TrainResult trainModel(const Task &TrainTask, const TrainOptions &Options) {
  auto StartTime = std::chrono::steady_clock::now();
  auto ElapsedSeconds = [StartTime] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         StartTime)
        .count();
  };
  telemetry::ScopedPhase TrainPhase("train.total");

  Seq2SeqConfig Config;
  Config.SrcVocabSize = TrainTask.sourceVocab().size();
  Config.TgtVocabSize = TrainTask.targetVocab().size();
  Config.EmbedDim = Options.EmbedDim;
  Config.HiddenDim = Options.HiddenDim;
  Config.DropoutRate = Options.Dropout;
  Config.MaxSrcLen = Options.MaxSrcLen;
  Config.MaxTgtLen = Options.MaxTgtLen;
  Config.Seed = Options.Seed;

  TrainResult Out;
  Out.Model = std::make_unique<Seq2SeqModel>(Config);
  AdamOptimizer Optimizer(Out.Model->parameters(), Options.LearningRate);

  const std::vector<EncodedSample> &Train = TrainTask.train();
  if (Train.empty()) {
    Out.BestValidLoss = 0.0f;
    return Out;
  }

  std::vector<size_t> Order(Train.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng ShuffleRng(Options.Seed ^ 0xabcdefULL);

  size_t BatchesPerEpoch =
      (Train.size() + Options.BatchSize - 1) / Options.BatchSize;
  size_t CheckEvery = std::max<size_t>(
      1, BatchesPerEpoch / std::max<size_t>(1, Options.ChecksPerEpoch));

  LoopState State;
  std::vector<std::vector<float>> BestWeights;

  const bool Checkpointing =
      !Options.CheckpointPath.empty() && Options.CheckpointEveryBatches > 0;
  bool Resumed = false;
  if (Options.Resume && !Options.CheckpointPath.empty()) {
    Result<std::vector<uint8_t>> Bytes =
        io::readFileChecksummed(Options.CheckpointPath, Options.Faults);
    if (Bytes.isOk()) {
      Result<void> Restored = deserializeCheckpoint(
          *Bytes, State, ShuffleRng, *Out.Model, Order, BestWeights);
      if (Restored.isOk()) {
        Optimizer.setStepCount(State.StepCount);
        Optimizer.setLearningRate(Options.LearningRate * State.LrScale);
        Out.BatchesRun = State.BatchesRun;
        Resumed = true;
        telemetry::counter("train.resumes").add();
        if (Options.Verbose)
          std::fprintf(stderr,
                       "  [resume] epoch %llu batch %llu from '%s'\n",
                       static_cast<unsigned long long>(State.Epoch),
                       static_cast<unsigned long long>(State.BatchesRun),
                       Options.CheckpointPath.c_str());
      } else if (Options.Verbose) {
        std::fprintf(stderr, "  [resume] ignoring checkpoint: %s\n",
                     Restored.error().message().c_str());
      }
    } else if (Options.Verbose) {
      std::fprintf(stderr, "  [resume] no usable checkpoint: %s\n",
                   Bytes.error().message().c_str());
    }
  }

  // Training time accumulated by prior runs of this checkpoint lineage
  // (zero on a fresh start). Every TrainSeconds report and every checkpoint
  // write adds the current run's elapsed time on top, so the total is
  // monotone across kill-and-resume.
  const double PriorSeconds = State.AccumSeconds;

  auto Snapshot = [&] {
    BestWeights.clear();
    for (Parameter *P : Out.Model->parameters())
      BestWeights.push_back(P->Value);
    State.HasBest = true;
  };
  auto Restore = [&] {
    if (BestWeights.empty())
      return;
    std::vector<Parameter *> Params = Out.Model->parameters();
    for (size_t I = 0; I < Params.size(); ++I)
      Params[I]->Value = BestWeights[I];
  };
  auto WriteCheckpoint = [&]() -> Result<void> {
    telemetry::ScopedPhase CkptPhase("train.checkpoint");
    State.StepCount = Optimizer.stepCount();
    State.BatchesRun = Out.BatchesRun;
    State.AccumSeconds = PriorSeconds + ElapsedSeconds();
    Result<void> Written =
        io::writeFileChecksummed(
            Options.CheckpointPath,
            serializeCheckpoint(State, ShuffleRng, *Out.Model, Order,
                                BestWeights),
            Options.Faults)
            .withContext("checkpoint '" + Options.CheckpointPath + "'");
    if (Written.isOk())
      telemetry::counter("train.checkpoints_written").add();
    return Written;
  };

  // --- Numerical-health supervisor -----------------------------------------
  //
  // Every batch's gradients are screened before the optimizer may consume
  // them. A bad batch (non-finite loss/gradient, or an EMA loss spike) is
  // discarded; enough consecutive bad batches trigger a rollback to the last
  // good snapshot with LR backoff. All decisions are functions of
  // checkpointed state, so they replay identically across thread counts and
  // across kill-and-resume.
  const RecoveryOptions &Heal = Options.Recovery;
  ModelSnapshot LastGood;
  auto RecordAction = [&](const std::string &Line) {
    Out.Recovery.Log.push_back(Line);
    if (Options.Verbose)
      std::fprintf(stderr, "  [heal] %s\n", Line.c_str());
  };
  auto TakeSnapshot = [&] {
    if (Heal.Enabled)
      LastGood.capture(*Out.Model, Optimizer);
  };
  // The initial (or resumed) state is by definition the last known-good one.
  TakeSnapshot();

  // A checkpoint taken after the epoch's last batch resumes at the start of
  // the next epoch (whose shuffle has not happened yet).
  size_t StartEpoch = static_cast<size_t>(State.Epoch);
  size_t StartBegin = static_cast<size_t>(State.NextBegin);
  bool SkipFirstShuffle = Resumed;
  if (Resumed && StartBegin >= Order.size()) {
    ++StartEpoch;
    StartBegin = 0;
    SkipFirstShuffle = false;
  }

  for (size_t Epoch = StartEpoch; Epoch < Options.MaxEpochs && !State.Stop;
       ++Epoch) {
    telemetry::ScopedPhase EpochPhase("train.epoch");
    telemetry::counter("train.epochs").add();
    if (SkipFirstShuffle)
      SkipFirstShuffle = false; // Resumed mid-epoch: Order is the saved one.
    else
      ShuffleRng.shuffle(Order);
    for (size_t Begin = Epoch == StartEpoch ? StartBegin : 0;
         Begin < Order.size() && !State.Stop; Begin += Options.BatchSize) {
      if (Options.Faults && Options.Faults->tick()) {
        Out.Interrupted = true; // Simulated hard crash between batches.
        Out.TrainSeconds = PriorSeconds + ElapsedSeconds();
        return Out;
      }
      uint64_t BatchStartNs = telemetry::nowNs();
      size_t End = std::min(Begin + Options.BatchSize, Order.size());
      std::vector<std::vector<uint32_t>> Sources, Targets;
      for (size_t I = Begin; I < End; ++I) {
        Sources.push_back(Train[Order[I]].Source);
        Targets.push_back(Train[Order[I]].Target);
      }
      float Loss = Out.Model->computeBatchGradients(Sources, Targets);
      ++Out.BatchesRun;
      telemetry::counter("train.batches").add();
      uint64_t BatchNumber = Out.BatchesRun;

      // Deterministic NaN injection: the injector names the batch, the
      // trainer plants the poison where a real numerical blow-up would
      // land — in the accumulated gradients, before the optimizer step.
      if (Options.Faults && Options.Faults->shouldPoisonGrad(BatchNumber)) {
        std::vector<Parameter *> Params = Out.Model->parameters();
        if (!Params.empty() && !Params[0]->Grad.empty())
          Params[0]->Grad[0] = std::numeric_limits<float>::quiet_NaN();
      }

      // Health verdict for this batch.
      const char *BadReason = nullptr;
      bool Forced =
          std::find(Options.ForceSkipBatches.begin(),
                    Options.ForceSkipBatches.end(),
                    BatchNumber) != Options.ForceSkipBatches.end();
      if (Forced) {
        BadReason = "forced skip";
      } else if (Heal.Enabled) {
        if (!std::isfinite(Loss))
          BadReason = "non-finite loss";
        else if (!Optimizer.gradientsFinite())
          BadReason = "non-finite gradient";
        else if (Heal.LossSpikeFactor > 0.0f &&
                 State.EmaCount >= Heal.EmaWarmupBatches &&
                 static_cast<double>(Loss) >
                     static_cast<double>(Heal.LossSpikeFactor) * State.EmaLoss)
          BadReason = "loss spike";
      }

      if (!BadReason) {
        Optimizer.step(Options.GradClipNorm);
        telemetry::counter("train.steps").add();
        State.ConsecutiveBad = 0;
        if (Heal.Enabled) {
          State.EmaLoss = State.EmaCount == 0
                              ? static_cast<double>(Loss)
                              : Heal.EmaDecay * State.EmaLoss +
                                    (1.0 - Heal.EmaDecay) *
                                        static_cast<double>(Loss);
          ++State.EmaCount;
          if (Heal.SnapshotEveryBatches > 0 &&
              Optimizer.stepCount() % Heal.SnapshotEveryBatches == 0)
            TakeSnapshot();
        }
      } else {
        // Recovery. The batch's gradients never touch the weights; the
        // ModelRng draw already happened inside computeBatchGradients, so a
        // skipped batch leaves the dropout stream exactly where a stepped
        // batch would — that is what makes the hand-skipped reference run
        // bit-identical.
        Optimizer.discardGradients();
        ++State.ConsecutiveBad;
        ++State.RecoveriesUsed;
        char Line[160];
        if (!Forced && State.ConsecutiveBad >= Heal.RollbackAfterConsecutive &&
            LastGood.Valid) {
          LastGood.restore(*Out.Model, Optimizer);
          State.LrScale *= Heal.LrBackoffFactor;
          Optimizer.setLearningRate(Options.LearningRate * State.LrScale);
          State.ConsecutiveBad = 0;
          ++Out.Recovery.Rollbacks;
          ++Out.Recovery.LrBackoffs;
          telemetry::counter("train.supervisor.rollbacks").add();
          telemetry::counter("train.supervisor.lr_backoffs").add();
          std::snprintf(Line, sizeof(Line),
                        "batch %llu: %s — rolled back to step %llu, lr x%.3g "
                        "(budget %llu/%zu)",
                        static_cast<unsigned long long>(BatchNumber),
                        BadReason,
                        static_cast<unsigned long long>(Optimizer.stepCount()),
                        static_cast<double>(State.LrScale),
                        static_cast<unsigned long long>(State.RecoveriesUsed),
                        Heal.MaxRecoveries);
          RecordAction(Line);
          if (Checkpointing) {
            // Refresh the crash-recovery checkpoint so a kill right after a
            // rollback resumes from the healed state, not the diverged one.
            State.Epoch = Epoch;
            State.NextBegin = Begin + Options.BatchSize;
            Result<void> Written = WriteCheckpoint();
            if (Written.isErr() && Options.Verbose)
              std::fprintf(stderr, "  [ckpt] %s\n",
                           Written.error().message().c_str());
          }
        } else {
          ++Out.Recovery.BatchesSkipped;
          telemetry::counter("train.supervisor.skips").add();
          std::snprintf(Line, sizeof(Line),
                        "batch %llu: %s — skipped (budget %llu/%zu)",
                        static_cast<unsigned long long>(BatchNumber),
                        BadReason,
                        static_cast<unsigned long long>(State.RecoveriesUsed),
                        Heal.MaxRecoveries);
          RecordAction(Line);
        }
        if (Heal.MaxRecoveries > 0 &&
            State.RecoveriesUsed >= Heal.MaxRecoveries) {
          Out.Recovery.Diverged = true;
          State.Stop = true;
          telemetry::counter("train.supervisor.diverged").add();
          RecordAction("recovery budget exhausted — stopping (diverged)");
        }
      }

      if (Options.Verbose && Out.BatchesRun % 20 == 0)
        std::fprintf(stderr, "  [train] epoch %zu batch %zu loss %.4f\n",
                     Epoch + 1, Out.BatchesRun, Loss);

      // Batch cost ends here: validation and checkpointing are attributed to
      // their own phases below.
      telemetry::histogram("train.batch_ns")
          .record(telemetry::nowNs() - BatchStartNs);

      if (Out.BatchesRun % CheckEvery == 0) {
        float ValidLoss = validationLoss(*Out.Model, TrainTask,
                                         Options.MaxValidSamples,
                                         Options.BatchSize);
        if (Options.Verbose)
          std::fprintf(stderr, "  [valid] batch %zu loss %.4f (best %.4f)\n",
                       Out.BatchesRun, ValidLoss, State.BestLoss);
        if (ValidLoss < State.BestLoss) {
          State.BestLoss = ValidLoss;
          Snapshot();
          State.ChecksWithoutImprovement = 0;
        } else if (++State.ChecksWithoutImprovement >= Options.Patience) {
          State.Stop = true; // Early stopping: validation loss regressed.
        }
      }

      if (Checkpointing &&
          Out.BatchesRun % Options.CheckpointEveryBatches == 0) {
        State.Epoch = Epoch;
        State.NextBegin = Begin + Options.BatchSize;
        Result<void> Written = WriteCheckpoint();
        if (Written.isErr() && Options.Verbose)
          std::fprintf(stderr, "  [ckpt] %s\n",
                       Written.error().message().c_str());
      }
    }
  }
  // Final check in case the last batches improved.
  float FinalLoss = validationLoss(*Out.Model, TrainTask,
                                   Options.MaxValidSamples, Options.BatchSize);
  if (FinalLoss < State.BestLoss) {
    State.BestLoss = FinalLoss;
    Snapshot();
  }
  Restore();
  Out.BestValidLoss = State.BestLoss;
  Out.TrainSeconds = PriorSeconds + ElapsedSeconds();
  return Out;
}

} // namespace model
} // namespace snowwhite
