//===- model/trainer.h - Training loop with early stopping -----------------===//

#ifndef SNOWWHITE_MODEL_TRAINER_H
#define SNOWWHITE_MODEL_TRAINER_H

#include "model/task.h"
#include "nn/seq2seq.h"
#include "support/fault.h"

#include <memory>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {

/// Numerical-health supervisor knobs. Divergence detection (non-finite loss
/// or gradients) is always on when Enabled; what varies is how training
/// recovers: skip the batch, and after enough consecutive bad batches roll
/// back to the last known-good state with a learning-rate backoff. All
/// recovery actions are deterministic — same seed, same faults, same
/// decisions at any thread count.
struct RecoveryOptions {
  /// Master switch. Off restores the PR 2 behaviour exactly: a non-finite
  /// batch flows into the weights unchecked.
  bool Enabled = true;
  /// EMA loss-spike detector: a batch whose loss exceeds LossSpikeFactor x
  /// the exponential moving average (after EmaWarmupBatches healthy batches)
  /// is treated as divergence. 0 disables spike detection; non-finite
  /// detection stays active.
  float LossSpikeFactor = 0.0f;
  size_t EmaWarmupBatches = 20;
  /// Total recovery budget (skips + rollbacks). Once spent, training stops
  /// and TrainResult::Recovery.Diverged is set rather than looping forever
  /// on a hopeless run.
  size_t MaxRecoveries = 16;
  /// Consecutive bad batches that trigger a rollback to the last good
  /// in-memory snapshot (weights + Adam state) with LR backoff, instead of
  /// another plain skip.
  size_t RollbackAfterConsecutive = 3;
  /// Cadence (in healthy batches) of the last-good snapshot that rollback
  /// restores. The snapshot is in memory; on-disk checkpoints (PR 2) remain
  /// the crash-recovery layer and are refreshed after every rollback.
  size_t SnapshotEveryBatches = 16;
};

/// What the supervisor did during a run, for logs and experiments.
struct RecoveryReport {
  size_t BatchesSkipped = 0;
  size_t Rollbacks = 0;
  size_t LrBackoffs = 0;
  /// The recovery budget ran out and training stopped early.
  bool Diverged = false;
  /// One human-readable line per recovery action, in order.
  std::vector<std::string> Log;
};

/// Training hyperparameters (paper §4.2: Adam, lr=0.001, dropout 0.2, early
/// stopping on the validation set, one to four epochs).
struct TrainOptions {
  size_t BatchSize = 24;
  size_t MaxEpochs = 3;
  float LearningRate = 1e-3f;
  size_t EmbedDim = 32;
  size_t HiddenDim = 48;
  float Dropout = 0.2f;
  size_t MaxSrcLen = 96;
  size_t MaxTgtLen = 20;
  /// Validation-loss checks per epoch; training stops after Patience checks
  /// without improvement and the best weights are restored.
  size_t ChecksPerEpoch = 2;
  size_t Patience = 3;
  /// Cap on validation samples used per check (0 = all).
  size_t MaxValidSamples = 256;
  uint64_t Seed = 1234;
  bool Verbose = false;

  /// Crash safety. When CheckpointPath is set and CheckpointEveryBatches > 0,
  /// the full training state (weights, Adam moments + step count, both RNG
  /// states, the epoch's shuffle order, early-stopping state) is written
  /// there atomically every N batches. With Resume set, a valid checkpoint at
  /// that path is restored first and the run continues exactly where it left
  /// off; the final model is bit-identical to the uninterrupted run.
  std::string CheckpointPath;
  size_t CheckpointEveryBatches = 0;
  bool Resume = false;
  /// Optional fault injector: its tick() simulates a hard crash between
  /// batches, injected transient I/O errors exercise the checkpoint retry
  /// path, and shouldPoisonGrad() poisons the configured batches' gradients
  /// with NaN to exercise the supervisor. Not owned.
  fault::FaultInjector *Faults = nullptr;

  /// Self-healing supervisor configuration.
  RecoveryOptions Recovery;

  /// Test oracle for the supervisor: these batch numbers (1-based) take the
  /// skip path unconditionally, with no fault involved. A run that poisons
  /// batch N must produce bit-identical weights to a run that force-skips
  /// batch N — that equality is the proof the detector fires exactly on the
  /// poisoned batch and that skipping is side-effect free.
  std::vector<uint64_t> ForceSkipBatches;
};

/// Result of a training run.
struct TrainResult {
  std::unique_ptr<nn::Seq2SeqModel> Model;
  float BestValidLoss = 0.0f;
  size_t BatchesRun = 0;
  double TrainSeconds = 0.0;
  /// True when the fault injector simulated a crash before training finished
  /// (the model holds the state as of the crash; resume from the checkpoint).
  bool Interrupted = false;
  /// What the numerical-health supervisor did.
  RecoveryReport Recovery;
};

/// Trains a fresh model on Task's training split.
TrainResult trainModel(const Task &TrainTask, const TrainOptions &Options);

} // namespace model
} // namespace snowwhite

#endif // SNOWWHITE_MODEL_TRAINER_H
