//===- model/serving.h - The degradation ladder over a trained model ------===//
//
// One type query in, one tagged answer out. The engine tries budgeted beam
// search first, falls back to greedy decoding when the beam cannot finish
// inside the request's step budget (or produces non-finite logits), and
// falls back again to the statistical baseline (§6.3) when the model itself
// is unusable. Each response is tagged with the tier that produced it, so
// downstream consumers know how much to trust the prediction.
//
// The engine is only the ladder: processOne() is its one entry point.
// Queues, admission, shutdown rejection and the Submitted == Rejected +
// Answered ledger across rejections belong to ServeDaemon
// (model/serve_daemon.h), the one way requests enter serving.
//
// Deadlines are enforced by construction, not by wall-clock supervision:
// the only unbounded cost in prediction is decoder invocations, so a
// per-request step budget caps them (nn::Seq2SeqModel::predictTopKBudgeted)
// and the ladder guarantees an answer within the budget.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_MODEL_SERVING_H
#define SNOWWHITE_MODEL_SERVING_H

#include "model/predictor.h"
#include "model/task.h"
#include "nn/seq2seq.h"
#include "support/fault.h"

#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {

class PredictionCache;

/// Which rung of the degradation ladder produced a prediction.
enum class PredictionTier : uint8_t {
  Beam,     ///< Full budgeted beam search completed.
  Greedy,   ///< Beam could not finish; greedy decode did.
  Baseline, ///< Model unusable; statistical baseline answered.
  Cached,   ///< Replayed verbatim from the prediction cache.
};

/// Machine-readable request outcome. Every submitted request maps to
/// exactly one of these.
enum class ServeOutcome : uint8_t {
  OkBeam,
  OkGreedy,
  OkBaseline,
  OkCached,
  RejectedQueueFull, ///< Admission control: never enqueued, no prediction.
  RejectedShutdown,  ///< Daemon stopped before the request could run.
};

const char *tierName(PredictionTier Tier);
const char *outcomeCode(ServeOutcome Outcome);

struct ServingOptions {
  /// Predictions returned per request, and the top tier's beam width.
  unsigned TopK = 5;
  /// Decode-step budget for requests that do not set their own. This is the
  /// request's whole deadline: all tiers together never exceed it.
  uint64_t DefaultStepBudget = 256;
  /// Bound on each ServeDaemon worker's queue; submissions beyond it are
  /// rejected, not queued. The engine itself has no queue.
  size_t QueueCapacity = 64;
  /// Optional fault injector: injectModelFailure() is drawn once per model
  /// decode attempt (beam and greedy separately), simulating a model tier
  /// failure so tests can exercise the full ladder deterministically.
  /// Not owned. ServeDaemon sets it per worker (DaemonOptions::WorkerFaults).
  fault::FaultInjector *Faults = nullptr;
  /// Optional signature-keyed prediction cache (model/serve_daemon.h). When
  /// set, the ladder consults it before decoding and publishes every
  /// computed answer back; hits are replayed bit-identically with the
  /// `cached` provenance tier. Not owned; may be shared across engines.
  PredictionCache *Cache = nullptr;
};

struct ServeRequest {
  uint64_t Id = 0;
  /// Raw wasm input tokens ("<t_low> <begin> ...", as produced by
  /// dataset::extractParamInput / extractReturnInput).
  std::vector<std::string> InputTokens;
  /// Per-request decode-step budget (0 = ServingOptions::DefaultStepBudget).
  uint64_t StepBudget = 0;
  /// Statically-proven evidence for this query slot. When populated, the
  /// beam and greedy tiers reject candidates that contradict it (the
  /// baseline tier is never gated, preserving the answer guarantee).
  analysis::QueryEvidence Evidence;
};

struct ServeResponse {
  uint64_t Id = 0;
  PredictionTier Tier = PredictionTier::Baseline;
  ServeOutcome Outcome = ServeOutcome::OkBaseline;
  /// Decoder invocations spent on this request across all attempted tiers.
  uint64_t DecodeStepsUsed = 0;
  std::vector<TypePrediction> Predictions;
  /// Why the request degraded below beam ("" for beam answers).
  std::string Detail;
  /// True when the request fell all the way to the baseline tier because a
  /// model tier exhausted its decode budget or faulted — the signature of a
  /// poison request that burns a worker's time for nothing. The daemon's
  /// watchdog strike-counts these per request signature (serve_daemon.h);
  /// cheap client errors (budget below the greedy floor) are not suspect.
  bool Suspect = false;
};

/// Aggregate counters, for the experiment tables and serve-loop summaries.
/// An engine counts what reaches its ladder; the rejection fields are filled
/// by ServeDaemon, whose engineTotals() reports the whole ledger.
struct ServingStats {
  uint64_t Submitted = 0;
  uint64_t Rejected = 0;
  /// Partition of Rejected by cause.
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedShutdown = 0;
  uint64_t Answered = 0;
  uint64_t BeamAnswers = 0;
  uint64_t GreedyAnswers = 0;
  uint64_t BaselineAnswers = 0;
  /// Answers replayed from the prediction cache (tier `cached`).
  uint64_t CachedAnswers = 0;
  uint64_t DecodeSteps = 0;
  /// Individual candidates rejected by the evidence consistency gate.
  uint64_t GatedCandidates = 0;
  /// Requests whose beam/greedy tier lost *all* candidates to the gate and
  /// therefore degraded a rung.
  uint64_t GateDegradations = 0;
  /// Decode attempts (beam or greedy) that ran out of step budget before
  /// finishing. A request can contribute more than one.
  uint64_t BudgetExhaustions = 0;
};

class ServingEngine {
public:
  /// Model and task must outlive the engine. The statistical baseline is
  /// fitted once from the task's training split at construction.
  ServingEngine(nn::Seq2SeqModel &Model, const Task &BoundTask,
                const ServingOptions &Options);

  /// Runs one request through the degradation ladder and answers it. Counts
  /// one submission and one answer, so checkStats() holds after every call.
  ServeResponse processOne(const ServeRequest &Request);

  const ServingStats &stats() const { return Stats; }

  /// True iff the outcome counters are consistent: every submitted request
  /// is accounted for by exactly one terminal state (rejected or answered),
  /// rejections partition by cause, and answers partition across the four
  /// tiers.
  bool checkStats() const {
    return Stats.Submitted == Stats.Rejected + Stats.Answered &&
           Stats.Rejected ==
               Stats.RejectedQueueFull + Stats.RejectedShutdown &&
           Stats.Answered == Stats.BeamAnswers + Stats.GreedyAnswers +
                                 Stats.BaselineAnswers + Stats.CachedAnswers;
  }

private:
  nn::Seq2SeqModel &Model;
  const Task &BoundTask;
  ServingOptions Options;
  StatisticalBaseline Baseline;
  ServingStats Stats;
};

} // namespace model
} // namespace snowwhite

#endif // SNOWWHITE_MODEL_SERVING_H
