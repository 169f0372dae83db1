#include "model/serving.h"

#include "model/serve_daemon.h"
#include "support/hash.h"
#include "support/telemetry.h"

#include <algorithm>
#include <set>

namespace snowwhite {
namespace model {

const char *tierName(PredictionTier Tier) {
  switch (Tier) {
  case PredictionTier::Beam:
    return "beam";
  case PredictionTier::Greedy:
    return "greedy";
  case PredictionTier::Baseline:
    return "baseline";
  case PredictionTier::Cached:
    return "cached";
  }
  return "?";
}

const char *outcomeCode(ServeOutcome Outcome) {
  switch (Outcome) {
  case ServeOutcome::OkBeam:
    return "ok-beam";
  case ServeOutcome::OkGreedy:
    return "ok-greedy";
  case ServeOutcome::OkBaseline:
    return "ok-baseline";
  case ServeOutcome::OkCached:
    return "ok-cached";
  case ServeOutcome::RejectedQueueFull:
    return "rejected-queue-full";
  case ServeOutcome::RejectedShutdown:
    return "rejected-shutdown";
  }
  return "?";
}

namespace {

/// The serving ladder gates path-sensitively: a candidate is only rejected
/// when the contradicting evidence lies on every entry->exit path of the
/// function (analysis::GateOptions). Avoidable evidence — e.g. a dereference
/// behind a branch that may be a dynamic type check — no longer costs a
/// correct prediction its tier.
constexpr analysis::GateOptions ServingGate{/*PathSensitive=*/true};

/// Decodes budgeted-search hypotheses into deduplicated predictions, best
/// log-probability first. Hypotheses that decode to zero tokens (the model
/// emitted EOS immediately) are dropped: the engine's contract is a *typed*
/// prediction per request, and an empty sequence names no type — better to
/// degrade a rung than to return it.
std::vector<TypePrediction> decodeHypotheses(
    const Task &BoundTask, const std::vector<nn::Hypothesis> &Hypotheses,
    unsigned K) {
  std::vector<TypePrediction> Out;
  std::set<std::vector<std::string>> Seen;
  for (const nn::Hypothesis &Hyp : Hypotheses) {
    TypePrediction Prediction;
    Prediction.Tokens = BoundTask.decodeTarget(Hyp.Tokens);
    Prediction.LogProb = Hyp.LogProb;
    if (Prediction.Tokens.empty())
      continue;
    if (!Seen.insert(Prediction.Tokens).second)
      continue;
    Out.push_back(std::move(Prediction));
    if (Out.size() >= K)
      break;
  }
  return Out;
}

} // namespace

ServingEngine::ServingEngine(nn::Seq2SeqModel &Model, const Task &BoundTask,
                             const ServingOptions &Options)
    : Model(Model), BoundTask(BoundTask), Options(Options),
      Baseline(BoundTask) {}

bool ServingEngine::submit(ServeRequest Request) {
  ++Stats.Submitted;
  telemetry::counter("serving.submitted").add();
  if (Stopped) {
    ++Stats.Rejected;
    ++Stats.RejectedShutdown;
    telemetry::counter("serving.rejected").add();
    telemetry::counter("serving.rejected.shutdown").add();
    return false;
  }
  if (Queue.size() >= Options.QueueCapacity) {
    ++Stats.Rejected;
    ++Stats.RejectedQueueFull;
    telemetry::counter("serving.rejected").add();
    telemetry::counter("serving.rejected.queue_full").add();
    return false;
  }
  Queue.push_back(std::move(Request));
  telemetry::gauge("serving.queue_depth").set(static_cast<int64_t>(Queue.size()));
  return true;
}

std::vector<ServeResponse> ServingEngine::drain() {
  std::vector<ServeResponse> Out;
  if (Queue.empty()) // The depth gauge is shared; an idle drain leaves it.
    return Out;
  while (!Queue.empty()) {
    // Queued requests were counted as submitted at admission, so they go
    // straight to the ladder.
    Out.push_back(serveLadder(Queue.front()));
    Queue.pop_front();
  }
  telemetry::gauge("serving.queue_depth").set(0);
  return Out;
}

ServeResponse ServingEngine::processOne(const ServeRequest &Request) {
  ++Stats.Submitted;
  telemetry::counter("serving.submitted").add();
  return serveLadder(Request);
}

std::vector<ServeResponse> ServingEngine::shutdown() {
  Stopped = true;
  std::vector<ServeResponse> Out;
  // Admitted-but-unprocessed requests must not vanish at teardown: each one
  // gets an explicit rejected-shutdown response, keeping the accounting
  // invariant Submitted == Rejected + Answered exact at exit.
  while (!Queue.empty()) {
    ServeResponse Response;
    Response.Id = Queue.front().Id;
    Response.Outcome = ServeOutcome::RejectedShutdown;
    Response.Detail = "engine shut down before request was processed";
    Out.push_back(std::move(Response));
    Queue.pop_front();
    ++Stats.Rejected;
    ++Stats.RejectedShutdown;
    telemetry::counter("serving.rejected").add();
    telemetry::counter("serving.rejected.shutdown").add();
  }
  telemetry::gauge("serving.queue_depth").set(0);
  return Out;
}

ServeResponse ServingEngine::serveLadder(const ServeRequest &Request) {
  telemetry::Span RequestSpan("serve.request");
  uint64_t RequestStartNs = telemetry::nowNs();
  ServeResponse Response;
  Response.Id = Request.Id;

  uint64_t Budget =
      Request.StepBudget != 0 ? Request.StepBudget : Options.DefaultStepBudget;
  unsigned K = std::max(1u, Options.TopK);
  unsigned Width = Options.BeamWidth != 0 ? Options.BeamWidth : K;
  uint64_t GreedyFloor = Model.config().MaxTgtLen;

  // --- Tier 0: prediction cache -------------------------------------------
  //
  // Keyed by the full abstracted token sequence plus every knob that can
  // change the answer (budget, K, width, evidence). The hash only buckets;
  // membership is decided by byte-wise key comparison inside the cache, so a
  // 64-bit collision can never replay another request's answer.
  std::string CacheKey;
  uint64_t CacheHash = 0;
  if (Options.Cache) {
    CacheKey = PredictionCache::requestKey(Request, Budget, K, Width);
    CacheHash = hashString(CacheKey);
    if (std::optional<CachedPrediction> Hit =
            Options.Cache->find(CacheHash, CacheKey)) {
      Response.Tier = PredictionTier::Cached;
      Response.Outcome = ServeOutcome::OkCached;
      Response.Predictions = std::move(Hit->Predictions);
      Response.Detail =
          std::string("cache: hit (computed by ") + tierName(Hit->ComputedBy) +
          ")";
      ++Stats.Answered;
      ++Stats.CachedAnswers;
      telemetry::counter("serving.answered").add();
      telemetry::counter("serving.answers.cached").add();
      telemetry::histogram("serving.cache_hit_ns")
          .record(telemetry::nowNs() - RequestStartNs);
      return Response;
    }
  }

  std::optional<wasm::ValType> LowLevel = lowLevelOf(Request.InputTokens);
  std::vector<uint32_t> SourceIds = BoundTask.encodeSource(Request.InputTokens);

  // Poison signals for the daemon watchdog: a model tier that burned decode
  // budget without finishing, or an injected/organic model fault. A request
  // whose budget is simply below the floors costs nothing and is not
  // suspect.
  bool Exhausted = false;
  bool Faulted = false;

  // --- Tier 1: budgeted beam search ---------------------------------------
  //
  // Attempted only when the budget leaves room for a full greedy pass
  // afterwards (the greedy floor). That reservation is what turns the step
  // budget into a deadline guarantee: a beam that burns its whole allowance
  // can still degrade to a model-based answer instead of dropping straight
  // to the baseline.
  if (Budget >= 2 * GreedyFloor) {
    if (Options.Faults && Options.Faults->injectModelFailure()) {
      Response.Detail = "beam: injected model failure";
      Faulted = true;
    } else {
      uint64_t BeamBudget = Budget - GreedyFloor;
      nn::Seq2SeqModel::BeamOutcome Beam =
          Model.predictTopKBudgeted(SourceIds, Width, BeamBudget);
      Response.DecodeStepsUsed += Beam.DecodeStepsUsed;
      if (Beam.BudgetExhausted) {
        ++Stats.BudgetExhaustions;
        telemetry::counter("serving.budget_exhaustions").add();
        Exhausted = true;
      }
      if (Beam.NonFinite) {
        Response.Detail = "beam: non-finite logits";
        Faulted = true;
      } else if (Beam.BudgetExhausted && Beam.Hypotheses.empty()) {
        Response.Detail = "beam: step budget exhausted";
      } else if (Beam.Hypotheses.empty()) {
        Response.Detail = "beam: no hypotheses";
      } else {
        std::vector<TypePrediction> Decoded =
            decodeHypotheses(BoundTask, Beam.Hypotheses, K);
        if (Decoded.empty()) {
          Response.Detail = "beam: only empty hypotheses";
        } else {
          size_t Gated =
              applyEvidenceGate(Decoded, Request.Evidence, ServingGate);
          Stats.GatedCandidates += Gated;
          telemetry::counter("serving.gated_candidates").add(Gated);
          if (Decoded.empty()) {
            ++Stats.GateDegradations;
            telemetry::counter("serving.gate_degradations").add();
            Response.Detail = "beam: all candidates contradicted evidence";
          } else {
            Response.Tier = PredictionTier::Beam;
            Response.Outcome = ServeOutcome::OkBeam;
            Response.Predictions = std::move(Decoded);
          }
        }
      }
    }
  } else if (Budget >= GreedyFloor) {
    Response.Detail = "beam: budget below beam floor";
  } else {
    Response.Detail = "budget below greedy floor";
  }

  // --- Tier 2: greedy decode ----------------------------------------------
  if (Response.Predictions.empty() && Budget >= GreedyFloor &&
      Budget - Response.DecodeStepsUsed >= GreedyFloor) {
    if (Options.Faults && Options.Faults->injectModelFailure()) {
      Response.Detail += "; greedy: injected model failure";
      Faulted = true;
    } else {
      nn::Seq2SeqModel::BeamOutcome Greedy = Model.predictTopKBudgeted(
          SourceIds, 1, Budget - Response.DecodeStepsUsed);
      Response.DecodeStepsUsed += Greedy.DecodeStepsUsed;
      if (Greedy.BudgetExhausted) {
        ++Stats.BudgetExhaustions;
        telemetry::counter("serving.budget_exhaustions").add();
        Exhausted = true;
      }
      if (Greedy.NonFinite) {
        Response.Detail += "; greedy: non-finite logits";
        Faulted = true;
      } else if (Greedy.Hypotheses.empty()) {
        Response.Detail += "; greedy: no hypotheses";
      } else {
        std::vector<TypePrediction> Decoded =
            decodeHypotheses(BoundTask, Greedy.Hypotheses, K);
        if (Decoded.empty()) {
          Response.Detail += "; greedy: only empty hypotheses";
        } else {
          size_t Gated =
              applyEvidenceGate(Decoded, Request.Evidence, ServingGate);
          Stats.GatedCandidates += Gated;
          telemetry::counter("serving.gated_candidates").add(Gated);
          if (Decoded.empty()) {
            ++Stats.GateDegradations;
            telemetry::counter("serving.gate_degradations").add();
            Response.Detail += "; greedy: all candidates contradicted evidence";
          } else {
            Response.Tier = PredictionTier::Greedy;
            Response.Outcome = ServeOutcome::OkGreedy;
            Response.Predictions = std::move(Decoded);
          }
        }
      }
    }
  }

  // --- Tier 3: statistical baseline ---------------------------------------
  //
  // Costs zero decode steps and cannot fail, so every admitted request gets
  // an answer. Unknown low-level types fall back to the I32 slot (the most
  // populous in practice); an empty task yields a single "unknown" marker
  // rather than an empty response.
  if (Response.Predictions.empty()) {
    Response.Tier = PredictionTier::Baseline;
    Response.Outcome = ServeOutcome::OkBaseline;
    wasm::ValType Slot = LowLevel.value_or(wasm::ValType::I32);
    Response.Predictions = Baseline.predict(Slot, K);
    if (Response.Predictions.empty() && Slot != wasm::ValType::I32)
      Response.Predictions = Baseline.predict(wasm::ValType::I32, K);
    if (Response.Predictions.empty()) {
      TypePrediction Unknown;
      Unknown.Tokens = {"unknown"};
      Response.Predictions.push_back(std::move(Unknown));
    }
  }

  // A request that only the baseline could answer, after a model tier burned
  // budget or faulted, is the poison profile: retrying it would wedge the
  // worker all over again. Flag it for the daemon's watchdog.
  Response.Suspect =
      Response.Tier == PredictionTier::Baseline && (Exhausted || Faulted);
  if (Response.Suspect)
    telemetry::counter("serving.suspect_answers").add();

  ++Stats.Answered;
  Stats.DecodeSteps += Response.DecodeStepsUsed;
  telemetry::counter("serving.answered").add();
  telemetry::counter("serving.decode_steps").add(Response.DecodeStepsUsed);
  switch (Response.Tier) {
  case PredictionTier::Beam:
    ++Stats.BeamAnswers;
    telemetry::counter("serving.answers.beam").add();
    break;
  case PredictionTier::Greedy:
    ++Stats.GreedyAnswers;
    telemetry::counter("serving.answers.greedy").add();
    break;
  case PredictionTier::Baseline:
    ++Stats.BaselineAnswers;
    telemetry::counter("serving.answers.baseline").add();
    break;
  case PredictionTier::Cached:
    // Unreachable: hits return from tier 0 above.
    ++Stats.CachedAnswers;
    break;
  }
  if (Options.Cache) {
    CachedPrediction Computed;
    Computed.ComputedBy = Response.Tier;
    Computed.Predictions = Response.Predictions;
    Options.Cache->insert(CacheHash, std::move(CacheKey),
                          std::move(Computed));
    telemetry::histogram("serving.compute_ns")
        .record(telemetry::nowNs() - RequestStartNs);
  }
  telemetry::histogram("serving.request_ns")
      .record(telemetry::nowNs() - RequestStartNs);
  return Response;
}

} // namespace model
} // namespace snowwhite
