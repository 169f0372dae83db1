#include "model/serving.h"

#include "model/serve_daemon.h"
#include "support/hash.h"
#include "support/telemetry.h"

#include <algorithm>

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

namespace {

/// A hit's Detail, "cache: hit (computed by <tierName>)": one literal per
/// tier, so the hit path builds no string.
const char *cacheHitDetail(PredictionTier ComputedBy) {
  switch (ComputedBy) {
  case PredictionTier::Beam:
    return "cache: hit (computed by beam)";
  case PredictionTier::Greedy:
    return "cache: hit (computed by greedy)";
  case PredictionTier::Baseline:
    return "cache: hit (computed by baseline)";
  case PredictionTier::Cached:
    return "cache: hit (computed by cached)";
  }
  return "cache: hit (computed by ?)";
}

} // namespace

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

/// The serving ladder gates path-sensitively: a candidate is only rejected
/// when the contradicting evidence lies on every entry->exit path of the
/// function (analysis::GateOptions). Avoidable evidence — e.g. a dereference
/// behind a branch that may be a dynamic type check — no longer costs a
/// correct prediction its tier.
constexpr analysis::GateOptions ServingGate{/*PathSensitive=*/true};

ServingEngine::ServingEngine(nn::Seq2SeqModel &Model, const Task &BoundTask,
                             const ServingOptions &Options)
    : Model(Model), BoundTask(BoundTask), Options(Options),
      Baseline(BoundTask) {}

ServeResponse ServingEngine::processOne(const ServeRequest &Request) {
  // Per-request metrics are looked up once per process: the registry keeps
  // metric addresses stable, and decltype(auto) binds a reference (or a
  // no-op value when telemetry is compiled out).
  static decltype(auto) SubmittedCount =
      telemetry::counter("serving.submitted");
  static decltype(auto) AnsweredCount = telemetry::counter("serving.answered");
  static decltype(auto) CachedCount =
      telemetry::counter("serving.answers.cached");
  static decltype(auto) CacheHitNs =
      telemetry::histogram("serving.cache_hit_ns");
  ++Stats.Submitted;
  SubmittedCount.add();
  telemetry::Span RequestSpan("serve.request");
  uint64_t RequestStartNs = telemetry::nowNs();
  ServeResponse Response;
  Response.Id = Request.Id;

  uint64_t Budget =
      Request.StepBudget != 0 ? Request.StepBudget : Options.DefaultStepBudget;
  unsigned K = std::max(1u, Options.TopK);
  uint64_t GreedyFloor = Model.config().MaxTgtLen;

  // --- Tier 0: prediction cache -------------------------------------------
  //
  // Keyed by the full abstracted token sequence plus every knob that can
  // change the answer (budget, K, which is also the beam width, evidence).
  // The hash only buckets; membership is decided by byte-wise key comparison
  // inside the cache, so a 64-bit collision can never replay another
  // request's answer.
  std::string CacheKey;
  uint64_t CacheHash = 0;
  if (Options.Cache) {
    CacheKey = PredictionCache::requestKey(Request, Budget, K, K);
    CacheHash = PredictionCache::keyHash(CacheKey);
    if (std::optional<CachedPrediction> Hit =
            Options.Cache->find(CacheHash, CacheKey)) {
      Response.Tier = PredictionTier::Cached;
      Response.Outcome = ServeOutcome::OkCached;
      Response.Predictions = std::move(Hit->Predictions);
      Response.Detail = cacheHitDetail(Hit->ComputedBy);
      ++Stats.Answered;
      ++Stats.CachedAnswers;
      AnsweredCount.add();
      CachedCount.add();
      CacheHitNs.record(telemetry::nowNs() - RequestStartNs);
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

  // --- Tiers 1 and 2: budgeted beam search, then greedy decode ------------
  //
  // A rung runs only when the steps left, less its reserve, cover a greedy
  // pass (the greedy floor). The beam reserves one floor, which turns the
  // budget into a deadline: a beam that burns its allowance still degrades
  // to a model answer, not the baseline. Greedy gets every step left and
  // takes at most MaxTgtLen (the floor), so it never exhausts its budget.
  struct Rung {
    PredictionTier Tier;
    ServeOutcome Outcome;
    unsigned Width;
    uint64_t Reserve;   ///< Steps held back for the rungs below.
    const char *Prefix; ///< Starts this rung's part of Detail.
  };
  const Rung Rungs[] = {
      {PredictionTier::Beam, ServeOutcome::OkBeam, K, GreedyFloor, "beam: "},
      {PredictionTier::Greedy, ServeOutcome::OkGreedy, 1, 0, "; greedy: "},
  };
  if (Budget < GreedyFloor)
    Response.Detail = "budget below greedy floor";
  else
    for (const Rung &R : Rungs) {
      auto Fail = [&](const std::string &Why) {
        Response.Detail += R.Prefix + Why;
      };
      uint64_t Left = Budget - Response.DecodeStepsUsed;
      if (Left < R.Reserve + GreedyFloor) {
        Fail(std::string("budget below ") + tierName(R.Tier) + " floor");
        continue;
      }
      if (Options.Faults && Options.Faults->injectModelFailure()) {
        Fail("injected model failure");
        Faulted = true;
        continue;
      }
      nn::BeamOutcome Out =
          Model.predictTopKBudgeted(SourceIds, R.Width, Left - R.Reserve);
      Response.DecodeStepsUsed += Out.DecodeStepsUsed;
      if (Out.BudgetExhausted) {
        ++Stats.BudgetExhaustions;
        telemetry::counter("serving.budget_exhaustions").add();
        Exhausted = true;
      }
      // Unless a step went non-finite, the search returns a hypothesis.
      if (Out.NonFinite) {
        Faulted = true;
        Fail("non-finite logits");
        continue;
      }
      std::vector<TypePrediction> Decoded = decodeCandidates(
          BoundTask, Out.Hypotheses, K, /*Deduplicate=*/true);
      if (Decoded.empty()) {
        Fail("only empty hypotheses");
        continue;
      }
      size_t Gated = applyEvidenceGate(Decoded, Request.Evidence, ServingGate);
      Stats.GatedCandidates += Gated;
      telemetry::counter("serving.gated_candidates").add(Gated);
      if (Decoded.empty()) {
        ++Stats.GateDegradations;
        telemetry::counter("serving.gate_degradations").add();
        Fail("all candidates contradicted evidence");
        continue;
      }
      Response.Tier = R.Tier;
      Response.Outcome = R.Outcome;
      Response.Predictions = std::move(Decoded);
      break;
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
  AnsweredCount.add();
  telemetry::counter("serving.decode_steps").add(Response.DecodeStepsUsed);
  // Hits returned from tier 0, so one of the three computing tiers answered.
  uint64_t ServingStats::*TierAnswers =
      Response.Tier == PredictionTier::Beam     ? &ServingStats::BeamAnswers
      : Response.Tier == PredictionTier::Greedy ? &ServingStats::GreedyAnswers
                                                : &ServingStats::BaselineAnswers;
  ++(Stats.*TierAnswers);
  telemetry::counter(std::string("serving.answers.") + tierName(Response.Tier))
      .add();
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
