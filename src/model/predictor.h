//===- model/predictor.h - Top-k type prediction ---------------------------===//

#ifndef SNOWWHITE_MODEL_PREDICTOR_H
#define SNOWWHITE_MODEL_PREDICTOR_H

#include "analysis/gate.h"
#include "model/task.h"
#include "nn/seq2seq.h"
#include "wasm/types.h"

#include <optional>
#include <string>
#include <vector>

namespace snowwhite {
namespace model {

/// One ranked type prediction: the type-token sequence and its beam-search
/// log-probability.
struct TypePrediction {
  std::vector<std::string> Tokens;
  float LogProb = 0.0f;
};

/// Checks one prediction against statically-proven evidence. Predictions
/// that do not parse as type sentences are Consistent by definition — the
/// gate only ever rejects provable contradictions.
analysis::GateVerdict
gatePrediction(const TypePrediction &Prediction,
               const analysis::QueryEvidence &Evidence,
               const analysis::GateOptions &Options = {});

/// Filters Predictions in place (preserving rank order) to the candidates
/// consistent with Evidence. Returns the number of rejected candidates.
/// Callers must handle the all-rejected case themselves (the serving ladder
/// degrades a tier; it never leaves a request unanswered).
size_t applyEvidenceGate(std::vector<TypePrediction> &Predictions,
                         const analysis::QueryEvidence &Evidence,
                         const analysis::GateOptions &Options = {});

/// The low-level wasm type an extracted input names first: the extraction
/// prefix is "<t_low> <begin> ...". nullopt for an empty input or a first
/// token that is not a value-type name.
std::optional<wasm::ValType>
lowLevelOf(const std::vector<std::string> &InputTokens);

/// Wraps a trained model and a task's codecs into the user-facing "give me
/// the top-k types for this parameter/return" query. The raw model is not
/// constrained to produce unique sequences (the paper discusses duplicate
/// beam results); set DeduplicatePredictions to filter them.
class Predictor {
public:
  /// Production-tool filters (§6.4 suggests filtering raw model output):
  /// DeduplicatePredictions removes repeated beam hypotheses;
  /// WellFormedOnly keeps only sentences of the type grammar;
  /// ConsistentWithLowLevel additionally drops types whose ABI lowering
  /// contradicts the known low-level wasm type (an i64 parameter can never
  /// be 'pointer struct'). The last two apply to L_SW-family languages.
  Predictor(nn::Seq2SeqModel &Model, const Task &BoundTask,
            bool DeduplicatePredictions = false, bool WellFormedOnly = false,
            bool ConsistentWithLowLevel = false)
      : Model(Model), BoundTask(BoundTask),
        Deduplicate(DeduplicatePredictions), WellFormed(WellFormedOnly),
        ConsistentOnly(ConsistentWithLowLevel) {}

  /// Top-k predictions for an already-encoded source sequence. LowLevel
  /// enables the consistency filter when the caller knows the wasm type;
  /// Evidence (optional, not owned) additionally rejects candidates that
  /// contradict the dataflow analysis, widening the beam to refill the
  /// survivors like the other filters.
  std::vector<TypePrediction>
  predictEncoded(const std::vector<uint32_t> &SourceIds, unsigned K,
                 std::optional<wasm::ValType> LowLevel = std::nullopt,
                 const analysis::QueryEvidence *Evidence = nullptr) const;

  /// Top-k predictions for raw wasm input tokens (as produced by
  /// dataset::extractParamInput / extractReturnInput). The low-level type
  /// is recovered from the sequence's leading token when present.
  std::vector<TypePrediction>
  predict(const std::vector<std::string> &InputTokens, unsigned K,
          const analysis::QueryEvidence *Evidence = nullptr) const;

private:
  nn::Seq2SeqModel &Model;
  const Task &BoundTask;
  bool Deduplicate;
  bool WellFormed;
  bool ConsistentOnly;
};

/// The statistical baseline (§6.3): top-k predictions are the k most likely
/// target sequences under the empirical conditional distribution
/// P(t_high | t_low) observed on training data.
class StatisticalBaseline {
public:
  /// Fits the conditional distribution from a task's training split.
  explicit StatisticalBaseline(const Task &BoundTask);

  /// The k most frequent type-token sequences for the given low-level type.
  std::vector<TypePrediction> predict(wasm::ValType LowLevel,
                                      unsigned K) const;

private:
  /// Per low-level type: (count, target tokens) sorted by descending count.
  std::vector<std::pair<uint64_t, std::vector<std::string>>>
      Ranked[4]; ///< Indexed by ValType.
  uint64_t Totals[4] = {0, 0, 0, 0};
};

} // namespace model
} // namespace snowwhite

#endif // SNOWWHITE_MODEL_PREDICTOR_H
