#include "model/predictor.h"

#include "typelang/type.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace snowwhite {
namespace model {

analysis::GateVerdict
gatePrediction(const TypePrediction &Prediction,
               const analysis::QueryEvidence &Evidence,
               const analysis::GateOptions &Options) {
  Result<typelang::Type> Parsed = typelang::parseType(Prediction.Tokens);
  if (Parsed.isErr())
    return analysis::GateVerdict::Consistent;
  return analysis::checkConsistency(*Parsed, Evidence, Options);
}

size_t applyEvidenceGate(std::vector<TypePrediction> &Predictions,
                         const analysis::QueryEvidence &Evidence,
                         const analysis::GateOptions &Options) {
  size_t Before = Predictions.size();
  std::erase_if(Predictions, [&](const TypePrediction &Prediction) {
    return gatePrediction(Prediction, Evidence, Options) !=
           analysis::GateVerdict::Consistent;
  });
  return Before - Predictions.size();
}

std::vector<TypePrediction>
decodeCandidates(const Task &BoundTask,
                 const std::vector<nn::Hypothesis> &Hypotheses, unsigned K,
                 bool Deduplicate,
                 const std::function<bool(const TypePrediction &)> &Keep) {
  std::vector<TypePrediction> Out;
  std::set<std::vector<std::string>> Seen;
  for (const nn::Hypothesis &Hyp : Hypotheses) {
    if (Out.size() >= K)
      break;
    TypePrediction Prediction;
    Prediction.Tokens = BoundTask.decodeTarget(Hyp.Tokens);
    Prediction.LogProb = Hyp.LogProb;
    if (Prediction.Tokens.empty() || (Keep && !Keep(Prediction)))
      continue;
    if (Deduplicate && !Seen.insert(Prediction.Tokens).second)
      continue;
    Out.push_back(std::move(Prediction));
  }
  return Out;
}

std::vector<TypePrediction>
Predictor::predictEncoded(const std::vector<uint32_t> &SourceIds, unsigned K,
                          std::optional<wasm::ValType> LowLevel) const {
  bool CheckLowLevel = ConsistentOnly && LowLevel.has_value();
  std::function<bool(const TypePrediction &)> Keep;
  if (WellFormed || CheckLowLevel)
    Keep = [&](const TypePrediction &Prediction) {
      Result<typelang::Type> Parsed = typelang::parseType(Prediction.Tokens);
      return Parsed.isOk() &&
             (!CheckLowLevel || typelang::lowLevelTypeOf(*Parsed) == *LowLevel);
    };
  bool Filtering = Deduplicate || Keep;
  // Beam a bit wider than K when filtering, so dropped candidates still
  // leave K survivors. A fixed margin is not enough when the filters are
  // aggressive (e.g. most hypotheses are inconsistent with the low-level
  // type), so the beam doubles and the search re-runs until K candidates
  // survive, the beam stops growing (exhausted), or a hard cap is reached.
  unsigned Width = Filtering ? K + 4 : K;
  constexpr unsigned MaxWidth = 256;
  while (true) {
    std::vector<nn::Hypothesis> Hypotheses =
        Model.predictTopK(SourceIds, Width);
    std::vector<TypePrediction> Out =
        decodeCandidates(BoundTask, Hypotheses, K, Deduplicate, Keep);
    if (!Filtering || Out.size() >= K || Width >= MaxWidth ||
        Hypotheses.size() < Width) // Exhausted: widening surfaces nothing.
      return Out;
    Width = std::min(Width * 2, MaxWidth);
  }
}

std::optional<wasm::ValType>
lowLevelOf(const std::vector<std::string> &InputTokens) {
  if (InputTokens.empty())
    return std::nullopt;
  for (wasm::ValType Type : {wasm::ValType::I32, wasm::ValType::I64,
                             wasm::ValType::F32, wasm::ValType::F64})
    if (InputTokens[0] == wasm::valTypeName(Type))
      return Type;
  return std::nullopt;
}

std::vector<TypePrediction>
Predictor::predict(const std::vector<std::string> &InputTokens,
                   unsigned K) const {
  return predictEncoded(BoundTask.encodeSource(InputTokens), K,
                        lowLevelOf(InputTokens));
}

StatisticalBaseline::StatisticalBaseline(const Task &BoundTask) {
  std::map<std::vector<std::string>, uint64_t> Counts[4];
  for (const EncodedSample &Sample : BoundTask.train()) {
    unsigned Slot = static_cast<unsigned>(Sample.LowLevel);
    ++Counts[Slot][Sample.TargetTokens];
    ++Totals[Slot];
  }
  for (unsigned Slot = 0; Slot < 4; ++Slot) {
    for (auto &[Tokens, Count] : Counts[Slot])
      Ranked[Slot].emplace_back(Count, Tokens);
    std::stable_sort(Ranked[Slot].begin(), Ranked[Slot].end(),
                     [](const auto &A, const auto &B) {
                       return A.first > B.first;
                     });
  }
}

std::vector<TypePrediction>
StatisticalBaseline::predict(wasm::ValType LowLevel, unsigned K) const {
  unsigned Slot = static_cast<unsigned>(LowLevel);
  std::vector<TypePrediction> Out;
  for (const auto &[Count, Tokens] : Ranked[Slot]) {
    if (Out.size() >= K)
      break;
    TypePrediction Prediction;
    Prediction.Tokens = Tokens;
    Prediction.LogProb = Totals[Slot] == 0
                             ? 0.0f
                             : std::log(static_cast<float>(Count) /
                                        static_cast<float>(Totals[Slot]));
    Out.push_back(std::move(Prediction));
  }
  return Out;
}

} // namespace model
} // namespace snowwhite
