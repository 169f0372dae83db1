#include "nn/beam.h"

#include "nn/graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace snowwhite {
namespace nn {

namespace {

/// Length-normalized log-probability: plain sums systematically favor short
/// sequences (an immediate EOS would dominate every multi-token type).
float normalized(float LogProb, size_t NumTokens) {
  return LogProb / static_cast<float>(NumTokens + 1);
}

} // namespace

BeamOutcome beamSearch(const BeamSpec &Spec, const BeamStep &Step) {
  assert(Spec.Width >= 1 && "beam width must be positive");
  BeamOutcome Out;

  struct Beam {
    std::vector<uint32_t> Tokens;
    float LogProb = 0.0f;
    size_t State = 0;
  };
  std::vector<Beam> Beams = {{{}, 0.0f, 0}};
  std::vector<Hypothesis> Finished;

  for (size_t Round = 0; Round < Spec.MaxLen && !Out.BudgetExhausted &&
                         !Out.NonFinite;
       ++Round) {
    std::vector<Beam> Candidates;
    for (const Beam &Current : Beams) {
      if (Spec.MaxDecodeSteps != 0 &&
          Out.DecodeStepsUsed >= Spec.MaxDecodeSteps) {
        Out.BudgetExhausted = true;
        break;
      }
      BeamStepResult Decoded = Step(Current.State, Current.Tokens);
      ++Out.DecodeStepsUsed;
      // Log-softmax over the vocabulary.
      const float *Row = Decoded.Logits.data();
      size_t V = Decoded.Logits.size();
      if (!allFinite(Row, V)) {
        Out.NonFinite = true;
        break;
      }
      float Max = Row[0];
      for (size_t J = 1; J < V; ++J)
        Max = std::max(Max, Row[J]);
      double Sum = 0.0;
      for (size_t J = 0; J < V; ++J)
        Sum += std::exp(static_cast<double>(Row[J] - Max));
      float LogSum = static_cast<float>(std::log(Sum)) + Max;

      // Top Width continuations of this beam.
      std::vector<std::pair<float, uint32_t>> Scored;
      Scored.reserve(V);
      for (uint32_t J = 0; J < V; ++J)
        if (J != Spec.PadId && J != Spec.BosId && J != Spec.UnkId)
          Scored.emplace_back(Row[J] - LogSum, J);
      size_t Keep = std::min<size_t>(Spec.Width, Scored.size());
      std::partial_sort(Scored.begin(), Scored.begin() + Keep, Scored.end(),
                        [](const auto &A, const auto &B) {
                          return A.first > B.first;
                        });
      for (size_t K = 0; K < Keep; ++K) {
        float LogProb = Current.LogProb + Scored[K].first;
        if (Scored[K].second == Spec.EosId) {
          Finished.push_back({Current.Tokens, LogProb});
          continue;
        }
        Candidates.push_back({Current.Tokens, LogProb, Decoded.State});
        Candidates.back().Tokens.push_back(Scored[K].second);
      }
    }
    if (Candidates.empty())
      break;
    std::sort(Candidates.begin(), Candidates.end(),
              [](const Beam &A, const Beam &B) {
                return A.LogProb > B.LogProb;
              });
    if (Candidates.size() > Spec.Width)
      Candidates.resize(Spec.Width);
    Beams = std::move(Candidates);
    // Early exit once Width finished hypotheses outscore every live beam.
    if (Finished.size() >= Spec.Width) {
      float WorstFinished = normalized(Finished[0].LogProb,
                                       Finished[0].Tokens.size());
      for (const Hypothesis &Hyp : Finished)
        WorstFinished = std::min(WorstFinished,
                                 normalized(Hyp.LogProb, Hyp.Tokens.size()));
      if (normalized(Beams[0].LogProb, Beams[0].Tokens.size()) <
          WorstFinished)
        break;
    }
  }
  // Unfinished beams count as (truncated) hypotheses if we ran out. After a
  // non-finite step the live beams are tainted; keep only cleanly finished
  // hypotheses in that case.
  if (!Out.NonFinite)
    for (const Beam &Current : Beams)
      Finished.push_back({Current.Tokens, Current.LogProb});
  std::sort(Finished.begin(), Finished.end(),
            [](const Hypothesis &A, const Hypothesis &B) {
              return normalized(A.LogProb, A.Tokens.size()) >
                     normalized(B.LogProb, B.Tokens.size());
            });
  if (Finished.size() > Spec.Width)
    Finished.resize(Spec.Width);
  Out.Hypotheses = std::move(Finished);
  return Out;
}

} // namespace nn
} // namespace snowwhite
