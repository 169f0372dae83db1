//===- nn/beam.h - Beam search over a step-wise decoder --------------------===//
//
// The one beam search behind every top-k query (§4.2). Both architectures
// drive it through a step callback: the LSTM carries its per-hypothesis
// (H, C) pair as the step state; the Transformer carries none and re-runs
// its decoder over the whole prefix.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_NN_BEAM_H
#define SNOWWHITE_NN_BEAM_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace snowwhite {
namespace nn {

/// One beam-search result.
struct Hypothesis {
  std::vector<uint32_t> Tokens; ///< Without BOS/EOS.
  float LogProb = 0.0f;
};

/// Outcome of a beam search. Hypotheses are partial when the budget ran out,
/// and only the cleanly finished ones (maybe none) after non-finite logits;
/// callers degrade to a cheaper tier instead of trusting them.
struct BeamOutcome {
  std::vector<Hypothesis> Hypotheses;
  uint64_t DecodeStepsUsed = 0; ///< Step invocations consumed.
  bool BudgetExhausted = false; ///< Search stopped by the step budget.
  bool NonFinite = false;       ///< A step produced NaN/inf logits.
};

/// The search's limits and the decoder's special token ids.
struct BeamSpec {
  unsigned Width = 1;
  size_t MaxLen = 0;           ///< Expansion rounds (tokens per hypothesis).
  uint64_t MaxDecodeSteps = 0; ///< Step invocations allowed (0 = unlimited).
  uint32_t PadId = 0, UnkId = 1, BosId = 2, EosId = 3;
};

/// One decoder invocation's next-token logits (valid until the next step)
/// and a handle to the decoder state after it, which the search passes back
/// as the parent state when it extends the hypothesis.
struct BeamStepResult {
  std::span<const float> Logits;
  size_t State = 0;
};

/// (parent state, prefix without BOS) -> one step. The root hypothesis has
/// state 0 and an empty prefix.
using BeamStep = std::function<BeamStepResult(
    size_t ParentState, const std::vector<uint32_t> &Prefix)>;

/// Beam search for the Spec.Width most likely sequences. It stops as soon as
/// the next step would exceed Spec.MaxDecodeSteps, screens every step's
/// logits for non-finite values, and exits early once Width finished
/// hypotheses outscore every live beam. Hypotheses are ranked by
/// length-normalized log-probability; unfinished beams count as truncated
/// hypotheses unless a step went non-finite.
BeamOutcome beamSearch(const BeamSpec &Spec, const BeamStep &Step);

} // namespace nn
} // namespace snowwhite

#endif // SNOWWHITE_NN_BEAM_H
