//===- analysis/analyzer.h - Module-level dataflow analysis driver --------===//
//
// Drives the typed-stack evaluator (stack_eval.h) to produce evidence
// summaries (evidence.h) for every defined function of a validated module:
//
//  1. Per function, build the CFG (cfg.h) for the must-execute mask, then
//     re-run evaluateFunction over the whole body with the previous round's
//     loop-carry state until the back-edge local tags stabilize (bounded by
//     MaxFixpointPasses — the tag lattice has finite height, so this
//     converges in 2-3 rounds in practice), then run one final pass with the
//     EvidenceCollector sink attached.
//  2. Build the direct-call graph and propagate "callee dereferences /
//     stores through its formal" facts bottom-up (bounded by
//     MaxCallGraphPasses for cyclic graphs).
//
// All passes are pure functions of the module bytes — no globals, no
// time/thread dependence — so summaries are deterministic and invariant
// under SNOWWHITE_THREADS (asserted in tests/analysis_test.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_ANALYZER_H
#define SNOWWHITE_ANALYSIS_ANALYZER_H

#include "analysis/evidence.h"
#include "analysis/stack_eval.h"
#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>

namespace snowwhite {
namespace analysis {

/// Loop back-edge fixpoint cap. The per-local tag lattice has height <= 3
/// (specific -> widened -> unknown), so honest inputs stabilize in 2-3
/// passes; the cap only guards adversarial inputs against slow convergence.
inline constexpr uint32_t MaxFixpointPasses = 8;

/// Bottom-up call-graph propagation cap (handles recursion cycles).
inline constexpr uint32_t MaxCallGraphPasses = 16;

/// Analyzes one defined function (fixpoint + evidence collection). The
/// module must already be validated; a typing error inside the evaluator is
/// reported, never asserted.
Result<FunctionSummary> analyzeFunction(const wasm::Module &M,
                                        uint32_t DefinedIndex);

/// Analyzes every defined function and closes the summaries over the direct
/// call graph. Runs in time linear in the module size (times the small
/// fixpoint caps); never allocates more than O(functions + params) summary
/// state.
Result<ModuleSummary> analyzeModule(const wasm::Module &M);

/// Evidence lookup for one prediction query: ParamIndex >= 0 selects a
/// parameter, ParamIndex < 0 the return slot. Returns an empty QueryEvidence
/// when the function has no summary (e.g. tag tracking disabled).
QueryEvidence queryEvidence(const ModuleSummary &Summary,
                            uint32_t DefinedIndex, int ParamIndex);

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_ANALYZER_H
