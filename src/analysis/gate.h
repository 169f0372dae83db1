//===- analysis/gate.h - Prediction/evidence consistency gate -------------===//
//
// Checks a predicted high-level type against the statically-proven evidence
// for the same parameter or return slot. The gate is deliberately
// conservative: it only rejects predictions that *contradict* a proof (a
// plain `int` that is directly dereferenced, a pointer-to-const that is
// stored through, ...), never predictions that are merely unsupported.
// Aggregate kinds (struct/class/union), `unknown`, and functions are always
// accepted — byval aggregates are lowered to pointers by the frontend, so
// "looks like a pointer" is consistent with them.
//
// Consumers: model::gatePrediction parses a candidate and checks it here.
// The serving ladder gates each model rung's candidates through it and falls
// through beam -> greedy -> baseline, so a gated-out top-1 never leaves a
// request unanswered; bench/ablation_evidence measures its precision.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_GATE_H
#define SNOWWHITE_ANALYSIS_GATE_H

#include "analysis/evidence.h"
#include "typelang/type.h"

namespace snowwhite {
namespace analysis {

/// Why a prediction was rejected (Consistent = accepted).
enum class GateVerdict : uint8_t {
  Consistent,
  DerefNonPointer,       ///< Primitive/enum predicted, but directly dereferenced.
  StoreThroughConst,     ///< Pointer-to-const predicted, but stored through.
  AccessWiderThanPointee, ///< Access width exceeds the pointee size.
  SignMismatch,          ///< Signed predicted but only unsigned ops (or vice versa).
  PointerFromComparison, ///< Pointer predicted for an always-0/1 return.
};

const char *gateVerdictName(GateVerdict Verdict);

struct GateOptions {
  /// Path-sensitive mode: evidence only contradicts a prediction when it
  /// lies on *every* entry->exit path (the Must* counters of
  /// ParamEvidence). Evidence confined to one branch of an `if` may sit
  /// behind a dynamic type check the binary performs — a pattern the
  /// flow-insensitive gate mis-fires on — so gating requires the
  /// contradiction to be unavoidable. ViaCallee facts never satisfy the
  /// must requirement (the call site itself may be conditional), which
  /// narrows the gate further in the conservative direction.
  bool PathSensitive = false;
};

/// Checks Predicted against the evidence. An empty QueryEvidence (no
/// summary, tags not tracked) always yields Consistent — absence of evidence
/// is never held against a prediction.
GateVerdict checkConsistency(const typelang::Type &Predicted,
                             const QueryEvidence &Evidence,
                             const GateOptions &Options = {});

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_GATE_H
