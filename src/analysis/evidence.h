//===- analysis/evidence.h - Per-parameter/return evidence summaries ------===//
//
// Compact, serializable facts that the typed-stack evaluation *proves* about
// each function parameter and return value: used-as-address, minimum/maximum
// access width, sign-suffixed-operator usage, stored-through versus
// read-only, escapes-to-callee, and the (bounded) set of call targets the
// parameter is forwarded to. analyzer.h fills these; the dataset layer turns
// them into auxiliary input tokens, and the model layer checks predicted
// types against them (analysis/gate.h).
//
// Everything is counters and small fixed-capacity sets — a summary's size is
// bounded regardless of the input binary (see MaxCallTargets), so hostile
// inputs cannot blow it up.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_EVIDENCE_H
#define SNOWWHITE_ANALYSIS_EVIDENCE_H

#include "wasm/types.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace snowwhite {
namespace analysis {

/// Cap on the per-parameter call-target set; beyond this the set stops
/// growing and CallTargetsOverflow is latched.
inline constexpr size_t MaxCallTargets = 8;

/// Evidence about one function parameter, accumulated over all reachable
/// uses. Counters saturate at uint32_t max.
struct ParamEvidence {
  wasm::ValType LowType = wasm::ValType::I32; ///< The wasm-level type.

  // Address usage: loads/stores whose address operand traces to this
  // parameter. "Direct" means the address *is* the parameter value;
  // "Derived" means it was computed from it (p + offset, scaled index, ...).
  uint32_t DirectLoads = 0;
  uint32_t DirectStores = 0;
  uint32_t DerivedLoads = 0;
  uint32_t DerivedStores = 0;
  /// Narrowest / widest access (bytes) through any address tracing to this
  /// parameter. 0 when never used as an address.
  uint8_t MinAccessBytes = 0;
  uint8_t MaxAccessBytes = 0;
  /// Sub-width loads through this parameter, split by extension kind.
  uint32_t SignExtLoads = 0;
  uint32_t ZeroExtLoads = 0;

  // Value usage: numeric instructions consuming a value tracing to this
  // parameter. Sign-suffixed wasm operators are strong signedness signals.
  uint32_t SignedOps = 0;    ///< div_s/rem_s/shr_s/extend*_s/trunc*_s/...
  uint32_t UnsignedOps = 0;  ///< div_u/rem_u/shr_u/extend_u/trunc*_u/...
  uint32_t SignedCmps = 0;   ///< lt_s/gt_s/le_s/ge_s.
  uint32_t UnsignedCmps = 0; ///< lt_u/gt_u/le_u/ge_u.
  uint32_t FloatOps = 0;     ///< Float arithmetic on the (float) parameter.
  uint32_t Conditions = 0;   ///< Consumed as an if/br_if/select condition.

  // Escape behaviour.
  uint32_t EscapesToCalls = 0;  ///< Passed as an argument to a direct call.
  uint32_t EscapesIndirect = 0; ///< Passed to call_indirect.
  uint32_t StoredToMemory = 0;  ///< The parameter *value* stored somewhere.

  // Path-sensitive ("must") counters: the subset of the events above whose
  // instruction lies on *every* entry->exit path of the body (its basic
  // block dominates the CFG's synthetic exit — see analysis/cfg.h). The
  // serving gate only treats evidence as contradicting a prediction when it
  // is unavoidable, i.e. when the matching must-counter is non-zero.
  uint32_t MustDirectLoads = 0;
  uint32_t MustDirectStores = 0;
  uint32_t MustDerivedLoads = 0;
  uint32_t MustDerivedStores = 0;
  uint32_t MustSignedOps = 0;
  uint32_t MustUnsignedOps = 0;

  // Bottom-up call-graph facts: a callee that receives this parameter
  // dereferences / stores through its corresponding formal.
  bool DereferencedViaCallee = false;
  bool StoredViaCallee = false;

  /// Function-space indices of direct-call targets receiving this parameter
  /// (sorted, deduplicated, capped at MaxCallTargets).
  std::vector<uint32_t> CallTargets;
  bool CallTargetsOverflow = false;

  bool usedAsAddress() const {
    return DirectLoads + DirectStores + DerivedLoads + DerivedStores > 0;
  }
  bool directlyDereferenced() const {
    return DirectLoads + DirectStores > 0 || DereferencedViaCallee;
  }
  /// True when memory reachable from this parameter is written.
  bool storedThrough() const {
    return DirectStores + DerivedStores > 0 || StoredViaCallee;
  }
  /// Must-variants: the fact holds on every entry->exit path. Deliberately
  /// intraprocedural — a ViaCallee fact may sit on a conditional call, so it
  /// never upgrades to "must".
  bool mustUsedAsAddress() const {
    return MustDirectLoads + MustDirectStores + MustDerivedLoads +
               MustDerivedStores >
           0;
  }
  bool mustDirectlyDereferenced() const {
    return MustDirectLoads + MustDirectStores > 0;
  }
  bool mustStoredThrough() const {
    return MustDirectStores + MustDerivedStores > 0;
  }
};

/// Evidence about the return value: which instruction categories produce the
/// returned values over all reachable return edges.
struct ReturnEvidence {
  wasm::ValType LowType = wasm::ValType::I32;
  uint32_t TotalReturns = 0;
  uint32_t FromLoad = 0;
  uint32_t FromComparison = 0;
  uint32_t FromConst = 0;
  uint32_t FromCall = 0;
  uint32_t FromParam = 0; ///< Returned value is a parameter passed through.
  uint32_t FromOther = 0;
  /// When any return traces to a load: narrowest/widest source load.
  uint8_t MinLoadBytes = 0;
  uint8_t MaxLoadBytes = 0;
  uint32_t SignExtLoads = 0;
};

/// Calls V(Key, Field) for every stored field of E, in declaration order.
/// Key is the field's JSON key in `snowwhite analyze` output; Field is the
/// member itself: wasm::ValType, an unsigned counter, bool, or (CallTargets
/// only) std::vector<uint32_t>. The derived predicates (usedAsAddress(),
/// storedThrough(), ...) are functions of these and are not visited. The
/// prediction cache key (model/serve_daemon.cpp) and the JSON writer both
/// walk this one list.
template <typename Visitor>
void forEachField(const ParamEvidence &E, Visitor &&V) {
  V("low_type", E.LowType);
  V("direct_loads", E.DirectLoads);
  V("direct_stores", E.DirectStores);
  V("derived_loads", E.DerivedLoads);
  V("derived_stores", E.DerivedStores);
  V("min_access_bytes", E.MinAccessBytes);
  V("max_access_bytes", E.MaxAccessBytes);
  V("sign_ext_loads", E.SignExtLoads);
  V("zero_ext_loads", E.ZeroExtLoads);
  V("signed_ops", E.SignedOps);
  V("unsigned_ops", E.UnsignedOps);
  V("signed_cmps", E.SignedCmps);
  V("unsigned_cmps", E.UnsignedCmps);
  V("float_ops", E.FloatOps);
  V("conditions", E.Conditions);
  V("escapes_to_calls", E.EscapesToCalls);
  V("escapes_indirect", E.EscapesIndirect);
  V("stored_to_memory", E.StoredToMemory);
  V("must_direct_loads", E.MustDirectLoads);
  V("must_direct_stores", E.MustDirectStores);
  V("must_derived_loads", E.MustDerivedLoads);
  V("must_derived_stores", E.MustDerivedStores);
  V("must_signed_ops", E.MustSignedOps);
  V("must_unsigned_ops", E.MustUnsignedOps);
  V("deref_via_callee", E.DereferencedViaCallee);
  V("stored_via_callee", E.StoredViaCallee);
  V("call_targets", E.CallTargets);
  V("call_targets_overflow", E.CallTargetsOverflow);
}

template <typename Visitor>
void forEachField(const ReturnEvidence &E, Visitor &&V) {
  V("low_type", E.LowType);
  V("total_returns", E.TotalReturns);
  V("from_load", E.FromLoad);
  V("from_comparison", E.FromComparison);
  V("from_const", E.FromConst);
  V("from_call", E.FromCall);
  V("from_param", E.FromParam);
  V("from_other", E.FromOther);
  V("min_load_bytes", E.MinLoadBytes);
  V("max_load_bytes", E.MaxLoadBytes);
  V("sign_ext_loads", E.SignExtLoads);
}

// Tripwires for forEachField: a field added to either struct changes its
// size (on this ABI) and fails the build until the visitor covers it and
// the size here is updated.
static_assert(sizeof(ParamEvidence) == 128,
              "ParamEvidence changed: visit the new field in forEachField");
static_assert(sizeof(ReturnEvidence) == 40,
              "ReturnEvidence changed: visit the new field in forEachField");

/// Summary for one defined function.
struct FunctionSummary {
  uint32_t DefinedIndex = 0;
  std::vector<ParamEvidence> Params;
  bool HasReturn = false;
  ReturnEvidence Ret;
  /// False when tag tracking was disabled (MaxTrackedLocals exceeded) — the
  /// counters are then all zero and consumers must not treat absence of
  /// evidence as evidence of absence.
  bool TagsTracked = true;
  /// Fixpoint passes the loop-carry iteration took to stabilize (or the cap).
  uint32_t FixpointPasses = 0;
};

/// Evidence for one prediction query (one parameter or the return slot).
struct QueryEvidence {
  std::optional<ParamEvidence> Param;
  std::optional<ReturnEvidence> Ret;
};

/// Whole-module analysis result.
struct ModuleSummary {
  std::vector<FunctionSummary> Functions; ///< Indexed by defined index.
  /// Direct-call edges: Callees[i] lists the function-space targets called
  /// by defined function i (sorted, deduplicated).
  std::vector<std::vector<uint32_t>> Callees;
  /// Bottom-up propagation passes the call-graph closure took (or the cap).
  uint32_t CallGraphPasses = 0;
};

/// Renders the evidence as a short, stable sequence of auxiliary dataset
/// tokens (e.g. "<evid:ptr>", "<evid:w8>", "<evid:const>"). Order is fixed
/// so the token stream is deterministic.
std::vector<std::string> evidenceTokens(const ParamEvidence &E);
std::vector<std::string> evidenceTokens(const ReturnEvidence &E);

/// The full auxiliary-token vocabulary evidenceTokens can emit, for BPE /
/// embedding-table sizing.
const std::vector<std::string> &evidenceTokenVocabulary();

/// Hand-rolled JSON rendering (no external deps) for `snowwhite analyze`.
std::string toJson(const ParamEvidence &E);
std::string toJson(const ReturnEvidence &E);
std::string toJson(const FunctionSummary &S);
std::string toJson(const ModuleSummary &S);

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_EVIDENCE_H
