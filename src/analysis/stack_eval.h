//===- analysis/stack_eval.h - Typed-stack abstract interpreter -----------===//
//
// The abstract-interpreter engine of the WebAssembly function-body typing
// algorithm: next to the exact operand-stack *type* state of the spec
// validation algorithm — including stack-polymorphic typing below
// `unreachable` — every stack slot carries a ValueTag describing where the
// value came from (parameter provenance and producing-instruction category).
//
// It shares one opcode table (wasm/opcodes.def) with wasm::validateFunction:
// every opcode with a fixed signature is typed by one generic arm reading
// the table, and its result tag's Origin is the table's class. Only the
// context-dependent opcodes (control, calls, locals, globals, nop, drop,
// select) are typed by hand here, because this engine also tracks tag joins
// there. The accept/reject verdict is intentionally equivalent to the
// validator's; the fuzz harness and the analysis test suite cross-check the
// two on every input. On top of the spec algorithm the evaluator adds:
//
//  * flow-sensitive local tags: `local.set`/`local.tee` strongly update the
//    tag of the written local, `if`/`else`/`end` joins merge the tags of all
//    inbound edges, and loop back-edges are closed by re-running the body
//    with the previous pass's carry state (analyzer.h drives this bounded
//    fixpoint; it is the only loop-carry engine);
//  * an EvalSink observer fed with typed operands at loads, stores, calls,
//    numeric operations, conditions, and branches-out (returns) — only at
//    reachable program points — from which evidence summaries are built
//    without materializing per-instruction state.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_STACK_EVAL_H
#define SNOWWHITE_ANALYSIS_STACK_EVAL_H

#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>
#include <map>
#include <vector>

namespace snowwhite {
namespace analysis {

/// Sentinel parameter index for "no parameter provenance".
inline constexpr uint32_t NoParam = 0xffffffffu;

/// Tag-tracking is disabled for bodies with more locals than this: each
/// control frame snapshots the local tag vector, so an adversarial body of
/// nested blocks over a huge local count would otherwise multiply the two
/// bounds into an allocation bomb. Evidence degrades to "no provenance"
/// instead (FunctionSummary::TagsTracked).
inline constexpr size_t MaxTrackedLocals = 512;

/// Category of the instruction that produced a value. Coarse on purpose:
/// this feeds return-value evidence ("the return is always a comparison
/// result"), not a full expression recovery.
enum class Origin : uint8_t {
  Unknown, ///< Merge of differing origins, or entry state.
  Const,   ///< *.const (and zero-initialized locals).
  Load,    ///< A memory load; width/signedness in OrgBytes/OrgSigned.
  Compare, ///< Comparison or eqz (always i32 0/1).
  Arith,   ///< Numeric arithmetic/bitwise instruction.
  Convert, ///< Conversion, extension, or reinterpretation.
  Call,    ///< Result of call/call_indirect.
  Global,  ///< global.get.
  MemQuery ///< memory.size / memory.grow.
};

/// Provenance of one abstract value: which parameter it traces to (if any)
/// and what produced it. `Direct` means the value *is* the parameter
/// (`local.get` of an untouched parameter local, possibly via copies);
/// otherwise a set Param means the value was computed *from* the parameter
/// (e.g. `p + i`, the address of a derived element access).
struct ValueTag {
  uint32_t Param = NoParam;
  bool Direct = false;
  Origin Org = Origin::Unknown;
  uint8_t OrgBytes = 0;  ///< Access width in bytes when Org == Load.
  bool OrgSigned = false; ///< Sign-extending load when Org == Load.

  bool operator==(const ValueTag &Other) const = default;
};

/// Lattice join of two tags: agreement is kept, any disagreement widens
/// toward "no information". Two references to the same parameter join to a
/// derived reference unless both are direct.
ValueTag mergeTags(const ValueTag &A, const ValueTag &B);

/// One operand-stack slot: the spec validator's type state (Known = false is
/// the stack-polymorphic "unknown" below an unreachable point) plus the
/// provenance tag.
struct AbstractValue {
  wasm::ValType Type = wasm::ValType::I32;
  bool Known = true;
  ValueTag Tag;
};

/// Observer over one evaluation walk. Semantic callbacks (loads, stores,
/// calls, returns, ...) fire only at *reachable* program points; onInstr
/// fires for every instruction and reports reachability. The Stack reference
/// passed to onInstr aliases the evaluator's live state and must not be
/// retained.
class EvalSink {
public:
  virtual ~EvalSink();

  /// Before executing instruction Index. Stack is the operand stack state at
  /// that point; Unreachable mirrors the spec validator's per-frame flag.
  virtual void onInstr(size_t Index, const wasm::Instr &I,
                       const std::vector<AbstractValue> &Stack,
                       bool Unreachable) {}
  /// A memory load of Bytes bytes at Addr. SignExtending is true for the
  /// *_s sub-width variants.
  virtual void onLoad(const wasm::Instr &I, const AbstractValue &Addr,
                      unsigned Bytes, bool SignExtending) {}
  /// A memory store of Value (Bytes bytes) through Addr.
  virtual void onStore(const wasm::Instr &I, const AbstractValue &Addr,
                       const AbstractValue &Value, unsigned Bytes) {}
  /// A one-operand numeric instruction (tests, conversions, extensions).
  virtual void onUnary(const wasm::Instr &I, const AbstractValue &Operand) {}
  /// A two-operand numeric instruction; Lhs/Rhs in source order.
  virtual void onBinary(const wasm::Instr &I, const AbstractValue &Lhs,
                        const AbstractValue &Rhs) {}
  /// An i32 value consumed as a condition (if, br_if, select).
  virtual void onCondition(const wasm::Instr &I,
                           const AbstractValue &Condition) {}
  /// A call with its arguments in source order. TargetSpaceIndex is the
  /// function-space index for direct calls and unused when Indirect.
  virtual void onCall(const wasm::Instr &I, uint64_t TargetSpaceIndex,
                      bool Indirect,
                      const std::vector<AbstractValue> &Args) {}
  /// One function-result value leaving the function: explicit `return`,
  /// `br`-family branches targeting the function frame, and the implicit
  /// fall-through at the final `end`.
  virtual void onReturn(const AbstractValue &Value) {}
};

/// Per-loop local-tag state carried over back edges, keyed by the `loop`
/// instruction's body index. Produced by one evaluation pass, consumed by
/// the next (analyzer.h drives this to a bounded fixpoint).
using LoopCarry = std::map<size_t, std::vector<ValueTag>>;

struct EvalOptions {
  /// Back-edge state from the previous pass, merged into the local tags at
  /// each loop entry. Null on the first pass.
  const LoopCarry *LoopCarryIn = nullptr;
  /// When set, receives the local tags observed at every branch to a loop
  /// header during this pass.
  LoopCarry *LoopCarryOut = nullptr;
};

/// Runs the typed-stack evaluation of defined function DefinedIndex.
/// Verdict-equivalent to wasm::validateFunction (asserted by tests and the
/// fuzz differential); bounded on hostile inputs exactly like the validator
/// (same wasm::MaxControlNesting cap, no allocation proportional to anything
/// but the body). Sink may be null.
Result<void> evaluateFunction(const wasm::Module &M, uint32_t DefinedIndex,
                              EvalSink *Sink = nullptr,
                              const EvalOptions &Options = {});

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_STACK_EVAL_H
