//===- tests/analysis_test.cpp - Dataflow analysis subsystem tests ---------===//
//
// Covers the typed-stack evaluator (verdict equivalence with the spec
// validator over the whole synthetic corpus and over hand-written
// invalid/polymorphic bodies), golden evidence summaries, the bounded loop
// fixpoint, bottom-up call-graph propagation, determinism and
// SNOWWHITE_THREADS invariance of summaries, and the prediction-consistency
// gate (including the serving-ladder guarantee that a gated-out top-1 never
// leaves a request unanswered).
//
//===----------------------------------------------------------------------===//

#include "analysis/analyzer.h"
#include "analysis/gate.h"
#include "analysis/stack_eval.h"
#include "dataset/pipeline.h"
#include "frontend/corpus.h"
#include "model/serving.h"
#include "model/trainer.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "typelang/type.h"
#include "wasm/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace snowwhite {
namespace analysis {
namespace {

using wasm::BlockType;
using wasm::Function;
using wasm::FuncType;
using wasm::Instr;
using wasm::MemoryDecl;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

/// Builds a one-function module around Body, with a memory so loads/stores
/// validate. Locals (beyond the parameters) are appended one run each.
Module moduleWithBody(std::vector<Instr> Body,
                      std::vector<ValType> Params = {},
                      std::vector<ValType> Results = {},
                      std::vector<ValType> Locals = {}) {
  Module M;
  FuncType Type;
  Type.Params = std::move(Params);
  Type.Results = std::move(Results);
  Function Func;
  Func.TypeIndex = M.internType(Type);
  for (ValType Local : Locals)
    Func.Locals.push_back(wasm::LocalRun{1, Local});
  Func.Body = std::move(Body);
  M.Functions.push_back(std::move(Func));
  M.Memories.push_back(MemoryDecl{1, false, 0});
  return M;
}

/// Analyzes M and returns the summary of defined function 0.
FunctionSummary summarize(const Module &M) {
  Result<ModuleSummary> Summary = analyzeModule(M);
  if (Summary.isErr()) {
    ADD_FAILURE() << Summary.error().message();
    return {};
  }
  return Summary->Functions.at(0);
}

// --- Evaluator / validator verdict equivalence --------------------------------

TEST(StackEval, AgreesWithValidatorOnSyntheticCorpus) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = 7;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  size_t Functions = 0;
  for (const frontend::Package &Package : Corpus.Packages) {
    for (const frontend::CompiledObject &Object : Package.Objects) {
      const Module &M = Object.Mod;
      for (uint32_t I = 0; I < M.Functions.size(); ++I) {
        Result<void> Validated = wasm::validateFunction(M, I);
        Result<void> Evaluated = evaluateFunction(M, I);
        ASSERT_TRUE(Validated.isOk())
            << Object.FileName << " fn " << I << ": "
            << Validated.error().message();
        ASSERT_TRUE(Evaluated.isOk())
            << Object.FileName << " fn " << I << ": "
            << Evaluated.error().message();
        ++Functions;
      }
      Result<ModuleSummary> Summary = analyzeModule(M);
      ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
      EXPECT_EQ(Summary->Functions.size(), M.Functions.size());
    }
  }
  EXPECT_GT(Functions, 100u);
}

TEST(StackEval, AgreesWithValidatorOnHandWrittenBodies) {
  // Pairs of (module, expected-valid). The evaluator's verdict must match
  // the validator's on every one — including the stack-polymorphic cases
  // that historically diverge between implementations.
  struct Case {
    const char *Name;
    Module M;
    bool Valid;
  };
  std::vector<Case> Cases;

  Cases.push_back({"missing result", moduleWithBody({Instr(Opcode::End)}, {},
                                                    {ValType::I32}),
                   false});
  Cases.push_back({"value left on stack",
                   moduleWithBody({Instr::i32Const(1), Instr(Opcode::End)}),
                   false});
  Cases.push_back(
      {"stack underflow",
       moduleWithBody({Instr(Opcode::I32Add), Instr(Opcode::End)}), false});
  Cases.push_back({"branch depth out of range",
                   moduleWithBody({Instr::br(5), Instr(Opcode::End)}), false});
  Cases.push_back({"missing end",
                   moduleWithBody({Instr(Opcode::Nop)}), false});
  Cases.push_back({"over-aligned store",
                   moduleWithBody({Instr::i32Const(0), Instr::i32Const(0),
                                   Instr::store(Opcode::I32Store, 0, 6),
                                   Instr(Opcode::End)}),
                   false});
  Cases.push_back({"if with result but no else",
                   moduleWithBody({Instr::i32Const(1),
                                   Instr::ifOp(BlockType::value(ValType::I32)),
                                   Instr::i32Const(2), Instr(Opcode::End),
                                   Instr(Opcode::End)},
                                  {}, {ValType::I32}),
                   false});
  Cases.push_back({"type mismatch through select",
                   moduleWithBody({Instr::i32Const(1), Instr::f64Const(1.0),
                                   Instr::i32Const(0), Instr(Opcode::Select),
                                   Instr(Opcode::Drop), Instr(Opcode::End)}),
                   false});

  // Stack-polymorphic bodies that the spec accepts.
  Cases.push_back({"arith below unreachable",
                   moduleWithBody({Instr(Opcode::Unreachable),
                                   Instr(Opcode::I32Add), Instr(Opcode::End)},
                                  {}, {ValType::I32}),
                   true});
  Cases.push_back({"select below unreachable",
                   moduleWithBody({Instr(Opcode::Unreachable),
                                   Instr(Opcode::Select), Instr(Opcode::End)},
                                  {}, {ValType::I32}),
                   true});
  Cases.push_back({"code below br is unreachable",
                   moduleWithBody({Instr::br(0), Instr::i32Const(1),
                                   Instr(Opcode::Drop), Instr(Opcode::End)}),
                   true});
  Cases.push_back({"br_if to value-carrying block",
                   moduleWithBody({Instr::block(BlockType::value(ValType::I32)),
                                   Instr::i32Const(1), Instr::i32Const(0),
                                   Instr::brIf(0), Instr(Opcode::End),
                                   Instr(Opcode::End)},
                                  {}, {ValType::I32}),
                   true});

  for (Case &C : Cases) {
    Result<void> Validated = wasm::validateFunction(C.M, 0);
    Result<void> Evaluated = evaluateFunction(C.M, 0);
    EXPECT_EQ(Validated.isOk(), C.Valid)
        << C.Name << ": validator said "
        << (Validated.isOk() ? "ok" : Validated.error().message());
    EXPECT_EQ(Evaluated.isOk(), Validated.isOk())
        << C.Name << ": evaluator disagreed ("
        << (Evaluated.isOk() ? "ok" : Evaluated.error().message()) << ")";
  }
}

// --- Spec-derived typing of every fixed-signature opcode ---------------------

/// A [Params] -> [Results] instruction type.
struct SpecSig {
  std::vector<ValType> Params;
  std::vector<ValType> Results;
  bool operator==(const SpecSig &Other) const = default;
};

std::optional<ValType> valTypeNamed(const std::string &Name) {
  for (ValType T : {ValType::I32, ValType::I64, ValType::F32, ValType::F64})
    if (Name == wasm::valTypeName(T))
      return T;
  return std::nullopt;
}

bool oneOf(const std::string &Op, std::initializer_list<const char *> Names) {
  for (const char *Name : Names)
    if (Op == Name)
      return true;
  return false;
}

/// The type of a numeric, memory or constant instruction, derived from its
/// mnemonic with the operator name lists and typing rules of the
/// WebAssembly spec (sections 2.4 and 3.3) and nothing from opcodes.def.
/// nullopt for instructions whose typing depends on context.
std::optional<SpecSig> specSignature(const std::string &Mnemonic) {
  size_t Dot = Mnemonic.find('.');
  if (Dot == std::string::npos)
    return std::nullopt;
  std::string Prefix = Mnemonic.substr(0, Dot);
  std::string Op = Mnemonic.substr(Dot + 1);
  const ValType I32 = ValType::I32;
  if (Prefix == "memory")
    return Op == "size" ? SpecSig{{}, {I32}} : SpecSig{{I32}, {I32}};
  std::optional<ValType> T = valTypeNamed(Prefix);
  if (!T)
    return std::nullopt; // local.*, global.*
  bool Int = *T == ValType::I32 || *T == ValType::I64;
  if (Op == "const")
    return SpecSig{{}, {*T}};
  if (Op.starts_with("load")) // t.load, t.loadN_sx
    return SpecSig{{I32}, {*T}};
  if (Op.starts_with("store")) // t.store, t.storeN
    return SpecSig{{I32, *T}, {}};
  bool Unop = Int ? oneOf(Op, {"clz", "ctz", "popcnt", "extend8_s",
                               "extend16_s", "extend32_s"})
                  : oneOf(Op, {"abs", "neg", "sqrt", "ceil", "floor", "trunc",
                               "nearest"});
  if (Unop)
    return SpecSig{{*T}, {*T}};
  bool Binop = Int ? oneOf(Op, {"add", "sub", "mul", "div_s", "div_u",
                                "rem_s", "rem_u", "and", "or", "xor", "shl",
                                "shr_s", "shr_u", "rotl", "rotr"})
                   : oneOf(Op, {"add", "sub", "mul", "div", "min", "max",
                                "copysign"});
  if (Binop)
    return SpecSig{{*T, *T}, {*T}};
  if (Int && Op == "eqz") // testop
    return SpecSig{{*T}, {I32}};
  bool Relop = Int ? oneOf(Op, {"eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u",
                                "le_s", "le_u", "ge_s", "ge_u"})
                   : oneOf(Op, {"eq", "ne", "lt", "gt", "le", "ge"});
  if (Relop)
    return SpecSig{{*T, *T}, {I32}};
  // t2.cvtop_t1[_sx]
  size_t Underscore = Op.find('_');
  if (Underscore != std::string::npos &&
      oneOf(Op.substr(0, Underscore), {"wrap", "extend", "trunc", "convert",
                                       "demote", "promote", "reinterpret"}))
    if (std::optional<ValType> From =
            valTypeNamed(Op.substr(Underscore + 1, 3)))
      return SpecSig{{*From}, {*T}};
  ADD_FAILURE() << "no spec rule for " << Mnemonic;
  return std::nullopt;
}

Instr zeroOf(ValType T) {
  switch (T) {
  case ValType::I32:
    return Instr::i32Const(0);
  case ValType::I64:
    return Instr::i64Const(0);
  case ValType::F32:
    return Instr::f32Const(0);
  case ValType::F64:
    return Instr::f64Const(0);
  }
  return Instr::i32Const(0);
}

/// A void function that pushes Operands, runs Op, and drops its result.
Module bodyAround(std::vector<Instr> Prefix, Opcode Op, bool HasResult) {
  Prefix.push_back(Instr(Op));
  if (HasResult)
    Prefix.push_back(Instr(Opcode::Drop));
  Prefix.push_back(Instr(Opcode::End));
  return moduleWithBody(std::move(Prefix));
}

/// Runs both typing engines on function 0 of M. They must agree on the
/// verdict and, on rejection, on the error text after the engine prefix.
bool bothEnginesAccept(const Module &M, const std::string &What) {
  Result<void> Validated = wasm::validateFunction(M, 0);
  Result<void> Evaluated = evaluateFunction(M, 0);
  EXPECT_EQ(Validated.isOk(), Evaluated.isOk()) << What;
  if (Validated.isErr() && Evaluated.isErr()) {
    EXPECT_EQ(Validated.error().message().substr(sizeof("validation: ") - 1),
              Evaluated.error().message().substr(sizeof("analysis: ") - 1))
        << What;
  }
  return Validated.isOk();
}

TEST(StackEval, SpecTypingOfEveryFixedOpcode) {
  const ValType All[] = {ValType::I32, ValType::I64, ValType::F32,
                         ValType::F64};
  unsigned Fixed = 0;
  for (unsigned Index = 0; Index < wasm::NumOpcodes; ++Index) {
    Opcode Op = static_cast<Opcode>(Index);
    const wasm::OpcodeInfo &Info = wasm::opcodeInfo(Op);
    std::string Name = Info.Name;
    std::optional<SpecSig> Spec = specSignature(Name);
    ASSERT_EQ(Spec.has_value(), Info.Fixed) << Name;
    if (!Spec)
      continue;
    ++Fixed;
    SpecSig Table{{Info.Operands, Info.Operands + Info.NumOperands}, {}};
    if (Info.HasResult)
      Table.Results.push_back(Info.Result);
    EXPECT_TRUE(Table == *Spec) << Name << ": table disagrees with the spec";

    bool HasResult = !Spec->Results.empty();
    std::vector<Instr> Operands;
    for (ValType T : Spec->Params)
      Operands.push_back(zeroOf(T));
    EXPECT_TRUE(bothEnginesAccept(bodyAround(Operands, Op, HasResult),
                                  Name + " on its exact operands"));
    for (size_t Slot = 0; Slot < Spec->Params.size(); ++Slot)
      for (ValType Wrong : All) {
        if (Wrong == Spec->Params[Slot])
          continue;
        std::vector<Instr> Swapped = Operands;
        Swapped[Slot] = zeroOf(Wrong);
        EXPECT_FALSE(bothEnginesAccept(
            bodyAround(Swapped, Op, HasResult),
            Name + " with operand " + std::to_string(Slot) + " as " +
                wasm::valTypeName(Wrong)));
      }
    if (!Operands.empty()) {
      EXPECT_FALSE(bothEnginesAccept(bodyAround({}, Op, HasResult),
                                     Name + " on an empty stack"));
    }
    EXPECT_TRUE(bothEnginesAccept(
        bodyAround({Instr(Opcode::Unreachable)}, Op, HasResult),
        Name + " below unreachable"));
  }
  EXPECT_EQ(Fixed, 157u); // All 177 opcodes but the 20 typed by hand.
}

// --- Golden parameter evidence ------------------------------------------------

TEST(Evidence, DirectZeroExtendedByteLoad) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::load(Opcode::I32Load8U, 0, 0),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary S = summarize(M);
  ASSERT_EQ(S.Params.size(), 1u);
  const ParamEvidence &P = S.Params[0];
  EXPECT_EQ(P.DirectLoads, 1u);
  EXPECT_EQ(P.DerivedLoads, 0u);
  EXPECT_EQ(P.ZeroExtLoads, 1u);
  EXPECT_EQ(P.SignExtLoads, 0u);
  EXPECT_EQ(P.MinAccessBytes, 1u);
  EXPECT_EQ(P.MaxAccessBytes, 1u);
  EXPECT_TRUE(P.usedAsAddress());
  EXPECT_TRUE(P.directlyDereferenced());
  EXPECT_FALSE(P.storedThrough());
}

TEST(Evidence, SignExtendedLoadIsDistinguished) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::load(Opcode::I32Load8S, 0, 0),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary S = summarize(M);
  const ParamEvidence &P = S.Params.at(0);
  EXPECT_EQ(P.SignExtLoads, 1u);
  EXPECT_EQ(P.ZeroExtLoads, 0u);
}

TEST(Evidence, DerivedAddressLoad) {
  // *(p + 8): the address is computed from exactly one parameter, so the
  // load counts as derived (not direct) for it.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::i32Const(8), Instr(Opcode::I32Add),
       Instr::load(Opcode::I32Load, 0, 2), Instr(Opcode::Drop),
       Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary S = summarize(M);
  const ParamEvidence &P = S.Params.at(0);
  EXPECT_EQ(P.DirectLoads, 0u);
  EXPECT_EQ(P.DerivedLoads, 1u);
  EXPECT_EQ(P.MinAccessBytes, 4u);
}

TEST(Evidence, MixedParamProvenanceWidensToUnknown) {
  // *(p + q) with two *different* parameters: single-parameter provenance
  // cannot be proven, so the lattice widens and neither gets address
  // evidence (conservative by design — no false proofs for the gate).
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::localGet(1), Instr(Opcode::I32Add),
       Instr::load(Opcode::I32Load, 0, 2), Instr(Opcode::Drop),
       Instr(Opcode::End)},
      {ValType::I32, ValType::I32});
  FunctionSummary S = summarize(M);
  for (int I = 0; I < 2; ++I) {
    EXPECT_EQ(S.Params.at(I).DirectLoads, 0u) << "param " << I;
    EXPECT_EQ(S.Params.at(I).DerivedLoads, 0u) << "param " << I;
  }
}

TEST(Evidence, StoreSplitsAddressAndValueRoles) {
  // *p = v: p is stored through, v's value escapes to memory.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::localGet(1),
       Instr::store(Opcode::I32Store, 0, 2), Instr(Opcode::End)},
      {ValType::I32, ValType::I32});
  FunctionSummary S = summarize(M);
  const ParamEvidence &Addr = S.Params.at(0);
  EXPECT_EQ(Addr.DirectStores, 1u);
  EXPECT_TRUE(Addr.storedThrough());
  EXPECT_EQ(Addr.StoredToMemory, 0u);
  const ParamEvidence &Value = S.Params.at(1);
  EXPECT_EQ(Value.StoredToMemory, 1u);
  EXPECT_FALSE(Value.usedAsAddress());
}

TEST(Evidence, CopyPropagationThroughLocal) {
  // q = p; *q — the load still counts as a direct dereference of p.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::localSet(1), Instr::localGet(1),
       Instr::load(Opcode::I32Load, 0, 2), Instr(Opcode::Drop),
       Instr(Opcode::End)},
      {ValType::I32}, {}, {ValType::I32});
  FunctionSummary S = summarize(M);
  const ParamEvidence &P = S.Params.at(0);
  EXPECT_EQ(P.DirectLoads, 1u);
}

TEST(Evidence, LoopCarriedDerivedPointerNeedsFixpoint) {
  // cursor = p; do { *cursor; cursor += 4; } while (cursor < 100);
  // The back edge turns the loop-entry tag of `cursor` from direct into
  // derived, so the summary must come from a second (stabilized) pass.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::localSet(1), Instr::loop(),
       Instr::localGet(1), Instr::load(Opcode::I32Load, 0, 2),
       Instr(Opcode::Drop), Instr::localGet(1), Instr::i32Const(4),
       Instr(Opcode::I32Add), Instr::localSet(1), Instr::localGet(1),
       Instr::i32Const(100), Instr(Opcode::I32LtU), Instr::brIf(0),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32}, {}, {ValType::I32});
  FunctionSummary S = summarize(M);
  EXPECT_GE(S.FixpointPasses, 2u);
  EXPECT_LE(S.FixpointPasses, MaxFixpointPasses);
  const ParamEvidence &P = S.Params.at(0);
  // At the stabilized loop entry the cursor is derived-from-p (merge of the
  // direct first-iteration state and the advanced back-edge state).
  EXPECT_EQ(P.DirectLoads, 0u);
  EXPECT_EQ(P.DerivedLoads, 1u);
}

TEST(Evidence, SignSuffixedOperators) {
  Module DivU = moduleWithBody(
      {Instr::localGet(0), Instr::i32Const(3), Instr(Opcode::I32DivU),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary SumU = summarize(DivU);
  const ParamEvidence &U = SumU.Params.at(0);
  EXPECT_EQ(U.UnsignedOps, 1u);
  EXPECT_EQ(U.SignedOps, 0u);

  Module DivS = moduleWithBody(
      {Instr::localGet(0), Instr::i32Const(3), Instr(Opcode::I32DivS),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary SumS = summarize(DivS);
  const ParamEvidence &S = SumS.Params.at(0);
  EXPECT_EQ(S.SignedOps, 1u);
  EXPECT_EQ(S.UnsignedOps, 0u);

  Module LtS = moduleWithBody(
      {Instr::localGet(0), Instr::i32Const(3), Instr(Opcode::I32LtS),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32});
  FunctionSummary SumC = summarize(LtS);
  const ParamEvidence &C = SumC.Params.at(0);
  EXPECT_EQ(C.SignedCmps, 1u);
  EXPECT_EQ(C.UnsignedCmps, 0u);
}

TEST(Evidence, ConditionUse) {
  Module M = moduleWithBody({Instr::localGet(0), Instr::ifOp(),
                             Instr(Opcode::Nop), Instr(Opcode::End),
                             Instr(Opcode::End)},
                            {ValType::I32});
  EXPECT_EQ(summarize(M).Params.at(0).Conditions, 1u);
}

TEST(Evidence, CallGraphPropagatesCalleeDereference) {
  // f0(p) { *p; }  f1(p) { f0(p); } — f1's parameter must inherit the
  // dereference fact bottom-up and record the call-target set.
  Module M;
  FuncType Type;
  Type.Params = {ValType::I32};
  uint32_t TypeIndex = M.internType(Type);
  Function Callee;
  Callee.TypeIndex = TypeIndex;
  Callee.Body = {Instr::localGet(0), Instr::load(Opcode::I32Load, 0, 2),
                 Instr(Opcode::Drop), Instr(Opcode::End)};
  Function Caller;
  Caller.TypeIndex = TypeIndex;
  Caller.Body = {Instr::localGet(0), Instr::call(0), Instr(Opcode::End)};
  M.Functions.push_back(std::move(Callee));
  M.Functions.push_back(std::move(Caller));
  M.Memories.push_back(MemoryDecl{1, false, 0});
  ASSERT_TRUE(wasm::validateModule(M).isOk());

  Result<ModuleSummary> Summary = analyzeModule(M);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  const ParamEvidence &P = Summary->Functions.at(1).Params.at(0);
  EXPECT_EQ(P.EscapesToCalls, 1u);
  ASSERT_EQ(P.CallTargets.size(), 1u);
  EXPECT_EQ(P.CallTargets[0], 0u);
  EXPECT_TRUE(P.DereferencedViaCallee);
  EXPECT_TRUE(P.directlyDereferenced());
  ASSERT_EQ(Summary->Callees.size(), 2u);
  ASSERT_EQ(Summary->Callees[1].size(), 1u);
  EXPECT_EQ(Summary->Callees[1][0], 0u);
}

// --- Golden return evidence ---------------------------------------------------

TEST(Evidence, ReturnFromComparison) {
  Module M = moduleWithBody({Instr::localGet(0), Instr::i32Const(0),
                             Instr(Opcode::I32Ne), Instr(Opcode::End)},
                            {ValType::I32}, {ValType::I32});
  FunctionSummary S = summarize(M);
  ASSERT_TRUE(S.HasReturn);
  EXPECT_EQ(S.Ret.TotalReturns, 1u);
  EXPECT_EQ(S.Ret.FromComparison, 1u);
}

TEST(Evidence, ReturnPassthroughAndConstAndLoad) {
  Module Passthru = moduleWithBody({Instr::localGet(0), Instr(Opcode::End)},
                                   {ValType::I32}, {ValType::I32});
  EXPECT_EQ(summarize(Passthru).Ret.FromParam, 1u);

  Module Const = moduleWithBody({Instr::i32Const(42), Instr(Opcode::End)}, {},
                                {ValType::I32});
  EXPECT_EQ(summarize(Const).Ret.FromConst, 1u);

  Module Load = moduleWithBody(
      {Instr::localGet(0), Instr::load(Opcode::I32Load8S, 0, 0),
       Instr(Opcode::End)},
      {ValType::I32}, {ValType::I32});
  FunctionSummary S = summarize(Load);
  EXPECT_EQ(S.Ret.FromLoad, 1u);
  EXPECT_EQ(S.Ret.MinLoadBytes, 1u);
  EXPECT_EQ(S.Ret.SignExtLoads, 1u);
}

// --- Evidence tokens ----------------------------------------------------------

TEST(Evidence, TokensRenderPointerShape) {
  ParamEvidence P;
  P.DirectLoads = 2;
  P.MinAccessBytes = 1;
  P.MaxAccessBytes = 4;
  P.ZeroExtLoads = 1;
  std::vector<std::string> Expected = {"<evid:ptr>", "<evid:w8>", "<evid:w32>",
                                       "<evid:const>", "<evid:zext>"};
  EXPECT_EQ(evidenceTokens(P), Expected);

  ParamEvidence Empty;
  EXPECT_EQ(evidenceTokens(Empty),
            std::vector<std::string>{"<evid:none>"});

  ReturnEvidence R;
  R.TotalReturns = 2;
  R.FromComparison = 2;
  EXPECT_EQ(evidenceTokens(R), std::vector<std::string>{"<evid:bool>"});
}

TEST(Evidence, EveryEmittedTokenIsInVocabulary) {
  const std::vector<std::string> &Vocab = evidenceTokenVocabulary();
  auto InVocab = [&](const std::string &Token) {
    return std::find(Vocab.begin(), Vocab.end(), Token) != Vocab.end();
  };
  ParamEvidence P;
  P.DirectStores = 1;
  P.MinAccessBytes = 8;
  P.MaxAccessBytes = 8;
  P.SignedOps = 1;
  P.Conditions = 1;
  P.EscapesToCalls = 1;
  P.StoredToMemory = 1;
  for (const std::string &Token : evidenceTokens(P))
    EXPECT_TRUE(InVocab(Token)) << Token;
  ReturnEvidence R;
  R.TotalReturns = 1;
  R.FromLoad = 1;
  R.MinLoadBytes = 2;
  R.SignExtLoads = 1;
  for (const std::string &Token : evidenceTokens(R))
    EXPECT_TRUE(InVocab(Token)) << Token;
}

// --- Determinism and thread invariance ----------------------------------------

TEST(Analysis, SummariesInvariantUnderThreadCount) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 5;
  Spec.Seed = 21;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  dataset::DatasetOptions Options;
  Options.Extract.EvidenceTokens = true;

  ThreadPool::resetGlobal(1);
  dataset::Dataset Single = dataset::buildDataset(Corpus, Options);
  std::vector<std::string> SingleJson;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      Result<ModuleSummary> Summary = analyzeModule(Object.Mod);
      ASSERT_TRUE(Summary.isOk());
      SingleJson.push_back(toJson(*Summary));
    }

  ThreadPool::resetGlobal(4);
  dataset::Dataset Multi = dataset::buildDataset(Corpus, Options);
  std::vector<std::string> MultiJson;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      Result<ModuleSummary> Summary = analyzeModule(Object.Mod);
      ASSERT_TRUE(Summary.isOk());
      MultiJson.push_back(toJson(*Summary));
    }
  ThreadPool::resetGlobal(0); // Back to the environment-sized pool.

  EXPECT_EQ(SingleJson, MultiJson);
  ASSERT_EQ(Single.Samples.size(), Multi.Samples.size());
  size_t WithEvidence = 0;
  for (size_t I = 0; I < Single.Samples.size(); ++I) {
    EXPECT_EQ(Single.Samples[I].Input, Multi.Samples[I].Input) << "sample "
                                                               << I;
    if (Single.Samples[I].Evidence.Param || Single.Samples[I].Evidence.Ret)
      ++WithEvidence;
  }
  EXPECT_GT(WithEvidence, 0u);
}

TEST(Analysis, EvidenceTokensAppearInDatasetInputs) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 4;
  Spec.Seed = 33;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  dataset::DatasetOptions Plain;
  dataset::Dataset Without = dataset::buildDataset(Corpus, Plain);
  dataset::DatasetOptions WithTokens = Plain;
  WithTokens.Extract.EvidenceTokens = true;
  dataset::Dataset With = dataset::buildDataset(Corpus, WithTokens);

  auto CountEvidenceTokens = [](const dataset::Dataset &Data) {
    size_t Count = 0;
    for (const dataset::TypeSample &Sample : Data.Samples)
      for (const std::string &Token : Sample.Input)
        if (Token.rfind("<evid:", 0) == 0)
          ++Count;
    return Count;
  };
  EXPECT_EQ(CountEvidenceTokens(Without), 0u);
  EXPECT_GT(CountEvidenceTokens(With), 0u);
  // Same samples, same split — the tokens are additive.
  EXPECT_EQ(Without.Samples.size(), With.Samples.size());
  EXPECT_EQ(Without.Train, With.Train);
}

TEST(Analysis, CorpusSummariesGolden) {
  // Pins every evidence summary of the seed-11 corpus (the one the CFG
  // tests use) and the total loop-carry fixpoint rounds, so a change to the
  // fixpoint driver or the evaluator that alters any summary byte fails.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 8;
  Spec.Seed = 11;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  std::string Json;
  uint64_t FixpointPasses = 0;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      Result<ModuleSummary> Summary = analyzeModule(Object.Mod);
      ASSERT_TRUE(Summary.isOk()) << Object.FileName;
      Json += toJson(*Summary);
      for (const FunctionSummary &F : Summary->Functions)
        FixpointPasses += F.FixpointPasses;
    }
  EXPECT_EQ(hashToHex(hashString(Json)), "835cb20e31cbc87d");
  EXPECT_EQ(FixpointPasses, 157u);
}

// --- Consistency gate ---------------------------------------------------------

QueryEvidence paramEvidence(ParamEvidence P) {
  QueryEvidence Evidence;
  Evidence.Param = std::move(P);
  return Evidence;
}

GateVerdict verdictFor(const char *Text, const QueryEvidence &Evidence) {
  Result<typelang::Type> Parsed = typelang::parseType(Text);
  EXPECT_TRUE(Parsed.isOk()) << Text;
  return checkConsistency(*Parsed, Evidence);
}

TEST(Gate, EmptyEvidenceIsAlwaysConsistent) {
  QueryEvidence Empty;
  EXPECT_EQ(verdictFor("primitive int 32", Empty), GateVerdict::Consistent);
  EXPECT_EQ(verdictFor("pointer struct", Empty), GateVerdict::Consistent);
}

TEST(Gate, DerefNonPointer) {
  ParamEvidence P;
  P.DirectLoads = 1;
  P.MinAccessBytes = 4;
  P.MaxAccessBytes = 4;
  QueryEvidence Evidence = paramEvidence(P);
  EXPECT_EQ(verdictFor("primitive int 32", Evidence),
            GateVerdict::DerefNonPointer);
  EXPECT_EQ(verdictFor("enum", Evidence), GateVerdict::DerefNonPointer);
  // Pointers, aggregates (byval lowering), and unknown stay consistent.
  EXPECT_EQ(verdictFor("pointer primitive int 32", Evidence),
            GateVerdict::Consistent);
  EXPECT_EQ(verdictFor("struct", Evidence), GateVerdict::Consistent);
  EXPECT_EQ(verdictFor("unknown", Evidence), GateVerdict::Consistent);
}

TEST(Gate, StoreThroughConst) {
  ParamEvidence Stored;
  Stored.DirectStores = 1;
  Stored.MinAccessBytes = 1;
  Stored.MaxAccessBytes = 1;
  EXPECT_EQ(verdictFor("pointer const primitive cchar",
                       paramEvidence(Stored)),
            GateVerdict::StoreThroughConst);
  EXPECT_EQ(verdictFor("pointer primitive cchar", paramEvidence(Stored)),
            GateVerdict::Consistent);
  ParamEvidence ReadOnly;
  ReadOnly.DirectLoads = 1;
  ReadOnly.MinAccessBytes = 1;
  ReadOnly.MaxAccessBytes = 1;
  EXPECT_EQ(verdictFor("pointer const primitive cchar",
                       paramEvidence(ReadOnly)),
            GateVerdict::Consistent);
}

TEST(Gate, AccessWiderThanPointee) {
  ParamEvidence Wide;
  Wide.DirectLoads = 1;
  Wide.MinAccessBytes = 4;
  Wide.MaxAccessBytes = 4;
  EXPECT_EQ(verdictFor("pointer primitive cchar", paramEvidence(Wide)),
            GateVerdict::AccessWiderThanPointee);
  EXPECT_EQ(verdictFor("pointer primitive int 32", paramEvidence(Wide)),
            GateVerdict::Consistent);
  // Aggregate pointees have no fixed width — never gated on width.
  EXPECT_EQ(verdictFor("pointer struct", paramEvidence(Wide)),
            GateVerdict::Consistent);
}

TEST(Gate, SignMismatch) {
  ParamEvidence Unsigned;
  Unsigned.UnsignedOps = 3;
  EXPECT_EQ(verdictFor("primitive int 32", paramEvidence(Unsigned)),
            GateVerdict::SignMismatch);
  EXPECT_EQ(verdictFor("primitive uint 32", paramEvidence(Unsigned)),
            GateVerdict::Consistent);
  ParamEvidence Signed;
  Signed.SignedOps = 2;
  EXPECT_EQ(verdictFor("primitive uint 32", paramEvidence(Signed)),
            GateVerdict::SignMismatch);
  // Mixed usage proves nothing.
  ParamEvidence Mixed;
  Mixed.SignedOps = 1;
  Mixed.UnsignedOps = 1;
  EXPECT_EQ(verdictFor("primitive int 32", paramEvidence(Mixed)),
            GateVerdict::Consistent);
}

TEST(Gate, PointerFromComparisonReturn) {
  QueryEvidence Evidence;
  ReturnEvidence R;
  R.TotalReturns = 2;
  R.FromComparison = 2;
  Evidence.Ret = R;
  EXPECT_EQ(verdictFor("pointer primitive cchar", Evidence),
            GateVerdict::PointerFromComparison);
  EXPECT_EQ(verdictFor("primitive bool", Evidence), GateVerdict::Consistent);
  // One non-comparison return edge breaks the proof.
  Evidence.Ret->FromComparison = 1;
  Evidence.Ret->FromConst = 1;
  EXPECT_EQ(verdictFor("pointer primitive cchar", Evidence),
            GateVerdict::Consistent);
}

TEST(Gate, ContradictedTopOneFallsToNextConsistent) {
  using model::TypePrediction;
  std::vector<TypePrediction> Predictions;
  TypePrediction Int;
  Int.Tokens = {"primitive", "int", "32"};
  Int.LogProb = -0.1f;
  TypePrediction Pointer;
  Pointer.Tokens = {"pointer", "primitive", "int", "32"};
  Pointer.LogProb = -0.5f;
  TypePrediction Float;
  Float.Tokens = {"primitive", "float", "32"};
  Float.LogProb = -0.9f;
  Predictions = {Int, Pointer, Float};

  ParamEvidence P;
  P.DirectLoads = 1;
  P.MinAccessBytes = 4;
  P.MaxAccessBytes = 4;
  QueryEvidence Evidence = paramEvidence(P);
  ASSERT_EQ(model::gatePrediction(Predictions[0], Evidence),
            GateVerdict::DerefNonPointer);

  size_t Removed = model::applyEvidenceGate(Predictions, Evidence);
  EXPECT_EQ(Removed, 2u);
  ASSERT_EQ(Predictions.size(), 1u);
  EXPECT_EQ(Predictions[0].Tokens, Pointer.Tokens);
}

TEST(Gate, UnparseablePredictionIsNeverGated) {
  model::TypePrediction Garbage;
  Garbage.Tokens = {"frobnicate"};
  ParamEvidence P;
  P.DirectLoads = 1;
  EXPECT_EQ(model::gatePrediction(Garbage, paramEvidence(P)),
            GateVerdict::Consistent);
}

// --- Serving under the gate ---------------------------------------------------

TEST(Serving, GatedRequestsAreAlwaysAnswered) {
  // Train a tiny model, then serve real test inputs with adversarial
  // evidence that contradicts most primitive predictions. The ladder must
  // still answer every request (possibly from a lower tier).
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 6;
  Spec.Seed = 55;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  dataset::Dataset Data = dataset::buildDataset(Corpus);
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 64;
  model::Task Task(Data, TaskOpts);
  model::TrainOptions TrainOpts;
  TrainOpts.MaxEpochs = 1;
  TrainOpts.BatchSize = 16;
  TrainOpts.EmbedDim = 8;
  TrainOpts.HiddenDim = 12;
  TrainOpts.MaxValidSamples = 16;
  TrainOpts.Seed = 13;
  model::TrainResult Trained = model::trainModel(Task, TrainOpts);
  ASSERT_NE(Trained.Model, nullptr);

  model::ServingOptions Options;
  Options.TopK = 3;
  Options.DefaultStepBudget = 128;
  model::ServingEngine Engine(*Trained.Model, Task, Options);

  ParamEvidence Hostile;
  Hostile.DirectLoads = 1;
  Hostile.DirectStores = 1;
  Hostile.MinAccessBytes = 8;
  Hostile.MaxAccessBytes = 8;
  Hostile.UnsignedOps = 4;

  size_t Requests = 0;
  for (const model::EncodedSample &Sample : Task.test()) {
    if (Requests >= 24)
      break;
    model::ServeRequest Request;
    Request.Id = Requests++;
    Request.InputTokens = Data.Samples[Sample.DatasetIndex].Input;
    Request.Evidence = paramEvidence(Hostile);
    ASSERT_TRUE(Engine.submit(std::move(Request)));
  }
  ASSERT_GT(Requests, 0u);

  std::vector<model::ServeResponse> Responses = Engine.drain();
  ASSERT_EQ(Responses.size(), Requests);
  for (const model::ServeResponse &Response : Responses) {
    EXPECT_NE(Response.Outcome, model::ServeOutcome::RejectedQueueFull);
    ASSERT_FALSE(Response.Predictions.empty());
    // Whatever survived the gate (or came from the ungated baseline) must
    // itself be consistent or unparseable — beam/greedy answers never
    // contradict the evidence.
    if (Response.Tier != model::PredictionTier::Baseline) {
      for (const model::TypePrediction &Prediction : Response.Predictions)
        EXPECT_EQ(model::gatePrediction(Prediction, paramEvidence(Hostile)),
                  GateVerdict::Consistent);
    }
  }
  const model::ServingStats &Stats = Engine.stats();
  EXPECT_EQ(Stats.Answered, Requests);
  EXPECT_EQ(Stats.BeamAnswers + Stats.GreedyAnswers + Stats.BaselineAnswers,
            Requests);
}

} // namespace
} // namespace analysis
} // namespace snowwhite
