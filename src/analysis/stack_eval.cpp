#include "analysis/stack_eval.h"

#include "wasm/validate.h"

#include <algorithm>
#include <optional>
#include <string>

namespace snowwhite {
namespace analysis {

using wasm::BlockType;
using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

EvalSink::~EvalSink() = default;

ValueTag mergeTags(const ValueTag &A, const ValueTag &B) {
  ValueTag Out;
  if (A.Param == B.Param) {
    Out.Param = A.Param;
    Out.Direct = A.Direct && B.Direct;
  }
  if (A.Org == B.Org) {
    Out.Org = A.Org;
    Out.OrgBytes = A.OrgBytes == B.OrgBytes ? A.OrgBytes : 0;
    Out.OrgSigned = A.OrgSigned && B.OrgSigned;
  }
  return Out;
}

namespace {

/// Derived-value tag: the result of a numeric instruction traces to a
/// parameter iff exactly one parameter flows in (or both operands trace to
/// the same one). Direct-ness never survives computation.
ValueTag derivedTag(Origin Org, const ValueTag &A, const ValueTag &B) {
  ValueTag Out;
  Out.Org = Org;
  if (A.Param != NoParam && (B.Param == NoParam || B.Param == A.Param))
    Out.Param = A.Param;
  else if (B.Param != NoParam && A.Param == NoParam)
    Out.Param = B.Param;
  return Out;
}

ValueTag derivedTag(Origin Org, const ValueTag &A) {
  ValueTag Out;
  Out.Org = Org;
  Out.Param = A.Param;
  return Out;
}

/// The origin of a Fixed instruction's result is its opcode-table class.
Origin originOf(wasm::OpClass Class) {
  switch (Class) {
  case wasm::OpClass::Const:
    return Origin::Const;
  case wasm::OpClass::Load:
    return Origin::Load;
  case wasm::OpClass::MemQuery:
    return Origin::MemQuery;
  case wasm::OpClass::Compare:
    return Origin::Compare;
  case wasm::OpClass::Arith:
    return Origin::Arith;
  case wasm::OpClass::Convert:
    return Origin::Convert;
  default:
    return Origin::Unknown;
  }
}

/// The typed-stack abstract interpreter for one function body: run() walks
/// the body once in order, feeding the sink and the loop-carry maps.
class Evaluator {
public:
  Evaluator(const Module &Mod, const Function &F, const FuncType &FT,
            EvalSink *S, const EvalOptions &Opts)
      : M(Mod), Func(F), Type(FT), Sink(S), Options(Opts) {}

  Result<void> run();

private:
  /// One control frame (function body, block, loop, if, else).
  struct Frame {
    Opcode Kind = Opcode::Block;
    std::vector<ValType> Results;
    size_t StackHeight = 0;
    bool Unreachable = false;
    size_t InstrIndex = 0; ///< Body index of the opening instruction.
    std::vector<ValueTag> EntryLocals; ///< Local tags at frame entry.
    bool HasOutLocals = false;
    std::vector<ValueTag> OutLocals; ///< Join over edges to the end label.
    bool HasResultTags = false;
    std::vector<ValueTag> ResultTags; ///< Join of result tags over edges.
  };

  Result<void> fail(const std::string &Message) {
    return Error(ErrorCode::Malformed, "analysis: " + Message);
  }
  Result<void> failLimit(const std::string &Message) {
    return Error(ErrorCode::LimitExceeded, "analysis: " + Message);
  }

  bool reachable() const { return !Frames.back().Unreachable; }
  void pushFrame(Opcode Kind, std::vector<ValType> Results,
                 size_t InstrIndex);
  void pushValue(ValType T, ValueTag Tag = {});
  void pushUnknown();
  bool popExpect(ValType T, AbstractValue &Out);
  std::optional<AbstractValue> popAny();
  const std::vector<ValType> *labelTypes(uint64_t Depth,
                                         std::vector<ValType> &LoopEmpty);
  void markUnreachable();
  void mergeLocalsInto(bool &Has, std::vector<ValueTag> &Into,
                       const std::vector<ValueTag> &From);
  void recordBranchLocals(uint64_t Depth);
  void recordBranchResults(uint64_t Depth,
                           const std::vector<AbstractValue> &Values);
  bool popSequence(const std::vector<ValType> &Types,
                   std::vector<AbstractValue> &Out);
  void noteReturnValues(uint64_t Depth,
                        const std::vector<AbstractValue> &Values);
  Result<void> checkFixed(const Instr &I, const wasm::OpcodeInfo &Info);
  Result<void> step(const Instr &I, size_t Index);

  const Module &M;
  const Function &Func;
  const FuncType &Type;
  EvalSink *Sink;
  const EvalOptions &Options;
  bool TrackTags = false;
  std::vector<ValType> LocalTypes;
  std::vector<ValueTag> LocalTags;
  std::vector<AbstractValue> Stack;
  std::vector<Frame> Frames;
};

Result<void> Evaluator::run() {
  LocalTypes = Type.Params;
  for (ValType Local : Func.flattenedLocals())
    LocalTypes.push_back(Local);
  TrackTags = LocalTypes.size() <= MaxTrackedLocals;
  if (TrackTags) {
    LocalTags.assign(LocalTypes.size(), {});
    for (uint32_t Index = 0; Index < Type.Params.size(); ++Index) {
      LocalTags[Index].Param = Index;
      LocalTags[Index].Direct = true;
    }
    // Non-parameter locals are zero-initialized by the spec.
    for (size_t Index = Type.Params.size(); Index < LocalTags.size(); ++Index)
      LocalTags[Index].Org = Origin::Const;
  }
  pushFrame(Opcode::Block, Type.Results, /*InstrIndex=*/0);
  for (size_t Index = 0; Index < Func.Body.size(); ++Index) {
    Result<void> Status = step(Func.Body[Index], Index);
    if (Status.isErr())
      return Status;
  }
  if (!Frames.empty())
    return fail("function body missing end instruction(s)");
  return {};
}

void Evaluator::pushFrame(Opcode Kind, std::vector<ValType> Results,
                          size_t InstrIndex) {
  Frame F;
  F.Kind = Kind;
  F.Results = std::move(Results);
  F.StackHeight = Stack.size();
  F.InstrIndex = InstrIndex;
  if (TrackTags)
    F.EntryLocals = LocalTags;
  Frames.push_back(std::move(F));
}

void Evaluator::pushValue(ValType T, ValueTag Tag) {
  Stack.push_back(AbstractValue{T, true, Tag});
}

void Evaluator::pushUnknown() {
  Stack.push_back(AbstractValue{ValType::I32, false, {}});
}

/// Pops expecting T. Mirrors the validator's popExpect; fills Out with the
/// popped value (a polymorphic placeholder when popping below an
/// unreachable frame base).
bool Evaluator::popExpect(ValType T, AbstractValue &Out) {
  Frame &F = Frames.back();
  if (Stack.size() == F.StackHeight) {
    Out = AbstractValue{T, false, {}};
    return F.Unreachable;
  }
  Out = Stack.back();
  Stack.pop_back();
  return !Out.Known || Out.Type == T;
}

/// Pops any value; nullopt only when the stack is empty at a reachable
/// frame base (the validator's error case).
std::optional<AbstractValue> Evaluator::popAny() {
  Frame &F = Frames.back();
  if (Stack.size() == F.StackHeight) {
    if (F.Unreachable)
      return AbstractValue{ValType::I32, false, {}};
    return std::nullopt;
  }
  AbstractValue Out = Stack.back();
  Stack.pop_back();
  return Out;
}

const std::vector<ValType> *
Evaluator::labelTypes(uint64_t Depth, std::vector<ValType> &LoopEmpty) {
  if (Depth >= Frames.size())
    return nullptr;
  Frame &F = Frames[Frames.size() - 1 - Depth];
  if (F.Kind == Opcode::Loop) {
    LoopEmpty.clear();
    return &LoopEmpty;
  }
  return &F.Results;
}

void Evaluator::markUnreachable() {
  Frame &F = Frames.back();
  Stack.resize(F.StackHeight);
  F.Unreachable = true;
}

void Evaluator::mergeLocalsInto(bool &Has, std::vector<ValueTag> &Into,
                                const std::vector<ValueTag> &From) {
  if (!Has) {
    Into = From;
    Has = true;
    return;
  }
  for (size_t Index = 0; Index < Into.size(); ++Index)
    Into[Index] = mergeTags(Into[Index], From[Index]);
}

/// Records the local-tag state flowing along a branch to relative Depth:
/// loop headers feed the next fixpoint pass's carry state, forward labels
/// feed the join at their `end`.
void Evaluator::recordBranchLocals(uint64_t Depth) {
  if (!TrackTags || !reachable())
    return;
  Frame &Target = Frames[Frames.size() - 1 - static_cast<size_t>(Depth)];
  if (Target.Kind == Opcode::Loop) {
    if (!Options.LoopCarryOut)
      return;
    auto [It, Inserted] =
        Options.LoopCarryOut->try_emplace(Target.InstrIndex, LocalTags);
    if (!Inserted)
      for (size_t Index = 0; Index < It->second.size(); ++Index)
        It->second[Index] = mergeTags(It->second[Index], LocalTags[Index]);
    return;
  }
  mergeLocalsInto(Target.HasOutLocals, Target.OutLocals, LocalTags);
}

/// Records result-value tags flowing to a forward label's end.
void Evaluator::recordBranchResults(uint64_t Depth,
                                    const std::vector<AbstractValue> &Values) {
  if (!reachable())
    return;
  Frame &Target = Frames[Frames.size() - 1 - static_cast<size_t>(Depth)];
  if (Target.Kind == Opcode::Loop)
    return;
  std::vector<ValueTag> Tags;
  Tags.reserve(Values.size());
  for (const AbstractValue &Value : Values)
    Tags.push_back(Value.Tag);
  if (!Target.HasResultTags) {
    Target.ResultTags = std::move(Tags);
    Target.HasResultTags = true;
  } else {
    for (size_t Index = 0; Index < Target.ResultTags.size(); ++Index)
      Target.ResultTags[Index] =
          mergeTags(Target.ResultTags[Index], Tags[Index]);
  }
}

/// Pops the value sequence Types (in reverse), collecting the popped
/// values in source order. False on a type mismatch.
bool Evaluator::popSequence(const std::vector<ValType> &Types,
                            std::vector<AbstractValue> &Out) {
  Out.assign(Types.size(), {});
  for (size_t Index = Types.size(); Index-- > 0;)
    if (!popExpect(Types[Index], Out[Index]))
      return false;
  return true;
}

/// Branch operands leaving through the function frame are return values.
void Evaluator::noteReturnValues(uint64_t Depth,
                                 const std::vector<AbstractValue> &Values) {
  if (!Sink || !reachable())
    return;
  if (static_cast<size_t>(Depth) + 1 != Frames.size())
    return;
  for (const AbstractValue &Value : Values)
    Sink->onReturn(Value);
}

/// Types an instruction with a fixed signature straight from its row of the
/// opcode table, as the validator does, and reports it to the sink: loads
/// and stores by address, other one- and two-operand instructions as
/// numeric operations.
Result<void> Evaluator::checkFixed(const Instr &I,
                                   const wasm::OpcodeInfo &Info) {
  if (std::optional<std::string> Error = wasm::fixedContextError(M, I, Info))
    return fail(*Error);
  AbstractValue Args[2];
  for (unsigned Slot = Info.NumOperands; Slot-- > 0;)
    if (!popExpect(Info.Operands[Slot], Args[Slot]))
      return fail(wasm::operandMismatch(Info, Slot));
  bool Observed = Sink && reachable();
  ValueTag Tag;
  Tag.Org = originOf(Info.Class);
  if (Info.Class == wasm::OpClass::Load) {
    Tag.OrgBytes = Info.AccessBytes;
    Tag.OrgSigned = Info.Sign == wasm::OpSign::Signed;
    if (Observed)
      Sink->onLoad(I, Args[0], Info.AccessBytes, Tag.OrgSigned);
  } else if (Info.Class == wasm::OpClass::Store) {
    if (Observed)
      Sink->onStore(I, Args[0], Args[1], Info.AccessBytes);
  } else if (Info.NumOperands == 1) {
    if (Observed)
      Sink->onUnary(I, Args[0]);
    Tag = derivedTag(Tag.Org, Args[0].Tag);
  } else if (Info.NumOperands == 2) {
    if (Observed)
      Sink->onBinary(I, Args[0], Args[1]);
    Tag = derivedTag(Tag.Org, Args[0].Tag, Args[1].Tag);
  }
  if (Info.HasResult)
    pushValue(Info.Result, Tag);
  return {};
}

Result<void> Evaluator::step(const Instr &I, size_t Index) {
  // Mirrors the validator: nothing may follow the final `end`.
  if (Frames.empty())
    return fail("instruction after function body end");

  if (Sink)
    Sink->onInstr(Index, I, Stack, Frames.back().Unreachable);

  const wasm::OpcodeInfo &Info = wasm::opcodeInfo(I.Op);
  if (Info.Fixed)
    return checkFixed(I, Info);

  switch (I.Op) {
  case Opcode::Unreachable:
    markUnreachable();
    return {};
  case Opcode::Nop:
    return {};

  case Opcode::Block:
  case Opcode::Loop: {
    if (Frames.size() >= wasm::MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(wasm::MaxControlNesting));
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(I.Op, std::move(Results), Index);
    if (I.Op == Opcode::Loop && TrackTags && Options.LoopCarryIn) {
      auto It = Options.LoopCarryIn->find(Index);
      if (It != Options.LoopCarryIn->end() &&
          It->second.size() == LocalTags.size())
        for (size_t L = 0; L < LocalTags.size(); ++L)
          LocalTags[L] = mergeTags(LocalTags[L], It->second[L]);
    }
    return {};
  }
  case Opcode::If: {
    if (Frames.size() >= wasm::MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(wasm::MaxControlNesting));
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("if condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(Opcode::If, std::move(Results), Index);
    return {};
  }
  case Opcode::Else: {
    if (Frames.back().Kind != Opcode::If)
      return fail("else without if");
    Frame F = Frames.back();
    std::vector<AbstractValue> ThenResults;
    if (!popSequence(F.Results, ThenResults))
      return fail("then-branch result mismatch");
    if (Stack.size() != F.StackHeight && !F.Unreachable)
      return fail("then-branch leaves extra values");
    // The then-branch's fall-through edge joins the if's end label.
    bool ThenReachable = !F.Unreachable;
    std::vector<ValueTag> ThenResultTags;
    for (const AbstractValue &Value : ThenResults)
      ThenResultTags.push_back(Value.Tag);
    Frames.pop_back();
    Stack.resize(F.StackHeight);
    Frame Successor;
    Successor.Kind = Opcode::Else;
    Successor.Results = F.Results;
    Successor.StackHeight = F.StackHeight;
    Successor.InstrIndex = F.InstrIndex;
    Successor.EntryLocals = F.EntryLocals;
    // Branches inside the then-arm that targeted the if's end label already
    // joined into the frame accumulators; the successor frame keeps them.
    // (Dropping them narrowed the join at `end` — a real bug surfaced by the
    // CFG worklist audit; see ElseDropsThenBranchJoin* regressions.)
    Successor.HasOutLocals = F.HasOutLocals;
    Successor.OutLocals = std::move(F.OutLocals);
    Successor.HasResultTags = F.HasResultTags;
    Successor.ResultTags = std::move(F.ResultTags);
    if (ThenReachable && TrackTags)
      mergeLocalsInto(Successor.HasOutLocals, Successor.OutLocals, LocalTags);
    if (ThenReachable) {
      if (!Successor.HasResultTags) {
        Successor.ResultTags = std::move(ThenResultTags);
        Successor.HasResultTags = true;
      } else {
        for (size_t R = 0; R < Successor.ResultTags.size(); ++R)
          Successor.ResultTags[R] =
              mergeTags(Successor.ResultTags[R], ThenResultTags[R]);
      }
    }
    // The else-branch starts from the state at the `if`, not from wherever
    // the then-branch left the locals.
    if (TrackTags)
      LocalTags = F.EntryLocals;
    Frames.push_back(std::move(Successor));
    return {};
  }
  case Opcode::End: {
    Frame F = Frames.back();
    if (F.Kind == Opcode::If && !F.Results.empty())
      return fail("if with result requires else");
    std::vector<AbstractValue> Results;
    if (!popSequence(F.Results, Results))
      return fail("block result mismatch at end");
    if (Stack.size() != F.StackHeight && !F.Unreachable)
      return fail("extra values on stack at end");
    bool FallThrough = !F.Unreachable;
    bool IsFunctionFrame = Frames.size() == 1;
    if (FallThrough && TrackTags)
      mergeLocalsInto(F.HasOutLocals, F.OutLocals, LocalTags);
    if (F.Kind == Opcode::If && TrackTags)
      // An `if` without `else`: the false path skips the block entirely.
      mergeLocalsInto(F.HasOutLocals, F.OutLocals, F.EntryLocals);
    if (FallThrough) {
      std::vector<ValueTag> Tags;
      for (const AbstractValue &Value : Results)
        Tags.push_back(Value.Tag);
      if (!F.HasResultTags) {
        F.ResultTags = std::move(Tags);
        F.HasResultTags = true;
      } else {
        for (size_t R = 0; R < F.ResultTags.size(); ++R)
          F.ResultTags[R] = mergeTags(F.ResultTags[R], Tags[R]);
      }
    }
    if (IsFunctionFrame && FallThrough && Sink)
      for (const AbstractValue &Value : Results)
        Sink->onReturn(Value);
    Frames.pop_back();
    Stack.resize(F.StackHeight);
    if (TrackTags && !IsFunctionFrame)
      LocalTags = F.HasOutLocals ? F.OutLocals : F.EntryLocals;
    for (size_t R = 0; R < F.Results.size(); ++R)
      pushValue(F.Results[R],
                F.HasResultTags && R < F.ResultTags.size() ? F.ResultTags[R]
                                                           : ValueTag{});
    return {};
  }
  case Opcode::Br: {
    std::vector<ValType> LoopEmpty;
    const std::vector<ValType> *Types = labelTypes(I.Imm0, LoopEmpty);
    if (!Types)
      return fail("br depth out of range");
    std::vector<AbstractValue> Operands;
    if (!popSequence(*Types, Operands))
      return fail("br operand mismatch");
    noteReturnValues(I.Imm0, Operands);
    recordBranchResults(I.Imm0, Operands);
    recordBranchLocals(I.Imm0);
    markUnreachable();
    return {};
  }
  case Opcode::BrIf: {
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("br_if condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    std::vector<ValType> LoopEmpty;
    const std::vector<ValType> *Types = labelTypes(I.Imm0, LoopEmpty);
    if (!Types)
      return fail("br_if depth out of range");
    std::vector<AbstractValue> Operands;
    if (!popSequence(*Types, Operands))
      return fail("br_if operand mismatch");
    noteReturnValues(I.Imm0, Operands);
    recordBranchResults(I.Imm0, Operands);
    recordBranchLocals(I.Imm0);
    // Fall-through keeps the operands; the validator re-pushes them as
    // *known* values of the label types (refining polymorphic slots), so
    // this must too.
    for (size_t R = 0; R < Types->size(); ++R)
      pushValue((*Types)[R], Operands[R].Tag);
    return {};
  }
  case Opcode::BrTable: {
    AbstractValue Selector;
    if (!popExpect(ValType::I32, Selector))
      return fail("br_table index must be i32");
    std::vector<ValType> LoopEmpty;
    const std::vector<ValType> *DefaultTypes = labelTypes(I.Imm0, LoopEmpty);
    if (!DefaultTypes)
      return fail("br_table default depth out of range");
    for (uint32_t Target : I.Table) {
      std::vector<ValType> LoopEmpty2;
      const std::vector<ValType> *Types = labelTypes(Target, LoopEmpty2);
      if (!Types || *Types != *DefaultTypes)
        return fail("br_table target arity mismatch");
    }
    std::vector<AbstractValue> Operands;
    if (!popSequence(*DefaultTypes, Operands))
      return fail("br_table operand mismatch");
    noteReturnValues(I.Imm0, Operands);
    recordBranchResults(I.Imm0, Operands);
    recordBranchLocals(I.Imm0);
    for (uint32_t Target : I.Table) {
      noteReturnValues(Target, Operands);
      recordBranchResults(Target, Operands);
      recordBranchLocals(Target);
    }
    markUnreachable();
    return {};
  }
  case Opcode::Return: {
    std::vector<AbstractValue> Values;
    if (!popSequence(Type.Results, Values))
      return fail("return value mismatch");
    if (Sink && reachable())
      for (const AbstractValue &Value : Values)
        Sink->onReturn(Value);
    markUnreachable();
    return {};
  }
  case Opcode::Call: {
    uint64_t SpaceIndex = I.Imm0;
    uint32_t TypeIndex;
    if (SpaceIndex < M.Imports.size()) {
      TypeIndex = M.Imports[static_cast<size_t>(SpaceIndex)].TypeIndex;
    } else {
      uint64_t Defined = SpaceIndex - M.Imports.size();
      if (Defined >= M.Functions.size())
        return fail("call index out of range");
      TypeIndex = M.Functions[static_cast<size_t>(Defined)].TypeIndex;
    }
    if (TypeIndex >= M.Types.size())
      return fail("call type index out of range");
    const FuncType &Callee = M.Types[TypeIndex];
    std::vector<AbstractValue> Args;
    if (!popSequence(Callee.Params, Args))
      return fail("call argument mismatch");
    if (Sink && reachable())
      Sink->onCall(I, SpaceIndex, /*Indirect=*/false, Args);
    ValueTag Tag;
    Tag.Org = Origin::Call;
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType, Tag);
    return {};
  }
  case Opcode::CallIndirect: {
    if (I.Imm0 >= M.Types.size())
      return fail("call_indirect type index out of range");
    AbstractValue TableIndex;
    if (!popExpect(ValType::I32, TableIndex))
      return fail("call_indirect table index must be i32");
    const FuncType &Callee = M.Types[static_cast<size_t>(I.Imm0)];
    std::vector<AbstractValue> Args;
    if (!popSequence(Callee.Params, Args))
      return fail("call_indirect argument mismatch");
    if (Sink && reachable())
      Sink->onCall(I, 0, /*Indirect=*/true, Args);
    ValueTag Tag;
    Tag.Org = Origin::Call;
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType, Tag);
    return {};
  }

  case Opcode::Drop:
    if (!popAny())
      return fail("drop on empty stack");
    return {};
  case Opcode::Select: {
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("select condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    std::optional<AbstractValue> B = popAny();
    std::optional<AbstractValue> A = popAny();
    if (!A || !B)
      return fail("select on empty stack");
    if (A->Known && B->Known && A->Type != B->Type)
      return fail("select operand types differ");
    ValueTag Tag = mergeTags(A->Tag, B->Tag);
    if (A->Known)
      pushValue(A->Type, Tag);
    else if (B->Known)
      pushValue(B->Type, Tag);
    else
      pushUnknown();
    return {};
  }

  case Opcode::LocalGet:
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.get index out of range");
    pushValue(LocalTypes[static_cast<size_t>(I.Imm0)],
              TrackTags ? LocalTags[static_cast<size_t>(I.Imm0)]
                        : ValueTag{});
    return {};
  case Opcode::LocalSet: {
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.set index out of range");
    AbstractValue Value;
    if (!popExpect(LocalTypes[static_cast<size_t>(I.Imm0)], Value))
      return fail("local.set type mismatch");
    if (TrackTags && reachable())
      LocalTags[static_cast<size_t>(I.Imm0)] = Value.Tag;
    return {};
  }
  case Opcode::LocalTee: {
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.tee index out of range");
    ValType T = LocalTypes[static_cast<size_t>(I.Imm0)];
    AbstractValue Value;
    if (!popExpect(T, Value))
      return fail("local.tee type mismatch");
    if (TrackTags && reachable())
      LocalTags[static_cast<size_t>(I.Imm0)] = Value.Tag;
    pushValue(T, Value.Tag);
    return {};
  }
  case Opcode::GlobalGet: {
    if (I.Imm0 >= M.Globals.size())
      return fail("global.get index out of range");
    ValueTag Tag;
    Tag.Org = Origin::Global;
    pushValue(M.Globals[static_cast<size_t>(I.Imm0)].Type, Tag);
    return {};
  }
  case Opcode::GlobalSet: {
    if (I.Imm0 >= M.Globals.size())
      return fail("global.set index out of range");
    const wasm::GlobalDecl &Global = M.Globals[static_cast<size_t>(I.Imm0)];
    if (!Global.Mutable)
      return fail("global.set of immutable global");
    AbstractValue Value;
    if (!popExpect(Global.Type, Value))
      return fail("global.set type mismatch");
    return {};
  }

  default:
    return fail(std::string("unhandled opcode ") + opcodeName(I.Op) +
                " at instruction " + std::to_string(Index));
  }
}

} // namespace

Result<void> evaluateFunction(const Module &M, uint32_t DefinedIndex,
                              EvalSink *Sink, const EvalOptions &Options) {
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed, "analysis: function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function type index out of range");
  Evaluator E(M, Func, M.Types[Func.TypeIndex], Sink, Options);
  return E.run();
}

} // namespace analysis
} // namespace snowwhite
