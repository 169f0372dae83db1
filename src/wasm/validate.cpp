#include "wasm/validate.h"

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace snowwhite {
namespace wasm {

namespace {

/// A value-stack entry: a concrete type, or "unknown" below an unreachable
/// point (stack-polymorphic).
struct StackValue {
  bool Known = true;
  ValType Type = ValType::I32;
};

/// One control frame (function body, block, loop, if, else).
struct ControlFrame {
  Opcode Kind = Opcode::Block;   ///< Block, Loop, If, or Else.
  std::vector<ValType> Results;  ///< End types (0 or 1 in MVP).
  size_t StackHeight = 0;        ///< Value stack height at entry.
  bool Unreachable = false;
};

class Validator {
public:
  Validator(const Module &Mod, const Function &F, const FuncType &FT)
      : M(Mod), Func(F), Type(FT) {}

  Result<void> run() {
    Locals = Type.Params;
    for (ValType Local : Func.flattenedLocals())
      Locals.push_back(Local);

    // The implicit function frame.
    pushFrame(Opcode::Block, Type.Results);

    for (size_t Index = 0; Index < Func.Body.size(); ++Index) {
      const Instr &I = Func.Body[Index];
      Result<void> Status = step(I, Index);
      if (Status.isErr())
        return Status;
    }
    if (!Frames.empty())
      return fail("function body missing end instruction(s)");
    return {};
  }

private:
  Result<void> fail(const std::string &Message) {
    return Error(ErrorCode::Malformed, "validation: " + Message);
  }

  Result<void> failLimit(const std::string &Message) {
    return Error(ErrorCode::LimitExceeded, "validation: " + Message);
  }

  void pushFrame(Opcode Kind, std::vector<ValType> Results) {
    Frames.push_back(
        ControlFrame{Kind, std::move(Results), Stack.size(), false});
  }

  void pushValue(ValType T) { Stack.push_back({true, T}); }
  void pushUnknown() { Stack.push_back({false, ValType::I32}); }

  /// Pops a value expecting type T; unknown values match anything.
  bool popExpect(ValType T) {
    ControlFrame &Frame = Frames.back();
    if (Stack.size() == Frame.StackHeight) {
      // Below the frame base: only legal in unreachable code.
      return Frame.Unreachable;
    }
    StackValue Value = Stack.back();
    Stack.pop_back();
    return !Value.Known || Value.Type == T;
  }

  /// Pops any value; returns nullopt if polymorphic or empty-unreachable.
  std::optional<StackValue> popAny() {
    ControlFrame &Frame = Frames.back();
    if (Stack.size() == Frame.StackHeight) {
      if (Frame.Unreachable)
        return StackValue{false, ValType::I32};
      return std::nullopt;
    }
    StackValue Value = Stack.back();
    Stack.pop_back();
    return Value;
  }

  /// Types a branch to relative Depth: loop labels take no values (MVP
  /// without multi-value blocks for loops' entry), others take the frame's
  /// result types.
  const std::vector<ValType> *labelTypes(uint64_t Depth,
                                         std::vector<ValType> &LoopEmpty) {
    if (Depth >= Frames.size())
      return nullptr;
    ControlFrame &Frame = Frames[Frames.size() - 1 - Depth];
    if (Frame.Kind == Opcode::Loop) {
      LoopEmpty.clear();
      return &LoopEmpty;
    }
    return &Frame.Results;
  }

  void markUnreachable() {
    ControlFrame &Frame = Frames.back();
    Stack.resize(Frame.StackHeight);
    Frame.Unreachable = true;
  }

  ValType localType(uint64_t Index) const {
    return Locals[static_cast<size_t>(Index)];
  }

  /// Types an instruction with a fixed signature straight from its row of
  /// the opcode table.
  Result<void> checkFixed(const Instr &I, const OpcodeInfo &Info) {
    if (std::optional<std::string> Error = fixedContextError(M, I, Info))
      return fail(*Error);
    for (unsigned Slot = Info.NumOperands; Slot-- > 0;)
      if (!popExpect(Info.Operands[Slot]))
        return fail(operandMismatch(Info, Slot));
    if (Info.HasResult)
      pushValue(Info.Result);
    return {};
  }

  Result<void> step(const Instr &I, size_t Index);

  const Module &M;
  const Function &Func;
  const FuncType &Type;
  std::vector<ValType> Locals;
  std::vector<StackValue> Stack;
  std::vector<ControlFrame> Frames;
};

Result<void> Validator::step(const Instr &I, size_t Index) {
  // The final `end` pops the implicit function frame; nothing may follow it.
  // Every helper below indexes Frames.back(), so this guard is load-bearing.
  if (Frames.empty())
    return fail("instruction after function body end");

  const OpcodeInfo &Info = opcodeInfo(I.Op);
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
    if (Frames.size() >= MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(MaxControlNesting));
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(I.Op, std::move(Results));
    return {};
  }
  case Opcode::If: {
    if (Frames.size() >= MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(MaxControlNesting));
    if (!popExpect(ValType::I32))
      return fail("if condition must be i32");
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(Opcode::If, std::move(Results));
    return {};
  }
  case Opcode::Else: {
    if (Frames.back().Kind != Opcode::If)
      return fail("else without if");
    ControlFrame Frame = Frames.back();
    // The then-branch must produce the frame results.
    for (auto It = Frame.Results.rbegin(); It != Frame.Results.rend(); ++It)
      if (!popExpect(*It))
        return fail("then-branch result mismatch");
    if (Stack.size() != Frame.StackHeight && !Frame.Unreachable)
      return fail("then-branch leaves extra values");
    Frames.pop_back();
    Stack.resize(Frame.StackHeight);
    pushFrame(Opcode::Else, Frame.Results);
    return {};
  }
  case Opcode::End: {
    ControlFrame Frame = Frames.back();
    if (Frame.Kind == Opcode::If && !Frame.Results.empty())
      return fail("if with result requires else");
    for (auto It = Frame.Results.rbegin(); It != Frame.Results.rend(); ++It)
      if (!popExpect(*It))
        return fail("block result mismatch at end");
    if (Stack.size() != Frame.StackHeight && !Frame.Unreachable)
      return fail("extra values on stack at end");
    Frames.pop_back();
    Stack.resize(Frame.StackHeight);
    for (ValType ResultType : Frame.Results)
      pushValue(ResultType);
    return {};
  }
  case Opcode::Br: {
    std::vector<ValType> LoopEmpty;
    const std::vector<ValType> *Types = labelTypes(I.Imm0, LoopEmpty);
    if (!Types)
      return fail("br depth out of range");
    for (auto It = Types->rbegin(); It != Types->rend(); ++It)
      if (!popExpect(*It))
        return fail("br operand mismatch");
    markUnreachable();
    return {};
  }
  case Opcode::BrIf: {
    if (!popExpect(ValType::I32))
      return fail("br_if condition must be i32");
    std::vector<ValType> LoopEmpty;
    const std::vector<ValType> *Types = labelTypes(I.Imm0, LoopEmpty);
    if (!Types)
      return fail("br_if depth out of range");
    for (auto It = Types->rbegin(); It != Types->rend(); ++It)
      if (!popExpect(*It))
        return fail("br_if operand mismatch");
    for (ValType T : *Types)
      pushValue(T);
    return {};
  }
  case Opcode::BrTable: {
    if (!popExpect(ValType::I32))
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
    for (auto It = DefaultTypes->rbegin(); It != DefaultTypes->rend(); ++It)
      if (!popExpect(*It))
        return fail("br_table operand mismatch");
    markUnreachable();
    return {};
  }
  case Opcode::Return: {
    for (auto It = Type.Results.rbegin(); It != Type.Results.rend(); ++It)
      if (!popExpect(*It))
        return fail("return value mismatch");
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
    for (auto It = Callee.Params.rbegin(); It != Callee.Params.rend(); ++It)
      if (!popExpect(*It))
        return fail("call argument mismatch");
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType);
    return {};
  }
  case Opcode::CallIndirect: {
    if (I.Imm0 >= M.Types.size())
      return fail("call_indirect type index out of range");
    if (!popExpect(ValType::I32))
      return fail("call_indirect table index must be i32");
    const FuncType &Callee = M.Types[static_cast<size_t>(I.Imm0)];
    for (auto It = Callee.Params.rbegin(); It != Callee.Params.rend(); ++It)
      if (!popExpect(*It))
        return fail("call_indirect argument mismatch");
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType);
    return {};
  }

  case Opcode::Drop:
    if (!popAny())
      return fail("drop on empty stack");
    return {};
  case Opcode::Select: {
    if (!popExpect(ValType::I32))
      return fail("select condition must be i32");
    std::optional<StackValue> B = popAny();
    std::optional<StackValue> A = popAny();
    if (!A || !B)
      return fail("select on empty stack");
    if (A->Known && B->Known && A->Type != B->Type)
      return fail("select operand types differ");
    if (A->Known)
      pushValue(A->Type);
    else if (B->Known)
      pushValue(B->Type);
    else
      pushUnknown();
    return {};
  }

  case Opcode::LocalGet:
    if (I.Imm0 >= Locals.size())
      return fail("local.get index out of range");
    pushValue(localType(I.Imm0));
    return {};
  case Opcode::LocalSet:
    if (I.Imm0 >= Locals.size())
      return fail("local.set index out of range");
    if (!popExpect(localType(I.Imm0)))
      return fail("local.set type mismatch");
    return {};
  case Opcode::LocalTee:
    if (I.Imm0 >= Locals.size())
      return fail("local.tee index out of range");
    if (!popExpect(localType(I.Imm0)))
      return fail("local.tee type mismatch");
    pushValue(localType(I.Imm0));
    return {};
  case Opcode::GlobalGet:
    if (I.Imm0 >= M.Globals.size())
      return fail("global.get index out of range");
    pushValue(M.Globals[static_cast<size_t>(I.Imm0)].Type);
    return {};
  case Opcode::GlobalSet: {
    if (I.Imm0 >= M.Globals.size())
      return fail("global.set index out of range");
    const GlobalDecl &Global = M.Globals[static_cast<size_t>(I.Imm0)];
    if (!Global.Mutable)
      return fail("global.set of immutable global");
    if (!popExpect(Global.Type))
      return fail("global.set type mismatch");
    return {};
  }

  default:
    return fail(std::string("unhandled opcode ") + opcodeName(I.Op) +
                " at instruction " + std::to_string(Index));
  }
}

} // namespace

std::optional<std::string> fixedContextError(const Module &M, const Instr &I,
                                             const OpcodeInfo &Info) {
  switch (Info.Class) {
  case OpClass::MemQuery:
    if (M.Memories.empty())
      return std::string(Info.Name) + " without memory";
    return std::nullopt;
  case OpClass::Load:
  case OpClass::Store: {
    if (M.Memories.empty())
      return "memory access without memory";
    unsigned MaxExp = 0;
    for (unsigned Bytes = Info.AccessBytes; Bytes > 1; Bytes >>= 1)
      ++MaxExp;
    if (I.Imm1 > MaxExp)
      return "alignment exceeds natural alignment";
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

const char *operandMismatch(const OpcodeInfo &Info, unsigned Slot) {
  switch (Info.Class) {
  case OpClass::Load:
    return "load address must be i32";
  case OpClass::Store:
    return Slot == 0 ? "store address must be i32" : "store value type mismatch";
  default:
    return Info.NumOperands == 1 ? "unary operand type mismatch"
                                 : "binary operand type mismatch";
  }
}

Result<void> validateFunction(const Module &M, uint32_t DefinedIndex) {
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed, "validation: function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 "validation: function type index out of range");
  Validator V(M, Func, M.Types[Func.TypeIndex]);
  return V.run();
}

Result<void> validateModule(const Module &M) {
  for (const FuncImport &Import : M.Imports)
    if (Import.TypeIndex >= M.Types.size())
      return Error(ErrorCode::Malformed,
                   "validation: import type index out of range");
  {
    // Export names must be unique within the module (spec 3.4.10). Found by
    // the analysis-subsystem audit: previously unchecked.
    std::set<std::string_view> ExportNames;
    for (const FuncExport &Export : M.Exports) {
      if (Export.FuncIndex >= M.Imports.size() + M.Functions.size())
        return Error(ErrorCode::Malformed,
                     "validation: export function index out of range");
      if (!ExportNames.insert(Export.Name).second)
        return Error(ErrorCode::Malformed,
                     "validation: duplicate export name '" + Export.Name +
                         "'");
    }
  }
  for (const MemoryDecl &Memory : M.Memories)
    // Spec 3.2.5: a limit's minimum must not exceed its maximum. Found by
    // the analysis-subsystem audit: previously unchecked.
    if (Memory.HasMax && Memory.MinPages > Memory.MaxPages)
      return Error(ErrorCode::Malformed,
                   "validation: memory minimum exceeds maximum");
  for (const GlobalDecl &Global : M.Globals) {
    const OpcodeInfo &Init = opcodeInfo(Global.Init.Op);
    if (Init.Class != OpClass::Const)
      return Error(ErrorCode::Malformed,
                   "validation: global initializer must be a constant");
    // Spec 3.4.4: the initializer's type must match the declared type.
    // Found by the analysis-subsystem audit: previously unchecked.
    if (Init.Result != Global.Type)
      return Error(ErrorCode::Malformed,
                   "validation: global initializer type mismatch");
  }
  for (uint32_t I = 0; I < M.Functions.size(); ++I) {
    Result<void> Status = validateFunction(M, I);
    if (Status.isErr())
      return Status.withContext("function " + std::to_string(I));
  }
  return {};
}

} // namespace wasm
} // namespace snowwhite
