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

  /// Natural access width (bytes) of a load/store opcode, for the memarg
  /// alignment rule: the alignment exponent must not exceed log2(width).
  /// Found by the analysis-subsystem audit: previously unchecked.
  static unsigned accessBytes(Opcode Op) {
    switch (Op) {
    case Opcode::I32Load8S:
    case Opcode::I32Load8U:
    case Opcode::I64Load8S:
    case Opcode::I64Load8U:
    case Opcode::I32Store8:
    case Opcode::I64Store8:
      return 1;
    case Opcode::I32Load16S:
    case Opcode::I32Load16U:
    case Opcode::I64Load16S:
    case Opcode::I64Load16U:
    case Opcode::I32Store16:
    case Opcode::I64Store16:
      return 2;
    case Opcode::I64Load:
    case Opcode::F64Load:
    case Opcode::I64Store:
    case Opcode::F64Store:
      return 8;
    default: // 32-bit loads/stores and i64.load32/store32.
      return 4;
    }
  }

  Result<void> checkAlignment(const Instr &I) {
    unsigned MaxExp = 0;
    for (unsigned Bytes = accessBytes(I.Op); Bytes > 1; Bytes >>= 1)
      ++MaxExp;
    if (I.Imm1 > MaxExp)
      return fail("alignment exceeds natural alignment");
    return {};
  }

  Result<void> checkLoad(const Instr &I, ValType Pushed) {
    if (M.Memories.empty())
      return fail("memory access without memory");
    if (Result<void> Status = checkAlignment(I); Status.isErr())
      return Status;
    if (!popExpect(ValType::I32))
      return fail("load address must be i32");
    pushValue(Pushed);
    return {};
  }

  Result<void> checkStore(const Instr &I, ValType Stored) {
    if (M.Memories.empty())
      return fail("memory access without memory");
    if (Result<void> Status = checkAlignment(I); Status.isErr())
      return Status;
    if (!popExpect(Stored))
      return fail("store value type mismatch");
    if (!popExpect(ValType::I32))
      return fail("store address must be i32");
    return {};
  }

  Result<void> checkUnary(ValType In, ValType Out) {
    if (!popExpect(In))
      return fail("unary operand type mismatch");
    pushValue(Out);
    return {};
  }

  Result<void> checkBinary(ValType In, ValType Out) {
    if (!popExpect(In) || !popExpect(In))
      return fail("binary operand type mismatch");
    pushValue(Out);
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

  uint8_t Byte = opcodeByte(I.Op);

  // Numeric instruction groups by opcode byte range.
  if (Byte == 0x45) // i32.eqz
    return checkUnary(ValType::I32, ValType::I32);
  if (Byte >= 0x46 && Byte <= 0x4f)
    return checkBinary(ValType::I32, ValType::I32);
  if (Byte == 0x50) // i64.eqz
    return checkUnary(ValType::I64, ValType::I32);
  if (Byte >= 0x51 && Byte <= 0x5a)
    return checkBinary(ValType::I64, ValType::I32);
  if (Byte >= 0x5b && Byte <= 0x60)
    return checkBinary(ValType::F32, ValType::I32);
  if (Byte >= 0x61 && Byte <= 0x66)
    return checkBinary(ValType::F64, ValType::I32);
  if (Byte >= 0x67 && Byte <= 0x69)
    return checkUnary(ValType::I32, ValType::I32);
  if (Byte >= 0x6a && Byte <= 0x78)
    return checkBinary(ValType::I32, ValType::I32);
  if (Byte >= 0x79 && Byte <= 0x7b)
    return checkUnary(ValType::I64, ValType::I64);
  if (Byte >= 0x7c && Byte <= 0x8a)
    return checkBinary(ValType::I64, ValType::I64);
  if (Byte >= 0x8b && Byte <= 0x91)
    return checkUnary(ValType::F32, ValType::F32);
  if (Byte >= 0x92 && Byte <= 0x98)
    return checkBinary(ValType::F32, ValType::F32);
  if (Byte >= 0x99 && Byte <= 0x9f)
    return checkUnary(ValType::F64, ValType::F64);
  if (Byte >= 0xa0 && Byte <= 0xa6)
    return checkBinary(ValType::F64, ValType::F64);

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
    if (Frames.empty() || Frames.back().Kind != Opcode::If)
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
    if (Frames.empty())
      return fail("end without open frame");
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

  case Opcode::I32Load:
  case Opcode::I32Load8S:
  case Opcode::I32Load8U:
  case Opcode::I32Load16S:
  case Opcode::I32Load16U:
    return checkLoad(I, ValType::I32);
  case Opcode::I64Load:
  case Opcode::I64Load8S:
  case Opcode::I64Load8U:
  case Opcode::I64Load16S:
  case Opcode::I64Load16U:
  case Opcode::I64Load32S:
  case Opcode::I64Load32U:
    return checkLoad(I, ValType::I64);
  case Opcode::F32Load:
    return checkLoad(I, ValType::F32);
  case Opcode::F64Load:
    return checkLoad(I, ValType::F64);

  case Opcode::I32Store:
  case Opcode::I32Store8:
  case Opcode::I32Store16:
    return checkStore(I, ValType::I32);
  case Opcode::I64Store:
  case Opcode::I64Store8:
  case Opcode::I64Store16:
  case Opcode::I64Store32:
    return checkStore(I, ValType::I64);
  case Opcode::F32Store:
    return checkStore(I, ValType::F32);
  case Opcode::F64Store:
    return checkStore(I, ValType::F64);

  case Opcode::MemorySize:
    if (M.Memories.empty())
      return fail("memory.size without memory");
    pushValue(ValType::I32);
    return {};
  case Opcode::MemoryGrow:
    if (M.Memories.empty())
      return fail("memory.grow without memory");
    return checkUnary(ValType::I32, ValType::I32);

  case Opcode::I32Const:
    pushValue(ValType::I32);
    return {};
  case Opcode::I64Const:
    pushValue(ValType::I64);
    return {};
  case Opcode::F32Const:
    pushValue(ValType::F32);
    return {};
  case Opcode::F64Const:
    pushValue(ValType::F64);
    return {};

  // Conversions.
  case Opcode::I32WrapI64:
    return checkUnary(ValType::I64, ValType::I32);
  case Opcode::I32TruncF32S:
  case Opcode::I32TruncF32U:
    return checkUnary(ValType::F32, ValType::I32);
  case Opcode::I32TruncF64S:
  case Opcode::I32TruncF64U:
    return checkUnary(ValType::F64, ValType::I32);
  case Opcode::I64ExtendI32S:
  case Opcode::I64ExtendI32U:
    return checkUnary(ValType::I32, ValType::I64);
  case Opcode::I64TruncF32S:
  case Opcode::I64TruncF32U:
    return checkUnary(ValType::F32, ValType::I64);
  case Opcode::I64TruncF64S:
  case Opcode::I64TruncF64U:
    return checkUnary(ValType::F64, ValType::I64);
  case Opcode::F32ConvertI32S:
  case Opcode::F32ConvertI32U:
    return checkUnary(ValType::I32, ValType::F32);
  case Opcode::F32ConvertI64S:
  case Opcode::F32ConvertI64U:
    return checkUnary(ValType::I64, ValType::F32);
  case Opcode::F32DemoteF64:
    return checkUnary(ValType::F64, ValType::F32);
  case Opcode::F64ConvertI32S:
  case Opcode::F64ConvertI32U:
    return checkUnary(ValType::I32, ValType::F64);
  case Opcode::F64ConvertI64S:
  case Opcode::F64ConvertI64U:
    return checkUnary(ValType::I64, ValType::F64);
  case Opcode::F64PromoteF32:
    return checkUnary(ValType::F32, ValType::F64);
  case Opcode::I32ReinterpretF32:
    return checkUnary(ValType::F32, ValType::I32);
  case Opcode::I64ReinterpretF64:
    return checkUnary(ValType::F64, ValType::I64);
  case Opcode::F32ReinterpretI32:
    return checkUnary(ValType::I32, ValType::F32);
  case Opcode::F64ReinterpretI64:
    return checkUnary(ValType::I64, ValType::F64);
  case Opcode::I32Extend8S:
  case Opcode::I32Extend16S:
    return checkUnary(ValType::I32, ValType::I32);
  case Opcode::I64Extend8S:
  case Opcode::I64Extend16S:
  case Opcode::I64Extend32S:
    return checkUnary(ValType::I64, ValType::I64);

  default:
    return fail(std::string("unhandled opcode ") + opcodeName(I.Op) +
                " at instruction " + std::to_string(Index));
  }
}

} // namespace

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
    ImmKind Imm = opcodeImmKind(Global.Init.Op);
    ValType InitType;
    switch (Imm) {
    case ImmKind::I32:
      InitType = ValType::I32;
      break;
    case ImmKind::I64:
      InitType = ValType::I64;
      break;
    case ImmKind::F32:
      InitType = ValType::F32;
      break;
    case ImmKind::F64:
      InitType = ValType::F64;
      break;
    default:
      return Error(ErrorCode::Malformed,
                   "validation: global initializer must be a constant");
    }
    // Spec 3.4.4: the initializer's type must match the declared type.
    // Found by the analysis-subsystem audit: previously unchecked.
    if (InitType != Global.Type)
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
