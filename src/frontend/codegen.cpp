#include "frontend/codegen.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace snowwhite {
namespace frontend {

using wasm::FuncType;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

void initStandardModule(Module &M) {
  auto AddImport = [&](const char *Name, std::vector<ValType> Params,
                       std::vector<ValType> Results) {
    FuncType Type;
    Type.Params = std::move(Params);
    Type.Results = std::move(Results);
    uint32_t TypeIndex = M.internType(Type);
    M.Imports.push_back({"env", Name, TypeIndex});
  };
  using VT = ValType;
  AddImport("lib_alloc", {VT::I32}, {VT::I32});
  AddImport("lib_release", {VT::I32}, {});
  AddImport("lib_log", {VT::I32, VT::I32}, {VT::I32});
  AddImport("lib_copy", {VT::I32, VT::I32, VT::I32}, {VT::I32});
  AddImport("lib_scan", {VT::I32}, {VT::I32});
  AddImport("lib_io", {VT::I32, VT::I32, VT::I32, VT::I32}, {VT::I32});
  AddImport("lib_math", {VT::F64, VT::F64}, {VT::F64});
  AddImport("lib_mathf", {VT::F32, VT::F32}, {VT::F32});
  AddImport("lib_wide", {VT::I64, VT::I64}, {VT::I64});
  AddImport("lib_notify", {}, {});
  assert(M.Imports.size() == NumStandardImports &&
         "import table out of sync with StandardImport");

  M.Memories.push_back(wasm::MemoryDecl{16, false, 0});
  // Global 0: an i32 "errno"-like mutable global; global 1: stack pointer.
  M.Globals.push_back({VT::I32, true, Instr::i32Const(0)});
  M.Globals.push_back({VT::I32, true, Instr::i32Const(65536)});
}

namespace {

/// What the usage-idiom selector needs to know about a (parameter or return)
/// source type.
struct TypeTraits {
  enum class ShapeKind : uint8_t {
    SK_Value,   ///< Primitive/enum passed by value.
    SK_Pointer, ///< Pointer or reference.
    SK_Array,   ///< Array parameter (decayed, always indexed).
    SK_FuncPtr, ///< Pointer to function.
  };
  ShapeKind Shape = ShapeKind::SK_Value;
  const SrcType *Layout = nullptr;  ///< Stripped self type.
  const SrcType *Pointee = nullptr; ///< Stripped pointee/element (if any).
  bool PointeeConst = false;
  bool PointeeIncomplete = false; ///< void / forward-declared pointee.
  /// Recognized well-known semantic, from typedef/aggregate names anywhere
  /// on the chain.
  enum class SemanticKind : uint8_t {
    SEM_None,
    SEM_SizeT,
    SEM_File,
    SEM_String,
    SEM_VaList,
    SEM_TimeT,
  };
  SemanticKind Semantic = SemanticKind::SEM_None;
};

TypeTraits::SemanticKind semanticForName(const std::string &Name) {
  using SK = TypeTraits::SemanticKind;
  if (Name == "size_t" || Name == "ssize_t")
    return SK::SEM_SizeT;
  if (Name == "FILE")
    return SK::SEM_File;
  if (Name == "string" || Name == "basic_string<char, ...>")
    return SK::SEM_String;
  if (Name == "va_list")
    return SK::SEM_VaList;
  if (Name == "time_t" || Name == "clock_t")
    return SK::SEM_TimeT;
  return SK::SEM_None;
}

/// Strips const/volatile/typedef, recording const-ness and the first
/// recognized well-known name.
const SrcType *stripNoting(const SrcType *T, bool &SawConst,
                           TypeTraits::SemanticKind &Semantic) {
  while (true) {
    if (Semantic == TypeTraits::SemanticKind::SEM_None && !T->Name.empty())
      Semantic = semanticForName(T->Name);
    switch (T->Kind) {
    case SrcTypeKind::ST_Const:
      SawConst = true;
      T = T->Inner.get();
      continue;
    case SrcTypeKind::ST_Volatile:
    case SrcTypeKind::ST_Typedef:
      T = T->Inner.get();
      continue;
    default:
      return T;
    }
  }
}

TypeTraits computeTraits(const SrcTypeRef &Type) {
  TypeTraits Traits;
  bool SelfConst = false;
  const SrcType *Layout = stripNoting(Type.get(), SelfConst, Traits.Semantic);
  Traits.Layout = Layout;
  switch (Layout->Kind) {
  case SrcTypeKind::ST_Pointer:
  case SrcTypeKind::ST_Reference: {
    Traits.Shape = TypeTraits::ShapeKind::SK_Pointer;
    bool PointeeConst = false;
    const SrcType *Pointee = Layout->Inner
                                 ? stripNoting(Layout->Inner.get(),
                                               PointeeConst, Traits.Semantic)
                                 : nullptr;
    Traits.PointeeConst = PointeeConst;
    if (!Pointee || Pointee->Kind == SrcTypeKind::ST_Void ||
        Pointee->Kind == SrcTypeKind::ST_Forward ||
        Pointee->Kind == SrcTypeKind::ST_Nullptr) {
      Traits.PointeeIncomplete = true;
      Traits.Pointee = Pointee;
    } else if (Pointee->Kind == SrcTypeKind::ST_FuncProto) {
      Traits.Shape = TypeTraits::ShapeKind::SK_FuncPtr;
      Traits.Pointee = Pointee;
    } else {
      Traits.Pointee = Pointee;
    }
    break;
  }
  case SrcTypeKind::ST_Array: {
    Traits.Shape = TypeTraits::ShapeKind::SK_Array;
    bool ElementConst = false;
    Traits.Pointee = Layout->Inner
                         ? stripNoting(Layout->Inner.get(), ElementConst,
                                       Traits.Semantic)
                         : nullptr;
    Traits.PointeeConst = ElementConst;
    break;
  }
  case SrcTypeKind::ST_Struct:
  case SrcTypeKind::ST_Class:
  case SrcTypeKind::ST_Union:
    // Aggregate by value: the ABI passes a byval pointer, so usage looks
    // exactly like a pointer-to-aggregate dereference.
    Traits.Shape = TypeTraits::ShapeKind::SK_Pointer;
    Traits.Pointee = Layout;
    break;
  default:
    Traits.Shape = TypeTraits::ShapeKind::SK_Value;
    break;
  }
  return Traits;
}

/// The load opcode for reading a value of primitive kind K from memory.
Opcode loadOpcodeFor(SrcPrimKind K) {
  switch (K) {
  case SrcPrimKind::SP_Bool:
  case SrcPrimKind::SP_U8:
  case SrcPrimKind::SP_Char: // String data reads are unsigned in practice.
    return Opcode::I32Load8U;
  case SrcPrimKind::SP_I8:
    return Opcode::I32Load8S;
  case SrcPrimKind::SP_I16:
    return Opcode::I32Load16S;
  case SrcPrimKind::SP_U16:
  case SrcPrimKind::SP_WChar16:
    return Opcode::I32Load16U;
  case SrcPrimKind::SP_I32:
  case SrcPrimKind::SP_U32:
  case SrcPrimKind::SP_WChar32:
    return Opcode::I32Load;
  case SrcPrimKind::SP_I64:
  case SrcPrimKind::SP_U64:
    return Opcode::I64Load;
  case SrcPrimKind::SP_F32:
    return Opcode::F32Load;
  case SrcPrimKind::SP_F64:
  case SrcPrimKind::SP_F128:   // Accessed as doubles in lowered code.
  case SrcPrimKind::SP_Complex:
    return Opcode::F64Load;
  }
  assert(false && "unknown primitive");
  return Opcode::I32Load;
}

Opcode storeOpcodeFor(SrcPrimKind K) {
  switch (K) {
  case SrcPrimKind::SP_Bool:
  case SrcPrimKind::SP_U8:
  case SrcPrimKind::SP_I8:
  case SrcPrimKind::SP_Char:
    return Opcode::I32Store8;
  case SrcPrimKind::SP_I16:
  case SrcPrimKind::SP_U16:
  case SrcPrimKind::SP_WChar16:
    return Opcode::I32Store16;
  case SrcPrimKind::SP_I32:
  case SrcPrimKind::SP_U32:
  case SrcPrimKind::SP_WChar32:
    return Opcode::I32Store;
  case SrcPrimKind::SP_I64:
  case SrcPrimKind::SP_U64:
    return Opcode::I64Store;
  case SrcPrimKind::SP_F32:
    return Opcode::F32Store;
  case SrcPrimKind::SP_F64:
  case SrcPrimKind::SP_F128:
  case SrcPrimKind::SP_Complex:
    return Opcode::F64Store;
  }
  assert(false && "unknown primitive");
  return Opcode::I32Store;
}

/// Compiles one SrcFunction body.
class FunctionCompiler {
public:
  FunctionCompiler(Module &M, const SrcFunction &Func, Rng &R,
                   const CodegenOptions &Options)
      : M(M), Func(Func), R(R), Options(Options) {
    for (const auto &[Name, Type] : Func.Params)
      ParamValTypes.push_back(Type->lowerValType());
    HasReturn = Func.ReturnType &&
                Func.ReturnType->Kind != SrcTypeKind::ST_Void;
    if (HasReturn)
      ReturnValType = Func.ReturnType->lowerValType();
  }

  wasm::Function run();

private:
  // --- Locals -----------------------------------------------------------
  uint32_t newLocal(ValType Type) {
    ExtraLocals.push_back(Type);
    return static_cast<uint32_t>(ParamValTypes.size() + ExtraLocals.size() -
                                 1);
  }
  uint32_t scratch(ValType Type) {
    int Slot = static_cast<int>(Type);
    if (!Scratch[Slot])
      Scratch[Slot] = newLocal(Type);
    return *Scratch[Slot];
  }

  // --- Emission helpers ---------------------------------------------------
  void emit(Instr I) { Body.push_back(std::move(I)); }

  void emitConstOf(ValType Type) {
    switch (Type) {
    case ValType::I32:
      emit(Instr::i32Const(static_cast<int32_t>(R.nextInRange(0, 255))));
      break;
    case ValType::I64:
      emit(Instr::i64Const(R.nextInRange(0, 4095)));
      break;
    case ValType::F32:
      emit(Instr::f32Const(static_cast<float>(R.nextInRange(0, 100)) * 0.5f));
      break;
    case ValType::F64:
      emit(Instr::f64Const(static_cast<double>(R.nextInRange(0, 1000)) *
                           0.25));
      break;
    }
  }

  /// Pushes an i32 condition value.
  void emitCondition() {
    switch (R.nextBelow(3)) {
    case 0:
      emit(Instr::globalGet(0));
      break;
    case 1:
      emit(Instr::localGet(scratch(ValType::I32)));
      break;
    default:
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(2))));
      break;
    }
  }

  /// Consumes the value of Type on top of the stack (drop or store to a
  /// scratch local).
  void consumeTop(ValType Type) {
    if (R.nextBool(0.5))
      emit(Instr(Opcode::Drop));
    else
      emit(Instr::localSet(scratch(Type)));
  }

  /// Pushes arguments matching import Import's signature and calls it;
  /// result (if any) is consumed. SlotForParam: if >= 0, that local is
  /// pushed for the argument position ArgPosition.
  void emitImportCall(StandardImport Import, int ParamLocal = -1,
                      unsigned ArgPosition = 0);

  /// One static "data segment" address constant.
  int32_t staticAddress() {
    return static_cast<int32_t>(1024 + 8 * R.nextBelow(512));
  }

  // --- Idioms -------------------------------------------------------------
  void emitNoiseSnippet();
  void emitParamUsage(uint32_t ParamIndex);
  void emitValueUsage(uint32_t Local, const TypeTraits &Traits);
  void emitPointerUsage(uint32_t Local, const TypeTraits &Traits);
  void emitArrayUsage(uint32_t Local, const TypeTraits &Traits);
  void emitFuncPtrUsage(uint32_t Local, const TypeTraits &Traits);
  void emitAggregateAccess(uint32_t Local, const SrcType &Aggregate,
                           bool Const, bool IsClass);
  void emitStringScanLoop(uint32_t Local, unsigned Stride);
  void emitSemanticFlavor(uint32_t Local, const TypeTraits &Traits);
  void emitReturnValue();

  uint32_t internFuncType(std::vector<ValType> Params,
                          std::vector<ValType> Results) {
    FuncType Type;
    Type.Params = std::move(Params);
    Type.Results = std::move(Results);
    return M.internType(Type);
  }

  Module &M;
  const SrcFunction &Func;
  Rng &R;
  CodegenOptions Options;

  std::vector<ValType> ParamValTypes;
  std::vector<ValType> ExtraLocals;
  std::optional<uint32_t> Scratch[4];
  std::vector<Instr> Body;
  bool HasReturn = false;
  ValType ReturnValType = ValType::I32;
};

void FunctionCompiler::emitImportCall(StandardImport Import, int ParamLocal,
                                      unsigned ArgPosition) {
  const FuncType &Type = M.Types[M.Imports[Import].TypeIndex];
  for (unsigned ArgIndex = 0; ArgIndex < Type.Params.size(); ++ArgIndex) {
    if (ParamLocal >= 0 && ArgIndex == ArgPosition)
      emit(Instr::localGet(static_cast<uint32_t>(ParamLocal)));
    else
      emitConstOf(Type.Params[ArgIndex]);
  }
  emit(Instr::call(Import));
  for (ValType ResultType : Type.Results)
    consumeTop(ResultType);
}

void FunctionCompiler::emitNoiseSnippet() {
  switch (R.nextBelow(8)) {
  case 0:
    emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(1024))));
    emit(Instr::i32Const(static_cast<int32_t>(1 + R.nextBelow(7))));
    emit(Instr(Opcode::I32Add));
    emit(Instr(Opcode::Drop));
    break;
  case 1:
    emit(Instr::globalGet(0));
    emit(Instr::i32Const(1));
    emit(Instr(Opcode::I32Add));
    emit(Instr(Opcode::GlobalSet, 0));
    break;
  case 2:
    emit(Instr(Opcode::Nop));
    break;
  case 3:
    emitImportCall(ImportNotify);
    break;
  case 4:
    emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(65536))));
    emit(Instr::localSet(scratch(ValType::I32)));
    break;
  case 5:
    emit(Instr::f64Const(static_cast<double>(R.nextBelow(100))));
    emit(Instr(Opcode::F64Sqrt));
    emit(Instr(Opcode::Drop));
    break;
  case 6:
    // Store an i32 to static data.
    emit(Instr::i32Const(staticAddress()));
    emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(256))));
    emit(Instr::store(Opcode::I32Store, 0, 2));
    break;
  default:
    emit(Instr::globalGet(1));
    emit(Instr::i32Const(16));
    emit(Instr(Opcode::I32Sub));
    emit(Instr(Opcode::Drop));
    break;
  }
}

void FunctionCompiler::emitStringScanLoop(uint32_t Local, unsigned Stride) {
  // Canonical strlen/strchr-style scan:
  //   block
  //     loop
  //       local.get P ; local.get idx ; i32.add
  //       i32.load8_u ; i32.eqz ; br_if 1
  //       local.get idx ; i32.const stride ; i32.add ; local.set idx
  //       br 0
  //     end
  //   end
  uint32_t Index = scratch(ValType::I32);
  emit(Instr::block());
  emit(Instr::loop());
  emit(Instr::localGet(Local));
  emit(Instr::localGet(Index));
  emit(Instr(Opcode::I32Add));
  emit(Instr::load(Stride == 1 ? Opcode::I32Load8U : Opcode::I32Load,
                   0, 0));
  emit(Instr(Opcode::I32Eqz));
  emit(Instr::brIf(1));
  emit(Instr::localGet(Index));
  emit(Instr::i32Const(static_cast<int32_t>(Stride)));
  emit(Instr(Opcode::I32Add));
  emit(Instr::localSet(Index));
  emit(Instr::br(0));
  emit(Instr(Opcode::End));
  emit(Instr(Opcode::End));
}

void FunctionCompiler::emitAggregateAccess(uint32_t Local,
                                           const SrcType &Aggregate,
                                           bool Const, bool IsClass) {
  // Field accesses at the aggregate's real offsets (already accounting for
  // any vtable slot), with widths taken from the field types — pointers to
  // different structs produce different offset/width fingerprints.
  const std::vector<SrcField> &Fields = Aggregate.Fields;
  unsigned NumAccesses = 1 + static_cast<unsigned>(R.nextBelow(3));
  bool DidStore = false;
  for (unsigned Access = 0; Access < NumAccesses && !Fields.empty();
       ++Access) {
    const SrcField &Field = Fields[R.nextBelow(Fields.size())];
    const SrcType &FieldLayout = Field.Type->strippedForLayout();
    uint32_t Offset = Field.ByteOffset;
    SrcPrimKind Prim = FieldLayout.Kind == SrcTypeKind::ST_Prim
                           ? FieldLayout.Prim
                           : SrcPrimKind::SP_I32; // Pointer/array fields.
    if (!Const && !DidStore && R.nextBool(0.45)) {
      // Write through the (mutable) pointer: the signal that distinguishes
      // 'pointer struct' from 'pointer const struct'.
      Opcode Store = storeOpcodeFor(Prim);
      emit(Instr::localGet(Local));
      emitConstOf(wasm::opcodeInfo(Store).Operands[1]);
      emit(Instr::store(Store, Offset, 0));
      DidStore = true;
    } else {
      Opcode Load = loadOpcodeFor(Prim);
      emit(Instr::localGet(Local));
      emit(Instr::load(Load, Offset, 0));
      consumeTop(wasm::opcodeInfo(Load).Result);
    }
  }

  if (IsClass && R.nextBool(0.6)) {
    // Virtual dispatch: load vtable from offset 0, load a slot, then
    // call_indirect with `this` as the first argument.
    uint32_t SigIndex = internFuncType({ValType::I32}, {ValType::I32});
    emit(Instr::localGet(Local)); // this
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 0, 2)); // vtable
    emit(Instr::load(Opcode::I32Load,
                     4 * static_cast<uint32_t>(R.nextBelow(6)), 2));
    emit(Instr(Opcode::CallIndirect, SigIndex, 0));
    consumeTop(ValType::I32);
  } else if (R.nextBool(0.3)) {
    // Pass the object pointer to a library helper.
    emitImportCall(R.nextBool(0.5) ? ImportRelease : ImportScan,
                   static_cast<int>(Local), 0);
  }
}

void FunctionCompiler::emitSemanticFlavor(uint32_t Local,
                                          const TypeTraits &Traits) {
  using SK = TypeTraits::SemanticKind;
  switch (Traits.Semantic) {
  case SK::SEM_SizeT:
    switch (R.nextBelow(3)) {
    case 0:
      // Allocation with the size.
      emit(Instr::localGet(Local));
      emit(Instr::call(ImportAlloc));
      consumeTop(ValType::I32);
      break;
    case 1:
      // Page-growth arithmetic: size >> 16; memory.grow.
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(16));
      emit(Instr(Opcode::I32ShrU));
      emit(Instr(Opcode::MemoryGrow, 0));
      emit(Instr(Opcode::Drop));
      break;
    default:
      // Pointer arithmetic: base + size.
      emit(Instr::i32Const(staticAddress()));
      emit(Instr::localGet(Local));
      emit(Instr(Opcode::I32Add));
      emit(Instr(Opcode::Drop));
      break;
    }
    break;
  case SK::SEM_File:
    // Flags check: (f->flags & 32) and an fread-style call with the handle
    // as the last argument.
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 0, 2));
    emit(Instr::i32Const(32));
    emit(Instr(Opcode::I32And));
    emit(Instr(Opcode::I32Eqz));
    emit(Instr::ifOp());
    emitImportCall(ImportIo, static_cast<int>(Local), 3);
    emit(Instr(Opcode::End));
    break;
  case SK::SEM_String:
    // data()/size() access pair.
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 4, 2)); // data pointer (after vtable).
    emit(Instr::localSet(scratch(ValType::I32)));
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 8, 2)); // size.
    emit(Instr(Opcode::Drop));
    break;
  case SK::SEM_VaList:
    // va_arg: read current slot, then advance the cursor by 4.
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 0, 2));
    emit(Instr(Opcode::Drop));
    emit(Instr::localGet(Local));
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::I32Load, 0, 2));
    emit(Instr::i32Const(4));
    emit(Instr(Opcode::I32Add));
    emit(Instr::store(Opcode::I32Store, 0, 2));
    break;
  case SK::SEM_TimeT:
    // Seconds arithmetic with calendar constants.
    emit(Instr::localGet(Local));
    emit(Instr::i64Const(R.nextBool(0.5) ? 86400 : 3600));
    emit(Instr(R.nextBool(0.5) ? Opcode::I64DivS : Opcode::I64RemS));
    consumeTop(ValType::I64);
    break;
  case SK::SEM_None:
    break;
  }
}

void FunctionCompiler::emitValueUsage(uint32_t Local,
                                      const TypeTraits &Traits) {
  const SrcType &Layout = *Traits.Layout;
  if (Layout.Kind == SrcTypeKind::ST_Enum) {
    // Dispatch against small enumerator constants.
    if (R.nextBool(0.5)) {
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(5))));
      emit(Instr(Opcode::I32Eq));
      emit(Instr::ifOp());
      emitNoiseSnippet();
      emit(Instr(Opcode::End));
    } else {
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(2 + R.nextBelow(6))));
      emit(Instr(Opcode::I32LtU));
      emit(Instr(Opcode::Drop));
    }
    return;
  }
  if (Layout.Kind != SrcTypeKind::ST_Prim) {
    // Nullptr-typed or other unusual by-value: just a null-ish check.
    emit(Instr::localGet(Local));
    emit(Instr(Opcode::I32Eqz));
    emit(Instr(Opcode::Drop));
    return;
  }

  switch (Layout.Prim) {
  case SrcPrimKind::SP_Bool:
    switch (R.nextBelow(3)) {
    case 0:
      emit(Instr::localGet(Local));
      emit(Instr::ifOp());
      emitNoiseSnippet();
      emit(Instr(Opcode::End));
      break;
    case 1:
      emit(Instr::localGet(Local));
      emit(Instr(Opcode::I32Eqz));
      emit(Instr::localSet(scratch(ValType::I32)));
      break;
    default:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(1));
      emit(Instr(Opcode::I32And));
      emit(Instr(Opcode::Drop));
      break;
    }
    break;
  case SrcPrimKind::SP_I32:
    switch (R.nextBelow(4)) {
    case 0:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(64))));
      emit(Instr(Opcode::I32Add));
      emit(Instr::localSet(scratch(ValType::I32)));
      break;
    case 1:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(0));
      emit(Instr(Opcode::I32LtS));
      emit(Instr::ifOp());
      emitNoiseSnippet();
      emit(Instr(Opcode::End));
      break;
    case 2:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(2 + R.nextBelow(9))));
      emit(Instr(Opcode::I32DivS));
      emit(Instr(Opcode::Drop));
      break;
    default:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(31));
      emit(Instr(Opcode::I32ShrS));
      emit(Instr(Opcode::Drop));
      break;
    }
    break;
  case SrcPrimKind::SP_U32:
  case SrcPrimKind::SP_WChar32:
    switch (R.nextBelow(3)) {
    case 0:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(1 + R.nextBelow(16))));
      emit(Instr(Opcode::I32ShrU));
      emit(Instr(Opcode::Drop));
      break;
    case 1:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(2 + R.nextBelow(9))));
      emit(Instr(Opcode::I32DivU));
      emit(Instr(Opcode::Drop));
      break;
    default:
      emit(Instr::localGet(Local));
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(4096))));
      emit(Instr(Opcode::I32LtU));
      emit(Instr::ifOp());
      emitNoiseSnippet();
      emit(Instr(Opcode::End));
      break;
    }
    break;
  case SrcPrimKind::SP_I8:
    emit(Instr::localGet(Local));
    emit(Instr(Opcode::I32Extend8S));
    consumeTop(ValType::I32);
    break;
  case SrcPrimKind::SP_U8:
    emit(Instr::localGet(Local));
    emit(Instr::i32Const(255));
    emit(Instr(Opcode::I32And));
    consumeTop(ValType::I32);
    break;
  case SrcPrimKind::SP_I16:
    emit(Instr::localGet(Local));
    emit(Instr(Opcode::I32Extend16S));
    consumeTop(ValType::I32);
    break;
  case SrcPrimKind::SP_U16:
  case SrcPrimKind::SP_WChar16:
    emit(Instr::localGet(Local));
    emit(Instr::i32Const(65535));
    emit(Instr(Opcode::I32And));
    consumeTop(ValType::I32);
    break;
  case SrcPrimKind::SP_Char:
    // Character comparisons against printable ASCII.
    emit(Instr::localGet(Local));
    emit(Instr::i32Const(static_cast<int32_t>(32 + R.nextBelow(95))));
    emit(Instr(R.nextBool(0.5) ? Opcode::I32Eq : Opcode::I32Ne));
    emit(Instr::ifOp());
    emit(Instr(Opcode::Nop));
    emit(Instr(Opcode::End));
    break;
  case SrcPrimKind::SP_I64:
    emit(Instr::localGet(Local));
    emit(Instr::i64Const(R.nextInRange(1, 1023)));
    emit(Instr(R.nextBool(0.5) ? Opcode::I64Add : Opcode::I64Mul));
    consumeTop(ValType::I64);
    break;
  case SrcPrimKind::SP_U64:
    emit(Instr::localGet(Local));
    emit(Instr::i64Const(static_cast<int64_t>(1 + R.nextBelow(32))));
    emit(Instr(R.nextBool(0.5) ? Opcode::I64ShrU : Opcode::I64DivU));
    consumeTop(ValType::I64);
    break;
  case SrcPrimKind::SP_F32:
    if (R.nextBool(0.4)) {
      emitImportCall(ImportMathF, static_cast<int>(Local), 0);
    } else {
      emit(Instr::localGet(Local));
      emit(Instr::f32Const(static_cast<float>(R.nextBelow(16)) + 0.5f));
      emit(Instr(R.nextBool(0.5) ? Opcode::F32Mul : Opcode::F32Add));
      consumeTop(ValType::F32);
    }
    break;
  case SrcPrimKind::SP_F64:
    switch (R.nextBelow(3)) {
    case 0:
      emitImportCall(ImportMath, static_cast<int>(Local), 0);
      break;
    case 1:
      emit(Instr::localGet(Local));
      emit(Instr::f64Const(0.0));
      emit(Instr(Opcode::F64Lt));
      emit(Instr::ifOp());
      emitNoiseSnippet();
      emit(Instr(Opcode::End));
      break;
    default:
      emit(Instr::localGet(Local));
      emit(Instr::f64Const(static_cast<double>(R.nextBelow(100)) * 0.125));
      emit(Instr(R.nextBool(0.5) ? Opcode::F64Mul : Opcode::F64Add));
      consumeTop(ValType::F64);
      break;
    }
    break;
  case SrcPrimKind::SP_F128:
  case SrcPrimKind::SP_Complex:
    // Passed indirectly: two f64 lane loads.
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::F64Load, 0, 3));
    emit(Instr(Opcode::Drop));
    emit(Instr::localGet(Local));
    emit(Instr::load(Opcode::F64Load, 8, 3));
    emit(Instr(Opcode::Drop));
    break;
  }
}

void FunctionCompiler::emitPointerUsage(uint32_t Local,
                                        const TypeTraits &Traits) {
  // Frequent null check around the dereference.
  bool NullChecked = R.nextBool(0.45);
  if (NullChecked) {
    emit(Instr::block());
    emit(Instr::localGet(Local));
    emit(Instr(Opcode::I32Eqz));
    emit(Instr::brIf(0));
  }

  if (Traits.PointeeIncomplete) {
    // Opaque pointer: no dereference is possible — only pass-along and
    // null tests. This absence of loads is the learnable cue for
    // 'pointer unknown'.
    if (R.nextBool(0.6))
      emitImportCall(R.nextBool(0.5) ? ImportRelease : ImportCopy,
                     static_cast<int>(Local), 0);
    else {
      emit(Instr::localGet(Local));
      emit(Instr::localSet(scratch(ValType::I32)));
    }
  } else if (Traits.Pointee) {
    const SrcType &Pointee = *Traits.Pointee;
    switch (Pointee.Kind) {
    case SrcTypeKind::ST_Prim: {
      if (Pointee.Prim == SrcPrimKind::SP_Char && R.nextBool(0.65)) {
        if (R.nextBool(0.5))
          emitStringScanLoop(Local, 1);
        else
          emitImportCall(R.nextBool(0.5) ? ImportScan : ImportLog,
                         static_cast<int>(Local), 0);
      } else if ((Pointee.Prim == SrcPrimKind::SP_WChar32 ||
                  Pointee.Prim == SrcPrimKind::SP_WChar16) &&
                 R.nextBool(0.5)) {
        emitStringScanLoop(Local, primByteSize(Pointee.Prim));
      } else {
        Opcode Load = loadOpcodeFor(Pointee.Prim);
        emit(Instr::localGet(Local));
        emit(Instr::load(Load,
                         primByteSize(Pointee.Prim) *
                             static_cast<uint32_t>(R.nextBelow(3)),
                         0));
        consumeTop(wasm::opcodeInfo(Load).Result);
        if (!Traits.PointeeConst && R.nextBool(0.55)) {
          // Out-parameter write-back.
          emit(Instr::localGet(Local));
          emitConstOf(wasm::opcodeInfo(Load).Result);
          emit(Instr::store(storeOpcodeFor(Pointee.Prim), 0, 0));
        }
      }
      break;
    }
    case SrcTypeKind::ST_Struct:
    case SrcTypeKind::ST_Union:
      emitAggregateAccess(Local, Pointee, Traits.PointeeConst,
                          /*IsClass=*/false);
      break;
    case SrcTypeKind::ST_Class:
      emitAggregateAccess(Local, Pointee, Traits.PointeeConst,
                          /*IsClass=*/true);
      break;
    case SrcTypeKind::ST_Enum:
      emit(Instr::localGet(Local));
      emit(Instr::load(Opcode::I32Load, 0, 2));
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(5))));
      emit(Instr(Opcode::I32Eq));
      emit(Instr(Opcode::Drop));
      break;
    case SrcTypeKind::ST_Pointer: {
      // Pointer-to-pointer: load the inner pointer, then maybe deref again.
      uint32_t Inner = scratch(ValType::I32);
      emit(Instr::localGet(Local));
      emit(Instr::load(Opcode::I32Load, 0, 2));
      emit(Instr::localSet(Inner));
      if (R.nextBool(0.5)) {
        const SrcType &Innermost = Pointee.Inner->strippedForLayout();
        Opcode Load = Innermost.Kind == SrcTypeKind::ST_Prim
                          ? loadOpcodeFor(Innermost.Prim)
                          : Opcode::I32Load;
        emit(Instr::localGet(Inner));
        emit(Instr::load(Load, 0, 0));
        consumeTop(wasm::opcodeInfo(Load).Result);
      }
      if (!Traits.PointeeConst && R.nextBool(0.4)) {
        // Write a fresh pointer back (realloc-style out param).
        emit(Instr::localGet(Local));
        emitConstOf(ValType::I32);
        emit(Instr::call(ImportAlloc));
        emit(Instr::store(Opcode::I32Store, 0, 2));
      }
      break;
    }
    case SrcTypeKind::ST_Array: {
      // Pointer to array: element indexing.
      TypeTraits ElementTraits;
      ElementTraits.Shape = TypeTraits::ShapeKind::SK_Array;
      ElementTraits.Pointee =
          Pointee.Inner ? &Pointee.Inner->strippedForLayout() : nullptr;
      emitArrayUsage(Local, ElementTraits);
      break;
    }
    default:
      emit(Instr::localGet(Local));
      emit(Instr::localSet(scratch(ValType::I32)));
      break;
    }
  }

  emitSemanticFlavor(Local, Traits);
  if (NullChecked)
    emit(Instr(Opcode::End));
}

void FunctionCompiler::emitArrayUsage(uint32_t Local,
                                      const TypeTraits &Traits) {
  const SrcType *Element = Traits.Pointee;
  SrcPrimKind Prim = Element && Element->Kind == SrcTypeKind::ST_Prim
                         ? Element->Prim
                         : SrcPrimKind::SP_I32;
  uint32_t ElementSize = primByteSize(Prim);
  Opcode Load = loadOpcodeFor(Prim);
  // arr[i]: base + i * size.
  emit(Instr::localGet(Local));
  emit(Instr::localGet(scratch(ValType::I32)));
  if (ElementSize > 1) {
    emit(Instr::i32Const(static_cast<int32_t>(ElementSize)));
    emit(Instr(Opcode::I32Mul));
  }
  emit(Instr(Opcode::I32Add));
  emit(Instr::load(Load, ElementSize * static_cast<uint32_t>(R.nextBelow(2)),
                   0));
  consumeTop(wasm::opcodeInfo(Load).Result);
}

void FunctionCompiler::emitFuncPtrUsage(uint32_t Local,
                                        const TypeTraits &Traits) {
  // Guarded indirect call through the function pointer.
  const SrcType *Proto = Traits.Pointee;
  std::vector<ValType> Params;
  std::vector<ValType> Results;
  if (Proto) {
    for (const SrcTypeRef &Param : Proto->ProtoParams)
      Params.push_back(Param->lowerValType());
    if (Proto->ProtoReturn && Proto->ProtoReturn->Kind != SrcTypeKind::ST_Void)
      Results.push_back(Proto->ProtoReturn->lowerValType());
  }
  uint32_t SigIndex = internFuncType(Params, Results);
  emit(Instr::block());
  emit(Instr::localGet(Local));
  emit(Instr(Opcode::I32Eqz));
  emit(Instr::brIf(0));
  for (ValType Param : Params)
    emitConstOf(Param);
  emit(Instr::localGet(Local));
  emit(Instr(Opcode::CallIndirect, SigIndex, 0));
  for (ValType ResultType : Results)
    consumeTop(ResultType);
  emit(Instr(Opcode::End));
}

void FunctionCompiler::emitParamUsage(uint32_t ParamIndex) {
  TypeTraits Traits = computeTraits(Func.Params[ParamIndex].second);
  switch (Traits.Shape) {
  case TypeTraits::ShapeKind::SK_Value:
    emitValueUsage(ParamIndex, Traits);
    emitSemanticFlavor(ParamIndex, Traits);
    break;
  case TypeTraits::ShapeKind::SK_Pointer:
    emitPointerUsage(ParamIndex, Traits);
    break;
  case TypeTraits::ShapeKind::SK_Array:
    emitArrayUsage(ParamIndex, Traits);
    break;
  case TypeTraits::ShapeKind::SK_FuncPtr:
    emitFuncPtrUsage(ParamIndex, Traits);
    break;
  }
}

void FunctionCompiler::emitReturnValue() {
  assert(HasReturn && "return value for void function");
  TypeTraits Traits = computeTraits(Func.ReturnType);
  const SrcType &Layout = *Traits.Layout;

  // Pointer-shaped returns.
  if (Traits.Shape == TypeTraits::ShapeKind::SK_Pointer ||
      Traits.Shape == TypeTraits::ShapeKind::SK_Array ||
      Traits.Shape == TypeTraits::ShapeKind::SK_FuncPtr) {
    if (Traits.Semantic == TypeTraits::SemanticKind::SEM_File ||
        (Traits.Pointee &&
         (Traits.Pointee->Kind == SrcTypeKind::ST_Struct ||
          Traits.Pointee->Kind == SrcTypeKind::ST_Class ||
          Traits.Pointee->Kind == SrcTypeKind::ST_Union))) {
      // Allocate, initialize a field, return the object.
      uint32_t Pointer = scratch(ValType::I32);
      emit(Instr::i32Const(
          static_cast<int32_t>(std::max<uint32_t>(Traits.Pointee->byteSize(),
                                                  8))));
      emit(Instr::call(ImportAlloc));
      emit(Instr::localTee(Pointer));
      emit(Instr::load(Opcode::I32Load, 0, 2));
      emit(Instr(Opcode::Drop));
      if (Traits.Pointee->Kind == SrcTypeKind::ST_Class) {
        // Store the vtable pointer: the constructor fingerprint.
        emit(Instr::localGet(Pointer));
        emit(Instr::i32Const(staticAddress()));
        emit(Instr::store(Opcode::I32Store, 0, 2));
      }
      emit(Instr::localGet(Pointer));
      return;
    }
    if (Traits.Pointee && Traits.Pointee->Kind == SrcTypeKind::ST_Prim &&
        Traits.Pointee->Prim == SrcPrimKind::SP_Char) {
      // Return a string: static address or scanned pointer.
      if (R.nextBool(0.5)) {
        emit(Instr::i32Const(staticAddress()));
      } else {
        uint32_t Pointer = scratch(ValType::I32);
        emit(Instr::i32Const(staticAddress()));
        emit(Instr::localTee(Pointer));
        emit(Instr::load(Opcode::I32Load8U, 0, 0));
        emit(Instr(Opcode::Drop));
        emit(Instr::localGet(Pointer));
      }
      return;
    }
    if (Traits.PointeeIncomplete) {
      // Opaque pointer return: allocation result, untouched.
      emitConstOf(ValType::I32);
      emit(Instr::call(ImportAlloc));
      return;
    }
    // Pointer to primitive: base + offset arithmetic.
    emit(Instr::i32Const(staticAddress()));
    emit(Instr::localGet(scratch(ValType::I32)));
    emit(Instr(Opcode::I32Add));
    return;
  }

  // Semantic scalars.
  if (Traits.Semantic == TypeTraits::SemanticKind::SEM_SizeT) {
    if (R.nextBool(0.5)) {
      emit(Instr(Opcode::MemorySize, 0));
      emit(Instr::i32Const(65536));
      emit(Instr(Opcode::I32Mul));
    } else {
      emit(Instr::localGet(scratch(ValType::I32)));
      emit(Instr::i32Const(15));
      emit(Instr(Opcode::I32Add));
      emit(Instr::i32Const(-16));
      emit(Instr(Opcode::I32And));
    }
    return;
  }
  if (Traits.Semantic == TypeTraits::SemanticKind::SEM_TimeT) {
    emit(Instr::localGet(scratch(ValType::I64)));
    emit(Instr::i64Const(86400));
    emit(Instr(Opcode::I64Mul));
    return;
  }

  if (Layout.Kind == SrcTypeKind::ST_Enum) {
    emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(6))));
    return;
  }
  if (Layout.Kind != SrcTypeKind::ST_Prim) {
    emitConstOf(ReturnValType);
    return;
  }

  switch (Layout.Prim) {
  case SrcPrimKind::SP_Bool:
    if (R.nextBool(0.5)) {
      emit(Instr::localGet(scratch(ValType::I32)));
      emit(Instr(Opcode::I32Eqz));
    } else {
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(2))));
    }
    break;
  case SrcPrimKind::SP_I32:
    if (R.nextBool(0.4)) {
      emit(Instr::i32Const(
          static_cast<int32_t>(R.nextInRange(-2, 64))));
    } else {
      emit(Instr::localGet(scratch(ValType::I32)));
      emit(Instr::i32Const(static_cast<int32_t>(R.nextBelow(32))));
      emit(Instr(R.nextBool(0.7) ? Opcode::I32Add : Opcode::I32Sub));
    }
    break;
  case SrcPrimKind::SP_U32:
  case SrcPrimKind::SP_WChar32:
    emit(Instr::localGet(scratch(ValType::I32)));
    emit(Instr::i32Const(static_cast<int32_t>(1 + R.nextBelow(8))));
    emit(Instr(Opcode::I32ShrU));
    break;
  case SrcPrimKind::SP_I8:
    emit(Instr::i32Const(staticAddress()));
    emit(Instr::load(Opcode::I32Load8S, 0, 0));
    break;
  case SrcPrimKind::SP_U8:
    emit(Instr::i32Const(staticAddress()));
    emit(Instr::load(Opcode::I32Load8U, 0, 0));
    break;
  case SrcPrimKind::SP_I16:
    emit(Instr::localGet(scratch(ValType::I32)));
    emit(Instr(Opcode::I32Extend16S));
    break;
  case SrcPrimKind::SP_U16:
  case SrcPrimKind::SP_WChar16:
    emit(Instr::localGet(scratch(ValType::I32)));
    emit(Instr::i32Const(65535));
    emit(Instr(Opcode::I32And));
    break;
  case SrcPrimKind::SP_Char:
    if (R.nextBool(0.5)) {
      emit(Instr::i32Const(staticAddress()));
      emit(Instr::load(Opcode::I32Load8U, 0, 0));
    } else {
      emit(Instr::i32Const(static_cast<int32_t>(32 + R.nextBelow(95))));
    }
    break;
  case SrcPrimKind::SP_I64:
    emit(Instr::localGet(scratch(ValType::I64)));
    emit(Instr::i64Const(R.nextInRange(1, 255)));
    emit(Instr(Opcode::I64Add));
    break;
  case SrcPrimKind::SP_U64:
    emit(Instr::localGet(scratch(ValType::I64)));
    emit(Instr::i64Const(static_cast<int64_t>(1 + R.nextBelow(16))));
    emit(Instr(Opcode::I64ShrU));
    break;
  case SrcPrimKind::SP_F32:
    emit(Instr::localGet(scratch(ValType::F32)));
    emit(Instr::f32Const(static_cast<float>(R.nextBelow(8)) + 0.25f));
    emit(Instr(Opcode::F32Mul));
    break;
  case SrcPrimKind::SP_F64:
    emit(Instr::localGet(scratch(ValType::F64)));
    emit(Instr::f64Const(static_cast<double>(R.nextBelow(16)) + 0.5));
    emit(Instr(R.nextBool(0.6) ? Opcode::F64Mul : Opcode::F64Add));
    break;
  case SrcPrimKind::SP_F128:
  case SrcPrimKind::SP_Complex:
    // Returned via pointer in the real ABI; lowered here to a pointer.
    emit(Instr::i32Const(staticAddress()));
    break;
  }
}

wasm::Function FunctionCompiler::run() {
  // Plan the body as a shuffled list of per-parameter usage segments and
  // noise segments.
  struct Segment {
    bool IsNoise;
    uint32_t ParamIndex;
  };
  std::vector<Segment> Segments;
  bool LongFunction = R.nextBool(Options.LongFunctionRate);
  unsigned Repetitions = LongFunction ? 6 + R.nextBelow(14) : 1;
  for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
    for (uint32_t ParamIndex = 0; ParamIndex < Func.Params.size();
         ++ParamIndex) {
      unsigned Usages = 1 + static_cast<unsigned>(R.nextBelow(2));
      for (unsigned Usage = 0; Usage < Usages; ++Usage)
        Segments.push_back({false, ParamIndex});
    }
    unsigned NoiseCount = static_cast<unsigned>(
        Options.NoiseLevel * (2 + R.nextBelow(3 + 2 * Func.Params.size())));
    for (unsigned Noise = 0; Noise < NoiseCount; ++Noise)
      Segments.push_back({true, 0});
  }
  if (Segments.empty())
    Segments.push_back({true, 0});
  R.shuffle(Segments);

  for (const Segment &Seg : Segments) {
    // Occasionally wrap a segment in control flow.
    unsigned Wrapper = static_cast<unsigned>(R.nextBelow(10));
    if (Wrapper < 2) {
      emit(Instr::block());
      emitCondition();
      emit(Instr::brIf(0));
      Seg.IsNoise ? emitNoiseSnippet() : emitParamUsage(Seg.ParamIndex);
      emit(Instr(Opcode::End));
    } else if (Wrapper < 4) {
      emitCondition();
      emit(Instr::ifOp());
      Seg.IsNoise ? emitNoiseSnippet() : emitParamUsage(Seg.ParamIndex);
      if (R.nextBool(0.35)) {
        emit(Instr(Opcode::Else));
        emitNoiseSnippet();
      }
      emit(Instr(Opcode::End));
    } else {
      Seg.IsNoise ? emitNoiseSnippet() : emitParamUsage(Seg.ParamIndex);
    }

    // Occasional early return (gives return-type windows mid-function).
    if (R.nextBool(0.08)) {
      emitCondition();
      emit(Instr::ifOp());
      if (HasReturn)
        emitReturnValue();
      emit(Instr(Opcode::Return));
      emit(Instr(Opcode::End));
    }
  }

  if (HasReturn)
    emitReturnValue();
  emit(Instr(Opcode::End));

  // Assemble the wasm function.
  wasm::Function Out;
  FuncType Type;
  Type.Params = ParamValTypes;
  if (HasReturn)
    Type.Results.push_back(ReturnValType);
  Out.TypeIndex = M.internType(Type);
  // Group extra locals into runs (the binary encoding unit).
  for (ValType Local : ExtraLocals) {
    if (!Out.Locals.empty() && Out.Locals.back().Type == Local)
      ++Out.Locals.back().Count;
    else
      Out.Locals.push_back({1, Local});
  }
  Out.Body = std::move(Body);
  return Out;
}

} // namespace

uint32_t compileFunction(Module &M, const SrcFunction &Func, Rng &R,
                         const CodegenOptions &Options) {
  FunctionCompiler Compiler(M, Func, R, Options);
  wasm::Function Compiled = Compiler.run();
  M.Functions.push_back(std::move(Compiled));
  uint32_t DefinedIndex = static_cast<uint32_t>(M.Functions.size() - 1);
  M.Exports.push_back({Func.Name, M.functionSpaceIndex(DefinedIndex)});
  return DefinedIndex;
}

} // namespace frontend
} // namespace snowwhite
