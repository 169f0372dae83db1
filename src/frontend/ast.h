//===- frontend/ast.h - Synthetic C/C++-like source types ------------------===//
//
// The paper's dataset is built by compiling C/C++ Ubuntu packages with
// Emscripten. This repo has no Emscripten and no Ubuntu mirror, so the
// frontend substitutes a synthetic source language whose type system mirrors
// the C/C++ declarations the paper's DWARF extractor sees: primitives with
// exact widths, pointers/references, arrays, const/volatile, typedefs,
// struct/class/union/enum with fields, and function prototypes. The code
// generator (codegen.h) lowers functions over these types to WebAssembly
// with type-correlated instruction idioms, and dwarf_emit.h produces the
// matching debug info.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_FRONTEND_AST_H
#define SNOWWHITE_FRONTEND_AST_H

#include "wasm/types.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace snowwhite {
namespace frontend {

/// Source-level primitive types with unambiguous machine representations
/// (the generator never needs the C names 'long' etc. that the paper argues
/// are ambiguous).
enum class SrcPrimKind : uint8_t {
  SP_Bool,
  SP_I8,
  SP_U8,
  SP_I16,
  SP_U16,
  SP_I32,
  SP_U32,
  SP_I64,
  SP_U64,
  SP_F32,
  SP_F64,
  SP_F128,
  SP_Complex, ///< C _Complex double.
  SP_Char,    ///< "Plain" char: character data.
  SP_WChar16,
  SP_WChar32,
};

/// Constructors of the synthetic source type system.
enum class SrcTypeKind : uint8_t {
  ST_Void,
  ST_Prim,
  ST_Pointer,
  ST_Reference, ///< C++ reference; lowers like a pointer.
  ST_Array,
  ST_Const,
  ST_Volatile,
  ST_Typedef,
  ST_Struct,
  ST_Class,
  ST_Union,
  ST_Enum,
  ST_FuncProto,  ///< Function type (behind pointers).
  ST_Forward,    ///< Forward-declared aggregate (no definition).
  ST_Nullptr,    ///< decltype(nullptr)-like unspecified type.
};

struct SrcType;
using SrcTypeRef = std::shared_ptr<const SrcType>;

/// One member of an aggregate definition.
struct SrcField {
  std::string Name;
  SrcTypeRef Type;
  uint32_t ByteOffset = 0;
};

/// A source type term. Aggregates are identified nominally via Name; the
/// pointee of a pointer may refer back to the enclosing aggregate (linked
/// lists etc.), so the structure may be cyclic — exactly like DWARF. Such a
/// back edge does not own its target, so dropping the last outside
/// reference frees the whole graph.
struct SrcType {
  SrcTypeKind Kind = SrcTypeKind::ST_Void;
  SrcPrimKind Prim = SrcPrimKind::SP_I32;
  std::string Name;     ///< Typedef/aggregate/enum name ("" = anonymous).
  SrcTypeRef Inner;     ///< Pointer/Reference/Array/Const/Volatile/Typedef.
  uint32_t ArrayCount = 0;
  std::vector<SrcField> Fields; ///< Struct/Class/Union members.
  bool HasMethods = false;      ///< Classes with virtual methods.
  std::vector<SrcTypeRef> ProtoParams;
  SrcTypeRef ProtoReturn;

  /// Size in bytes under an ILP32 (wasm32) data model.
  uint32_t byteSize() const;

  /// The wasm value type a parameter/return of this type lowers to.
  /// Aggregates and arrays decay to pointers (i32). Must not be called on
  /// void.
  wasm::ValType lowerValType() const;

  /// Strips typedefs/const/volatile down to the representation-determining
  /// type.
  const SrcType &strippedForLayout() const;
};

/// Factory helpers; all return shared immutable nodes.
SrcTypeRef makeVoid();
SrcTypeRef makePrim(SrcPrimKind Kind);
SrcTypeRef makePointer(SrcTypeRef Pointee);
SrcTypeRef makeReference(SrcTypeRef Referent);
SrcTypeRef makeArray(SrcTypeRef Element, uint32_t Count);
SrcTypeRef makeConst(SrcTypeRef Underlying);
SrcTypeRef makeVolatile(SrcTypeRef Underlying);
SrcTypeRef makeTypedef(std::string Name, SrcTypeRef Underlying);
SrcTypeRef makeEnum(std::string Name);
SrcTypeRef makeForward(std::string Name, bool IsClass);
SrcTypeRef makeNullptrType();
SrcTypeRef makeFuncProto(std::vector<SrcTypeRef> Params, SrcTypeRef Return);

/// Builds a struct/class/union. Field offsets are assigned sequentially with
/// natural alignment. Structs/classes may be created empty and filled later
/// via finalizeAggregate to allow self-referential fields.
std::shared_ptr<SrcType> makeAggregate(SrcTypeKind Kind, std::string Name);
void addField(std::shared_ptr<SrcType> &Aggregate, std::string Name,
              SrcTypeRef Type);

/// Byte size of a primitive.
uint32_t primByteSize(SrcPrimKind Kind);

/// True for the signed integer primitives (used to pick _s vs _u opcodes).
bool primIsSigned(SrcPrimKind Kind);

/// A function signature plus its name, in one synthetic compilation unit.
struct SrcFunction {
  std::string Name;
  std::vector<std::pair<std::string, SrcTypeRef>> Params;
  SrcTypeRef ReturnType; ///< makeVoid() for void functions.
  bool IsExternCpp = false; ///< Part of a C++ package (affects names only).
};

} // namespace frontend
} // namespace snowwhite

#endif // SNOWWHITE_FRONTEND_AST_H
