//===- wasm/instr.h - WebAssembly instructions ----------------------------===//

#ifndef SNOWWHITE_WASM_INSTR_H
#define SNOWWHITE_WASM_INSTR_H

#include "wasm/types.h"

#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {
namespace wasm {

/// All opcodes from opcodes.def.
enum class Opcode : uint16_t {
#define WASM_OPCODE(Name, Wat, Byte, Imm, Class, Arg0, Arg1, Result, Bytes)   \
  Name,
#include "wasm/opcodes.def"
};

/// How an opcode's immediates are encoded.
enum class ImmKind : uint8_t {
  None,         ///< No immediates.
  BlockType,    ///< block/loop/if result type.
  Label,        ///< A relative branch depth.
  BrTable,      ///< Vector of labels plus a default label.
  Func,         ///< A function index (call).
  CallIndirect, ///< Type index + table index.
  Local,        ///< A local index.
  Global,       ///< A global index.
  Mem,          ///< Memarg: alignment exponent + byte offset.
  MemIdx,       ///< Memory index (always 0 in MVP).
  I32,          ///< Signed 32-bit constant.
  I64,          ///< Signed 64-bit constant.
  F32,          ///< 32-bit float constant (bit pattern).
  F64,          ///< 64-bit float constant (bit pattern).
};

/// Number of opcodes in the table.
constexpr unsigned NumOpcodes = 0
#define WASM_OPCODE(Name, Wat, Byte, Imm, Class, Arg0, Arg1, Result, Bytes)   \
  +1
#include "wasm/opcodes.def"
    ;

/// What an opcode does, for typing and analysis (opcodes.def's Class).
enum class OpClass : uint8_t {
  Control,    ///< Opens, closes or leaves a block; ends a basic block.
  Call,       ///< call, call_indirect.
  Variable,   ///< local.* and global.*.
  Parametric, ///< nop, drop, select: move values, compute nothing.
  Const,      ///< *.const.
  Load,       ///< Memory load.
  Store,      ///< Memory store.
  MemQuery,   ///< memory.size, memory.grow.
  Compare,    ///< Comparison or eqz (an i32 0/1).
  Arith,      ///< Numeric arithmetic or bitwise operation.
  Convert,    ///< Conversion, extension, or reinterpretation.
};

/// The `_s`/`_u` suffix of a mnemonic (the spec's sx).
enum class OpSign : uint8_t { None, Signed, Unsigned };

/// One row of opcodes.def. When Fixed, the opcode is typed
/// [Operands[0..NumOperands)] -> [Result if HasResult] whatever its
/// immediates and context; otherwise (Control, Call, Variable, Parametric)
/// the typing fields are unset.
struct OpcodeInfo {
  const char *Name; ///< Text-format mnemonic, e.g. "i32.const".
  uint8_t Byte;     ///< Binary-format byte.
  ImmKind Imm;
  OpClass Class;
  bool Fixed;
  uint8_t NumOperands;
  ValType Operands[2]; ///< In push order: Operands[0] is the deepest.
  bool HasResult;
  ValType Result;
  uint8_t AccessBytes; ///< Width of a load or store; 0 otherwise.
  OpSign Sign;
};

/// Returns Op's row of opcodes.def.
const OpcodeInfo &opcodeInfo(Opcode Op);

/// Shorthands for opcodeInfo(Op).Name, .Byte and .Imm.
inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }
inline uint8_t opcodeByte(Opcode Op) { return opcodeInfo(Op).Byte; }
inline ImmKind opcodeImmKind(Opcode Op) { return opcodeInfo(Op).Imm; }

/// Decodes an opcode byte. Returns false for bytes outside the table.
bool opcodeFromByte(uint8_t Byte, Opcode &Op);

/// One decoded instruction. Immediates are stored in Imm0/Imm1, interpreted
/// according to opcodeImmKind():
///   Label/Func/Local/Global: index in Imm0.
///   Mem: byte offset in Imm0, alignment exponent in Imm1.
///   CallIndirect: type index in Imm0, table index in Imm1.
///   I32/I64: sign-extended value in Imm0 (as two's complement).
///   F32/F64: IEEE bit pattern in Imm0.
///   BlockType: Imm0 == 0 for empty, else 1 + value-type enum in Imm0 - 1.
///   BrTable: targets in Table, default label in Imm0.
struct Instr {
  Opcode Op = Opcode::Nop;
  uint64_t Imm0 = 0;
  uint64_t Imm1 = 0;
  std::vector<uint32_t> Table; ///< Only used by br_table.

  Instr() = default;
  explicit Instr(Opcode O) : Op(O) {}
  Instr(Opcode O, uint64_t I0) : Op(O), Imm0(I0) {}
  Instr(Opcode O, uint64_t I0, uint64_t I1) : Op(O), Imm0(I0), Imm1(I1) {}

  bool operator==(const Instr &Other) const = default;

  /// Convenience constructors for common instruction shapes.
  static Instr i32Const(int32_t Value) {
    return Instr(Opcode::I32Const,
                 static_cast<uint64_t>(static_cast<int64_t>(Value)));
  }
  static Instr i64Const(int64_t Value) {
    return Instr(Opcode::I64Const, static_cast<uint64_t>(Value));
  }
  static Instr f32Const(float Value);
  static Instr f64Const(double Value);
  static Instr localGet(uint32_t Index) {
    return Instr(Opcode::LocalGet, Index);
  }
  static Instr localSet(uint32_t Index) {
    return Instr(Opcode::LocalSet, Index);
  }
  static Instr localTee(uint32_t Index) {
    return Instr(Opcode::LocalTee, Index);
  }
  static Instr globalGet(uint32_t Index) {
    return Instr(Opcode::GlobalGet, Index);
  }
  static Instr call(uint32_t FuncIndex) {
    return Instr(Opcode::Call, FuncIndex);
  }
  static Instr load(Opcode LoadOp, uint32_t Offset, uint32_t AlignExp = 0) {
    return Instr(LoadOp, Offset, AlignExp);
  }
  static Instr store(Opcode StoreOp, uint32_t Offset, uint32_t AlignExp = 0) {
    return Instr(StoreOp, Offset, AlignExp);
  }
  static Instr block(BlockType Type = BlockType::empty());
  static Instr loop(BlockType Type = BlockType::empty());
  static Instr ifOp(BlockType Type = BlockType::empty());
  static Instr br(uint32_t Depth) { return Instr(Opcode::Br, Depth); }
  static Instr brIf(uint32_t Depth) { return Instr(Opcode::BrIf, Depth); }

  /// Returns the f32 constant value; Op must be F32Const.
  float f32Value() const;
  /// Returns the f64 constant value; Op must be F64Const.
  double f64Value() const;
  /// Returns the i32 constant value; Op must be I32Const.
  int32_t i32Value() const;
  /// Decodes a BlockType immediate; Op must be Block/Loop/If.
  BlockType blockType() const;

  /// True for local.get/local.set/local.tee.
  bool isLocalOp() const {
    return Op == Opcode::LocalGet || Op == Opcode::LocalSet ||
           Op == Opcode::LocalTee;
  }
};

/// Packs a BlockType into the Imm0 representation described on Instr.
uint64_t encodeBlockTypeImm(BlockType Type);

} // namespace wasm
} // namespace snowwhite

#endif // SNOWWHITE_WASM_INSTR_H
