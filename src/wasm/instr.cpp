#include "wasm/instr.h"

#include <array>
#include <cassert>
#include <cstring>
#include <string_view>

namespace snowwhite {
namespace wasm {

uint8_t valTypeByte(ValType Type) {
  switch (Type) {
  case ValType::I32:
    return 0x7f;
  case ValType::I64:
    return 0x7e;
  case ValType::F32:
    return 0x7d;
  case ValType::F64:
    return 0x7c;
  }
  assert(false && "unknown ValType");
  return 0;
}

bool valTypeFromByte(uint8_t Byte, ValType &Type) {
  switch (Byte) {
  case 0x7f:
    Type = ValType::I32;
    return true;
  case 0x7e:
    Type = ValType::I64;
    return true;
  case 0x7d:
    Type = ValType::F32;
    return true;
  case 0x7c:
    Type = ValType::F64;
    return true;
  default:
    return false;
  }
}

const char *valTypeName(ValType Type) {
  switch (Type) {
  case ValType::I32:
    return "i32";
  case ValType::I64:
    return "i64";
  case ValType::F32:
    return "f32";
  case ValType::F64:
    return "f64";
  }
  assert(false && "unknown ValType");
  return "?";
}

namespace {

/// A type slot of opcodes.def: a value type, absent, or context-dependent.
enum class Slot : uint8_t { I32, I64, F32, F64, None, Dyn };

constexpr OpSign signOf(std::string_view Wat) {
  if (Wat.ends_with("_s"))
    return OpSign::Signed;
  if (Wat.ends_with("_u"))
    return OpSign::Unsigned;
  return OpSign::None;
}

constexpr OpcodeInfo makeInfo(const char *Wat, uint8_t Byte, ImmKind Imm,
                              OpClass Class, Slot Arg0, Slot Arg1,
                              Slot Result, uint8_t Bytes) {
  OpcodeInfo Info{Wat,   Byte, Imm, Class, false, 0, {}, false, ValType::I32,
                  Bytes, signOf(Wat)};
  Info.Fixed = Arg0 != Slot::Dyn && Arg1 != Slot::Dyn && Result != Slot::Dyn;
  if (!Info.Fixed)
    return Info;
  for (Slot Arg : {Arg0, Arg1})
    if (Arg != Slot::None)
      Info.Operands[Info.NumOperands++] = static_cast<ValType>(Arg);
  Info.HasResult = Result != Slot::None;
  if (Info.HasResult)
    Info.Result = static_cast<ValType>(Result);
  return Info;
}

static_assert(static_cast<ValType>(Slot::F64) == ValType::F64,
              "Slot's value types must line up with ValType");

constexpr OpcodeInfo OpcodeTable[NumOpcodes] = {
#define WASM_OPCODE(Name, Wat, Byte, Imm, Class, Arg0, Arg1, Result, Bytes)   \
  makeInfo(Wat, Byte, ImmKind::Imm, OpClass::Class, Slot::Arg0, Slot::Arg1,   \
           Slot::Result, Bytes),
#include "wasm/opcodes.def"
};

} // namespace

const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)];
}

bool opcodeFromByte(uint8_t Byte, Opcode &Op) {
  // Opcode bytes are sparse (gaps around 0x12..0x19 etc.), so use a reverse
  // table built once on first use.
  static const auto Reverse = [] {
    std::array<int16_t, 256> Table;
    Table.fill(-1);
    for (unsigned I = 0; I < NumOpcodes; ++I)
      Table[OpcodeTable[I].Byte] = static_cast<int16_t>(I);
    return Table;
  }();
  int16_t Index = Reverse[Byte];
  if (Index < 0)
    return false;
  Op = static_cast<Opcode>(Index);
  return true;
}

uint64_t encodeBlockTypeImm(BlockType Type) {
  if (!Type.HasResult)
    return 0;
  return 1 + static_cast<uint64_t>(Type.Result);
}

Instr Instr::f32Const(float Value) {
  uint32_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Instr(Opcode::F32Const, Bits);
}

Instr Instr::f64Const(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Instr(Opcode::F64Const, Bits);
}

Instr Instr::block(BlockType Type) {
  return Instr(Opcode::Block, encodeBlockTypeImm(Type));
}

Instr Instr::loop(BlockType Type) {
  return Instr(Opcode::Loop, encodeBlockTypeImm(Type));
}

Instr Instr::ifOp(BlockType Type) {
  return Instr(Opcode::If, encodeBlockTypeImm(Type));
}

float Instr::f32Value() const {
  assert(Op == Opcode::F32Const && "not an f32.const");
  uint32_t Bits = static_cast<uint32_t>(Imm0);
  float Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

double Instr::f64Value() const {
  assert(Op == Opcode::F64Const && "not an f64.const");
  uint64_t Bits = Imm0;
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

int32_t Instr::i32Value() const {
  assert(Op == Opcode::I32Const && "not an i32.const");
  return static_cast<int32_t>(static_cast<int64_t>(Imm0));
}

BlockType Instr::blockType() const {
  assert((Op == Opcode::Block || Op == Opcode::Loop || Op == Opcode::If) &&
         "not a block instruction");
  if (Imm0 == 0)
    return BlockType::empty();
  return BlockType::value(static_cast<ValType>(Imm0 - 1));
}

} // namespace wasm
} // namespace snowwhite
