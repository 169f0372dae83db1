//===- tests/wasm_test.cpp - WebAssembly substrate unit tests --------------===//

#include "support/hash.h"
#include "support/rng.h"
#include "wasm/abstract.h"
#include "wasm/instr.h"
#include "wasm/module.h"
#include "wasm/reader.h"
#include "wasm/text.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include <gtest/gtest.h>

namespace snowwhite {
namespace wasm {
namespace {

// --- Value types ---------------------------------------------------------

TEST(ValTypes, ByteRoundtrip) {
  for (ValType Type : {ValType::I32, ValType::I64, ValType::F32, ValType::F64}) {
    ValType Decoded;
    ASSERT_TRUE(valTypeFromByte(valTypeByte(Type), Decoded));
    EXPECT_EQ(Decoded, Type);
  }
}

TEST(ValTypes, KnownBytes) {
  EXPECT_EQ(valTypeByte(ValType::I32), 0x7f);
  EXPECT_EQ(valTypeByte(ValType::F64), 0x7c);
  ValType Decoded;
  EXPECT_FALSE(valTypeFromByte(0x60, Decoded));
}

TEST(ValTypes, Names) {
  EXPECT_STREQ(valTypeName(ValType::I32), "i32");
  EXPECT_STREQ(valTypeName(ValType::F64), "f64");
}

// --- Opcode table ---------------------------------------------------------

unsigned valTypeBytes(ValType Type) {
  return Type == ValType::I64 || Type == ValType::F64 ? 8 : 4;
}

TEST(Opcodes, TableIsConsistent) {
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    const OpcodeInfo &Info = opcodeInfo(Op);
    Opcode Back;
    ASSERT_TRUE(opcodeFromByte(opcodeByte(Op), Back)) << Info.Name;
    EXPECT_EQ(Back, Op) << Info.Name;

    // A memarg immediate exactly on the loads and stores, each with a
    // power-of-two width no wider than the value it moves.
    bool Memory = Info.Class == OpClass::Load || Info.Class == OpClass::Store;
    EXPECT_EQ(Info.Imm == ImmKind::Mem, Memory) << Info.Name;
    if (Memory) {
      EXPECT_TRUE(Info.AccessBytes == 1 || Info.AccessBytes == 2 ||
                  Info.AccessBytes == 4 || Info.AccessBytes == 8)
          << Info.Name;
      ValType Moved =
          Info.Class == OpClass::Load ? Info.Result : Info.Operands[1];
      EXPECT_LE(Info.AccessBytes, valTypeBytes(Moved)) << Info.Name;
    } else {
      EXPECT_EQ(Info.AccessBytes, 0) << Info.Name;
    }

    // Only control, calls, variables and parametric opcodes are typed by
    // hand; every other row carries a signature.
    bool Dynamic = Info.Class == OpClass::Control ||
                   Info.Class == OpClass::Call ||
                   Info.Class == OpClass::Variable ||
                   Info.Class == OpClass::Parametric;
    EXPECT_EQ(Info.Fixed, !Dynamic) << Info.Name;
    if (Info.Fixed) {
      EXPECT_TRUE(Info.NumOperands > 0 || Info.HasResult) << Info.Name;
    }
  }
}

TEST(Opcodes, ControlClassIsTheBlockBoundarySet) {
  // buildCfg gives each of these its own basic block and coalesces the rest.
  const std::vector<Opcode> Expected = {
      Opcode::Unreachable, Opcode::Block, Opcode::Loop, Opcode::If,
      Opcode::Else,        Opcode::End,   Opcode::Br,   Opcode::BrIf,
      Opcode::BrTable,     Opcode::Return};
  std::vector<Opcode> Control;
  for (unsigned I = 0; I < NumOpcodes; ++I)
    if (opcodeInfo(static_cast<Opcode>(I)).Class == OpClass::Control)
      Control.push_back(static_cast<Opcode>(I));
  EXPECT_EQ(Control, Expected);
}

TEST(Opcodes, SignednessIsTheMnemonicSuffix) {
  EXPECT_EQ(opcodeInfo(Opcode::I32Load8S).Sign, OpSign::Signed);
  EXPECT_EQ(opcodeInfo(Opcode::I64Load32U).Sign, OpSign::Unsigned);
  EXPECT_EQ(opcodeInfo(Opcode::I32Load).Sign, OpSign::None);
  EXPECT_EQ(opcodeInfo(Opcode::I32TruncF64S).Sign, OpSign::Signed);
  EXPECT_EQ(opcodeInfo(Opcode::I32WrapI64).Sign, OpSign::None);
}

TEST(Opcodes, KnownEncodings) {
  EXPECT_EQ(opcodeByte(Opcode::Unreachable), 0x00);
  EXPECT_EQ(opcodeByte(Opcode::I32Const), 0x41);
  EXPECT_EQ(opcodeByte(Opcode::End), 0x0b);
  EXPECT_EQ(opcodeByte(Opcode::F64PromoteF32), 0xbb);
  EXPECT_STREQ(opcodeName(Opcode::I32Load8U), "i32.load8_u");
  EXPECT_EQ(opcodeImmKind(Opcode::F64Load), ImmKind::Mem);
  EXPECT_EQ(opcodeImmKind(Opcode::Call), ImmKind::Func);
}

TEST(Opcodes, UnknownByteRejected) {
  Opcode Op;
  EXPECT_FALSE(opcodeFromByte(0x12, Op)); // Gap in the MVP opcode space.
  EXPECT_FALSE(opcodeFromByte(0xff, Op));
}

// --- Instruction encode/decode roundtrip -----------------------------------

class InstrRoundtrip : public ::testing::TestWithParam<Instr> {};

TEST_P(InstrRoundtrip, EncodeDecode) {
  Instr Original = GetParam();
  std::vector<uint8_t> Buffer;
  writeInstr(Original, Buffer);
  size_t Offset = 0;
  Instr Decoded;
  ASSERT_TRUE(readInstr(Buffer, Offset, Decoded));
  EXPECT_EQ(Offset, Buffer.size());
  EXPECT_EQ(Decoded, Original);
}

static std::vector<Instr> roundtripCases() {
  std::vector<Instr> Cases = {
      Instr(Opcode::Nop),
      Instr(Opcode::Unreachable),
      Instr::i32Const(0),
      Instr::i32Const(-1),
      Instr::i32Const(INT32_MAX),
      Instr::i32Const(INT32_MIN),
      Instr::i64Const(1234567890123LL),
      Instr::i64Const(-98765),
      Instr::f32Const(3.5f),
      Instr::f32Const(-0.0f),
      Instr::f64Const(2.718281828),
      Instr::localGet(0),
      Instr::localGet(200),
      Instr::localSet(7),
      Instr::localTee(3),
      Instr::globalGet(1),
      Instr(Opcode::GlobalSet, 0),
      Instr::call(42),
      Instr(Opcode::CallIndirect, 3, 0),
      Instr::load(Opcode::I32Load, 8, 2),
      Instr::load(Opcode::F64Load, 16, 3),
      Instr::load(Opcode::I32Load8U, 0, 0),
      Instr::store(Opcode::I64Store32, 12, 2),
      Instr::block(),
      Instr::block(BlockType::value(ValType::F64)),
      Instr::loop(),
      Instr::ifOp(BlockType::value(ValType::I32)),
      Instr::br(2),
      Instr::brIf(0),
      Instr(Opcode::Return),
      Instr(Opcode::Drop),
      Instr(Opcode::Select),
      Instr(Opcode::MemorySize, 0),
      Instr(Opcode::MemoryGrow, 0),
      Instr(Opcode::I32Add),
      Instr(Opcode::F64Sqrt),
      Instr(Opcode::I64Extend32S),
  };
  Instr Table(Opcode::BrTable, 1);
  Table.Table = {0, 2, 1};
  Cases.push_back(Table);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, InstrRoundtrip,
                         ::testing::ValuesIn(roundtripCases()));

TEST(Instr, FloatConstValueAccessors) {
  EXPECT_FLOAT_EQ(Instr::f32Const(1.25f).f32Value(), 1.25f);
  EXPECT_DOUBLE_EQ(Instr::f64Const(-8.5).f64Value(), -8.5);
  EXPECT_EQ(Instr::i32Const(-7).i32Value(), -7);
}

TEST(Instr, BlockTypeAccessor) {
  EXPECT_FALSE(Instr::block().blockType().HasResult);
  BlockType WithResult = Instr::loop(BlockType::value(ValType::F32)).blockType();
  ASSERT_TRUE(WithResult.HasResult);
  EXPECT_EQ(WithResult.Result, ValType::F32);
}

// --- Module helpers --------------------------------------------------------

static Module makeTinyModule() {
  Module M;
  FuncType Type;
  Type.Params = {ValType::I32};
  Type.Results = {ValType::F64};
  Function Func;
  Func.TypeIndex = M.internType(Type);
  Func.Locals = {{2, ValType::I32}, {1, ValType::F64}};
  Func.Body = {Instr::localGet(0), Instr::load(Opcode::F64Load, 8, 3),
               Instr(Opcode::End)};
  M.Functions.push_back(Func);
  M.Memories.push_back(MemoryDecl{1, true, 4});
  M.Exports.push_back({"f", 0});
  return M;
}

TEST(Module, InternTypeDeduplicates) {
  Module M;
  FuncType A;
  A.Params = {ValType::I32};
  FuncType B;
  B.Params = {ValType::I32};
  EXPECT_EQ(M.internType(A), M.internType(B));
  FuncType C;
  C.Params = {ValType::I64};
  EXPECT_NE(M.internType(A), M.internType(C));
}

TEST(Module, FlattenedLocals) {
  Function Func;
  Func.Locals = {{2, ValType::I32}, {1, ValType::F64}};
  std::vector<ValType> Flat = Func.flattenedLocals();
  ASSERT_EQ(Flat.size(), 3u);
  EXPECT_EQ(Flat[0], ValType::I32);
  EXPECT_EQ(Flat[2], ValType::F64);
}

TEST(Module, FunctionSpaceIndexAccountsForImports) {
  Module M = makeTinyModule();
  M.Imports.push_back({"env", "x", 0});
  EXPECT_EQ(M.functionSpaceIndex(0), 1u);
}

// --- Binary writer/reader roundtrip ------------------------------------------

TEST(BinaryRoundtrip, TinyModule) {
  Module M = makeTinyModule();
  std::vector<uint8_t> Bytes = writeModule(M);
  // Magic + version.
  ASSERT_GE(Bytes.size(), 8u);
  EXPECT_EQ(Bytes[0], 0x00);
  EXPECT_EQ(Bytes[1], 'a');
  EXPECT_EQ(Bytes[2], 's');
  EXPECT_EQ(Bytes[3], 'm');

  Result<Module> Back = readModule(Bytes);
  ASSERT_TRUE(Back.isOk()) << Back.error().message();
  EXPECT_EQ(Back->Types.size(), M.Types.size());
  ASSERT_EQ(Back->Functions.size(), 1u);
  EXPECT_EQ(Back->Functions[0].Body, M.Functions[0].Body);
  EXPECT_EQ(Back->Functions[0].Locals, M.Functions[0].Locals);
  EXPECT_EQ(Back->Exports.size(), 1u);
  EXPECT_EQ(Back->Exports[0].Name, "f");
  ASSERT_EQ(Back->Memories.size(), 1u);
  EXPECT_TRUE(Back->Memories[0].HasMax);
  EXPECT_EQ(Back->Memories[0].MaxPages, 4u);
}

TEST(BinaryRoundtrip, CodeOffsetsMatchBetweenWriterAndReader) {
  Module M = makeTinyModule();
  // Add a second function so offsets differ.
  Function Func2;
  FuncType VoidType;
  Func2.TypeIndex = M.internType(VoidType);
  Func2.Body = {Instr(Opcode::Nop), Instr(Opcode::End)};
  M.Functions.push_back(Func2);

  std::vector<uint8_t> Bytes = writeModule(M);
  Result<Module> Back = readModule(Bytes);
  ASSERT_TRUE(Back.isOk());
  ASSERT_EQ(Back->Functions.size(), 2u);
  EXPECT_EQ(Back->Functions[0].CodeOffset, M.Functions[0].CodeOffset);
  EXPECT_EQ(Back->Functions[1].CodeOffset, M.Functions[1].CodeOffset);
  EXPECT_GT(M.Functions[1].CodeOffset, M.Functions[0].CodeOffset);
}

TEST(BinaryRoundtrip, ImportsGlobalsCustoms) {
  Module M = makeTinyModule();
  M.Imports.push_back({"env", "callback", 0});
  M.Globals.push_back({ValType::I32, true, Instr::i32Const(65536)});
  M.Globals.push_back({ValType::F64, false, Instr::f64Const(1.5)});
  M.Customs.push_back({".debug_info", {1, 2, 3, 4}});
  M.Customs.push_back({"name", {}});

  Result<Module> Back = readModule(writeModule(M));
  ASSERT_TRUE(Back.isOk()) << Back.error().message();
  ASSERT_EQ(Back->Imports.size(), 1u);
  EXPECT_EQ(Back->Imports[0].FieldName, "callback");
  ASSERT_EQ(Back->Globals.size(), 2u);
  EXPECT_TRUE(Back->Globals[0].Mutable);
  EXPECT_FALSE(Back->Globals[1].Mutable);
  EXPECT_EQ(Back->Globals[1].Init, Instr::f64Const(1.5));
  ASSERT_EQ(Back->Customs.size(), 2u);
  EXPECT_EQ(Back->Customs[0].Name, ".debug_info");
  EXPECT_EQ(Back->Customs[0].Bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_NE(Back->findCustom(".debug_info"), nullptr);
  EXPECT_EQ(Back->findCustom(".missing"), nullptr);
}

TEST(Reader, RejectsGarbage) {
  EXPECT_TRUE(readModule({}).isErr());
  EXPECT_TRUE(readModule({0, 1, 2, 3, 4, 5, 6, 7}).isErr());
  std::vector<uint8_t> BadVersion = {0x00, 'a', 's', 'm', 2, 0, 0, 0};
  EXPECT_TRUE(readModule(BadVersion).isErr());
}

TEST(Reader, RejectsTruncatedSection) {
  Module M = makeTinyModule();
  std::vector<uint8_t> Bytes = writeModule(M);
  Bytes.resize(Bytes.size() - 3);
  EXPECT_TRUE(readModule(Bytes).isErr());
}

/// Decodes one instruction from Bytes; true when the whole encoding is read.
bool decodes(const std::vector<uint8_t> &Bytes, Instr &Out) {
  size_t Offset = 0;
  return readInstr(Bytes, Offset, Out) && Offset == Bytes.size();
}

TEST(Reader, ReservedIndexByteMustBeZero) {
  Instr Decoded;
  EXPECT_TRUE(decodes({0x3f, 0x00}, Decoded)); // memory.size 0
  EXPECT_FALSE(decodes({0x3f, 0x05}, Decoded));
  EXPECT_FALSE(decodes({0x3f, 0x80, 0x00}, Decoded)); // 0, but not one byte.
  EXPECT_TRUE(decodes({0x40, 0x00}, Decoded)); // memory.grow 0
  EXPECT_FALSE(decodes({0x40, 0x01}, Decoded));
  EXPECT_TRUE(decodes({0x11, 0x03, 0x00}, Decoded)); // call_indirect 3 0
  EXPECT_EQ(Decoded, Instr(Opcode::CallIndirect, 3, 0));
  EXPECT_FALSE(decodes({0x11, 0x03, 0x01}, Decoded));
  EXPECT_FALSE(decodes({0x11, 0x03, 0x80, 0x00}, Decoded));
}

TEST(Reader, MemargFieldsMustFitU32) {
  Instr Decoded;
  // i32.load align=2 offset=2^32-1: the largest offset there is.
  ASSERT_TRUE(decodes({0x28, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}, Decoded));
  EXPECT_EQ(Decoded, Instr::load(Opcode::I32Load, 0xffffffffu, 2));
  // Offset 2^32.
  EXPECT_FALSE(decodes({0x28, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10}, Decoded));
  // Alignment exponent 2^32.
  EXPECT_FALSE(decodes({0x28, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}, Decoded));
}

TEST(Reader, RejectsNonzeroMemoryIndexInModule) {
  Module M = makeTinyModule();
  Function F;
  F.TypeIndex = M.internType(FuncType{{}, {ValType::I32}});
  F.Body = {Instr(Opcode::MemorySize, 0), Instr(Opcode::End)};
  M.Functions.push_back(F);
  ASSERT_TRUE(readModule(writeModule(M)).isOk());
  M.Functions.back().Body[0].Imm0 = 5; // The writer emits it as given.
  EXPECT_TRUE(readModule(writeModule(M)).isErr());
}

// --- Text printing ------------------------------------------------------------

TEST(Text, InstrTokensBasics) {
  EXPECT_EQ(instrTokens(Instr::i32Const(42)),
            (std::vector<std::string>{"i32.const", "42"}));
  EXPECT_EQ(instrTokens(Instr::localGet(3)),
            (std::vector<std::string>{"local.get", "3"}));
  EXPECT_EQ(instrTokens(Instr(Opcode::I32Add)),
            (std::vector<std::string>{"i32.add"}));
}

TEST(Text, MemoryTokensOmitAlignment) {
  Instr Load = Instr::load(Opcode::F64Load, 8, 3);
  EXPECT_EQ(instrToString(Load), "f64.load offset=8");
  TokenOptions Full;
  Full.OmitAlignment = false;
  EXPECT_EQ(instrToString(Load, Full), "f64.load offset=8 align=8");
}

TEST(Text, CallTokensOmitIndex) {
  EXPECT_EQ(instrToString(Instr::call(17)), "call");
  TokenOptions Full;
  Full.OmitCallIndex = false;
  EXPECT_EQ(instrToString(Instr::call(17), Full), "call 17");
}

TEST(Text, BlockWithResult) {
  EXPECT_EQ(instrToString(Instr::block(BlockType::value(ValType::I32))),
            "block (result i32)");
}

TEST(Text, PrintFunctionShowsOffsetsAndNesting) {
  Module M = makeTinyModule();
  (void)writeModule(M);
  std::string Printed = printFunction(M, 0);
  EXPECT_NE(Printed.find("local.get 0"), std::string::npos);
  EXPECT_NE(Printed.find("f64.load"), std::string::npos);
  EXPECT_NE(Printed.find("(param i32) (result f64)"), std::string::npos);
}

// --- Abstraction / dedup signatures -------------------------------------------

TEST(Abstract, RemovesImmediates) {
  EXPECT_EQ(abstractInstr(Instr::localGet(5)), "local.get");
  EXPECT_EQ(abstractInstr(Instr::load(Opcode::I32Load, 8, 2)), "i32.load");
}

TEST(Abstract, SignatureIgnoresImmediatesButNotOpcodes) {
  Module A = makeTinyModule();
  Module B = makeTinyModule();
  B.Functions[0].Body[1] = Instr::load(Opcode::F64Load, 64, 3);
  EXPECT_EQ(approximateModuleSignature(A), approximateModuleSignature(B));

  Module C = makeTinyModule();
  C.Functions[0].Body[1] = Instr::load(Opcode::F32Load, 8, 2);
  EXPECT_NE(approximateModuleSignature(A), approximateModuleSignature(C));
}

// Audit (issue 6): every immediate-carrying opcode in opcodes.def must
// abstract to its bare mnemonic — memarg align/offset, br_table targets,
// call_indirect type index, constants, all of it.
TEST(Abstract, EveryImmediateCarryingOpcodeStripsToBareMnemonic) {
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    if (opcodeImmKind(Op) == ImmKind::None)
      continue;
    Instr A(Op, 1, 2);
    Instr B(Op, 0xdeadbeef, 13);
    A.Table = {1, 2, 3};
    B.Table = {9};
    EXPECT_EQ(abstractInstr(A), opcodeName(Op)) << opcodeName(Op);
    EXPECT_EQ(abstractInstr(A), abstractInstr(B)) << opcodeName(Op);
  }
}

// The hash and its collision-check key must be incapable of drifting apart:
// the hash is defined as the hash of the abstraction string.
TEST(Abstract, HashIsHashOfAbstractionString) {
  Module M = makeTinyModule();
  const Function &F = M.Functions[0];
  EXPECT_EQ(abstractFunctionSignature(F), "local.get f64.load end");
  EXPECT_EQ(abstractFunctionHash(F), hashString(abstractFunctionSignature(F)));
  EXPECT_EQ(approximateModuleSignature(M), hashString(moduleAbstraction(M)));
}

// Property: abstraction of a function is invariant under arbitrary
// immediate rewriting — a body spanning the whole opcode table keeps a
// byte-identical signature (and hash) no matter what the mutator writes
// into Imm0/Imm1/Table.
TEST(Abstract, InvariantUnderImmediateRewriting) {
  Function F;
  for (unsigned I = 0; I < NumOpcodes; ++I)
    F.Body.push_back(Instr(static_cast<Opcode>(I)));
  std::string Base = abstractFunctionSignature(F);
  uint64_t BaseHash = abstractFunctionHash(F);

  Rng R(0xab5712);
  for (int Round = 0; Round < 32; ++Round) {
    Function G = F;
    for (Instr &Ins : G.Body) {
      if (opcodeImmKind(Ins.Op) == ImmKind::None)
        continue;
      Ins.Imm0 = R.next();
      Ins.Imm1 = R.next();
      if (opcodeImmKind(Ins.Op) == ImmKind::BrTable) {
        Ins.Table.clear();
        size_t Targets = R.nextBelow(6);
        for (size_t T = 0; T < Targets; ++T)
          Ins.Table.push_back(static_cast<uint32_t>(R.nextBelow(16)));
      }
    }
    ASSERT_EQ(abstractFunctionSignature(G), Base);
    ASSERT_EQ(abstractFunctionHash(G), BaseHash);
  }
}

TEST(Abstract, SignatureIsOrderSensitive) {
  Module A = makeTinyModule();
  Function Extra;
  FuncType VoidType;
  Extra.TypeIndex = A.internType(VoidType);
  Extra.Body = {Instr(Opcode::Nop), Instr(Opcode::End)};
  Module B = A;
  A.Functions.push_back(Extra);       // [f, extra]
  B.Functions.insert(B.Functions.begin(), Extra); // [extra, f]
  EXPECT_NE(approximateModuleSignature(A), approximateModuleSignature(B));
}

// --- Validation ---------------------------------------------------------------

static Module moduleWithBody(std::vector<Instr> Body,
                             std::vector<ValType> Params = {},
                             std::vector<ValType> Results = {}) {
  Module M;
  FuncType Type;
  Type.Params = std::move(Params);
  Type.Results = std::move(Results);
  Function Func;
  Func.TypeIndex = M.internType(Type);
  Func.Body = std::move(Body);
  M.Functions.push_back(std::move(Func));
  M.Memories.push_back(MemoryDecl{1, false, 0});
  return M;
}

TEST(Validate, AcceptsMinimalFunction) {
  Module M = moduleWithBody({Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isOk());
}

TEST(Validate, AcceptsArithmeticAndReturn) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr::i32Const(2),
                             Instr(Opcode::I32Add), Instr(Opcode::End)},
                            {}, {ValType::I32});
  EXPECT_TRUE(validateModule(M).isOk());
}

TEST(Validate, RejectsTypeMismatch) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr::f64Const(2.0),
                             Instr(Opcode::I32Add), Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, RejectsStackUnderflow) {
  Module M = moduleWithBody({Instr(Opcode::I32Add), Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, RejectsLeftoverValues) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, RejectsMissingReturnValue) {
  Module M = moduleWithBody({Instr(Opcode::End)}, {}, {ValType::I32});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, AcceptsBlocksAndBranches) {
  Module M = moduleWithBody({
      Instr::block(),
      Instr::i32Const(1),
      Instr::brIf(0),
      Instr(Opcode::End),
      Instr::block(BlockType::value(ValType::I32)),
      Instr::i32Const(5),
      Instr(Opcode::End),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
  });
  Result<void> Status = validateModule(M);
  EXPECT_TRUE(Status.isOk()) << Status.error().message();
}

TEST(Validate, RejectsBranchDepthOutOfRange) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr::brIf(5),
                             Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, AcceptsLoopWithBackEdge) {
  Module M = moduleWithBody({
      Instr::block(),
      Instr::loop(),
      Instr::i32Const(0),
      Instr::brIf(1),
      Instr::br(0),
      Instr(Opcode::End),
      Instr(Opcode::End),
      Instr(Opcode::End),
  });
  Result<void> Status = validateModule(M);
  EXPECT_TRUE(Status.isOk()) << Status.error().message();
}

TEST(Validate, UnreachableCodeIsPolymorphic) {
  Module M = moduleWithBody(
      {Instr(Opcode::Unreachable), Instr(Opcode::I32Add), Instr(Opcode::End)},
      {}, {ValType::I32});
  Result<void> Status = validateModule(M);
  EXPECT_TRUE(Status.isOk()) << Status.error().message();
}

TEST(Validate, ChecksLocalTypes) {
  Module M = moduleWithBody({Instr::localGet(0), Instr(Opcode::F64Sqrt),
                             Instr(Opcode::Drop), Instr(Opcode::End)},
                            {ValType::I32});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, ChecksLocalIndexBounds) {
  Module M = moduleWithBody({Instr::localGet(3), Instr(Opcode::Drop),
                             Instr(Opcode::End)},
                            {ValType::I32});
  EXPECT_TRUE(validateModule(M).isErr());
}

TEST(Validate, ChecksCallSignature) {
  Module M = moduleWithBody({Instr::call(0), Instr(Opcode::End)});
  // Function 0 is this very function (no imports): () -> (), so the call is
  // fine; a call with a bogus index is not.
  EXPECT_TRUE(validateModule(M).isOk());
  Module Bad = moduleWithBody({Instr::call(9), Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(Bad).isErr());
}

TEST(Validate, ChecksStoreOperands) {
  Module M = moduleWithBody({Instr::i32Const(0), Instr::f64Const(1.0),
                             Instr::store(Opcode::F64Store, 0, 3),
                             Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(M).isOk());
  Module Bad = moduleWithBody({Instr::i32Const(0), Instr::i32Const(1),
                               Instr::store(Opcode::F64Store, 0, 3),
                               Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(Bad).isErr());
}

TEST(Validate, ChecksImmutableGlobal) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr(Opcode::GlobalSet, 0),
                             Instr(Opcode::End)});
  M.Globals.push_back({ValType::I32, false, Instr::i32Const(0)});
  EXPECT_TRUE(validateModule(M).isErr());
  M.Globals[0].Mutable = true;
  EXPECT_TRUE(validateModule(M).isOk());
}

TEST(Validate, IfWithElseProducingValue) {
  Module M = moduleWithBody({
      Instr::i32Const(1),
      Instr::ifOp(BlockType::value(ValType::I32)),
      Instr::i32Const(10),
      Instr(Opcode::Else),
      Instr::i32Const(20),
      Instr(Opcode::End),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
  });
  Result<void> Status = validateModule(M);
  EXPECT_TRUE(Status.isOk()) << Status.error().message();
}

TEST(Validate, RejectsIfResultWithoutElse) {
  Module M = moduleWithBody({
      Instr::i32Const(1),
      Instr::ifOp(BlockType::value(ValType::I32)),
      Instr::i32Const(10),
      Instr(Opcode::End),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
  });
  EXPECT_TRUE(validateModule(M).isErr());
}

// --- Regressions for gaps found by the analysis-subsystem audit ---------------

TEST(Validate, RejectsOverAlignedAccess) {
  // Alignment exponent must not exceed log2(natural width): 1 << 6 = 64
  // bytes claimed for a 4-byte store.
  Module Store = moduleWithBody({Instr::i32Const(0), Instr::i32Const(0),
                                 Instr::store(Opcode::I32Store, 0, 6),
                                 Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(Store).isErr());

  Module Load = moduleWithBody({Instr::i32Const(0),
                                Instr::load(Opcode::I32Load8U, 0, 1),
                                Instr(Opcode::Drop), Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(Load).isErr());

  // Natural alignment stays accepted.
  Module Natural = moduleWithBody({Instr::i32Const(0), Instr::i32Const(0),
                                   Instr::store(Opcode::I32Store, 0, 2),
                                   Instr(Opcode::End)});
  EXPECT_TRUE(validateModule(Natural).isOk());
}

TEST(Validate, RejectsDuplicateExportNames) {
  Module M = moduleWithBody({Instr(Opcode::End)});
  M.Exports.push_back(FuncExport{"f", 0});
  M.Exports.push_back(FuncExport{"f", 0});
  Result<void> Status = validateModule(M);
  ASSERT_TRUE(Status.isErr());
  EXPECT_NE(Status.error().message().find("duplicate export"),
            std::string::npos);
}

TEST(Validate, RejectsMemoryMinAboveMax) {
  Module M = moduleWithBody({Instr(Opcode::End)});
  M.Memories[0] = MemoryDecl{4, true, 2};
  Result<void> Status = validateModule(M);
  ASSERT_TRUE(Status.isErr());
  EXPECT_NE(Status.error().message().find("memory minimum exceeds maximum"),
            std::string::npos);
}

TEST(Validate, RejectsGlobalInitTypeMismatch) {
  Module M = moduleWithBody({Instr(Opcode::End)});
  GlobalDecl Global;
  Global.Type = ValType::F64;
  Global.Init = Instr::i32Const(1);
  M.Globals.push_back(Global);
  Result<void> Status = validateModule(M);
  ASSERT_TRUE(Status.isErr());
  EXPECT_NE(Status.error().message().find("global initializer type mismatch"),
            std::string::npos);
}

} // namespace
} // namespace wasm
} // namespace snowwhite
