#include "wasm/writer.h"

#include "support/bytes.h"
#include "support/leb128.h"

#include <cassert>

namespace snowwhite {
namespace wasm {

static void writeName(const std::string &Name, std::vector<uint8_t> &Out) {
  encodeULEB128(Name.size(), Out);
  Out.insert(Out.end(), Name.begin(), Name.end());
}

static void writeValType(ValType Type, std::vector<uint8_t> &Out) {
  Out.push_back(valTypeByte(Type));
}

void writeInstr(const Instr &I, std::vector<uint8_t> &Out) {
  Out.push_back(opcodeByte(I.Op));
  switch (opcodeImmKind(I.Op)) {
  case ImmKind::None:
    break;
  case ImmKind::BlockType:
    if (I.Imm0 == 0) {
      Out.push_back(0x40); // Empty block type.
    } else {
      // Value-type bytes coincide with their SLEB encodings (-1..-4).
      writeValType(static_cast<ValType>(I.Imm0 - 1), Out);
    }
    break;
  case ImmKind::Label:
  case ImmKind::Func:
  case ImmKind::Local:
  case ImmKind::Global:
  case ImmKind::MemIdx:
    encodeULEB128(I.Imm0, Out);
    break;
  case ImmKind::BrTable:
    encodeULEB128(I.Table.size(), Out);
    for (uint32_t Target : I.Table)
      encodeULEB128(Target, Out);
    encodeULEB128(I.Imm0, Out); // Default label.
    break;
  case ImmKind::CallIndirect:
    encodeULEB128(I.Imm0, Out); // Type index.
    encodeULEB128(I.Imm1, Out); // Table index.
    break;
  case ImmKind::Mem:
    encodeULEB128(I.Imm1, Out); // Alignment exponent.
    encodeULEB128(I.Imm0, Out); // Byte offset.
    break;
  case ImmKind::I32:
    encodeSLEB128(static_cast<int32_t>(static_cast<int64_t>(I.Imm0)), Out);
    break;
  case ImmKind::I64:
    encodeSLEB128(static_cast<int64_t>(I.Imm0), Out);
    break;
  case ImmKind::F32: // Imm0 holds the IEEE-754 bit pattern.
    bytes::Writer(Out).u32(static_cast<uint32_t>(I.Imm0));
    break;
  case ImmKind::F64:
    bytes::Writer(Out).u64(I.Imm0);
    break;
  }
}

/// Appends a section header (id + payload size) followed by the payload.
static void writeSection(uint8_t Id, const std::vector<uint8_t> &Payload,
                         std::vector<uint8_t> &Out) {
  Out.push_back(Id);
  encodeULEB128(Payload.size(), Out);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

std::vector<uint8_t> writeModule(Module &M) {
  std::vector<uint8_t> Out;
  // Magic and version. Reserve up front: sidesteps GCC 12's spurious
  // -Wstringop-overflow on the inlined grow-path memmove of insert-at-end
  // (the destination "size 0" it reports is the not-yet-grown allocation).
  Out.reserve(64);
  const uint8_t Header[] = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
  Out.insert(Out.end(), std::begin(Header), std::end(Header));

  // Type section (1).
  if (!M.Types.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Types.size(), Payload);
    for (const FuncType &Type : M.Types) {
      Payload.push_back(0x60);
      encodeULEB128(Type.Params.size(), Payload);
      for (ValType Param : Type.Params)
        writeValType(Param, Payload);
      encodeULEB128(Type.Results.size(), Payload);
      for (ValType ResultType : Type.Results)
        writeValType(ResultType, Payload);
    }
    writeSection(1, Payload, Out);
  }

  // Import section (2).
  if (!M.Imports.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Imports.size(), Payload);
    for (const FuncImport &Import : M.Imports) {
      writeName(Import.ModuleName, Payload);
      writeName(Import.FieldName, Payload);
      Payload.push_back(0x00); // Import kind: function.
      encodeULEB128(Import.TypeIndex, Payload);
    }
    writeSection(2, Payload, Out);
  }

  // Function section (3).
  if (!M.Functions.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Functions.size(), Payload);
    for (const Function &Func : M.Functions)
      encodeULEB128(Func.TypeIndex, Payload);
    writeSection(3, Payload, Out);
  }

  // Memory section (5).
  if (!M.Memories.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Memories.size(), Payload);
    for (const MemoryDecl &Memory : M.Memories) {
      Payload.push_back(Memory.HasMax ? 0x01 : 0x00);
      encodeULEB128(Memory.MinPages, Payload);
      if (Memory.HasMax)
        encodeULEB128(Memory.MaxPages, Payload);
    }
    writeSection(5, Payload, Out);
  }

  // Global section (6).
  if (!M.Globals.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Globals.size(), Payload);
    for (const GlobalDecl &Global : M.Globals) {
      writeValType(Global.Type, Payload);
      Payload.push_back(Global.Mutable ? 0x01 : 0x00);
      writeInstr(Global.Init, Payload);
      Payload.push_back(opcodeByte(Opcode::End));
    }
    writeSection(6, Payload, Out);
  }

  // Export section (7).
  if (!M.Exports.empty()) {
    std::vector<uint8_t> Payload;
    encodeULEB128(M.Exports.size(), Payload);
    for (const FuncExport &Export : M.Exports) {
      writeName(Export.Name, Payload);
      Payload.push_back(0x00); // Export kind: function.
      encodeULEB128(Export.FuncIndex, Payload);
    }
    writeSection(7, Payload, Out);
  }

  // Code section (10). Bodies are serialized first so their sizes are known;
  // CodeOffsets are assigned relative to the final file during assembly.
  if (!M.Functions.empty()) {
    std::vector<std::vector<uint8_t>> Bodies;
    Bodies.reserve(M.Functions.size());
    for (const Function &Func : M.Functions) {
      std::vector<uint8_t> Body;
      encodeULEB128(Func.Locals.size(), Body);
      for (const LocalRun &Run : Func.Locals) {
        encodeULEB128(Run.Count, Body);
        writeValType(Run.Type, Body);
      }
      for (const Instr &I : Func.Body)
        writeInstr(I, Body);
      Bodies.push_back(std::move(Body));
    }

    std::vector<uint8_t> Payload;
    encodeULEB128(M.Functions.size(), Payload);
    // Compute where the payload will start in the file: current size + 1 byte
    // section id + size of the payload-size ULEB.
    size_t PayloadSize = Payload.size();
    for (const std::vector<uint8_t> &Body : Bodies)
      PayloadSize += encodedULEB128Size(Body.size()) + Body.size();
    size_t PayloadStart = Out.size() + 1 + encodedULEB128Size(PayloadSize);

    size_t Cursor = PayloadStart + Payload.size();
    for (size_t I = 0; I < Bodies.size(); ++I) {
      M.Functions[I].CodeOffset = Cursor;
      encodeULEB128(Bodies[I].size(), Payload);
      Payload.insert(Payload.end(), Bodies[I].begin(), Bodies[I].end());
      Cursor = PayloadStart + Payload.size();
    }
    assert(Payload.size() == PayloadSize && "payload size mismatch");
    writeSection(10, Payload, Out);
  }

  // Custom sections (0), after the code section like LLVM emits debug info.
  for (const CustomSection &Section : M.Customs) {
    std::vector<uint8_t> Payload;
    writeName(Section.Name, Payload);
    Payload.insert(Payload.end(), Section.Bytes.begin(), Section.Bytes.end());
    writeSection(0, Payload, Out);
  }

  return Out;
}

} // namespace wasm
} // namespace snowwhite
