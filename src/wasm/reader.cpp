#include "wasm/reader.h"

#include "support/leb128.h"

#include <algorithm>
#include <cassert>

namespace snowwhite {
namespace wasm {

namespace {

// Hard resource caps. Counts inside a binary are attacker-controlled; before
// any allocation sized by a count, the count is checked against the bytes
// that would have to back it (every element costs >= 1 byte), and against
// these absolute ceilings so a well-formed-but-huge input cannot OOM either.
constexpr uint64_t MaxFlattenedLocals = 1u << 20;
constexpr uint32_t MaxBrTableTargets = 1u << 16;

/// How much of a decoded section is materialized up front. Section sizes are
/// attacker-controlled, so the buffer only ever *reserves* this much and
/// grows with actual bytes — a claimed multi-gigabyte section that truncates
/// after a kilobyte costs a kilobyte.
constexpr size_t SectionReserveBytes = 64 * 1024;

/// Scratch size for skipping undecoded sections chunk-by-chunk.
constexpr size_t SkipChunkBytes = 16 * 1024;

/// Bounded cursor over the input bytes with primitive readers. All readers
/// return false on truncation or malformed data.
class Cursor {
public:
  Cursor(const std::vector<uint8_t> &Buf, size_t Start, size_t Limit)
      : Bytes(Buf), Offset(Start), End(Limit) {
    assert(End <= Bytes.size() && "cursor end past buffer");
  }

  size_t offset() const { return Offset; }
  bool atEnd() const { return Offset >= End; }
  size_t remaining() const { return End - Offset; }

  bool readByte(uint8_t &Out) {
    if (Offset >= End)
      return false;
    Out = Bytes[Offset++];
    return true;
  }

  /// The reserved memory/table index byte of WebAssembly 1.0: exactly 0x00,
  /// with no longer LEB128 spelling.
  bool readReservedZero() {
    uint8_t Byte;
    return readByte(Byte) && Byte == 0x00;
  }

  bool readU32(uint32_t &Out) {
    uint64_t Wide;
    if (!readU64(Wide) || Wide > UINT32_MAX)
      return false;
    Out = static_cast<uint32_t>(Wide);
    return true;
  }

  bool readU64(uint64_t &Out) {
    size_t Local = Offset;
    if (!decodeULEB128(Bytes, Local, Out) || Local > End)
      return false;
    Offset = Local;
    return true;
  }

  bool readS64(int64_t &Out) {
    size_t Local = Offset;
    if (!decodeSLEB128(Bytes, Local, Out) || Local > End)
      return false;
    Offset = Local;
    return true;
  }

  bool readName(std::string &Out) {
    uint32_t Size;
    if (!readU32(Size) || remaining() < Size)
      return false;
    Out.assign(Bytes.begin() + Offset, Bytes.begin() + Offset + Size);
    Offset += Size;
    return true;
  }

  bool readValType(ValType &Out) {
    uint8_t Byte;
    return readByte(Byte) && valTypeFromByte(Byte, Out);
  }

  bool skip(size_t Count) {
    if (remaining() < Count)
      return false;
    Offset += Count;
    return true;
  }

private:
  const std::vector<uint8_t> &Bytes;
  size_t Offset;
  size_t End;
};

bool readInstrAt(Cursor &C, Instr &Out) {
  uint8_t Byte;
  if (!C.readByte(Byte))
    return false;
  Opcode Op;
  if (!opcodeFromByte(Byte, Op))
    return false;
  Out = Instr(Op);
  Out.Table.clear();
  switch (opcodeImmKind(Op)) {
  case ImmKind::None:
    return true;
  case ImmKind::BlockType: {
    uint8_t TypeByte;
    if (!C.readByte(TypeByte))
      return false;
    if (TypeByte == 0x40) {
      Out.Imm0 = 0;
      return true;
    }
    ValType Type;
    if (!valTypeFromByte(TypeByte, Type))
      return false;
    Out.Imm0 = 1 + static_cast<uint64_t>(Type);
    return true;
  }
  case ImmKind::Label:
  case ImmKind::Func:
  case ImmKind::Local:
  case ImmKind::Global:
    return C.readU64(Out.Imm0);
  case ImmKind::MemIdx:
    return C.readReservedZero();
  case ImmKind::BrTable: {
    uint32_t Count;
    if (!C.readU32(Count))
      return false;
    // Each target needs at least one byte; a count past the remaining bytes
    // (or the absolute cap) is an allocation bomb, not a table.
    if (Count > C.remaining() || Count > MaxBrTableTargets)
      return false;
    Out.Table.resize(Count);
    for (uint32_t I = 0; I < Count; ++I)
      if (!C.readU32(Out.Table[I]))
        return false;
    return C.readU64(Out.Imm0);
  }
  case ImmKind::CallIndirect:
    return C.readU64(Out.Imm0) && C.readReservedZero();
  case ImmKind::Mem: {
    uint32_t Align, Offset;
    if (!C.readU32(Align) || !C.readU32(Offset))
      return false;
    Out.Imm1 = Align;
    Out.Imm0 = Offset;
    return true;
  }
  case ImmKind::I32: {
    int64_t Value;
    if (!C.readS64(Value))
      return false;
    if (Value < INT32_MIN || Value > INT32_MAX)
      return false;
    Out.Imm0 = static_cast<uint64_t>(Value);
    return true;
  }
  case ImmKind::I64: {
    int64_t Value;
    if (!C.readS64(Value))
      return false;
    Out.Imm0 = static_cast<uint64_t>(Value);
    return true;
  }
  case ImmKind::F32: {
    uint64_t Bits = 0;
    for (int Shift = 0; Shift < 32; Shift += 8) {
      uint8_t B;
      if (!C.readByte(B))
        return false;
      Bits |= static_cast<uint64_t>(B) << Shift;
    }
    Out.Imm0 = Bits;
    return true;
  }
  case ImmKind::F64: {
    uint64_t Bits = 0;
    for (int Shift = 0; Shift < 64; Shift += 8) {
      uint8_t B;
      if (!C.readByte(B))
        return false;
      Bits |= static_cast<uint64_t>(B) << Shift;
    }
    Out.Imm0 = Bits;
    return true;
  }
  }
  return false;
}

/// True for the section ids this subset decodes into the Module; everything
/// else (tables, elements, data, ...) is skipped without materializing.
bool sectionIsDecoded(uint8_t SectionId) {
  switch (SectionId) {
  case 0:
  case 1:
  case 2:
  case 3:
  case 5:
  case 6:
  case 7:
  case 10:
    return true;
  default:
    return false;
  }
}

/// Decodes one section body into M. SectionBytes holds exactly the section
/// body; BaseOffset is its absolute offset in the module, so code-entry
/// offsets (Function::CodeOffset, the DWARF low_pc anchor) come out
/// identical however the bytes arrived. A handler consuming less than the
/// whole section is tolerated, as in the wasm spec's section framing.
Result<void> decodeSection(uint8_t SectionId,
                           const std::vector<uint8_t> &SectionBytes,
                           size_t BaseOffset, Module &M) {
  Cursor C(SectionBytes, 0, SectionBytes.size());
  switch (SectionId) {
  case 0: { // Custom.
    CustomSection Custom;
    if (!C.readName(Custom.Name))
      return Error(ErrorCode::Truncated, "bad custom section name");
    Custom.Bytes.assign(SectionBytes.begin() + C.offset(),
                        SectionBytes.end());
    M.Customs.push_back(std::move(Custom));
    break;
  }
  case 1: { // Type.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "type section: bad type count");
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "type section: type count " + std::to_string(Count) +
                       " exceeds remaining section bytes");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "type section: entry " + std::to_string(I) + ": ";
      uint8_t Form;
      if (!C.readByte(Form))
        return Error(ErrorCode::Truncated, Entry + "truncated type form");
      if (Form != 0x60)
        return Error(ErrorCode::Unsupported, Entry + "unsupported type form");
      FuncType Type;
      uint32_t NumParams;
      if (!C.readU32(NumParams))
        return Error(ErrorCode::Truncated, Entry + "bad param count");
      if (NumParams > C.remaining())
        return Error(ErrorCode::Malformed,
                     Entry + "param count " + std::to_string(NumParams) +
                         " exceeds remaining section bytes");
      Type.Params.resize(NumParams);
      for (uint32_t P = 0; P < NumParams; ++P)
        if (!C.readValType(Type.Params[P]))
          return Error(ErrorCode::Malformed, Entry + "bad param type");
      uint32_t NumResults;
      if (!C.readU32(NumResults))
        return Error(ErrorCode::Truncated, Entry + "bad result count");
      if (NumResults > 1)
        return Error(ErrorCode::Unsupported,
                     Entry + "multi-value results not supported");
      Type.Results.resize(NumResults);
      for (uint32_t R = 0; R < NumResults; ++R)
        if (!C.readValType(Type.Results[R]))
          return Error(ErrorCode::Malformed, Entry + "bad result type");
      M.Types.push_back(std::move(Type));
    }
    break;
  }
  case 2: { // Import.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "import section: bad import count");
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "import section: import count " + std::to_string(Count) +
                       " exceeds remaining section bytes");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "import section: entry " + std::to_string(I) + ": ";
      FuncImport Import;
      if (!C.readName(Import.ModuleName) || !C.readName(Import.FieldName))
        return Error(ErrorCode::Truncated, Entry + "bad import name");
      uint8_t Kind;
      if (!C.readByte(Kind))
        return Error(ErrorCode::Truncated, Entry + "bad import kind");
      if (Kind != 0x00)
        return Error(ErrorCode::Unsupported,
                     Entry + "only function imports supported");
      if (!C.readU32(Import.TypeIndex))
        return Error(ErrorCode::Truncated, Entry + "bad import type index");
      M.Imports.push_back(std::move(Import));
    }
    break;
  }
  case 3: { // Function.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated,
                   "function section: bad function count");
    // Every declared function costs at least one byte (its type index), so
    // a count past the remaining bytes cannot be satisfied; checking before
    // the resize defuses e.g. a 12-byte module claiming 2^31 functions.
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "function section: function count " +
                       std::to_string(Count) +
                       " exceeds remaining section bytes");
    M.Functions.resize(Count);
    for (uint32_t I = 0; I < Count; ++I)
      if (!C.readU32(M.Functions[I].TypeIndex))
        return Error(ErrorCode::Truncated,
                     "function section: func " + std::to_string(I) +
                         ": bad type index");
    break;
  }
  case 5: { // Memory.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "memory section: bad memory count");
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "memory section: memory count " + std::to_string(Count) +
                       " exceeds remaining section bytes");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "memory section: entry " + std::to_string(I) + ": ";
      MemoryDecl Memory;
      uint8_t Flags;
      if (!C.readByte(Flags))
        return Error(ErrorCode::Truncated, Entry + "bad memory flags");
      Memory.HasMax = Flags & 0x01;
      if (!C.readU32(Memory.MinPages))
        return Error(ErrorCode::Truncated, Entry + "bad memory min");
      if (Memory.HasMax && !C.readU32(Memory.MaxPages))
        return Error(ErrorCode::Truncated, Entry + "bad memory max");
      M.Memories.push_back(Memory);
    }
    break;
  }
  case 6: { // Global.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "global section: bad global count");
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "global section: global count " + std::to_string(Count) +
                       " exceeds remaining section bytes");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "global section: entry " + std::to_string(I) + ": ";
      GlobalDecl Global;
      if (!C.readValType(Global.Type))
        return Error(ErrorCode::Malformed, Entry + "bad global type");
      uint8_t Mutability;
      if (!C.readByte(Mutability))
        return Error(ErrorCode::Truncated, Entry + "bad global mutability");
      Global.Mutable = Mutability != 0;
      if (!readInstrAt(C, Global.Init))
        return Error(ErrorCode::Malformed, Entry + "bad global init");
      Instr EndInstr;
      if (!readInstrAt(C, EndInstr) || EndInstr.Op != Opcode::End)
        return Error(ErrorCode::Malformed,
                     Entry + "global init not terminated");
      M.Globals.push_back(Global);
    }
    break;
  }
  case 7: { // Export.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "export section: bad export count");
    if (Count > C.remaining())
      return Error(ErrorCode::Malformed,
                   "export section: export count " + std::to_string(Count) +
                       " exceeds remaining section bytes");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "export section: entry " + std::to_string(I) + ": ";
      FuncExport Export;
      if (!C.readName(Export.Name))
        return Error(ErrorCode::Truncated, Entry + "bad export name");
      uint8_t Kind;
      if (!C.readByte(Kind))
        return Error(ErrorCode::Truncated, Entry + "bad export kind");
      if (Kind != 0x00)
        return Error(ErrorCode::Unsupported,
                     Entry + "only function exports supported");
      if (!C.readU32(Export.FuncIndex))
        return Error(ErrorCode::Truncated, Entry + "bad export func index");
      M.Exports.push_back(std::move(Export));
    }
    break;
  }
  case 10: { // Code.
    uint32_t Count;
    if (!C.readU32(Count))
      return Error(ErrorCode::Truncated, "code section: bad code count");
    if (Count != M.Functions.size())
      return Error(ErrorCode::Malformed,
                   "code section: code/function section count mismatch");
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Entry = "code section: func " + std::to_string(I) + ": ";
      Function &Func = M.Functions[I];
      Func.CodeOffset = BaseOffset + C.offset();
      uint32_t BodySize;
      if (!C.readU32(BodySize))
        return Error(ErrorCode::Truncated, Entry + "bad body size");
      if (C.remaining() < BodySize)
        return Error(ErrorCode::Truncated,
                     Entry + "body extends past section");
      size_t BodyEnd = C.offset() + BodySize;
      Cursor BodyCursor(SectionBytes, C.offset(), BodyEnd);
      uint32_t NumRuns;
      if (!BodyCursor.readU32(NumRuns))
        return Error(ErrorCode::Truncated, Entry + "bad locals count");
      if (NumRuns > BodyCursor.remaining())
        return Error(ErrorCode::Malformed,
                     Entry + "local run count " + std::to_string(NumRuns) +
                         " exceeds remaining body bytes");
      uint64_t TotalLocals = 0;
      for (uint32_t R = 0; R < NumRuns; ++R) {
        LocalRun Run;
        if (!BodyCursor.readU32(Run.Count) ||
            !BodyCursor.readValType(Run.Type))
          return Error(ErrorCode::Malformed, Entry + "bad local run");
        // Run.Count is a multiplier the binary gets for free; cap the
        // flattened total so flattenedLocals()/validation cannot OOM.
        TotalLocals += Run.Count;
        if (TotalLocals > MaxFlattenedLocals)
          return Error(ErrorCode::LimitExceeded,
                       Entry + "more than " +
                           std::to_string(MaxFlattenedLocals) +
                           " flattened locals");
        Func.Locals.push_back(Run);
      }
      while (!BodyCursor.atEnd()) {
        Instr I2;
        if (!readInstrAt(BodyCursor, I2))
          return Error(ErrorCode::Malformed,
                       Entry + "bad instruction at body offset " +
                           std::to_string(BodyCursor.offset() -
                                          (BodyEnd - BodySize)));
        Func.Body.push_back(std::move(I2));
      }
      if (Func.Body.empty() || Func.Body.back().Op != Opcode::End)
        return Error(ErrorCode::Malformed,
                     Entry + "function body not terminated by end");
      if (!C.skip(BodySize))
        return Error(ErrorCode::Truncated, Entry + "body skip failed");
    }
    break;
  }
  default:
    break;
  }
  return {};
}

/// Reads up to N bytes from Source into Buf, looping over short reads.
/// Returns how many arrived (< N only at end of stream).
Result<size_t> fillExact(io::ByteSource &Source, uint8_t *Buf, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    Result<size_t> R = Source.readSome(Buf + Got, N - Got);
    if (R.isErr())
      return R;
    if (*R == 0)
      break;
    Got += *R;
  }
  return Got;
}

} // namespace

bool readInstr(const std::vector<uint8_t> &Bytes, size_t &Offset, Instr &Out) {
  Cursor C(Bytes, Offset, Bytes.size());
  if (!readInstrAt(C, Out))
    return false;
  Offset = C.offset();
  return true;
}

Result<Module> readModuleStreamed(io::ByteSource &Source,
                                  const ReadLimits &Limits) {
  uint8_t Header[8];
  Result<size_t> GotHeader = fillExact(Source, Header, 8);
  if (GotHeader.isErr())
    return GotHeader.error();
  if (*GotHeader < 8)
    return Error(ErrorCode::Truncated, "module too small for header");
  const uint8_t Expected[] = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
  for (int I = 0; I < 8; ++I)
    if (Header[I] != Expected[I])
      return Error(ErrorCode::Malformed, "bad magic or version");

  Module M;
  uint64_t ModuleBytes = 8;
  std::vector<uint8_t> SectionBytes;
  std::vector<uint8_t> LebBuf;
  uint8_t Chunk[SkipChunkBytes];
  for (;;) {
    if (Limits.Watchdog && Limits.Watchdog->expired())
      return Error(ErrorCode::Timeout,
                   "module decode exceeded its time budget");
    uint8_t SectionId;
    {
      Result<size_t> R = Source.readSome(&SectionId, 1);
      if (R.isErr())
        return R.error();
      if (*R == 0)
        break; // Clean end of module at a section boundary.
    }
    // Section size, pulled byte-by-byte so a truncated stream is detected
    // exactly where the buffered reader detects it. The bytes run through
    // decodeULEB128 afterwards so over-long-encoding rejection matches too.
    LebBuf.clear();
    for (;;) {
      uint8_t B;
      Result<size_t> R = Source.readSome(&B, 1);
      if (R.isErr())
        return R.error();
      if (*R == 0)
        return Error(ErrorCode::Truncated, "truncated section size");
      LebBuf.push_back(B);
      if (!(B & 0x80) || LebBuf.size() >= 10)
        break;
    }
    uint64_t SectionSize64 = 0;
    size_t LebOffset = 0;
    if (!decodeULEB128(LebBuf, LebOffset, SectionSize64) ||
        SectionSize64 > UINT32_MAX)
      return Error(ErrorCode::Truncated, "truncated section size");
    uint32_t SectionSize = static_cast<uint32_t>(SectionSize64);

    if (SectionSize64 > Limits.MaxSectionBytes)
      return Error(ErrorCode::LimitExceeded,
                   "section " + std::to_string(SectionId) + ": size " +
                       std::to_string(SectionSize64) +
                       " exceeds the per-section byte budget " +
                       std::to_string(Limits.MaxSectionBytes));
    ModuleBytes += 1 + LebBuf.size() + SectionSize64;
    if (ModuleBytes > Limits.MaxModuleBytes)
      return Error(ErrorCode::LimitExceeded,
                   "module exceeds the whole-module byte budget " +
                       std::to_string(Limits.MaxModuleBytes));

    bool Decoded = sectionIsDecoded(SectionId);
    size_t BaseOffset = static_cast<size_t>(Source.consumed());
    SectionBytes.clear();
    if (Decoded)
      SectionBytes.reserve(
          std::min<uint64_t>(SectionSize, SectionReserveBytes));
    uint64_t Left = SectionSize;
    while (Left > 0) {
      if (Limits.Watchdog && Limits.Watchdog->expired())
        return Error(ErrorCode::Timeout,
                     "module decode exceeded its time budget");
      size_t Want = static_cast<size_t>(
          std::min<uint64_t>(Left, sizeof(Chunk)));
      Result<size_t> R = Source.readSome(Chunk, Want);
      if (R.isErr())
        return R.error();
      if (*R == 0)
        return Error(ErrorCode::Truncated,
                     "section " + std::to_string(SectionId) +
                         " extends past end of file");
      if (Decoded)
        SectionBytes.insert(SectionBytes.end(), Chunk, Chunk + *R);
      Left -= *R;
    }
    if (Decoded) {
      Result<void> DecodedSection =
          decodeSection(SectionId, SectionBytes, BaseOffset, M);
      if (DecodedSection.isErr())
        return DecodedSection.error();
    }
  }
  return M;
}

Result<Module> readModule(const std::vector<uint8_t> &Bytes) {
  io::MemoryByteSource Source(Bytes);
  return readModuleStreamed(Source);
}

} // namespace wasm
} // namespace snowwhite
