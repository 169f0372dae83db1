#include "dwarf/io.h"

#include "support/bytes.h"
#include "support/leb128.h"

#include <map>
#include <unordered_map>

namespace snowwhite {
namespace dwarf {

namespace {

// Attribute form codes used by this writer (subset of DW_FORM_*).
constexpr uint8_t FormUdata = 0x0f; // ULEB constant (DW_FORM_udata).
constexpr uint8_t FormStrp = 0x0e;  // 4-byte .debug_str offset (DW_FORM_strp).
constexpr uint8_t FormRef4 = 0x13;  // 4-byte .debug_info offset (DW_FORM_ref4).
constexpr uint8_t FormFlag = 0x0c;  // 1-byte flag (DW_FORM_flag).

/// Interns strings into a .debug_str image, reusing offsets for duplicates.
class StringTable {
public:
  uint32_t intern(const std::string &Text) {
    auto It = Offsets.find(Text);
    if (It != Offsets.end())
      return It->second;
    uint32_t Offset = static_cast<uint32_t>(Bytes.size());
    Bytes.insert(Bytes.end(), Text.begin(), Text.end());
    Bytes.push_back(0);
    Offsets.emplace(Text, Offset);
    return Offset;
  }

  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
  std::unordered_map<std::string, uint32_t> Offsets;
};

/// Size of one DIE's own encoding (tag, hasChildren, attributes), excluding
/// children and terminators.
size_t dieOwnSize(const Die &D) {
  size_t Size = encodedULEB128Size(static_cast<uint64_t>(D.DieTag));
  Size += 1; // hasChildren byte.
  Size += encodedULEB128Size(D.Attributes.size());
  for (const AttrValue &Value : D.Attributes) {
    Size += encodedULEB128Size(static_cast<uint64_t>(Value.Attribute));
    Size += 1; // Form byte.
    switch (Value.Kind) {
    case AttrValueKind::AVK_Uint:
      Size += encodedULEB128Size(Value.Uint);
      break;
    case AttrValueKind::AVK_String:
    case AttrValueKind::AVK_Ref:
      Size += 4;
      break;
    case AttrValueKind::AVK_Flag:
      Size += 1;
      break;
    }
  }
  return Size;
}

} // namespace

DebugSections writeDebugSections(const DebugInfo &Info) {
  // Adopt unattached DIEs under the root so the DFS covers everything.
  std::vector<bool> Attached(Info.size(), false);
  Attached[Info.root()] = true;
  for (size_t I = 0; I < Info.size(); ++I)
    for (DieRef Child : Info.children(static_cast<DieRef>(I)))
      Attached[Child] = true;
  std::vector<DieRef> ExtraRoots;
  for (size_t I = 0; I < Info.size(); ++I)
    if (!Attached[I])
      ExtraRoots.push_back(static_cast<DieRef>(I));

  auto childrenOf = [&](DieRef D) {
    std::vector<DieRef> Kids = Info.children(D);
    if (D == Info.root())
      Kids.insert(Kids.end(), ExtraRoots.begin(), ExtraRoots.end());
    return Kids;
  };

  // Pass 1: assign byte offsets in DFS order. A DIE with children is
  // followed by its children and a single null byte terminator.
  std::vector<uint32_t> OffsetOf(Info.size(), 0);
  size_t Cursor = 0;
  // Iterative DFS with explicit post-action for the terminator byte.
  struct WorkItem {
    DieRef D;
    bool Terminator;
  };
  std::vector<WorkItem> Stack = {{Info.root(), false}};
  while (!Stack.empty()) {
    WorkItem Item = Stack.back();
    Stack.pop_back();
    if (Item.Terminator) {
      Cursor += 1;
      continue;
    }
    OffsetOf[Item.D] = static_cast<uint32_t>(Cursor);
    Cursor += dieOwnSize(Info.die(Item.D));
    std::vector<DieRef> Kids = childrenOf(Item.D);
    if (!Kids.empty()) {
      Stack.push_back({Item.D, true});
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        Stack.push_back({*It, false});
    }
  }

  // Pass 2: emit.
  DebugSections Sections;
  StringTable Strings;
  std::vector<WorkItem> EmitStack = {{Info.root(), false}};
  while (!EmitStack.empty()) {
    WorkItem Item = EmitStack.back();
    EmitStack.pop_back();
    std::vector<uint8_t> &Out = Sections.Info;
    if (Item.Terminator) {
      Out.push_back(0); // Null entry terminates the sibling chain.
      continue;
    }
    const Die &D = Info.die(Item.D);
    assert(OffsetOf[Item.D] == Out.size() && "offset assignment diverged");
    encodeULEB128(static_cast<uint64_t>(D.DieTag), Out);
    std::vector<DieRef> Kids = childrenOf(Item.D);
    Out.push_back(Kids.empty() ? 0 : 1);
    encodeULEB128(D.Attributes.size(), Out);
    for (const AttrValue &Value : D.Attributes) {
      encodeULEB128(static_cast<uint64_t>(Value.Attribute), Out);
      switch (Value.Kind) {
      case AttrValueKind::AVK_Uint:
        Out.push_back(FormUdata);
        encodeULEB128(Value.Uint, Out);
        break;
      case AttrValueKind::AVK_String:
        Out.push_back(FormStrp);
        bytes::Writer(Out).u32(Strings.intern(Value.String));
        break;
      case AttrValueKind::AVK_Ref:
        Out.push_back(FormRef4);
        bytes::Writer(Out).u32(OffsetOf[static_cast<DieRef>(Value.Uint)]);
        break;
      case AttrValueKind::AVK_Flag:
        Out.push_back(FormFlag);
        Out.push_back(Value.Uint ? 1 : 0);
        break;
      }
    }
    if (!Kids.empty()) {
      EmitStack.push_back({Item.D, true});
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It)
        EmitStack.push_back({*It, false});
    }
  }
  Sections.Str = Strings.take();
  return Sections;
}

namespace {

/// Maximum DIE tree depth the parser will recurse into. A hostile
/// .debug_info can nest one DIE per ~4 bytes, so without a cap a megabyte of
/// input drives the recursion tens of thousands of frames deep and overflows
/// the thread stack. Real DWARF nests types a handful of levels.
constexpr int MaxDieDepth = 256;

/// Recursive-descent parser state for .debug_info.
class InfoParser {
public:
  InfoParser(const std::vector<uint8_t> &InfoBytes,
             const std::vector<uint8_t> &StrBytes, DebugInfo &Out)
      : InfoBytes(InfoBytes), StrBytes(StrBytes), Out(Out) {}

  /// Parses the root DIE (and with it, the entire tree).
  Result<void> run() {
    size_t Offset = 0;
    DieRef Root;
    Result<void> Status = parseDie(Offset, /*IsRoot=*/true, /*Depth=*/0, Root);
    if (Status.isErr())
      return Status.withContext(".debug_info");
    if (Offset != InfoBytes.size())
      return Error(ErrorCode::Malformed,
                   ".debug_info: trailing bytes after root DIE");
    // Resolve raw ref offsets to DieRefs.
    for (auto &[D, Slot] : PendingRefs) {
      auto It = RefByOffset.find(Slot.second);
      if (It == RefByOffset.end())
        return Error(ErrorCode::Malformed,
                     ".debug_info: DW_FORM_ref4 target offset " +
                         std::to_string(Slot.second) +
                         " not at a DIE boundary");
      Out.setRef(D, Slot.first, It->second);
    }
    return {};
  }

private:
  Result<void> parseDie(size_t &Offset, bool IsRoot, int Depth,
                        DieRef &NewRef) {
    if (Depth > MaxDieDepth)
      return Error(ErrorCode::LimitExceeded,
                   "DIE tree deeper than " + std::to_string(MaxDieDepth));
    size_t DieOffset = Offset;
    auto At = [&]() { return " at offset " + std::to_string(DieOffset); };
    // DW_FORM_strp and DW_FORM_ref4 are 4-byte little-endian offsets.
    auto ReadU32 = [&](uint32_t &Value) {
      bytes::Reader Field(InfoBytes, Offset);
      bool Read = Field.u32(Value);
      Offset = Field.position();
      return Read;
    };
    uint64_t TagValue;
    if (!decodeULEB128(InfoBytes, Offset, TagValue))
      return Error(ErrorCode::Truncated, "truncated DIE tag" + At());
    Tag DieTag = static_cast<Tag>(TagValue);
    if (IsRoot) {
      if (DieTag != Tag::CompileUnit)
        return Error(ErrorCode::Malformed, "root DIE is not a compile unit");
      NewRef = Out.root();
    } else {
      NewRef = Out.createDie(DieTag);
    }
    RefByOffset.emplace(static_cast<uint32_t>(DieOffset), NewRef);

    if (Offset >= InfoBytes.size())
      return Error(ErrorCode::Truncated, "truncated hasChildren" + At());
    uint8_t HasChildren = InfoBytes[Offset++];

    uint64_t NumAttrs;
    if (!decodeULEB128(InfoBytes, Offset, NumAttrs))
      return Error(ErrorCode::Truncated, "truncated attribute count" + At());
    // Every attribute costs at least two bytes (code + form); an attribute
    // count the remaining bytes cannot back is malformed, and rejecting it
    // here keeps the loop bound by the input size.
    if (NumAttrs > (InfoBytes.size() - Offset + 1) / 2)
      return Error(ErrorCode::Malformed,
                   "attribute count " + std::to_string(NumAttrs) +
                       " exceeds remaining bytes" + At());
    for (uint64_t I = 0; I < NumAttrs; ++I) {
      uint64_t AttrValueCode;
      if (!decodeULEB128(InfoBytes, Offset, AttrValueCode))
        return Error(ErrorCode::Truncated, "truncated attribute code" + At());
      Attr A = static_cast<Attr>(AttrValueCode);
      if (Offset >= InfoBytes.size())
        return Error(ErrorCode::Truncated, "truncated form" + At());
      uint8_t Form = InfoBytes[Offset++];
      switch (Form) {
      case FormUdata: {
        uint64_t Value;
        if (!decodeULEB128(InfoBytes, Offset, Value))
          return Error(ErrorCode::Truncated, "truncated udata" + At());
        Out.setUint(NewRef, A, Value);
        break;
      }
      case FormStrp: {
        uint32_t StrOffset;
        if (!ReadU32(StrOffset))
          return Error(ErrorCode::Truncated, "truncated strp" + At());
        if (StrOffset >= StrBytes.size())
          return Error(ErrorCode::Malformed,
                       "strp offset past .debug_str" + At());
        std::string Text;
        for (size_t P = StrOffset; P < StrBytes.size() && StrBytes[P]; ++P)
          Text += static_cast<char>(StrBytes[P]);
        Out.setString(NewRef, A, std::move(Text));
        break;
      }
      case FormRef4: {
        uint32_t Target;
        if (!ReadU32(Target))
          return Error(ErrorCode::Truncated, "truncated ref4" + At());
        PendingRefs.emplace_back(NewRef, std::make_pair(A, Target));
        break;
      }
      case FormFlag: {
        if (Offset >= InfoBytes.size())
          return Error(ErrorCode::Truncated, "truncated flag" + At());
        Out.setFlag(NewRef, A, InfoBytes[Offset++] != 0);
        break;
      }
      default:
        return Error(ErrorCode::Unsupported, "unknown attribute form " +
                                                 std::to_string(Form) + At());
      }
    }

    if (HasChildren) {
      while (true) {
        if (Offset >= InfoBytes.size())
          return Error(ErrorCode::Truncated,
                       "missing null terminator in sibling chain" + At());
        if (InfoBytes[Offset] == 0) {
          ++Offset;
          break;
        }
        DieRef Child;
        Result<void> Status =
            parseDie(Offset, /*IsRoot=*/false, Depth + 1, Child);
        if (Status.isErr())
          return Status;
        Out.addChild(NewRef, Child);
      }
    }
    return {};
  }

  const std::vector<uint8_t> &InfoBytes;
  const std::vector<uint8_t> &StrBytes;
  DebugInfo &Out;
  std::unordered_map<uint32_t, DieRef> RefByOffset;
  std::vector<std::pair<DieRef, std::pair<Attr, uint32_t>>> PendingRefs;
};

} // namespace

Result<DebugInfo> readDebugSections(const std::vector<uint8_t> &InfoBytes,
                                    const std::vector<uint8_t> &StrBytes) {
  DebugInfo Info;
  InfoParser Parser(InfoBytes, StrBytes, Info);
  Result<void> Status = Parser.run();
  if (Status.isErr())
    return Status.error();
  return Info;
}

void attachDebugInfo(const DebugInfo &Info, wasm::Module &M) {
  DebugSections Sections = writeDebugSections(Info);
  M.Customs.push_back({".debug_info", std::move(Sections.Info)});
  M.Customs.push_back({".debug_str", std::move(Sections.Str)});
}

Result<DebugInfo> extractDebugInfo(const wasm::Module &M) {
  const wasm::CustomSection *InfoSection = M.findCustom(".debug_info");
  if (!InfoSection)
    return Error(ErrorCode::NotFound,
                 "no .debug_info section (stripped binary?)");
  const wasm::CustomSection *StrSection = M.findCustom(".debug_str");
  if (!StrSection)
    return Error(ErrorCode::NotFound, "no .debug_str section");
  return readDebugSections(InfoSection->Bytes, StrSection->Bytes);
}

void stripDebugInfo(wasm::Module &M) {
  std::vector<wasm::CustomSection> Kept;
  for (wasm::CustomSection &Section : M.Customs)
    if (Section.Name.rfind(".debug_", 0) != 0)
      Kept.push_back(std::move(Section));
  M.Customs = std::move(Kept);
}

} // namespace dwarf
} // namespace snowwhite
