#include "analysis/evidence.h"

#include <sstream>
#include <type_traits>

namespace snowwhite {
namespace analysis {

namespace {

const char *widthToken(uint8_t Bytes) {
  switch (Bytes) {
  case 1:
    return "<evid:w8>";
  case 2:
    return "<evid:w16>";
  case 4:
    return "<evid:w32>";
  case 8:
    return "<evid:w64>";
  default:
    return nullptr;
  }
}

} // namespace

std::vector<std::string> evidenceTokens(const ParamEvidence &E) {
  std::vector<std::string> Tokens;
  if (E.usedAsAddress() || E.DereferencedViaCallee) {
    Tokens.push_back("<evid:ptr>");
    if (const char *Width = widthToken(E.MinAccessBytes))
      Tokens.push_back(Width);
    if (E.MaxAccessBytes != E.MinAccessBytes)
      if (const char *Width = widthToken(E.MaxAccessBytes))
        Tokens.push_back(Width);
    Tokens.push_back(E.storedThrough() ? "<evid:mut>" : "<evid:const>");
    if (E.SignExtLoads > 0 && E.ZeroExtLoads == 0)
      Tokens.push_back("<evid:sext>");
    else if (E.ZeroExtLoads > 0 && E.SignExtLoads == 0)
      Tokens.push_back("<evid:zext>");
  }
  if (E.SignedOps + E.SignedCmps > 0 && E.UnsignedOps + E.UnsignedCmps == 0)
    Tokens.push_back("<evid:signed>");
  else if (E.UnsignedOps + E.UnsignedCmps > 0 &&
           E.SignedOps + E.SignedCmps == 0)
    Tokens.push_back("<evid:unsigned>");
  if (E.Conditions > 0)
    Tokens.push_back("<evid:cond>");
  if (E.EscapesToCalls + E.EscapesIndirect > 0)
    Tokens.push_back("<evid:escapes>");
  if (E.StoredToMemory > 0)
    Tokens.push_back("<evid:spilled>");
  if (Tokens.empty())
    Tokens.push_back("<evid:none>");
  return Tokens;
}

std::vector<std::string> evidenceTokens(const ReturnEvidence &E) {
  std::vector<std::string> Tokens;
  if (E.TotalReturns == 0) {
    Tokens.push_back("<evid:none>");
    return Tokens;
  }
  if (E.FromComparison == E.TotalReturns)
    Tokens.push_back("<evid:bool>");
  if (E.FromLoad > 0) {
    Tokens.push_back("<evid:fromload>");
    if (const char *Width = widthToken(E.MinLoadBytes))
      Tokens.push_back(Width);
    if (E.SignExtLoads > 0)
      Tokens.push_back("<evid:sext>");
  }
  if (E.FromConst == E.TotalReturns)
    Tokens.push_back("<evid:constret>");
  if (E.FromParam > 0)
    Tokens.push_back("<evid:passthru>");
  if (E.FromCall == E.TotalReturns)
    Tokens.push_back("<evid:fromcall>");
  if (Tokens.empty())
    Tokens.push_back("<evid:none>");
  return Tokens;
}

const std::vector<std::string> &evidenceTokenVocabulary() {
  static const std::vector<std::string> Vocab = {
      "<evid:ptr>",      "<evid:w8>",      "<evid:w16>",
      "<evid:w32>",      "<evid:w64>",     "<evid:mut>",
      "<evid:const>",    "<evid:sext>",    "<evid:zext>",
      "<evid:signed>",   "<evid:unsigned>", "<evid:cond>",
      "<evid:escapes>",  "<evid:spilled>", "<evid:bool>",
      "<evid:fromload>", "<evid:constret>", "<evid:passthru>",
      "<evid:fromcall>", "<evid:none>",
  };
  return Vocab;
}

namespace {

class JsonWriter {
public:
  JsonWriter &key(const char *Name) {
    sep();
    Out << '"' << Name << "\":";
    Pending = false;
    return *this;
  }
  JsonWriter &value(uint64_t V) {
    Out << V;
    Pending = true;
    return *this;
  }
  JsonWriter &value(bool V) {
    Out << (V ? "true" : "false");
    Pending = true;
    return *this;
  }
  JsonWriter &value(const std::string &V) {
    Out << '"' << V << '"';
    Pending = true;
    return *this;
  }
  JsonWriter &raw(const std::string &V) {
    sep();
    Out << V;
    Pending = true;
    return *this;
  }
  JsonWriter &open(char C) {
    Out << C;
    Pending = false;
    return *this;
  }
  JsonWriter &close(char C) {
    Out << C;
    Pending = true;
    return *this;
  }
  std::string str() const { return Out.str(); }

private:
  void sep() {
    if (Pending)
      Out << ',';
  }
  std::ostringstream Out;
  bool Pending = false;
};

/// Writes every stored field (forEachField) as one JSON member.
template <typename Evidence>
void writeFields(JsonWriter &W, const Evidence &E) {
  forEachField(E, [&W](const char *Key, const auto &Field) {
    using Type = std::decay_t<decltype(Field)>;
    W.key(Key);
    if constexpr (std::is_same_v<Type, wasm::ValType>) {
      W.value(std::string(wasm::valTypeName(Field)));
    } else if constexpr (std::is_same_v<Type, bool>) {
      W.value(Field);
    } else if constexpr (std::is_same_v<Type, std::vector<uint32_t>>) {
      W.open('[');
      for (uint32_t Element : Field)
        W.raw(std::to_string(Element));
      W.close(']');
    } else {
      W.value(uint64_t(Field));
    }
  });
}

void writeParam(JsonWriter &W, const ParamEvidence &E) {
  W.open('{');
  writeFields(W, E);
  W.key("used_as_address").value(E.usedAsAddress());
  W.key("stored_through").value(E.storedThrough());
  W.close('}');
}

void writeReturn(JsonWriter &W, const ReturnEvidence &E) {
  W.open('{');
  writeFields(W, E);
  W.close('}');
}

void writeFunction(JsonWriter &W, const FunctionSummary &S) {
  W.open('{');
  W.key("defined_index").value(uint64_t(S.DefinedIndex));
  W.key("tags_tracked").value(S.TagsTracked);
  W.key("fixpoint_passes").value(uint64_t(S.FixpointPasses));
  W.key("params");
  W.open('[');
  for (const ParamEvidence &P : S.Params) {
    JsonWriter Inner;
    writeParam(Inner, P);
    W.raw(Inner.str());
  }
  W.close(']');
  if (S.HasReturn) {
    W.key("return");
    JsonWriter Inner;
    writeReturn(Inner, S.Ret);
    W.raw(Inner.str());
  }
  W.close('}');
}

} // namespace

std::string toJson(const ParamEvidence &E) {
  JsonWriter W;
  writeParam(W, E);
  return W.str();
}

std::string toJson(const ReturnEvidence &E) {
  JsonWriter W;
  writeReturn(W, E);
  return W.str();
}

std::string toJson(const FunctionSummary &S) {
  JsonWriter W;
  writeFunction(W, S);
  return W.str();
}

std::string toJson(const ModuleSummary &S) {
  JsonWriter W;
  W.open('{');
  W.key("call_graph_passes").value(uint64_t(S.CallGraphPasses));
  W.key("functions");
  W.open('[');
  for (const FunctionSummary &F : S.Functions) {
    JsonWriter Inner;
    writeFunction(Inner, F);
    W.raw(Inner.str());
  }
  W.close(']');
  W.close('}');
  return W.str();
}

} // namespace analysis
} // namespace snowwhite
