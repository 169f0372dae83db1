#include "analysis/analyzer.h"

#include "analysis/cfg.h"

#include <algorithm>
#include <limits>

namespace snowwhite {
namespace analysis {

using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

namespace {

/// Cap on recorded caller-param -> callee-formal edges per function; beyond
/// this the call-graph closure degrades (misses edges) rather than growing.
constexpr size_t MaxEscapeEdges = 256;

void bump(uint32_t &Counter) {
  if (Counter != std::numeric_limits<uint32_t>::max())
    ++Counter;
}

void noteWidth(uint8_t &Min, uint8_t &Max, unsigned Bytes) {
  uint8_t B = static_cast<uint8_t>(Bytes);
  if (Min == 0 || B < Min)
    Min = B;
  if (B > Max)
    Max = B;
}

bool isFloat(ValType Type) {
  return Type == ValType::F32 || Type == ValType::F64;
}

/// A "parameter P escapes into call target T at argument position A" record
/// used by the bottom-up call-graph closure.
struct EscapeEdge {
  uint64_t TargetSpace = 0;
  uint32_t ArgPos = 0;
  uint32_t Param = 0;
};

struct FunctionFacts {
  FunctionSummary Summary;
  std::vector<EscapeEdge> Edges;
  std::vector<uint32_t> Callees;
};

/// Folds the evaluator's callbacks into per-parameter / return counters.
/// MustMask (optional, indexed by body position) marks instructions that lie
/// on every entry->exit path; events at those positions additionally bump
/// the path-sensitive Must* counters.
class EvidenceCollector : public EvalSink {
public:
  EvidenceCollector(FunctionSummary &Out,
                    const std::vector<bool> *Must = nullptr)
      : Summary(Out), MustMask(Must) {}

  void onInstr(size_t Index, const Instr &I,
               const std::vector<AbstractValue> &Stack,
               bool Unreachable) override {
    CurIndex = Index;
  }

  void onLoad(const Instr &I, const AbstractValue &Addr, unsigned Bytes,
              bool SignExtending) override {
    ParamEvidence *E = paramFor(Addr.Tag);
    if (!E)
      return;
    bump(Addr.Tag.Direct ? E->DirectLoads : E->DerivedLoads);
    if (onEveryPath())
      bump(Addr.Tag.Direct ? E->MustDirectLoads : E->MustDerivedLoads);
    noteWidth(E->MinAccessBytes, E->MaxAccessBytes, Bytes);
    if (SignExtending)
      bump(E->SignExtLoads);
    else if (wasm::opcodeInfo(I.Op).Sign == wasm::OpSign::Unsigned)
      bump(E->ZeroExtLoads);
  }

  void onStore(const Instr &I, const AbstractValue &Addr,
               const AbstractValue &Value, unsigned Bytes) override {
    if (ParamEvidence *E = paramFor(Addr.Tag)) {
      bump(Addr.Tag.Direct ? E->DirectStores : E->DerivedStores);
      if (onEveryPath())
        bump(Addr.Tag.Direct ? E->MustDirectStores : E->MustDerivedStores);
      noteWidth(E->MinAccessBytes, E->MaxAccessBytes, Bytes);
    }
    if (ParamEvidence *E = paramFor(Value.Tag))
      bump(E->StoredToMemory);
  }

  void onUnary(const Instr &I, const AbstractValue &Operand) override {
    noteNumeric(I.Op, Operand);
  }

  void onBinary(const Instr &I, const AbstractValue &Lhs,
                const AbstractValue &Rhs) override {
    noteNumeric(I.Op, Lhs);
    noteNumeric(I.Op, Rhs);
  }

  void onCondition(const Instr &I, const AbstractValue &Condition) override {
    if (ParamEvidence *E = paramFor(Condition.Tag))
      bump(E->Conditions);
  }

  void onCall(const Instr &I, uint64_t TargetSpaceIndex, bool Indirect,
              const std::vector<AbstractValue> &Args) override {
    if (!Indirect)
      recordCallee(TargetSpaceIndex);
    for (uint32_t Pos = 0; Pos < Args.size(); ++Pos) {
      ParamEvidence *E = paramFor(Args[Pos].Tag);
      if (!E)
        continue;
      if (Indirect) {
        bump(E->EscapesIndirect);
        continue;
      }
      bump(E->EscapesToCalls);
      recordCallTarget(*E, TargetSpaceIndex);
      if (Edges.size() < MaxEscapeEdges)
        Edges.push_back({TargetSpaceIndex, Pos, Args[Pos].Tag.Param});
    }
  }

  void onReturn(const AbstractValue &Value) override {
    ReturnEvidence &R = Summary.Ret;
    bump(R.TotalReturns);
    if (Value.Tag.Param != NoParam && Value.Tag.Direct) {
      bump(R.FromParam);
      return;
    }
    switch (Value.Tag.Org) {
    case Origin::Load:
      bump(R.FromLoad);
      noteWidth(R.MinLoadBytes, R.MaxLoadBytes, Value.Tag.OrgBytes);
      if (Value.Tag.OrgSigned)
        bump(R.SignExtLoads);
      break;
    case Origin::Compare:
      bump(R.FromComparison);
      break;
    case Origin::Const:
      bump(R.FromConst);
      break;
    case Origin::Call:
      bump(R.FromCall);
      break;
    default:
      bump(R.FromOther);
      break;
    }
  }

  std::vector<EscapeEdge> takeEdges() { return std::move(Edges); }
  std::vector<uint32_t> takeCallees() {
    std::sort(Callees.begin(), Callees.end());
    Callees.erase(std::unique(Callees.begin(), Callees.end()),
                  Callees.end());
    return std::move(Callees);
  }

private:
  ParamEvidence *paramFor(const ValueTag &Tag) {
    if (Tag.Param == NoParam || Tag.Param >= Summary.Params.size())
      return nullptr;
    return &Summary.Params[Tag.Param];
  }

  /// True when the instruction currently executing lies on every
  /// entry->exit path (its block dominates the CFG's synthetic exit).
  bool onEveryPath() const {
    return MustMask && CurIndex < MustMask->size() && (*MustMask)[CurIndex];
  }

  /// Sign and float evidence from one operand of a numeric instruction (one
  /// the evaluator reports through onUnary/onBinary).
  void noteNumeric(Opcode Op, const AbstractValue &Operand) {
    ParamEvidence *E = paramFor(Operand.Tag);
    if (!E)
      return;
    const wasm::OpcodeInfo &Info = wasm::opcodeInfo(Op);
    bool FloatOperand = isFloat(Info.Operands[0]);
    // The `_s`/`_u` suffix says how an integer operand is read; on a float
    // operand (i32.trunc_f64_s) it only describes the result.
    if (Info.Sign != wasm::OpSign::None && !FloatOperand) {
      bool Signed = Info.Sign == wasm::OpSign::Signed;
      if (Info.Class == wasm::OpClass::Compare) {
        bump(Signed ? E->SignedCmps : E->UnsignedCmps);
      } else {
        bump(Signed ? E->SignedOps : E->UnsignedOps);
        if (onEveryPath())
          bump(Signed ? E->MustSignedOps : E->MustUnsignedOps);
      }
    }
    if (FloatOperand && Info.Class != wasm::OpClass::Convert)
      bump(E->FloatOps);
  }

  void recordCallTarget(ParamEvidence &E, uint64_t TargetSpace) {
    uint32_t Target = static_cast<uint32_t>(TargetSpace);
    auto It = std::lower_bound(E.CallTargets.begin(), E.CallTargets.end(),
                               Target);
    if (It != E.CallTargets.end() && *It == Target)
      return;
    if (E.CallTargets.size() >= MaxCallTargets) {
      E.CallTargetsOverflow = true;
      return;
    }
    E.CallTargets.insert(It, Target);
  }

  void recordCallee(uint64_t TargetSpace) {
    if (Callees.size() < MaxEscapeEdges)
      Callees.push_back(static_cast<uint32_t>(TargetSpace));
  }

  FunctionSummary &Summary;
  const std::vector<bool> *MustMask;
  size_t CurIndex = 0;
  std::vector<EscapeEdge> Edges;
  std::vector<uint32_t> Callees;
};

/// Merges the newly-observed back-edge state into the accumulated carry.
/// Returns true if the carry changed (fixpoint not yet reached).
bool mergeCarry(LoopCarry &Into, const LoopCarry &From) {
  bool Changed = false;
  for (const auto &[LoopIndex, Tags] : From) {
    auto [It, Inserted] = Into.try_emplace(LoopIndex, Tags);
    if (Inserted) {
      Changed = true;
      continue;
    }
    if (It->second.size() != Tags.size())
      continue; // Defensive; sizes are fixed per function.
    for (size_t L = 0; L < Tags.size(); ++L) {
      ValueTag Merged = mergeTags(It->second[L], Tags[L]);
      if (!(Merged == It->second[L])) {
        It->second[L] = Merged;
        Changed = true;
      }
    }
  }
  return Changed;
}

Result<FunctionFacts> analyzeFunctionFacts(const Module &M,
                                           uint32_t DefinedIndex) {
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function type index out of range");
  const FuncType &Type = M.Types[Func.TypeIndex];

  FunctionFacts Facts;
  FunctionSummary &Summary = Facts.Summary;
  Summary.DefinedIndex = DefinedIndex;
  Summary.Params.resize(Type.Params.size());
  for (size_t P = 0; P < Type.Params.size(); ++P)
    Summary.Params[P].LowType = Type.Params[P];
  Summary.HasReturn = !Type.Results.empty();
  if (Summary.HasReturn)
    Summary.Ret.LowType = Type.Results.front();
  Summary.TagsTracked =
      Type.Params.size() + Func.flattenedLocals().size() <= MaxTrackedLocals;

  Result<ControlFlowGraph> Cfg = buildCfg(M, DefinedIndex);
  if (Cfg.isErr())
    return Cfg.error();
  std::vector<bool> MustMask = mustExecuteMask(Cfg.value(), Func.Body.size());

  // Close loop back-edges: re-run the body with the previous pass's carry
  // state until the carry stops growing (the tag lattice is finite, so this
  // terminates; the cap only bounds adversarial convergence).
  LoopCarry Carry;
  uint32_t Passes = 0;
  while (Passes < MaxFixpointPasses) {
    LoopCarry Out;
    EvalOptions Options;
    Options.LoopCarryIn = Passes == 0 ? nullptr : &Carry;
    Options.LoopCarryOut = &Out;
    Result<void> Status = evaluateFunction(M, DefinedIndex, nullptr, Options);
    if (Status.isErr())
      return Status.error();
    ++Passes;
    if (!mergeCarry(Carry, Out))
      break;
  }
  Summary.FixpointPasses = Passes;

  // Final pass with the collector attached; evidence is only gathered once,
  // on the stabilized state.
  EvidenceCollector Collector(Summary, &MustMask);
  EvalOptions Options;
  Options.LoopCarryIn = Carry.empty() ? nullptr : &Carry;
  Result<void> Status =
      evaluateFunction(M, DefinedIndex, &Collector, Options);
  if (Status.isErr())
    return Status.error();
  Facts.Edges = Collector.takeEdges();
  Facts.Callees = Collector.takeCallees();
  return Facts;
}

} // namespace

Result<FunctionSummary> analyzeFunction(const Module &M,
                                        uint32_t DefinedIndex) {
  Result<FunctionFacts> Facts = analyzeFunctionFacts(M, DefinedIndex);
  if (Facts.isErr())
    return Facts.error();
  return Facts.take().Summary;
}

Result<ModuleSummary> analyzeModule(const Module &M) {
  ModuleSummary Summary;
  Summary.Functions.reserve(M.Functions.size());
  Summary.Callees.reserve(M.Functions.size());
  std::vector<std::vector<EscapeEdge>> Edges;
  Edges.reserve(M.Functions.size());
  for (uint32_t Index = 0; Index < M.Functions.size(); ++Index) {
    Result<FunctionFacts> Facts = analyzeFunctionFacts(M, Index);
    if (Facts.isErr())
      return Facts.error().withContext("function " + std::to_string(Index));
    FunctionFacts F = Facts.take();
    Summary.Functions.push_back(std::move(F.Summary));
    Summary.Callees.push_back(std::move(F.Callees));
    Edges.push_back(std::move(F.Edges));
  }

  // Bottom-up closure over the direct call graph: a parameter forwarded to
  // a callee inherits that callee's dereference/store-through facts. The
  // pass loop (rather than a topological order) handles recursion; the cap
  // bounds pathological cycles.
  size_t NumImports = M.Imports.size();
  uint32_t Pass = 0;
  bool Changed = true;
  while (Changed && Pass < MaxCallGraphPasses) {
    Changed = false;
    ++Pass;
    for (size_t Caller = 0; Caller < Summary.Functions.size(); ++Caller) {
      for (const EscapeEdge &Edge : Edges[Caller]) {
        if (Edge.TargetSpace < NumImports)
          continue; // Imported callees: no body, no facts.
        size_t Callee = static_cast<size_t>(Edge.TargetSpace - NumImports);
        if (Callee >= Summary.Functions.size())
          continue;
        const FunctionSummary &CalleeSummary = Summary.Functions[Callee];
        if (Edge.ArgPos >= CalleeSummary.Params.size())
          continue;
        const ParamEvidence &Formal = CalleeSummary.Params[Edge.ArgPos];
        if (Edge.Param >= Summary.Functions[Caller].Params.size())
          continue;
        ParamEvidence &Actual = Summary.Functions[Caller].Params[Edge.Param];
        if (Formal.directlyDereferenced() && !Actual.DereferencedViaCallee) {
          Actual.DereferencedViaCallee = true;
          Changed = true;
        }
        if (Formal.storedThrough() && !Actual.StoredViaCallee) {
          Actual.StoredViaCallee = true;
          Changed = true;
        }
      }
    }
  }
  Summary.CallGraphPasses = Pass;
  return Summary;
}

QueryEvidence queryEvidence(const ModuleSummary &Summary,
                            uint32_t DefinedIndex, int ParamIndex) {
  QueryEvidence Query;
  if (DefinedIndex >= Summary.Functions.size())
    return Query;
  const FunctionSummary &F = Summary.Functions[DefinedIndex];
  if (!F.TagsTracked)
    return Query;
  if (ParamIndex < 0) {
    if (F.HasReturn)
      Query.Ret = F.Ret;
    return Query;
  }
  if (static_cast<size_t>(ParamIndex) < F.Params.size())
    Query.Param = F.Params[static_cast<size_t>(ParamIndex)];
  return Query;
}

} // namespace analysis
} // namespace snowwhite
