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

bool isZeroExtLoad(Opcode Op) {
  switch (Op) {
  case Opcode::I32Load8U:
  case Opcode::I32Load16U:
  case Opcode::I64Load8U:
  case Opcode::I64Load16U:
  case Opcode::I64Load32U:
    return true;
  default:
    return false;
  }
}

enum class SignClass { None, SignedOp, UnsignedOp, SignedCmp, UnsignedCmp };

/// Signedness signal of an instruction with respect to its *integer
/// operands*. Only sign-suffixed operators that consume the value count;
/// result-suffixed conversions (i32.trunc_f64_s consumes a float) do not.
SignClass signClass(Opcode Op) {
  switch (Op) {
  case Opcode::I32DivS:
  case Opcode::I32RemS:
  case Opcode::I32ShrS:
  case Opcode::I64DivS:
  case Opcode::I64RemS:
  case Opcode::I64ShrS:
  case Opcode::I64ExtendI32S:
  case Opcode::F32ConvertI32S:
  case Opcode::F32ConvertI64S:
  case Opcode::F64ConvertI32S:
  case Opcode::F64ConvertI64S:
  case Opcode::I32Extend8S:
  case Opcode::I32Extend16S:
  case Opcode::I64Extend8S:
  case Opcode::I64Extend16S:
  case Opcode::I64Extend32S:
    return SignClass::SignedOp;
  case Opcode::I32DivU:
  case Opcode::I32RemU:
  case Opcode::I32ShrU:
  case Opcode::I64DivU:
  case Opcode::I64RemU:
  case Opcode::I64ShrU:
  case Opcode::I64ExtendI32U:
  case Opcode::F32ConvertI32U:
  case Opcode::F32ConvertI64U:
  case Opcode::F64ConvertI32U:
  case Opcode::F64ConvertI64U:
    return SignClass::UnsignedOp;
  case Opcode::I32LtS:
  case Opcode::I32GtS:
  case Opcode::I32LeS:
  case Opcode::I32GeS:
  case Opcode::I64LtS:
  case Opcode::I64GtS:
  case Opcode::I64LeS:
  case Opcode::I64GeS:
    return SignClass::SignedCmp;
  case Opcode::I32LtU:
  case Opcode::I32GtU:
  case Opcode::I32LeU:
  case Opcode::I32GeU:
  case Opcode::I64LtU:
  case Opcode::I64GtU:
  case Opcode::I64LeU:
  case Opcode::I64GeU:
    return SignClass::UnsignedCmp;
  default:
    return SignClass::None;
  }
}

bool isFloatOp(Opcode Op) {
  uint8_t Byte = opcodeByte(Op);
  return (Byte >= 0x5b && Byte <= 0x66) || (Byte >= 0x8b && Byte <= 0xa6);
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
    else if (isZeroExtLoad(I.Op))
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

  void noteNumeric(Opcode Op, const AbstractValue &Operand) {
    ParamEvidence *E = paramFor(Operand.Tag);
    if (!E)
      return;
    switch (signClass(Op)) {
    case SignClass::SignedOp:
      bump(E->SignedOps);
      if (onEveryPath())
        bump(E->MustSignedOps);
      break;
    case SignClass::UnsignedOp:
      bump(E->UnsignedOps);
      if (onEveryPath())
        bump(E->MustUnsignedOps);
      break;
    case SignClass::SignedCmp:
      bump(E->SignedCmps);
      break;
    case SignClass::UnsignedCmp:
      bump(E->UnsignedCmps);
      break;
    case SignClass::None:
      break;
    }
    if (isFloatOp(Op))
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
