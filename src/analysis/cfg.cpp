#include "analysis/cfg.h"

#include "wasm/validate.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

namespace snowwhite {
namespace analysis {

using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::OpClass;
using wasm::Opcode;
using wasm::opcodeInfo;

const char *edgeKindName(EdgeKind Kind) {
  switch (Kind) {
  case EdgeKind::Fall:
    return "fall";
  case EdgeKind::BlockEntry:
    return "block";
  case EdgeKind::LoopEntry:
    return "loop";
  case EdgeKind::IfTrue:
    return "if-true";
  case EdgeKind::IfFalse:
    return "if-false";
  case EdgeKind::Br:
    return "br";
  case EdgeKind::BrIf:
    return "br-if";
  case EdgeKind::BrTable:
    return "br-table";
  case EdgeKind::Return:
    return "return";
  case EdgeKind::Unreachable:
    return "unreachable";
  }
  return "unknown";
}

bool ControlFlowGraph::dominates(uint32_t A, uint32_t B) const {
  if (A >= Blocks.size() || B >= Blocks.size())
    return false;
  if (Blocks[A].Rpo == NoBlock || Blocks[B].Rpo == NoBlock)
    return false;
  uint32_t Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    uint32_t Up = Blocks[Cur].IDom;
    if (Up == NoBlock || Up == Cur)
      return false; // Reached the entry (its own idom) without meeting A.
    Cur = Up;
  }
}

namespace {

constexpr size_t NoEdge = std::numeric_limits<size_t>::max();

/// One open control frame during the structural walk. Mirrors the
/// evaluator's frame stack; PendingEdges are branch/fall edges whose target
/// (this frame's `end` node) is not known until the frame closes.
struct OpenFrame {
  Opcode Kind = Opcode::Block;
  size_t OpenInstr = 0;
  size_t IfFalseEdge = NoEdge; ///< The if's false edge, resolved at else/end.
  std::vector<size_t> PendingEdges;
};

} // namespace

Result<ControlFlowGraph> buildCfg(const Module &M, uint32_t DefinedIndex) {
  auto Malformed = [](const std::string &Msg) {
    return Error(ErrorCode::Malformed, "analysis: " + Msg);
  };
  if (DefinedIndex >= M.Functions.size())
    return Malformed("function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Malformed("function type index out of range");
  const std::vector<Instr> &Body = Func.Body;
  const size_t N = Body.size();

  ControlFlowGraph Cfg;
  Cfg.DefinedIndex = DefinedIndex;

  // --- Partition the body into blocks (every control instruction is its own
  // single-instruction block; straight-line runs coalesce). ---
  std::vector<uint32_t> BlockOf(N, NoBlock);
  {
    BasicBlock Entry;
    Entry.IsEntry = true;
    Cfg.Blocks.push_back(std::move(Entry));
  }
  for (size_t I = 0; I < N;) {
    BasicBlock B;
    B.Id = static_cast<uint32_t>(Cfg.Blocks.size());
    B.First = I;
    if (opcodeInfo(Body[I].Op).Class == OpClass::Control) {
      B.End = I + 1;
    } else {
      size_t J = I;
      while (J < N && opcodeInfo(Body[J].Op).Class != OpClass::Control)
        ++J;
      B.End = J;
    }
    for (size_t K = B.First; K < B.End; ++K)
      BlockOf[K] = B.Id;
    I = B.End;
    Cfg.Blocks.push_back(std::move(B));
  }
  {
    BasicBlock Exit;
    Exit.Id = static_cast<uint32_t>(Cfg.Blocks.size());
    Exit.IsExit = true;
    Exit.First = Exit.End = N;
    Cfg.Blocks.push_back(std::move(Exit));
  }
  const uint32_t ExitId = Cfg.exitId();

  // --- Structural walk: validate the frame discipline exactly as the
  // evaluator does (same messages, same taxonomy) and emit typed edges. ---
  std::vector<OpenFrame> Frames;
  Frames.push_back(OpenFrame{Opcode::Block, 0, NoEdge, {}});

  auto addEdge = [&Cfg](uint32_t From, uint32_t To, EdgeKind Kind,
                        bool Back) -> size_t {
    Cfg.Edges.push_back(CfgEdge{From, To, Kind, Back});
    return Cfg.Edges.size() - 1;
  };
  // Continuation into the instruction at Next. An edge into an `else` means
  // a completed then-arm: it jumps past the else arm, so it is re-targeted
  // to the matching `end` when the if frame closes.
  auto addFallTo = [&](uint32_t From, size_t Next, EdgeKind Kind) {
    if (Body[Next].Op == Opcode::Else)
      Frames.back().PendingEdges.push_back(addEdge(From, NoBlock, Kind, false));
    else
      addEdge(From, BlockOf[Next], Kind, false);
  };
  // A branch to relative Depth: loops are resolved immediately (the only
  // backward edges); forward labels join at the target frame's `end`.
  auto addBranchTo = [&](uint32_t From, uint64_t Depth, EdgeKind Kind) {
    OpenFrame &Target = Frames[Frames.size() - 1 - static_cast<size_t>(Depth)];
    if (Target.Kind == Opcode::Loop)
      addEdge(From, BlockOf[Target.OpenInstr], Kind, /*Back=*/true);
    else
      Target.PendingEdges.push_back(addEdge(From, NoBlock, Kind, false));
  };

  addEdge(Cfg.entryId(), N > 0 ? BlockOf[0] : ExitId, EdgeKind::Fall, false);

  for (uint32_t BId = 1; BId < ExitId; ++BId) {
    BasicBlock &B = Cfg.Blocks[BId];
    // Mirrors the evaluator's per-instruction check: nothing may follow the
    // final `end`.
    if (Frames.empty())
      return Malformed("instruction after function body end");
    const size_t I = B.First;
    const Instr &Ins = Body[I];
    if (opcodeInfo(Ins.Op).Class != OpClass::Control) {
      if (B.End < N)
        addFallTo(BId, B.End, EdgeKind::Fall);
      continue;
    }
    switch (Ins.Op) {
    case Opcode::Block:
    case Opcode::Loop: {
      if (Frames.size() >= wasm::MaxControlNesting)
        return Error(ErrorCode::LimitExceeded,
                     "analysis: control nesting deeper than " +
                         std::to_string(wasm::MaxControlNesting));
      Frames.push_back(OpenFrame{Ins.Op, I, NoEdge, {}});
      if (I + 1 < N)
        addFallTo(BId, I + 1,
                  Ins.Op == Opcode::Loop ? EdgeKind::LoopEntry
                                         : EdgeKind::BlockEntry);
      break;
    }
    case Opcode::If: {
      if (Frames.size() >= wasm::MaxControlNesting)
        return Error(ErrorCode::LimitExceeded,
                     "analysis: control nesting deeper than " +
                         std::to_string(wasm::MaxControlNesting));
      OpenFrame F{Opcode::If, I, NoEdge, {}};
      F.IfFalseEdge = addEdge(BId, NoBlock, EdgeKind::IfFalse, false);
      Frames.push_back(std::move(F));
      if (I + 1 < N)
        addFallTo(BId, I + 1, EdgeKind::IfTrue);
      break;
    }
    case Opcode::Else: {
      if (Frames.back().Kind != Opcode::If)
        return Malformed("else without if");
      OpenFrame &F = Frames.back();
      Cfg.Edges[F.IfFalseEdge].To = BId; // False path enters the else arm.
      F.IfFalseEdge = NoEdge;
      F.Kind = Opcode::Else;
      if (I + 1 < N)
        addFallTo(BId, I + 1, EdgeKind::Fall);
      break;
    }
    case Opcode::End: {
      OpenFrame F = std::move(Frames.back());
      Frames.pop_back();
      if (F.IfFalseEdge != NoEdge)
        Cfg.Edges[F.IfFalseEdge].To = BId; // If without else: skip edge.
      for (size_t EIdx : F.PendingEdges)
        Cfg.Edges[EIdx].To = BId;
      if (Frames.empty())
        addEdge(BId, ExitId, EdgeKind::Fall, false);
      else if (I + 1 < N)
        addFallTo(BId, I + 1, EdgeKind::Fall);
      break;
    }
    case Opcode::Br: {
      if (Ins.Imm0 >= Frames.size())
        return Malformed("br depth out of range");
      addBranchTo(BId, Ins.Imm0, EdgeKind::Br);
      break;
    }
    case Opcode::BrIf: {
      if (Ins.Imm0 >= Frames.size())
        return Malformed("br_if depth out of range");
      addBranchTo(BId, Ins.Imm0, EdgeKind::BrIf);
      if (I + 1 < N)
        addFallTo(BId, I + 1, EdgeKind::Fall);
      break;
    }
    case Opcode::BrTable: {
      if (Ins.Imm0 >= Frames.size())
        return Malformed("br_table default depth out of range");
      for (uint32_t Target : Ins.Table)
        if (Target >= Frames.size())
          return Malformed("br_table target arity mismatch");
      // Deduplicate fan-out per target label (the evaluator records each
      // table entry, but its joins are idempotent, so one edge per distinct
      // target is equivalent — and keeps the graph readable).
      std::set<size_t> Seen;
      auto addTarget = [&](uint64_t Depth) {
        size_t Pos = Frames.size() - 1 - static_cast<size_t>(Depth);
        if (!Seen.insert(Pos).second)
          return;
        addBranchTo(BId, Depth, EdgeKind::BrTable);
      };
      addTarget(Ins.Imm0);
      for (uint32_t Target : Ins.Table)
        addTarget(Target);
      break;
    }
    case Opcode::Return:
      addEdge(BId, ExitId, EdgeKind::Return, false);
      break;
    case Opcode::Unreachable:
      addEdge(BId, ExitId, EdgeKind::Unreachable, false);
      break;
    default:
      break; // Unreachable: the Control class is exactly the cases above.
    }
  }
  if (!Frames.empty())
    return Malformed("function body missing end instruction(s)");

  // --- Succs/Preds. Every edge target is resolved by now: pending edges
  // belong to open frames, and all frames closed. ---
  for (size_t EIdx = 0; EIdx < Cfg.Edges.size(); ++EIdx) {
    const CfgEdge &E = Cfg.Edges[EIdx];
    if (E.To == NoBlock)
      return Malformed("cfg: unresolved edge"); // Defensive; cannot happen.
    Cfg.Blocks[E.From].Succs.push_back(static_cast<uint32_t>(EIdx));
    Cfg.Blocks[E.To].Preds.push_back(static_cast<uint32_t>(EIdx));
  }

  // --- Reachability + RPO. Body order is a reverse postorder: every
  // non-back edge goes forward in the body, so ranking reachable blocks by
  // position is a valid RPO for the dominator iteration below. ---
  {
    std::vector<bool> Seen(Cfg.Blocks.size(), false);
    std::vector<uint32_t> Work{Cfg.entryId()};
    Seen[Cfg.entryId()] = true;
    while (!Work.empty()) {
      uint32_t BId = Work.back();
      Work.pop_back();
      for (uint32_t EIdx : Cfg.Blocks[BId].Succs) {
        uint32_t To = Cfg.Edges[EIdx].To;
        if (!Seen[To]) {
          Seen[To] = true;
          Work.push_back(To);
        }
      }
    }
    for (uint32_t BId = 0; BId < Cfg.Blocks.size(); ++BId)
      if (Seen[BId]) {
        Cfg.Blocks[BId].Rpo = static_cast<uint32_t>(Cfg.Rpo.size());
        Cfg.Rpo.push_back(BId);
      }
  }

  // --- Dominators: iterative Cooper-Harvey-Kennedy over RPO. ---
  {
    auto Intersect = [&Cfg](uint32_t A, uint32_t B) {
      while (A != B) {
        while (Cfg.Blocks[A].Rpo > Cfg.Blocks[B].Rpo)
          A = Cfg.Blocks[A].IDom;
        while (Cfg.Blocks[B].Rpo > Cfg.Blocks[A].Rpo)
          B = Cfg.Blocks[B].IDom;
      }
      return A;
    };
    Cfg.Blocks[Cfg.entryId()].IDom = Cfg.entryId();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t BId : Cfg.Rpo) {
        if (BId == Cfg.entryId())
          continue;
        uint32_t NewIdom = NoBlock;
        for (uint32_t EIdx : Cfg.Blocks[BId].Preds) {
          uint32_t P = Cfg.Edges[EIdx].From;
          if (Cfg.Blocks[P].IDom == NoBlock)
            continue;
          NewIdom = NewIdom == NoBlock ? P : Intersect(P, NewIdom);
        }
        if (NewIdom != NoBlock && Cfg.Blocks[BId].IDom != NewIdom) {
          Cfg.Blocks[BId].IDom = NewIdom;
          Changed = true;
        }
      }
    }
  }

  // --- Natural loops from back edges (the target of a back edge dominates
  // its source in structured wasm — labels only name enclosing frames). ---
  {
    std::map<uint32_t, std::vector<uint32_t>> BackSources;
    for (const CfgEdge &E : Cfg.Edges)
      if (E.Back && Cfg.Blocks[E.From].Rpo != NoBlock &&
          Cfg.dominates(E.To, E.From))
        BackSources[E.To].push_back(E.From);
    for (const auto &[Header, Sources] : BackSources) {
      Cfg.Blocks[Header].IsLoopHeader = true;
      Cfg.LoopHeaders.push_back(Header);
      std::vector<bool> InLoop(Cfg.Blocks.size(), false);
      InLoop[Header] = true;
      std::vector<uint32_t> Work = Sources;
      while (!Work.empty()) {
        uint32_t BId = Work.back();
        Work.pop_back();
        if (InLoop[BId])
          continue;
        InLoop[BId] = true;
        for (uint32_t EIdx : Cfg.Blocks[BId].Preds) {
          uint32_t P = Cfg.Edges[EIdx].From;
          if (Cfg.Blocks[P].Rpo != NoBlock && !InLoop[P])
            Work.push_back(P);
        }
      }
      for (uint32_t BId = 0; BId < Cfg.Blocks.size(); ++BId)
        if (InLoop[BId]) {
          ++Cfg.Blocks[BId].LoopDepth;
          Cfg.MaxLoopDepth = std::max(Cfg.MaxLoopDepth,
                                      Cfg.Blocks[BId].LoopDepth);
        }
    }
    // The frame-stack cap above already bounds loop nesting (a natural loop
    // needs an open `loop` frame), but keep the taxonomy-coded guard
    // explicit like every other untrusted-input limit.
    if (Cfg.MaxLoopDepth > wasm::MaxControlNesting)
      return Error(ErrorCode::LimitExceeded,
                   "analysis: loop nesting deeper than " +
                       std::to_string(wasm::MaxControlNesting));
  }

  // --- Dominates-exit: the idom chain of the synthetic exit is exactly the
  // set of blocks on every entry->exit path. ---
  if (Cfg.Blocks[ExitId].Rpo != NoBlock) {
    uint32_t Cur = ExitId;
    while (true) {
      Cfg.Blocks[Cur].DominatesExit = true;
      uint32_t Up = Cfg.Blocks[Cur].IDom;
      if (Up == NoBlock || Up == Cur)
        break;
      Cur = Up;
    }
  }

  return Cfg;
}

std::vector<bool> mustExecuteMask(const ControlFlowGraph &Cfg,
                                  size_t BodySize) {
  std::vector<bool> Mask(BodySize, false);
  if (Cfg.Blocks.empty() || Cfg.Blocks.back().Rpo == NoBlock)
    return Mask; // Exit unreachable: never claim must-evidence.
  for (const BasicBlock &B : Cfg.Blocks)
    if (B.DominatesExit && !B.IsEntry && !B.IsExit)
      for (size_t I = B.First; I < B.End && I < BodySize; ++I)
        Mask[I] = true;
  return Mask;
}

std::string cfgToDot(const Module &M, const ControlFlowGraph &Cfg) {
  std::string Out = "digraph fn" + std::to_string(Cfg.DefinedIndex) + " {\n";
  Out += "  node [fontname=\"monospace\"];\n";
  const Function *Func = Cfg.DefinedIndex < M.Functions.size()
                             ? &M.Functions[Cfg.DefinedIndex]
                             : nullptr;
  for (const BasicBlock &B : Cfg.Blocks) {
    Out += "  b" + std::to_string(B.Id) + " [";
    if (B.IsEntry) {
      Out += "shape=circle,label=\"entry\"";
    } else if (B.IsExit) {
      Out += "shape=doublecircle,label=\"exit\"";
    } else {
      // Built with += (not one `+` chain): GCC 12's -Wrestrict misfires on
      // literal + to_string rvalue chains under -Werror.
      std::string Label = "B";
      Label += std::to_string(B.Id);
      Label += " [";
      Label += std::to_string(B.First);
      Label += ",";
      Label += std::to_string(B.End);
      Label += ")";
      if (Func) {
        size_t Shown = 0;
        for (size_t I = B.First; I < B.End && Shown < 3; ++I, ++Shown)
          Label += std::string("\\n") + opcodeName(Func->Body[I].Op);
        if (B.End - B.First > 3)
          Label += "\\n...";
      }
      Out += "shape=box,label=\"" + Label + "\"";
      if (B.IsLoopHeader)
        Out += ",peripheries=2";
      if (B.DominatesExit)
        Out += ",style=bold";
    }
    Out += "];\n";
  }
  for (const CfgEdge &E : Cfg.Edges) {
    Out += "  b" + std::to_string(E.From) + " -> b" + std::to_string(E.To) +
           " [label=\"" + edgeKindName(E.Kind) + "\"";
    if (E.Back)
      Out += ",style=dashed";
    Out += "];\n";
  }
  Out += "}\n";
  return Out;
}

std::string cfgToJson(const ControlFlowGraph &Cfg) {
  std::string Out =
      "{\"defined_index\":" + std::to_string(Cfg.DefinedIndex) +
      ",\"blocks\":[";
  for (const BasicBlock &B : Cfg.Blocks) {
    if (B.Id != 0)
      Out += ",";
    Out += "{\"id\":" + std::to_string(B.Id) + ",\"kind\":\"";
    Out += B.IsEntry ? "entry" : B.IsExit ? "exit" : "body";
    Out += "\",\"first\":" + std::to_string(B.First) +
           ",\"end\":" + std::to_string(B.End) + ",\"rpo\":";
    Out += B.Rpo == NoBlock ? "null" : std::to_string(B.Rpo);
    Out += ",\"idom\":";
    Out += B.IDom == NoBlock ? "null" : std::to_string(B.IDom);
    Out += ",\"loop_header\":";
    Out += B.IsLoopHeader ? "true" : "false";
    Out += ",\"loop_depth\":" + std::to_string(B.LoopDepth) +
           ",\"dominates_exit\":";
    Out += B.DominatesExit ? "true" : "false";
    Out += "}";
  }
  Out += "],\"edges\":[";
  bool FirstEdge = true;
  for (const CfgEdge &E : Cfg.Edges) {
    if (!FirstEdge)
      Out += ",";
    FirstEdge = false;
    Out += "{\"from\":" + std::to_string(E.From) +
           ",\"to\":" + std::to_string(E.To) + ",\"kind\":\"" +
           edgeKindName(E.Kind) + "\",\"back\":";
    Out += E.Back ? "true" : "false";
    Out += "}";
  }
  Out += "],\"loop_headers\":[";
  for (size_t Index = 0; Index < Cfg.LoopHeaders.size(); ++Index) {
    if (Index != 0)
      Out += ",";
    Out += std::to_string(Cfg.LoopHeaders[Index]);
  }
  Out += "],\"max_loop_depth\":" + std::to_string(Cfg.MaxLoopDepth) + "}";
  return Out;
}

} // namespace analysis
} // namespace snowwhite
