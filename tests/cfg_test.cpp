//===- tests/cfg_test.cpp - Control-flow graph subsystem tests -------------===//
//
// Covers the explicit per-function CFG (analysis/cfg.h): block partitioning
// and typed edges for every control construct (including br_table fan-out
// with duplicate-target dedup, unreachable-terminated blocks, and nested
// loops), the RPO == body-order property, dominator-tree invariants, the
// must-execute mask behind the path-sensitive gate, corpus-wide structural
// invariants, a loop that needs several fixpoint rounds, bounded
// WasmWalker-style path-token extraction, SNOWWHITE_THREADS
// invariance of summaries and path tokens, DOT/JSON goldens, and the
// branch-join regressions behind the `else` fix in stack_eval.cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/gate.h"
#include "analysis/paths.h"
#include "analysis/stack_eval.h"
#include "dataset/pipeline.h"
#include "frontend/corpus.h"
#include "support/thread_pool.h"
#include "typelang/type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace snowwhite {
namespace analysis {
namespace {

using wasm::BlockType;
using wasm::Function;
using wasm::FuncType;
using wasm::Instr;
using wasm::MemoryDecl;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

/// Builds a one-function module around Body, with a memory so loads/stores
/// validate. Locals (beyond the parameters) are appended one run each.
Module moduleWithBody(std::vector<Instr> Body,
                      std::vector<ValType> Params = {},
                      std::vector<ValType> Results = {},
                      std::vector<ValType> Locals = {}) {
  Module M;
  FuncType Type;
  Type.Params = std::move(Params);
  Type.Results = std::move(Results);
  Function Func;
  Func.TypeIndex = M.internType(Type);
  for (ValType Local : Locals)
    Func.Locals.push_back(wasm::LocalRun{1, Local});
  Func.Body = std::move(Body);
  M.Functions.push_back(std::move(Func));
  M.Memories.push_back(MemoryDecl{1, false, 0});
  return M;
}

ControlFlowGraph cfgFor(const Module &M) {
  Result<ControlFlowGraph> Cfg = buildCfg(M, 0);
  if (Cfg.isErr()) {
    ADD_FAILURE() << Cfg.error().message();
    return {};
  }
  return Cfg.take();
}

/// The block containing body index I, or NoBlock.
uint32_t blockAt(const ControlFlowGraph &Cfg, size_t I) {
  for (const BasicBlock &B : Cfg.Blocks)
    if (!B.IsEntry && !B.IsExit && B.First <= I && I < B.End)
      return B.Id;
  return NoBlock;
}

/// Count of edges out of From with the given kind.
size_t countEdges(const ControlFlowGraph &Cfg, uint32_t From, EdgeKind Kind) {
  size_t Count = 0;
  for (uint32_t EId : Cfg.Blocks[From].Succs)
    if (Cfg.Edges[EId].Kind == Kind)
      ++Count;
  return Count;
}

/// Asserts the structural invariants every CFG must satisfy: the body is
/// partitioned in order, RPO numbers match body order (every non-back edge
/// goes forward), back edges target `loop` instructions, idoms strictly
/// precede their blocks in RPO, and the entry dominates every reachable
/// block.
void checkInvariants(const ControlFlowGraph &Cfg,
                     const std::vector<Instr> &Body) {
  const size_t BodySize = Body.size();
  ASSERT_GE(Cfg.Blocks.size(), 2u);
  EXPECT_TRUE(Cfg.Blocks.front().IsEntry);
  EXPECT_TRUE(Cfg.Blocks.back().IsExit);
  // Partition: consecutive, non-empty, covering [0, BodySize).
  size_t Next = 0;
  for (const BasicBlock &B : Cfg.Blocks) {
    if (B.IsEntry || B.IsExit)
      continue;
    EXPECT_EQ(B.First, Next);
    EXPECT_LT(B.First, B.End);
    Next = B.End;
  }
  EXPECT_EQ(Next, BodySize);
  // RPO is a permutation of the reachable blocks in id (== body) order.
  for (size_t I = 0; I < Cfg.Rpo.size(); ++I) {
    EXPECT_EQ(Cfg.Blocks[Cfg.Rpo[I]].Rpo, I);
    if (I > 0) {
      EXPECT_LT(Cfg.Rpo[I - 1], Cfg.Rpo[I]);
    }
  }
  for (const CfgEdge &E : Cfg.Edges) {
    const BasicBlock &From = Cfg.Blocks[E.From];
    const BasicBlock &To = Cfg.Blocks[E.To];
    if (From.Rpo == NoBlock)
      continue; // Dead code keeps no ordering promises.
    ASSERT_NE(To.Rpo, NoBlock) << "edge from live block to dead block";
    if (E.Back) {
      EXPECT_TRUE(To.First < BodySize && Body[To.First].Op == Opcode::Loop);
      EXPECT_TRUE(To.IsLoopHeader);
      EXPECT_LE(To.Rpo, From.Rpo);
    } else {
      EXPECT_LT(From.Rpo, To.Rpo) << "forward edge goes backward in RPO";
    }
  }
  for (const BasicBlock &B : Cfg.Blocks) {
    if (B.Rpo == NoBlock)
      continue;
    EXPECT_TRUE(Cfg.dominates(Cfg.entryId(), B.Id));
    if (B.IsEntry) {
      EXPECT_EQ(B.IDom, B.Id); // The entry is its own idom.
    } else {
      ASSERT_NE(B.IDom, NoBlock);
      EXPECT_LT(Cfg.Blocks[B.IDom].Rpo, B.Rpo);
      EXPECT_TRUE(Cfg.dominates(B.IDom, B.Id));
    }
  }
}

// --- Block partitioning and typed edges ---------------------------------------

TEST(Cfg, StraightLineCoalescesIntoOneBlock) {
  Module M = moduleWithBody({Instr::i32Const(1), Instr::i32Const(2),
                             Instr(Opcode::I32Add), Instr(Opcode::Drop),
                             Instr(Opcode::End)});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  // entry, the 4-instruction run, the final `end`, exit.
  ASSERT_EQ(Cfg.Blocks.size(), 4u);
  EXPECT_EQ(Cfg.Blocks[1].First, 0u);
  EXPECT_EQ(Cfg.Blocks[1].End, 4u);
  EXPECT_EQ(Cfg.Blocks[2].First, 4u);
  EXPECT_EQ(Cfg.Blocks[2].End, 5u);
  for (const BasicBlock &B : Cfg.Blocks)
    EXPECT_TRUE(B.DominatesExit) << "block " << B.Id;
  EXPECT_EQ(Cfg.MaxLoopDepth, 0u);
  EXPECT_TRUE(Cfg.LoopHeaders.empty());
}

TEST(Cfg, BlockConstructEmitsBlockEntryEdge) {
  Module M = moduleWithBody({Instr::block(BlockType::empty()),
                             Instr(Opcode::Nop), Instr(Opcode::End),
                             Instr(Opcode::End)});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t BlockInstr = blockAt(Cfg, 0);
  EXPECT_EQ(countEdges(Cfg, BlockInstr, EdgeKind::BlockEntry), 1u);
}

TEST(Cfg, IfElseEdgesAndJoin) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::Else), Instr(Opcode::Nop),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t If = blockAt(Cfg, 1);
  EXPECT_EQ(countEdges(Cfg, If, EdgeKind::IfTrue), 1u);
  EXPECT_EQ(countEdges(Cfg, If, EdgeKind::IfFalse), 1u);
  // The false edge enters the `else` block (which falls into its arm), not
  // the join.
  uint32_t ElseBlock = blockAt(Cfg, 3);
  uint32_t ElseArm = blockAt(Cfg, 4);
  bool FalseToElse = false;
  for (uint32_t EId : Cfg.Blocks[If].Succs)
    if (Cfg.Edges[EId].Kind == EdgeKind::IfFalse)
      FalseToElse = Cfg.Edges[EId].To == ElseBlock;
  EXPECT_TRUE(FalseToElse);
  // Neither arm dominates the exit; the join (`end` at 5) does.
  EXPECT_FALSE(Cfg.Blocks[blockAt(Cfg, 2)].DominatesExit);
  EXPECT_FALSE(Cfg.Blocks[ElseArm].DominatesExit);
  EXPECT_TRUE(Cfg.Blocks[blockAt(Cfg, 5)].DominatesExit);
  // The join's immediate dominator is the `if` (the fork point).
  EXPECT_EQ(Cfg.Blocks[blockAt(Cfg, 5)].IDom, If);
}

TEST(Cfg, IfWithoutElseFalseEdgeSkipsToJoin) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t If = blockAt(Cfg, 1);
  uint32_t Join = blockAt(Cfg, 3);
  bool FalseToJoin = false;
  for (uint32_t EId : Cfg.Blocks[If].Succs)
    if (Cfg.Edges[EId].Kind == EdgeKind::IfFalse)
      FalseToJoin = Cfg.Edges[EId].To == Join;
  EXPECT_TRUE(FalseToJoin);
  EXPECT_FALSE(Cfg.Blocks[blockAt(Cfg, 2)].DominatesExit);
  EXPECT_TRUE(Cfg.Blocks[Join].DominatesExit);
}

TEST(Cfg, BrTableFanOutDeduplicatesTargets) {
  // br_table with targets {0, 1, 0} and default 1 fans out to exactly two
  // distinct labels.
  Instr Table(Opcode::BrTable, 1);
  Table.Table = {0, 1, 0};
  Module M = moduleWithBody(
      {Instr::block(BlockType::empty()), Instr::block(BlockType::empty()),
       Instr::localGet(0), Table, Instr(Opcode::End), Instr(Opcode::End),
       Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t TableBlock = blockAt(Cfg, 3);
  EXPECT_EQ(countEdges(Cfg, TableBlock, EdgeKind::BrTable), 2u);
  EXPECT_EQ(Cfg.Blocks[TableBlock].Succs.size(), 2u);
  // Depth 0 resolves to the inner `end` (4), depth 1 to the outer (5).
  std::set<uint32_t> Targets;
  for (uint32_t EId : Cfg.Blocks[TableBlock].Succs)
    Targets.insert(Cfg.Edges[EId].To);
  EXPECT_EQ(Targets,
            (std::set<uint32_t>{blockAt(Cfg, 4), blockAt(Cfg, 5)}));
}

TEST(Cfg, NestedLoopsDepthsAndBackEdges) {
  Module M = moduleWithBody(
      {Instr::loop(BlockType::empty()), Instr::loop(BlockType::empty()),
       Instr::localGet(0), Instr::brIf(0), Instr::localGet(0),
       Instr::brIf(1), Instr(Opcode::End), Instr(Opcode::End),
       Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t Outer = blockAt(Cfg, 0);
  uint32_t Inner = blockAt(Cfg, 1);
  EXPECT_TRUE(Cfg.Blocks[Outer].IsLoopHeader);
  EXPECT_TRUE(Cfg.Blocks[Inner].IsLoopHeader);
  EXPECT_EQ(Cfg.LoopHeaders, (std::vector<uint32_t>{Outer, Inner}));
  EXPECT_EQ(Cfg.MaxLoopDepth, 2u);
  EXPECT_EQ(Cfg.Blocks[Outer].LoopDepth, 1u);
  EXPECT_EQ(Cfg.Blocks[Inner].LoopDepth, 2u);
  // Both br_if taken edges are back edges to their loop headers.
  uint32_t BackEdges = 0;
  for (const CfgEdge &E : Cfg.Edges)
    if (E.Back) {
      ++BackEdges;
      EXPECT_EQ(E.Kind, EdgeKind::BrIf);
      EXPECT_TRUE(E.To == Outer || E.To == Inner);
    }
  EXPECT_EQ(BackEdges, 2u);
  // The loop bodies still reach the exit (both br_ifs can fall through).
  EXPECT_TRUE(Cfg.Blocks[blockAt(Cfg, 8)].Rpo != NoBlock);
}

TEST(Cfg, UnreachableTerminatedBlockEdgesToExit) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Unreachable), Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t Trap = blockAt(Cfg, 2);
  ASSERT_EQ(Cfg.Blocks[Trap].Succs.size(), 1u);
  const CfgEdge &E = Cfg.Edges[Cfg.Blocks[Trap].Succs[0]];
  EXPECT_EQ(E.Kind, EdgeKind::Unreachable);
  EXPECT_EQ(E.To, Cfg.exitId());
}

TEST(Cfg, ReturnEdgesToExitAndDeadTail) {
  Module M = moduleWithBody({Instr(Opcode::Return), Instr(Opcode::Nop),
                             Instr(Opcode::End)});
  ControlFlowGraph Cfg = cfgFor(M);
  checkInvariants(Cfg, M.Functions[0].Body);
  uint32_t Ret = blockAt(Cfg, 0);
  ASSERT_EQ(Cfg.Blocks[Ret].Succs.size(), 1u);
  EXPECT_EQ(Cfg.Edges[Cfg.Blocks[Ret].Succs[0]].Kind, EdgeKind::Return);
  EXPECT_EQ(Cfg.Edges[Cfg.Blocks[Ret].Succs[0]].To, Cfg.exitId());
  // The nop after `return` is dead: no RPO number, no dominator.
  EXPECT_EQ(Cfg.Blocks[blockAt(Cfg, 1)].Rpo, NoBlock);
  EXPECT_EQ(Cfg.Blocks[blockAt(Cfg, 1)].IDom, NoBlock);
}

// --- Structural rejection parity with the evaluator ---------------------------

TEST(Cfg, RejectsExactlyWhatTheEvaluatorRejectsStructurally) {
  std::vector<Module> Invalid;
  // `else` without an open `if`.
  Invalid.push_back(
      moduleWithBody({Instr(Opcode::Else), Instr(Opcode::End)}));
  // Missing final `end`.
  Invalid.push_back(moduleWithBody({Instr(Opcode::Nop)}));
  // Branch depth out of range.
  Invalid.push_back(moduleWithBody({Instr::br(5), Instr(Opcode::End)}));
  // Trailing instruction after the function's final `end`.
  Invalid.push_back(
      moduleWithBody({Instr(Opcode::End), Instr(Opcode::Nop)}));
  for (size_t I = 0; I < Invalid.size(); ++I) {
    Result<void> Eval = evaluateFunction(Invalid[I], 0);
    Result<ControlFlowGraph> Cfg = buildCfg(Invalid[I], 0);
    ASSERT_TRUE(Eval.isErr()) << "case " << I;
    ASSERT_TRUE(Cfg.isErr()) << "case " << I;
    EXPECT_EQ(Cfg.error().code(), Eval.error().code()) << "case " << I;
    EXPECT_EQ(Cfg.error().message(), Eval.error().message()) << "case " << I;
  }
  // Typing errors are NOT structural: buildCfg accepts, the fixpoint (which
  // runs the evaluator core) rejects — the composed verdict still matches.
  Module BadTyping = moduleWithBody(
      {Instr::i32Const(1), Instr(Opcode::F32Add), Instr(Opcode::End)});
  EXPECT_TRUE(evaluateFunction(BadTyping, 0).isErr());
  ASSERT_TRUE(buildCfg(BadTyping, 0).isOk());
  EXPECT_TRUE(analyzeFunction(BadTyping, 0).isErr());
}

// --- Must-execute mask --------------------------------------------------------

TEST(Cfg, MustMaskSplitsConditionalFromUnconditional) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::End), Instr(Opcode::Nop),
       Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  std::vector<bool> Must = mustExecuteMask(Cfg, 6);
  ASSERT_EQ(Must.size(), 6u);
  EXPECT_TRUE(Must[0]);  // condition load
  EXPECT_TRUE(Must[1]);  // the if itself
  EXPECT_FALSE(Must[2]); // then-arm
  EXPECT_TRUE(Must[3]);  // join
  EXPECT_TRUE(Must[4]);  // after the if
  EXPECT_TRUE(Must[5]);  // final end
}

TEST(Cfg, MustMaskAllFalseWhenExitUnreachable) {
  // An infinite loop: the exit block has no incoming path, so nothing may
  // claim to execute "on every entry->exit path".
  Module M = moduleWithBody({Instr::loop(BlockType::empty()), Instr::br(0),
                             Instr(Opcode::End), Instr(Opcode::End)});
  ControlFlowGraph Cfg = cfgFor(M);
  std::vector<bool> Must = mustExecuteMask(Cfg, 4);
  EXPECT_EQ(std::count(Must.begin(), Must.end(), true), 0);
}

TEST(Cfg, MustEvidenceCountersSplitByDominance) {
  // One load on every path, one only inside a conditional arm.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::load(Opcode::I32Load, 0),
       Instr(Opcode::Drop), Instr::localGet(0),
       Instr::ifOp(BlockType::empty()), Instr::localGet(0),
       Instr::load(Opcode::I32Load, 4), Instr(Opcode::Drop),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  Result<FunctionSummary> Summary = analyzeFunction(M, 0);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  const ParamEvidence &P = Summary->Params.at(0);
  EXPECT_EQ(P.DirectLoads, 2u);
  EXPECT_EQ(P.MustDirectLoads, 1u);
  EXPECT_TRUE(P.mustDirectlyDereferenced());
  // Serialization carries the must counters for offline triage.
  std::string Json = toJson(*Summary);
  EXPECT_NE(Json.find("\"must_direct_loads\":1"), std::string::npos) << Json;
}

TEST(Cfg, MustCountersZeroInsideLoopsThatMayNotReachExit) {
  // The load sits inside an infinite loop: flow-insensitive evidence sees
  // it, the must mask does not (the exit is unreachable).
  Module M = moduleWithBody(
      {Instr::loop(BlockType::empty()), Instr::localGet(0),
       Instr::load(Opcode::I32Load, 0), Instr(Opcode::Drop), Instr::br(0),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  Result<FunctionSummary> Summary = analyzeFunction(M, 0);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  const ParamEvidence &P = Summary->Params.at(0);
  EXPECT_EQ(P.DirectLoads, 1u);
  EXPECT_EQ(P.MustDirectLoads, 0u);
  EXPECT_FALSE(P.mustDirectlyDereferenced());
}

// --- Corpus-wide invariants and the multi-round fixpoint ----------------------

TEST(Cfg, InvariantsHoldOnSyntheticCorpus) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 8;
  Spec.Seed = 11;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  size_t Functions = 0;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      const Module &M = Object.Mod;
      for (uint32_t I = 0; I < M.Functions.size(); ++I) {
        // Every evaluator-accepted function must build a CFG that satisfies
        // the structural invariants.
        ASSERT_TRUE(evaluateFunction(M, I).isOk());
        Result<ControlFlowGraph> Cfg = buildCfg(M, I);
        ASSERT_TRUE(Cfg.isOk())
            << Object.FileName << " fn " << I << ": "
            << Cfg.error().message();
        checkInvariants(*Cfg, M.Functions[I].Body);
        ++Functions;
      }
    }
  EXPECT_GT(Functions, 100u);
}

TEST(Cfg, LoopCarryNeedsMoreThanOneRound) {
  // A loop whose carry changes between rounds: the fixpoint must run more
  // than one round to close the back edge.
  Module M = moduleWithBody(
      {Instr(Opcode::Nop), Instr::loop(BlockType::empty()),
       Instr::localGet(1), Instr::i32Const(1), Instr(Opcode::I32Add),
       Instr::localSet(1), Instr::localGet(0), Instr::brIf(0),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32}, {}, {ValType::I32});
  Result<FunctionSummary> Summary = analyzeFunction(M, 0);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  EXPECT_GT(Summary->FixpointPasses, 1u);
}

// --- Branch-join regressions (the `else` fix in stack_eval.cpp) ---------------

TEST(Cfg, ElseDropsThenBranchJoinLocals) {
  // A br_if inside the then-arm records local 1 = const at the if's end
  // label; both fall-throughs leave local 1 = param. The join after `end`
  // must merge all three — the historical bug dropped the branch snapshot
  // at `else`, leaving local 1 looking like the param on every path and
  // fabricating a direct param load.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::localSet(1), Instr::localGet(0),
       Instr::ifOp(BlockType::empty()), Instr::i32Const(16),
       Instr::localSet(1), Instr::i32Const(1), Instr::brIf(0),
       Instr::localGet(0), Instr::localSet(1), Instr(Opcode::Else),
       Instr::localGet(0), Instr::localSet(1), Instr(Opcode::End),
       Instr::localGet(1), Instr::load(Opcode::I32Load, 0),
       Instr(Opcode::Drop), Instr(Opcode::End)},
      {ValType::I32}, {}, {ValType::I32});
  Result<FunctionSummary> Summary = analyzeFunction(M, 0);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  // The merged tag is no longer the param, so the load must not be
  // attributed to it.
  EXPECT_EQ(Summary->Params.at(0).DirectLoads, 0u);
  EXPECT_EQ(Summary->Params.at(0).DerivedLoads, 0u);
}

TEST(Cfg, ElseDropsThenBranchJoinResults) {
  // Same shape for the if's result slot: the br_if branches out with a
  // const result, both fall-throughs produce the param. The historical bug
  // overwrote the result accumulator at `else`, reporting a from-param
  // return on every edge.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::value(ValType::I32)),
       Instr::i32Const(16), Instr::i32Const(1), Instr::brIf(0),
       Instr(Opcode::Drop), Instr::localGet(0), Instr(Opcode::Else),
       Instr::localGet(0), Instr(Opcode::End), Instr(Opcode::Return),
       Instr(Opcode::End)},
      {ValType::I32}, {ValType::I32});
  Result<FunctionSummary> Summary = analyzeFunction(M, 0);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  ASSERT_TRUE(Summary->HasReturn);
  EXPECT_EQ(Summary->Ret.TotalReturns, 1u);
  EXPECT_EQ(Summary->Ret.FromParam, 0u);
}

// --- Path tokens --------------------------------------------------------------

TEST(Paths, StraightLineHasOneEmptyPath) {
  Module M = moduleWithBody({Instr(Opcode::Nop), Instr(Opcode::End)});
  std::vector<std::string> Tokens = extractPathTokens(cfgFor(M));
  EXPECT_EQ(Tokens,
            (std::vector<std::string>{"<path:begin>", "<path:end>"}));
}

TEST(Paths, IfElseEnumeratesBothArms) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::Else), Instr(Opcode::Nop),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  std::vector<std::string> Tokens = extractPathTokens(cfgFor(M));
  // The if's false edge is created first, so the DFS enumerates it first.
  EXPECT_EQ(Tokens,
            (std::vector<std::string>{"<path:begin>", "<path:if-f>",
                                      "<path:sep>", "<path:if-t>",
                                      "<path:end>"}));
}

TEST(Paths, LoopEmitsLoopAndBackTokensWithoutTraversal) {
  Module M = moduleWithBody(
      {Instr::loop(BlockType::empty()), Instr::localGet(0), Instr::brIf(0),
       Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  std::vector<std::string> Tokens = extractPathTokens(cfgFor(M));
  EXPECT_NE(std::find(Tokens.begin(), Tokens.end(), "<path:loop>"),
            Tokens.end());
  EXPECT_NE(std::find(Tokens.begin(), Tokens.end(), "<path:back>"),
            Tokens.end());
  EXPECT_EQ(Tokens.front(), "<path:begin>");
  EXPECT_EQ(Tokens.back(), "<path:end>");
}

TEST(Paths, NoneWhenExitUnreachable) {
  Module M = moduleWithBody({Instr::loop(BlockType::empty()), Instr::br(0),
                             Instr(Opcode::End), Instr(Opcode::End)});
  EXPECT_EQ(extractPathTokens(cfgFor(M)),
            (std::vector<std::string>{"<path:none>"}));
}

TEST(Paths, CutTokenMarksTruncatedPaths) {
  // 20 sequential ifs: every entry->exit path takes 20 branch steps, well
  // past MaxStepsPerPath = 16, so each emitted path ends in an explicit cut.
  std::vector<Instr> Body;
  for (int I = 0; I < 20; ++I) {
    Body.push_back(Instr::localGet(0));
    Body.push_back(Instr::ifOp(BlockType::empty()));
    Body.push_back(Instr(Opcode::Nop));
    Body.push_back(Instr(Opcode::End));
  }
  Body.push_back(Instr(Opcode::End));
  Module M = moduleWithBody(std::move(Body), {ValType::I32});
  std::vector<std::string> Tokens = extractPathTokens(cfgFor(M));
  EXPECT_NE(std::find(Tokens.begin(), Tokens.end(), "<path:cut>"),
            Tokens.end());
}

TEST(Paths, RespectsMaxPathsCap) {
  // 3 sequential ifs = 8 acyclic paths; MaxPaths = 4 keeps at most 4
  // (3 separators between them).
  std::vector<Instr> Body;
  for (int I = 0; I < 3; ++I) {
    Body.push_back(Instr::localGet(0));
    Body.push_back(Instr::ifOp(BlockType::empty()));
    Body.push_back(Instr(Opcode::Nop));
    Body.push_back(Instr(Opcode::End));
  }
  Body.push_back(Instr(Opcode::End));
  Module M = moduleWithBody(std::move(Body), {ValType::I32});
  PathOptions Opts;
  Opts.MaxPaths = 4;
  std::vector<std::string> Tokens = extractPathTokens(cfgFor(M), Opts);
  EXPECT_EQ(std::count(Tokens.begin(), Tokens.end(), "<path:sep>"), 3);
}

TEST(Paths, AllEmittedTokensAreInTheVocabulary) {
  const std::vector<std::string> &Vocab = pathTokenVocabulary();
  EXPECT_EQ(Vocab.size(), 14u);
  std::set<std::string> InVocab(Vocab.begin(), Vocab.end());

  frontend::CorpusSpec Spec;
  Spec.NumPackages = 4;
  Spec.Seed = 5;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  size_t Emitted = 0;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects)
      for (uint32_t I = 0; I < Object.Mod.Functions.size(); ++I) {
        Result<ControlFlowGraph> Cfg = buildCfg(Object.Mod, I);
        ASSERT_TRUE(Cfg.isOk());
        for (const std::string &Token : extractPathTokens(*Cfg)) {
          EXPECT_TRUE(InVocab.count(Token)) << Token;
          ++Emitted;
        }
      }
  EXPECT_GT(Emitted, 0u);
}

TEST(Paths, TokensAppearInDatasetInputsOnlyWhenEnabled) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 4;
  Spec.Seed = 33;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  dataset::DatasetOptions Plain;
  dataset::Dataset Without = dataset::buildDataset(Corpus, Plain);
  dataset::DatasetOptions WithPaths = Plain;
  WithPaths.Extract.PathTokens = true;
  dataset::Dataset With = dataset::buildDataset(Corpus, WithPaths);

  auto CountPathTokens = [](const dataset::Dataset &Data) {
    size_t Count = 0;
    for (const dataset::TypeSample &Sample : Data.Samples)
      for (const std::string &Token : Sample.Input)
        if (Token.rfind("<path:", 0) == 0)
          ++Count;
    return Count;
  };
  EXPECT_EQ(CountPathTokens(Without), 0u);
  EXPECT_GT(CountPathTokens(With), 0u);
  // Same samples, same split — the tokens are additive.
  EXPECT_EQ(Without.Samples.size(), With.Samples.size());
  EXPECT_EQ(Without.Train, With.Train);
}

// --- Determinism and thread invariance ----------------------------------------

TEST(Paths, SummariesAndPathTokensInvariantUnderThreadCount) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 5;
  Spec.Seed = 21;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  dataset::DatasetOptions Options;
  Options.Extract.EvidenceTokens = true;
  Options.Extract.PathTokens = true;

  ThreadPool::resetGlobal(1);
  dataset::Dataset Single = dataset::buildDataset(Corpus, Options);
  std::vector<std::string> SingleJson;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      Result<ModuleSummary> Summary = analyzeModule(Object.Mod);
      ASSERT_TRUE(Summary.isOk());
      SingleJson.push_back(toJson(*Summary));
    }

  ThreadPool::resetGlobal(4);
  dataset::Dataset Multi = dataset::buildDataset(Corpus, Options);
  std::vector<std::string> MultiJson;
  for (const frontend::Package &Package : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Package.Objects) {
      Result<ModuleSummary> Summary = analyzeModule(Object.Mod);
      ASSERT_TRUE(Summary.isOk());
      MultiJson.push_back(toJson(*Summary));
    }
  ThreadPool::resetGlobal(0); // Back to the environment-sized pool.

  EXPECT_EQ(SingleJson, MultiJson);
  ASSERT_EQ(Single.Samples.size(), Multi.Samples.size());
  size_t WithPathTokens = 0;
  for (size_t I = 0; I < Single.Samples.size(); ++I) {
    EXPECT_EQ(Single.Samples[I].Input, Multi.Samples[I].Input)
        << "sample " << I;
    for (const std::string &Token : Single.Samples[I].Input)
      if (Token.rfind("<path:", 0) == 0) {
        ++WithPathTokens;
        break;
      }
  }
  EXPECT_GT(WithPathTokens, 0u);
}

// --- Path-sensitive gate ------------------------------------------------------

GateVerdict verdictFor(const char *Text, const ParamEvidence &P,
                       bool PathSensitive) {
  Result<typelang::Type> Parsed = typelang::parseType(Text);
  EXPECT_TRUE(Parsed.isOk()) << Text;
  QueryEvidence Evidence;
  Evidence.Param = P;
  GateOptions Options;
  Options.PathSensitive = PathSensitive;
  return checkConsistency(*Parsed, Evidence, Options);
}

TEST(PathGate, ConditionalDerefNoLongerContradicts) {
  ParamEvidence P;
  P.DirectLoads = 1; // Only on some paths (no must counterpart).
  P.MinAccessBytes = 4;
  P.MaxAccessBytes = 4;
  EXPECT_EQ(verdictFor("primitive int 32", P, false),
            GateVerdict::DerefNonPointer);
  EXPECT_EQ(verdictFor("primitive int 32", P, true),
            GateVerdict::Consistent);
  // Once the deref is on every path, both modes gate.
  P.MustDirectLoads = 1;
  EXPECT_EQ(verdictFor("primitive int 32", P, true),
            GateVerdict::DerefNonPointer);
}

TEST(PathGate, ViaCalleeFactsNeverSatisfyMust) {
  ParamEvidence P;
  P.DereferencedViaCallee = true;
  EXPECT_EQ(verdictFor("primitive int 32", P, false),
            GateVerdict::DerefNonPointer);
  // Interprocedural facts cannot prove every-path execution: the call site
  // itself may be conditional.
  EXPECT_EQ(verdictFor("primitive int 32", P, true),
            GateVerdict::Consistent);
}

TEST(PathGate, MustCountersGateStoresWidthAndSign) {
  ParamEvidence Stores;
  Stores.DirectStores = 1;
  Stores.MinAccessBytes = 1;
  Stores.MaxAccessBytes = 1;
  EXPECT_EQ(verdictFor("pointer const primitive cchar", Stores, true),
            GateVerdict::Consistent);
  Stores.MustDirectStores = 1;
  EXPECT_EQ(verdictFor("pointer const primitive cchar", Stores, true),
            GateVerdict::StoreThroughConst);

  ParamEvidence Wide;
  Wide.DirectLoads = 1;
  Wide.MinAccessBytes = 4;
  Wide.MaxAccessBytes = 4;
  EXPECT_EQ(verdictFor("pointer primitive cchar", Wide, true),
            GateVerdict::Consistent);
  Wide.MustDirectLoads = 1;
  EXPECT_EQ(verdictFor("pointer primitive cchar", Wide, true),
            GateVerdict::AccessWiderThanPointee);

  ParamEvidence Sign;
  Sign.UnsignedOps = 2;
  EXPECT_EQ(verdictFor("primitive int 32", Sign, true),
            GateVerdict::Consistent);
  Sign.MustUnsignedOps = 1;
  EXPECT_EQ(verdictFor("primitive int 32", Sign, true),
            GateVerdict::SignMismatch);
}

TEST(PathGate, EndToEndMustEvidenceFromAnalyzer) {
  // The conditional-load function: flow-insensitive gating would reject
  // `primitive int 32`, the path-sensitive gate accepts it.
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr::localGet(0), Instr::load(Opcode::I32Load, 0),
       Instr(Opcode::Drop), Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  Result<ModuleSummary> Summary = analyzeModule(M);
  ASSERT_TRUE(Summary.isOk()) << Summary.error().message();
  QueryEvidence Evidence = queryEvidence(*Summary, 0, 0);
  ASSERT_TRUE(Evidence.Param.has_value());
  Result<typelang::Type> Int = typelang::parseType("primitive int 32");
  ASSERT_TRUE(Int.isOk());
  EXPECT_EQ(checkConsistency(*Int, Evidence, GateOptions{false}),
            GateVerdict::DerefNonPointer);
  EXPECT_EQ(checkConsistency(*Int, Evidence, GateOptions{true}),
            GateVerdict::Consistent);
}

// --- DOT / JSON goldens -------------------------------------------------------

TEST(Cfg, DotGolden) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  EXPECT_EQ(cfgToDot(M, Cfg),
            "digraph fn0 {\n"
            "  node [fontname=\"monospace\"];\n"
            "  b0 [shape=circle,label=\"entry\"];\n"
            "  b1 [shape=box,label=\"B1 [0,1)\\nlocal.get\",style=bold];\n"
            "  b2 [shape=box,label=\"B2 [1,2)\\nif\",style=bold];\n"
            "  b3 [shape=box,label=\"B3 [2,3)\\nnop\"];\n"
            "  b4 [shape=box,label=\"B4 [3,4)\\nend\",style=bold];\n"
            "  b5 [shape=box,label=\"B5 [4,5)\\nend\",style=bold];\n"
            "  b6 [shape=doublecircle,label=\"exit\"];\n"
            "  b0 -> b1 [label=\"fall\"];\n"
            "  b1 -> b2 [label=\"fall\"];\n"
            "  b2 -> b4 [label=\"if-false\"];\n"
            "  b2 -> b3 [label=\"if-true\"];\n"
            "  b3 -> b4 [label=\"fall\"];\n"
            "  b4 -> b5 [label=\"fall\"];\n"
            "  b5 -> b6 [label=\"fall\"];\n"
            "}\n");
}

TEST(Cfg, JsonGolden) {
  Module M = moduleWithBody(
      {Instr::localGet(0), Instr::ifOp(BlockType::empty()),
       Instr(Opcode::Nop), Instr(Opcode::End), Instr(Opcode::End)},
      {ValType::I32});
  ControlFlowGraph Cfg = cfgFor(M);
  EXPECT_EQ(
      cfgToJson(Cfg),
      "{\"defined_index\":0,\"blocks\":["
      "{\"id\":0,\"kind\":\"entry\",\"first\":0,\"end\":0,\"rpo\":0,"
      "\"idom\":0,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true},"
      "{\"id\":1,\"kind\":\"body\",\"first\":0,\"end\":1,\"rpo\":1,"
      "\"idom\":0,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true},"
      "{\"id\":2,\"kind\":\"body\",\"first\":1,\"end\":2,\"rpo\":2,"
      "\"idom\":1,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true},"
      "{\"id\":3,\"kind\":\"body\",\"first\":2,\"end\":3,\"rpo\":3,"
      "\"idom\":2,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":false},"
      "{\"id\":4,\"kind\":\"body\",\"first\":3,\"end\":4,\"rpo\":4,"
      "\"idom\":2,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true},"
      "{\"id\":5,\"kind\":\"body\",\"first\":4,\"end\":5,\"rpo\":5,"
      "\"idom\":4,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true},"
      "{\"id\":6,\"kind\":\"exit\",\"first\":5,\"end\":5,\"rpo\":6,"
      "\"idom\":5,\"loop_header\":false,\"loop_depth\":0,"
      "\"dominates_exit\":true}"
      "],\"edges\":["
      "{\"from\":0,\"to\":1,\"kind\":\"fall\",\"back\":false},"
      "{\"from\":1,\"to\":2,\"kind\":\"fall\",\"back\":false},"
      "{\"from\":2,\"to\":4,\"kind\":\"if-false\",\"back\":false},"
      "{\"from\":2,\"to\":3,\"kind\":\"if-true\",\"back\":false},"
      "{\"from\":3,\"to\":4,\"kind\":\"fall\",\"back\":false},"
      "{\"from\":4,\"to\":5,\"kind\":\"fall\",\"back\":false},"
      "{\"from\":5,\"to\":6,\"kind\":\"fall\",\"back\":false}"
      "],\"loop_headers\":[],\"max_loop_depth\":0}");
}

} // namespace
} // namespace analysis
} // namespace snowwhite
