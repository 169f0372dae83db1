//===- analysis/cfg.h - Per-function control-flow graph --------------------===//
//
// An explicit control-flow graph over a WebAssembly function body, derived
// from the same control-frame discipline the typed-stack evaluator
// (stack_eval.cpp) walks implicitly. It is the shared analysis IR:
//
//  * basic blocks partition the body in body order (every control
//    instruction is its own single-instruction block; straight-line runs
//    coalesce), plus one synthetic entry and one synthetic exit block;
//  * typed edges for block/loop/if/else/br/br_if/br_table/return/
//    unreachable, with back edges (branches to a `loop` header) flagged;
//  * reverse-postorder numbering — body order *is* a reverse postorder for
//    structured wasm, because every non-back edge goes forward in the body
//    (a property the test suite checks on every corpus function);
//  * an iterative dominator tree (Cooper-Harvey-Kennedy over RPO), natural
//    loops from back edges, and a per-block dominates-exit bit that powers
//    the path-sensitive ("must") evidence used by the serving gate.
//
// buildCfg is public and runs on bodies from outside the program (the CLI,
// path tokens), so it checks the frame discipline itself and rejects the
// same structural malformations the evaluator rejects (same taxonomy codes,
// same wasm::MaxControlNesting cap). It never rejects a body the evaluator
// accepts (`snowwhite_fuzz --cfg` checks this on every mutant); typing
// errors are left to the evaluator.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_CFG_H
#define SNOWWHITE_ANALYSIS_CFG_H

#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {
namespace analysis {

/// Sentinel block id ("none").
constexpr uint32_t NoBlock = 0xffffffffu;

/// Why an edge exists. One enumerator per control construct the tentpole
/// names; `Fall` covers straight-line continuation (including a completed
/// then-arm or inner `end` falling to its join point).
enum class EdgeKind : uint8_t {
  Fall,        ///< Straight-line fall-through.
  BlockEntry,  ///< `block` entering its body.
  LoopEntry,   ///< `loop` entering its body (the loop header).
  IfTrue,      ///< `if` taken edge into the then-arm.
  IfFalse,     ///< `if` false edge to the `else` arm (or past `end`).
  Br,          ///< Unconditional `br`.
  BrIf,        ///< `br_if` taken edge (the fall-through edge is Fall).
  BrTable,     ///< One `br_table` fan-out target (deduplicated per target).
  Return,      ///< `return` to the exit block.
  Unreachable, ///< `unreachable` trap edge to the exit block.
};

const char *edgeKindName(EdgeKind Kind);

struct CfgEdge {
  uint32_t From = NoBlock;
  uint32_t To = NoBlock;
  EdgeKind Kind = EdgeKind::Fall;
  bool Back = false; ///< Branch to a `loop` header (the only backward edges).
};

struct BasicBlock {
  uint32_t Id = 0;
  size_t First = 0; ///< Body index of the first instruction.
  size_t End = 0;   ///< One past the last instruction ([First, End)).
  bool IsEntry = false;
  bool IsExit = false;
  bool IsLoopHeader = false; ///< Target of at least one back edge.
  std::vector<uint32_t> Succs; ///< Edge indices out of this block.
  std::vector<uint32_t> Preds; ///< Edge indices into this block.
  uint32_t Rpo = NoBlock;  ///< Reverse-postorder number; NoBlock if dead.
  uint32_t IDom = NoBlock; ///< Immediate dominator; NoBlock if dead.
  uint32_t LoopDepth = 0;  ///< Natural-loop nesting depth.
  bool DominatesExit = false; ///< Lies on every entry->exit path.
};

struct ControlFlowGraph {
  uint32_t DefinedIndex = 0;
  /// Blocks[0] is the synthetic entry, Blocks.back() the synthetic exit;
  /// everything between partitions the body in body order.
  std::vector<BasicBlock> Blocks;
  std::vector<CfgEdge> Edges;
  /// Reachable block ids in reverse postorder (== body order).
  std::vector<uint32_t> Rpo;
  /// Loop-header block ids in body order.
  std::vector<uint32_t> LoopHeaders;
  uint32_t MaxLoopDepth = 0;

  uint32_t entryId() const { return 0; }
  uint32_t exitId() const {
    return static_cast<uint32_t>(Blocks.size()) - 1;
  }
  /// True when A dominates B (both reachable; reflexive).
  bool dominates(uint32_t A, uint32_t B) const;
};

/// Builds the CFG for defined function DefinedIndex. Rejects exactly the
/// structural malformations the evaluator rejects (same messages, same
/// Malformed/LimitExceeded taxonomy); typing errors are left to the
/// evaluator.
Result<ControlFlowGraph> buildCfg(const wasm::Module &M,
                                  uint32_t DefinedIndex);

/// Per-instruction "executes on every entry->exit path" mask (true iff the
/// containing block dominates the synthetic exit). All-false when the exit
/// is unreachable (the body can only trap or loop forever) — the gate then
/// never claims must-evidence, which is the conservative direction.
std::vector<bool> mustExecuteMask(const ControlFlowGraph &Cfg,
                                  size_t BodySize);

/// Graphviz rendering (one digraph) for offline triage.
std::string cfgToDot(const wasm::Module &M, const ControlFlowGraph &Cfg);

/// JSON rendering: blocks (with rpo/idom/loop/dominates-exit facts), edges,
/// loop headers.
std::string cfgToJson(const ControlFlowGraph &Cfg);

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_CFG_H
