//===- wasm/validate.h - WebAssembly function validation -------------------===//
//
// Type-checks function bodies per the WebAssembly 1.0 validation algorithm
// (value stack + control frame stack, with stack-polymorphic unreachable
// code). This is the reference engine for control flow and stack
// polymorphism; analysis/stack_eval.h is the second engine, with the same
// verdicts. Both read one opcode table (wasm/opcodes.def): an opcode with a
// fixed signature is typed straight from its row, through the shared
// context checks below, and only the context-dependent opcodes are typed by
// hand. The synthetic frontend must only ever produce valid modules; tests
// assert this property over large generated corpora.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_WASM_VALIDATE_H
#define SNOWWHITE_WASM_VALIDATE_H

#include "support/result.h"
#include "wasm/module.h"

#include <cstddef>
#include <optional>
#include <string>

namespace snowwhite {
namespace wasm {

/// Control nesting cap. The reader already bounds body size by section
/// bytes, but a body of back-to-back `block` opcodes would still grow the
/// frame stack linearly with input size; cap it so hostile inputs get a
/// structured LimitExceeded instead of unbounded memory growth. The
/// analysis evaluator and buildCfg reject at the same depth, so all three
/// agree on every body.
inline constexpr size_t MaxControlNesting = 1024;

/// The checks of a Fixed instruction (see OpcodeInfo) that do not touch the
/// operand stack: a memory instruction needs a memory, and a memarg's
/// alignment exponent must not exceed log2 of the access width. Returns the
/// error text without an engine prefix, or nullopt when they pass.
std::optional<std::string> fixedContextError(const Module &M, const Instr &I,
                                             const OpcodeInfo &Info);

/// The error text when operand Slot (push order) of Fixed instruction Info
/// has the wrong type.
const char *operandMismatch(const OpcodeInfo &Info, unsigned Slot);

/// Validates the body of defined function DefinedIndex against its type,
/// locals, and the module context (types, imports, globals, memories).
Result<void> validateFunction(const Module &M, uint32_t DefinedIndex);

/// Validates every defined function plus basic index-space invariants
/// (type indices in range, export/import indices valid, global inits const).
Result<void> validateModule(const Module &M);

} // namespace wasm
} // namespace snowwhite

#endif // SNOWWHITE_WASM_VALIDATE_H
