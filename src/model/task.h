//===- model/task.h - A concrete type-prediction task ----------------------===//
//
// Binds a dataset to one prediction task: {parameter | return} x {type
// language variant} x {with | without the low-level type hint}. Materializes
// BPE-subword-encoded source id sequences and target id sequences for the
// train/validation/test splits, and provides the token<->id codecs the
// trainer, predictor, and metrics need.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_MODEL_TASK_H
#define SNOWWHITE_MODEL_TASK_H

#include "dataset/bpe.h"
#include "dataset/pipeline.h"
#include "dataset/token_vocab.h"
#include "typelang/variants.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace snowwhite {
namespace model {

/// Which signature element the task predicts.
enum class TaskKind : uint8_t {
  TK_Parameter,
  TK_Return,
  /// EXTENSION (paper future work): predict the field-shape sequence of the
  /// aggregate a pointer parameter points to. Only parameter samples whose
  /// type is a pointer to a defined aggregate participate; the target is
  /// the sequence from typelang::fieldShapeTokens instead of a type term.
  TK_Fields,
};

/// Task construction knobs.
struct TaskOptions {
  TaskKind Kind = TaskKind::TK_Parameter;
  typelang::TypeLanguageKind Language = typelang::TypeLanguageKind::TL_Sw;
  /// Ablation (Table 5, rightmost column): strip the low-level type token
  /// from the input sequences.
  bool StripLowLevelType = false;
  /// Subword vocabulary size for the WebAssembly input (paper: v' = 500).
  size_t BpeVocabSize = 420;
  /// Apply BPE to target type tokens as well (paper does; disabled by
  /// default here so targets stay whole tokens).
  bool BpeTargets = false;
  /// Cap on training samples (0 = all); validation/test are never capped.
  size_t MaxTrainSamples = 0;
};

/// One encoded sample.
struct EncodedSample {
  std::vector<uint32_t> Source;
  std::vector<uint32_t> Target;
  std::vector<std::string> TargetTokens; ///< Ground-truth type tokens.
  wasm::ValType LowLevel = wasm::ValType::I32;
  unsigned NestingDepth = 0; ///< Of the ground-truth type (Figure 4).
  /// Index into Dataset::Samples this was encoded from, for joining back to
  /// per-sample metadata (e.g. TypeSample::Evidence in the gate bench).
  uint32_t DatasetIndex = 0;
};

/// The materialized task.
class Task {
public:
  Task(const dataset::Dataset &Data, const TaskOptions &Options);

  const TaskOptions &options() const { return Options; }

  const std::vector<EncodedSample> &train() const { return Train; }
  const std::vector<EncodedSample> &valid() const { return Valid; }
  const std::vector<EncodedSample> &test() const { return Test; }

  const dataset::TokenVocab &sourceVocab() const { return SourceVocab; }
  const dataset::TokenVocab &targetVocab() const { return TargetVocab; }
  const dataset::BpeModel &bpe() const { return Bpe; }

  /// Encodes a raw wasm token sequence into source ids (BPE + vocab),
  /// applying the low-level-type ablation if configured.
  std::vector<uint32_t>
  encodeSource(const std::vector<std::string> &Tokens) const;

  /// Decodes predicted target ids back into type tokens (undoing target BPE
  /// if enabled).
  std::vector<std::string>
  decodeTarget(const std::vector<uint32_t> &Ids) const;

private:
  TaskOptions Options;
  dataset::BpeModel Bpe;
  dataset::TokenVocab SourceVocab;
  /// Source ids of every distinct training word, filled once in the
  /// constructor and read-only after, so one const Task can encode from
  /// many threads. Other words take the BPE merge loop.
  std::unordered_map<std::string, std::vector<uint32_t>> WordSourceIds;
  dataset::TokenVocab TargetVocab;
  std::vector<EncodedSample> Train, Valid, Test;
};

} // namespace model
} // namespace snowwhite

#endif // SNOWWHITE_MODEL_TASK_H
