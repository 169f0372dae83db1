//===- nn/seq2seq.h - Attentional LSTM sequence-to-sequence model ----------===//
//
// The paper's prediction model (§4.2): a bidirectional LSTM encoder over the
// WebAssembly input tokens and an LSTM decoder with Luong global attention
// producing the type-token sequence, trained with teacher forcing and Adam,
// queried with beam search for top-k predictions.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_NN_SEQ2SEQ_H
#define SNOWWHITE_NN_SEQ2SEQ_H

#include "nn/beam.h"
#include "nn/layers.h"
#include "support/result.h"

#include <string>
#include <utility>
#include <vector>

namespace snowwhite {
namespace nn {

/// Model hyperparameters. The paper uses h=512, e=100; the defaults here are
/// scaled for single-core CPU training while keeping the architecture
/// identical.
struct Seq2SeqConfig {
  size_t SrcVocabSize = 0;
  size_t TgtVocabSize = 0;
  size_t EmbedDim = 32;
  size_t HiddenDim = 48;
  float DropoutRate = 0.2f;
  size_t MaxSrcLen = 96; ///< Inputs are truncated/padded to this length.
  size_t MaxTgtLen = 20;
  uint64_t Seed = 123;

  /// Special ids, matching dataset::TokenVocab.
  uint32_t PadId = 0, UnkId = 1, BosId = 2, EosId = 3;
};

class Seq2SeqModel {
public:
  explicit Seq2SeqModel(const Seq2SeqConfig &Config);

  const Seq2SeqConfig &config() const { return Config; }

  /// One optimizer step over a batch of (source, target) id sequences
  /// (targets without BOS/EOS). Returns the mean token cross-entropy.
  ///
  /// Data-parallel: the batch is cut into fixed-size shards (TrainShardSize,
  /// independent of the thread count), each shard runs forward/backward on
  /// its own Graph with a private GradientSink and its own dropout stream,
  /// and the shard gradients are reduced into Parameter::Grad in ascending
  /// shard order before the Adam step — so the trained weights are
  /// bit-identical for any SNOWWHITE_THREADS value.
  float trainBatch(const std::vector<std::vector<uint32_t>> &Sources,
                   const std::vector<std::vector<uint32_t>> &Targets,
                   AdamOptimizer &Optimizer);

  /// The forward/backward half of trainBatch: accumulates the batch gradient
  /// into Parameter::Grad (same fixed-shard decomposition, same ordered
  /// reduction, one ModelRng draw) but does NOT run the optimizer. The
  /// self-healing trainer uses this so it can inspect gradient health — and
  /// discard a poisoned batch — before any weight or Adam moment changes.
  float computeBatchGradients(const std::vector<std::vector<uint32_t>> &Sources,
                              const std::vector<std::vector<uint32_t>> &Targets);

  /// Batch rows per data-parallel shard. Part of the determinism contract:
  /// the decomposition never depends on the available threads.
  static constexpr size_t TrainShardSize = 8;

  /// Mean token cross-entropy without updating weights (validation).
  float evaluateLoss(const std::vector<std::vector<uint32_t>> &Sources,
                     const std::vector<std::vector<uint32_t>> &Targets);

  /// Beam search for the BeamWidth most likely target sequences.
  std::vector<Hypothesis> predictTopK(const std::vector<uint32_t> &Source,
                                      unsigned BeamWidth) {
    return predictTopKBudgeted(Source, BeamWidth, 0).Hypotheses;
  }

  /// predictTopK with a hard cost ceiling of MaxDecodeSteps decoder
  /// invocations (0 = unlimited), the dominant cost; a numerically broken
  /// model reports NonFinite instead of emitting garbage (nn::beamSearch).
  /// This is what makes per-request deadlines in the serving engine
  /// enforceable: beam cost is bounded by construction.
  BeamOutcome predictTopKBudgeted(const std::vector<uint32_t> &Source,
                                  unsigned BeamWidth,
                                  uint64_t MaxDecodeSteps);

  /// All trainable parameters (for the optimizer).
  std::vector<Parameter *> parameters();
  size_t numParameters();

  /// The (rows, cols) of every parameter a model of Config has, in
  /// parameters() order, computed without building the model: deserialize()
  /// checks a file against it before it allocates anything.
  static std::vector<std::pair<size_t, size_t>>
  parameterShapes(const Seq2SeqConfig &Config);

  /// Opt-in int8 inference: post-training-quantizes every dense weight the
  /// beam search touches (the three LSTM cells' gate matrices, the attention
  /// score matrix, and the Bridge/AttnCombine/Output projections) to
  /// symmetric per-row int8 side-cars; embeddings stay f32 (they are row
  /// lookups, not matmuls). Inference-mode graphs then dequantize on
  /// accumulate; training always uses the f32 master weights. Derived state:
  /// not serialized, and must be re-enabled after further training.
  /// Quantization happens eagerly here, so once serving workers share this
  /// model the side-cars are read-only.
  void setInt8Inference(bool Enable);
  bool int8Inference() const { return Int8Inference; }

  /// The model's internal RNG (one draw per training batch seeds the
  /// dropout streams). Exposed so checkpoints can capture and restore it for
  /// bit-identical resume.
  Rng &modelRng() { return ModelRng; }

  /// Serializes config + all weights into a byte buffer (no I/O).
  std::vector<uint8_t> serialize() const;
  /// Rebuilds a model from serialize() output. Errors: Truncated/Malformed.
  static Result<Seq2SeqModel> deserialize(const std::vector<uint8_t> &Bytes);

  /// Binary serialization (config + all weights) to disk. The write is
  /// atomic (temp + rename) and carries a content checksum; load verifies
  /// the checksum (ChecksumMismatch on corruption) before deserializing.
  Result<void> save(const std::string &Path) const;
  static Result<Seq2SeqModel> load(const std::string &Path);

private:
  /// Shared encoder pass. Sources are truncated to MaxSrcLen and left-padded
  /// to a common length.
  struct Encoded {
    std::vector<Var> PerItemStates; ///< Per batch item: [T, 2h].
    std::vector<Var> PadMasks;      ///< Per item: [1, T] additive mask.
    Var DecoderH;                   ///< [B, h].
    Var DecoderC;                   ///< [B, h].
  };
  /// DropRng supplies dropout masks; shards pass private streams so graphs
  /// can run concurrently.
  Encoded encode(Graph &G, const std::vector<std::vector<uint32_t>> &Sources,
                 Rng &DropRng);

  /// One decoder step with attention, row i over encoded item i: returns
  /// (logits [B, V], new H, new C).
  struct DecodeStep {
    Var Logits;
    Var H;
    Var C;
  };
  DecodeStep decodeStep(Graph &G, const std::vector<uint32_t> &InputIds,
                        Var H, Var C, const Encoded &Enc, Rng &DropRng);

  /// Forward (and, when Train, backward) over one shard. LossScale weights
  /// the shard's contribution to the batch gradient (shard rows / batch
  /// rows); gradients accumulate into Sink when given, Parameter::Grad
  /// otherwise. Returns the shard's unscaled mean token cross-entropy.
  float forwardBackward(const std::vector<std::vector<uint32_t>> &Sources,
                        const std::vector<std::vector<uint32_t>> &Targets,
                        bool Train, float LossScale, GradientSink *Sink,
                        Rng &DropRng);

  Seq2SeqConfig Config;
  Rng ModelRng;

  Parameter SrcEmbed; ///< [srcV, e]
  Parameter TgtEmbed; ///< [tgtV, e]
  LstmCell EncoderFwd;
  LstmCell EncoderBwd;
  LstmCell Decoder;
  Linear Bridge;        ///< 2h -> h decoder init.
  Parameter AttnW;      ///< [h, 2h] Luong "general" score.
  Linear AttnCombine;   ///< (h + 2h) -> h.
  Linear Output;        ///< h -> tgtV.

  kernels::QuantizedMatrix AttnWQuant; ///< int8 side-car for AttnW.
  bool Int8Inference = false;
};

} // namespace nn
} // namespace snowwhite

#endif // SNOWWHITE_NN_SEQ2SEQ_H
