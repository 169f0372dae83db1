//===- nn/transformer.h - Transformer encoder-decoder alternative ----------===//
//
// The paper reports also exploring a Transformer sequence-to-sequence
// architecture, finding it does not improve accuracy over the much cheaper
// LSTM (§4.2) — this class exists to reproduce that comparison
// (bench/ablation_architecture). Standard pre-norm Transformer: learned
// positional embeddings, multi-head scaled dot-product attention (causal in
// the decoder, plus cross-attention over the encoder output), two-layer
// ReLU feed-forward blocks, residual connections, layer normalization.
//
// Mirrors Seq2SeqModel's interface so evaluation harnesses can treat both
// architectures uniformly.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_NN_TRANSFORMER_H
#define SNOWWHITE_NN_TRANSFORMER_H

#include "nn/layers.h"
#include "nn/beam.h"

#include <vector>

namespace snowwhite {
namespace nn {

/// Transformer hyperparameters (scaled down like Seq2SeqConfig).
struct TransformerConfig {
  size_t SrcVocabSize = 0;
  size_t TgtVocabSize = 0;
  size_t ModelDim = 48; ///< Must be divisible by NumHeads.
  size_t NumHeads = 4;
  size_t FfnDim = 96;
  size_t NumLayers = 2;
  float DropoutRate = 0.1f;
  size_t MaxSrcLen = 96;
  size_t MaxTgtLen = 20;
  uint64_t Seed = 123;
  uint32_t PadId = 0, UnkId = 1, BosId = 2, EosId = 3;
};

class TransformerModel {
public:
  explicit TransformerModel(const TransformerConfig &Config);

  const TransformerConfig &config() const { return Config; }

  /// One optimizer step over a batch (targets without BOS/EOS).
  float trainBatch(const std::vector<std::vector<uint32_t>> &Sources,
                   const std::vector<std::vector<uint32_t>> &Targets,
                   AdamOptimizer &Optimizer);

  /// Validation loss without weight updates.
  float evaluateLoss(const std::vector<std::vector<uint32_t>> &Sources,
                     const std::vector<std::vector<uint32_t>> &Targets);

  /// Top-k beam search through the same nn::beamSearch as
  /// Seq2SeqModel::predictTopK.
  std::vector<Hypothesis> predictTopK(const std::vector<uint32_t> &Source,
                                      unsigned BeamWidth);

  std::vector<Parameter *> parameters();
  size_t numParameters();

private:
  /// Learned projections of one attention block.
  struct AttentionBlock {
    Linear Query, Key, Value, Out;
    Parameter NormGain, NormBias;
  };
  /// One encoder or decoder layer.
  struct Layer {
    AttentionBlock SelfAttention;
    AttentionBlock CrossAttention; ///< Decoder layers only.
    Linear Ffn1, Ffn2;
    Parameter FfnNormGain, FfnNormBias;
  };

  void initAttention(AttentionBlock &Block, Rng &R);
  void initLayer(Layer &L, bool WithCross, Rng &R);
  void collectAttention(AttentionBlock &Block, std::vector<Parameter *> &Out);

  /// Multi-head attention of QueriesFrom attending to KeysFrom (both
  /// [T, d]); Mask is an additive [Tq, Tk] input or invalid for none.
  Var attention(Graph &G, AttentionBlock &Block, Var QueriesFrom,
                Var KeysFrom, Var Mask);

  /// Embeds Ids with positional embeddings into [T, d].
  Var embed(Graph &G, Parameter &Table, const std::vector<uint32_t> &Ids);

  /// Encodes one source sequence to [T, d].
  Var encodeOne(Graph &G, const std::vector<uint32_t> &Source);

  /// Decoder forward over BOS plus a (teacher-forced or partial) target
  /// prefix: returns logits [1 + |Prefix|, V].
  Var decodeOne(Graph &G, Var Encoded, const std::vector<uint32_t> &Prefix);

  float runBatch(const std::vector<std::vector<uint32_t>> &Sources,
                 const std::vector<std::vector<uint32_t>> &Targets,
                 bool Train, AdamOptimizer *Optimizer);

  TransformerConfig Config;
  Rng ModelRng;

  Parameter SrcEmbed, TgtEmbed;
  Parameter SrcPositional, TgtPositional;
  std::vector<Layer> Encoder;
  std::vector<Layer> Decoder;
  Parameter FinalNormGain, FinalNormBias;
  Linear Output;
};

} // namespace nn
} // namespace snowwhite

#endif // SNOWWHITE_NN_TRANSFORMER_H
