#include "nn/transformer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace snowwhite {
namespace nn {

TransformerModel::TransformerModel(const TransformerConfig &ConfigIn)
    : Config(ConfigIn), ModelRng(ConfigIn.Seed) {
  assert(Config.ModelDim % Config.NumHeads == 0 &&
         "ModelDim must divide into heads");
  SrcEmbed.resize(Config.SrcVocabSize, Config.ModelDim);
  SrcEmbed.initXavier(ModelRng);
  TgtEmbed.resize(Config.TgtVocabSize, Config.ModelDim);
  TgtEmbed.initXavier(ModelRng);
  SrcPositional.resize(Config.MaxSrcLen, Config.ModelDim);
  SrcPositional.initXavier(ModelRng);
  TgtPositional.resize(Config.MaxTgtLen, Config.ModelDim);
  TgtPositional.initXavier(ModelRng);

  Encoder.resize(Config.NumLayers);
  for (Layer &L : Encoder)
    initLayer(L, /*WithCross=*/false, ModelRng);
  Decoder.resize(Config.NumLayers);
  for (Layer &L : Decoder)
    initLayer(L, /*WithCross=*/true, ModelRng);

  FinalNormGain.resize(1, Config.ModelDim);
  std::fill(FinalNormGain.Value.begin(), FinalNormGain.Value.end(), 1.0f);
  FinalNormBias.resize(1, Config.ModelDim);
  Output.init(Config.ModelDim, Config.TgtVocabSize, ModelRng);
}

void TransformerModel::initAttention(AttentionBlock &Block, Rng &R) {
  size_t D = Config.ModelDim;
  Block.Query.init(D, D, R);
  Block.Key.init(D, D, R);
  Block.Value.init(D, D, R);
  Block.Out.init(D, D, R);
  Block.NormGain.resize(1, D);
  std::fill(Block.NormGain.Value.begin(), Block.NormGain.Value.end(), 1.0f);
  Block.NormBias.resize(1, D);
}

void TransformerModel::initLayer(Layer &L, bool WithCross, Rng &R) {
  initAttention(L.SelfAttention, R);
  if (WithCross)
    initAttention(L.CrossAttention, R);
  L.Ffn1.init(Config.ModelDim, Config.FfnDim, R);
  L.Ffn2.init(Config.FfnDim, Config.ModelDim, R);
  L.FfnNormGain.resize(1, Config.ModelDim);
  std::fill(L.FfnNormGain.Value.begin(), L.FfnNormGain.Value.end(), 1.0f);
  L.FfnNormBias.resize(1, Config.ModelDim);
}

void TransformerModel::collectAttention(AttentionBlock &Block,
                                        std::vector<Parameter *> &Out) {
  Block.Query.collectParameters(Out);
  Block.Key.collectParameters(Out);
  Block.Value.collectParameters(Out);
  Block.Out.collectParameters(Out);
  Out.push_back(&Block.NormGain);
  Out.push_back(&Block.NormBias);
}

std::vector<Parameter *> TransformerModel::parameters() {
  std::vector<Parameter *> Out = {&SrcEmbed, &TgtEmbed, &SrcPositional,
                                  &TgtPositional, &FinalNormGain,
                                  &FinalNormBias};
  for (Layer &L : Encoder) {
    collectAttention(L.SelfAttention, Out);
    L.Ffn1.collectParameters(Out);
    L.Ffn2.collectParameters(Out);
    Out.push_back(&L.FfnNormGain);
    Out.push_back(&L.FfnNormBias);
  }
  for (Layer &L : Decoder) {
    collectAttention(L.SelfAttention, Out);
    collectAttention(L.CrossAttention, Out);
    L.Ffn1.collectParameters(Out);
    L.Ffn2.collectParameters(Out);
    Out.push_back(&L.FfnNormGain);
    Out.push_back(&L.FfnNormBias);
  }
  Output.collectParameters(Out);
  return Out;
}

size_t TransformerModel::numParameters() {
  size_t Total = 0;
  for (Parameter *P : parameters())
    Total += P->size();
  return Total;
}

Var TransformerModel::attention(Graph &G, AttentionBlock &Block,
                                Var QueriesFrom, Var KeysFrom, Var Mask) {
  size_t D = Config.ModelDim;
  size_t Heads = Config.NumHeads;
  size_t HeadDim = D / Heads;
  // Pre-norm on the query stream.
  Var Normed = G.layerNorm(QueriesFrom, G.param(Block.NormGain),
                           G.param(Block.NormBias));
  Var Q = Block.Query.forward(G, Normed);
  Var K = Block.Key.forward(G, KeysFrom);
  Var V = Block.Value.forward(G, KeysFrom);

  float Scale = 1.0f / std::sqrt(static_cast<float>(HeadDim));
  Var Merged{};
  for (size_t Head = 0; Head < Heads; ++Head) {
    Var Qh = G.sliceCols(Q, Head * HeadDim, HeadDim);
    Var Kh = G.sliceCols(K, Head * HeadDim, HeadDim);
    Var Vh = G.sliceCols(V, Head * HeadDim, HeadDim);
    Var Scores = G.scale(G.matmulTransposeB(Qh, Kh), Scale); // [Tq, Tk]
    if (Mask.valid())
      Scores = G.add(Scores, Mask);
    Var Weights = G.softmaxRows(Scores);
    Weights = G.dropout(Weights, Config.DropoutRate, ModelRng);
    Var HeadOut = G.matmul(Weights, Vh); // [Tq, HeadDim]
    Merged = Head == 0 ? HeadOut : G.concatCols(Merged, HeadOut);
  }
  Var Projected = Block.Out.forward(G, Merged);
  // Residual connection.
  return G.add(QueriesFrom, G.dropout(Projected, Config.DropoutRate,
                                      ModelRng));
}

Var TransformerModel::embed(Graph &G, Parameter &Table,
                            const std::vector<uint32_t> &Ids) {
  Var Tokens = G.embedding(Table, Ids);
  // Positional rows 0..T-1.
  Parameter &Positions = (&Table == &SrcEmbed) ? SrcPositional : TgtPositional;
  std::vector<uint32_t> PositionIds(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    PositionIds[I] = static_cast<uint32_t>(
        std::min(I, static_cast<size_t>(Positions.Rows) - 1));
  Var Positional = G.embedding(Positions, PositionIds);
  return G.dropout(G.add(Tokens, Positional), Config.DropoutRate, ModelRng);
}

Var TransformerModel::encodeOne(Graph &G,
                                const std::vector<uint32_t> &Source) {
  std::vector<uint32_t> Trimmed = Source;
  if (Trimmed.size() > Config.MaxSrcLen)
    Trimmed.resize(Config.MaxSrcLen);
  if (Trimmed.empty())
    Trimmed.push_back(Config.UnkId);
  Var X = embed(G, SrcEmbed, Trimmed);
  Var NoMask{};
  for (Layer &L : Encoder) {
    X = attention(G, L.SelfAttention, X, X, NoMask);
    // Feed-forward block with pre-norm and residual.
    Var Normed = G.layerNorm(X, G.param(L.FfnNormGain), G.param(L.FfnNormBias));
    Var Hidden = G.relu(L.Ffn1.forward(G, Normed));
    Var Ffn = L.Ffn2.forward(G, Hidden);
    X = G.add(X, G.dropout(Ffn, Config.DropoutRate, ModelRng));
  }
  return X;
}

Var TransformerModel::decodeOne(Graph &G, Var Encoded,
                                const std::vector<uint32_t> &Prefix) {
  std::vector<uint32_t> Inputs = {Config.BosId};
  Inputs.insert(Inputs.end(), Prefix.begin(), Prefix.end());
  Var X = embed(G, TgtEmbed, Inputs);
  // Causal mask [T, T]: position i may not attend to j > i.
  size_t T = Inputs.size();
  std::vector<float> MaskData(T * T, 0.0f);
  for (size_t I = 0; I < T; ++I)
    for (size_t J = I + 1; J < T; ++J)
      MaskData[I * T + J] = -1e9f;
  Var Causal = G.input(T, T, MaskData.data());
  Var NoMask{};
  for (Layer &L : Decoder) {
    X = attention(G, L.SelfAttention, X, X, Causal);
    X = attention(G, L.CrossAttention, X, Encoded, NoMask);
    Var Normed = G.layerNorm(X, G.param(L.FfnNormGain), G.param(L.FfnNormBias));
    Var Hidden = G.relu(L.Ffn1.forward(G, Normed));
    Var Ffn = L.Ffn2.forward(G, Hidden);
    X = G.add(X, G.dropout(Ffn, Config.DropoutRate, ModelRng));
  }
  Var Final = G.layerNorm(X, G.param(FinalNormGain), G.param(FinalNormBias));
  return Output.forward(G, Final); // [T, V]
}

float TransformerModel::runBatch(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets, bool Train,
    AdamOptimizer *Optimizer) {
  assert(Sources.size() == Targets.size() && "batch size mismatch");
  if (Sources.empty())
    return 0.0f;
  Graph G(Train);
  Var TotalLoss = G.zeros(1, 1);
  // Sequence-parallel teacher forcing, item by item (each item is a full
  // [T, d] matrix computation).
  for (size_t Item = 0; Item < Sources.size(); ++Item) {
    Var Encoded = encodeOne(G, Sources[Item]);
    size_t Len = std::min(Targets[Item].size(), Config.MaxTgtLen - 1);
    std::vector<uint32_t> Expected(Targets[Item].begin(),
                                   Targets[Item].begin() + Len);
    Var Logits = decodeOne(G, Encoded, Expected);
    Expected.push_back(Config.EosId);
    TotalLoss =
        G.add(TotalLoss, G.crossEntropy(Logits, Expected, Config.PadId));
  }
  Var MeanLoss =
      G.scale(TotalLoss, 1.0f / static_cast<float>(Sources.size()));
  float LossValue = MeanLoss.at(0, 0);
  if (Train) {
    G.backward(MeanLoss);
    assert(Optimizer && "training without optimizer");
    Optimizer->step();
  }
  return LossValue;
}

float TransformerModel::trainBatch(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets,
    AdamOptimizer &Optimizer) {
  return runBatch(Sources, Targets, /*Train=*/true, &Optimizer);
}

float TransformerModel::evaluateLoss(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets) {
  return runBatch(Sources, Targets, /*Train=*/false, nullptr);
}

std::vector<Hypothesis>
TransformerModel::predictTopK(const std::vector<uint32_t> &Source,
                              unsigned BeamWidth) {
  Graph G(/*Training=*/false);
  Var Encoded = encodeOne(G, Source);
  // No step state: the decoder re-runs over the whole prefix (no KV cache;
  // targets are short type sequences). BOS plus the prefix must fit the
  // MaxTgtLen-row positional table.
  BeamSpec Spec{BeamWidth,    Config.MaxTgtLen - 1, 0, Config.PadId,
                Config.UnkId, Config.BosId,         Config.EosId};
  return beamSearch(Spec, [&](size_t, const std::vector<uint32_t> &Prefix) {
           Var Logits = decodeOne(G, Encoded, Prefix);
           size_t V = Logits.cols();
           return BeamStepResult{{Logits.value() + Prefix.size() * V, V}, 0};
         })
      .Hypotheses;
}

} // namespace nn
} // namespace snowwhite
