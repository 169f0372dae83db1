#include "nn/seq2seq.h"

#include "support/bytes.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <cassert>

namespace snowwhite {
namespace nn {

Seq2SeqModel::Seq2SeqModel(const Seq2SeqConfig &ConfigIn)
    : Config(ConfigIn), ModelRng(ConfigIn.Seed) {
  assert(Config.SrcVocabSize > 4 && Config.TgtVocabSize > 4 &&
         "vocab sizes must include specials");
  SrcEmbed.resize(Config.SrcVocabSize, Config.EmbedDim);
  SrcEmbed.initXavier(ModelRng);
  TgtEmbed.resize(Config.TgtVocabSize, Config.EmbedDim);
  TgtEmbed.initXavier(ModelRng);
  EncoderFwd.init(Config.EmbedDim, Config.HiddenDim, ModelRng);
  EncoderBwd.init(Config.EmbedDim, Config.HiddenDim, ModelRng);
  Decoder.init(Config.EmbedDim, Config.HiddenDim, ModelRng);
  Bridge.init(2 * Config.HiddenDim, Config.HiddenDim, ModelRng);
  AttnW.resize(Config.HiddenDim, 2 * Config.HiddenDim);
  AttnW.initXavier(ModelRng);
  AttnCombine.init(3 * Config.HiddenDim, Config.HiddenDim, ModelRng);
  Output.init(Config.HiddenDim, Config.TgtVocabSize, ModelRng);
}

void Seq2SeqModel::setInt8Inference(bool Enable) {
  Int8Inference = Enable;
  EncoderFwd.setInt8(Enable);
  EncoderBwd.setInt8(Enable);
  Decoder.setInt8(Enable);
  Bridge.setInt8(Enable);
  AttnCombine.setInt8(Enable);
  Output.setInt8(Enable);
  AttnWQuant = Enable ? kernels::quantizeRowwise(AttnW.Value.data(),
                                                 AttnW.Rows, AttnW.Cols)
                      : kernels::QuantizedMatrix{};
}

std::vector<Parameter *> Seq2SeqModel::parameters() {
  std::vector<Parameter *> Out = {&SrcEmbed, &TgtEmbed, &AttnW};
  EncoderFwd.collectParameters(Out);
  EncoderBwd.collectParameters(Out);
  Decoder.collectParameters(Out);
  Bridge.collectParameters(Out);
  AttnCombine.collectParameters(Out);
  Output.collectParameters(Out);
  return Out;
}

std::vector<std::pair<size_t, size_t>>
Seq2SeqModel::parameterShapes(const Seq2SeqConfig &Config) {
  size_t E = Config.EmbedDim, H = Config.HiddenDim;
  size_t TgtV = Config.TgtVocabSize;
  std::vector<std::pair<size_t, size_t>> Out = {
      {Config.SrcVocabSize, E}, {TgtV, E}, {H, 2 * H}};
  for (int Cell = 0; Cell < 3; ++Cell) // EncoderFwd, EncoderBwd, Decoder.
    Out.insert(Out.end(), {{E, 4 * H}, {H, 4 * H}, {1, 4 * H}});
  Out.insert(Out.end(), {{2 * H, H}, {1, H},     // Bridge.
                         {3 * H, H}, {1, H},     // AttnCombine.
                         {H, TgtV}, {1, TgtV}}); // Output.
  return Out;
}

size_t Seq2SeqModel::numParameters() {
  size_t Total = 0;
  for (Parameter *P : parameters())
    Total += P->size();
  return Total;
}

Seq2SeqModel::Encoded
Seq2SeqModel::encode(Graph &G,
                     const std::vector<std::vector<uint32_t>> &Sources,
                     Rng &DropRng) {
  size_t B = Sources.size();
  size_t H = Config.HiddenDim;

  // Truncate (keep the prefix: t_low + first windows) and left-pad.
  size_t PaddedLen = 1;
  std::vector<std::vector<uint32_t>> Trimmed(B);
  for (size_t Item = 0; Item < B; ++Item) {
    Trimmed[Item] = Sources[Item];
    if (Trimmed[Item].size() > Config.MaxSrcLen)
      Trimmed[Item].resize(Config.MaxSrcLen);
    if (Trimmed[Item].empty())
      Trimmed[Item].push_back(Config.UnkId);
    PaddedLen = std::max(PaddedLen, Trimmed[Item].size());
  }
  std::vector<size_t> PadCounts(B);
  // Column-major id matrix [T][B].
  std::vector<std::vector<uint32_t>> Columns(
      PaddedLen, std::vector<uint32_t>(B, Config.PadId));
  for (size_t Item = 0; Item < B; ++Item) {
    size_t Pad = PaddedLen - Trimmed[Item].size();
    PadCounts[Item] = Pad;
    for (size_t T = 0; T < Trimmed[Item].size(); ++T)
      Columns[Pad + T][Item] = Trimmed[Item][T];
  }

  // Embed and run both directions.
  std::vector<Var> Embedded(PaddedLen);
  for (size_t T = 0; T < PaddedLen; ++T) {
    Var E = G.embedding(SrcEmbed, Columns[T]);
    Embedded[T] = G.dropout(E, Config.DropoutRate, DropRng);
  }
  std::vector<Var> FwdStates(PaddedLen), BwdStates(PaddedLen);
  {
    Var StateH = G.zeros(B, H), StateC = G.zeros(B, H);
    for (size_t T = 0; T < PaddedLen; ++T) {
      auto [NewH, NewC] = EncoderFwd.step(G, Embedded[T], StateH, StateC);
      StateH = NewH;
      StateC = NewC;
      FwdStates[T] = StateH;
    }
  }
  {
    Var StateH = G.zeros(B, H), StateC = G.zeros(B, H);
    for (size_t T = PaddedLen; T-- > 0;) {
      auto [NewH, NewC] = EncoderBwd.step(G, Embedded[T], StateH, StateC);
      StateH = NewH;
      StateC = NewC;
      BwdStates[T] = StateH;
    }
  }

  // Concatenated per-timestep states [B, 2h], then regrouped per item as
  // [T, 2h] for attention.
  std::vector<Var> Joint(PaddedLen);
  for (size_t T = 0; T < PaddedLen; ++T)
    Joint[T] = G.concatCols(FwdStates[T], BwdStates[T]);

  Encoded Out;
  Out.PerItemStates.reserve(B);
  Out.PadMasks.reserve(B);
  for (size_t Item = 0; Item < B; ++Item) {
    std::vector<Var> Rows;
    Rows.reserve(PaddedLen);
    for (size_t T = 0; T < PaddedLen; ++T)
      Rows.push_back(G.sliceRow(Joint[T], Item));
    Out.PerItemStates.push_back(G.stackRows(Rows));
    std::vector<float> Mask(PaddedLen, 0.0f);
    for (size_t T = 0; T < PadCounts[Item]; ++T)
      Mask[T] = -1e9f;
    Out.PadMasks.push_back(G.input(1, PaddedLen, Mask.data()));
  }

  // Decoder init: bridge over [fwd last; bwd first] (the two "final" states).
  Var Summary = G.concatCols(FwdStates[PaddedLen - 1], BwdStates[0]);
  Out.DecoderH = G.tanhOp(Bridge.forward(G, Summary));
  Out.DecoderC = G.zeros(B, H);
  return Out;
}

Seq2SeqModel::DecodeStep
Seq2SeqModel::decodeStep(Graph &G, const std::vector<uint32_t> &InputIds,
                         Var H, Var C, const Encoded &Enc, Rng &DropRng) {
  size_t B = InputIds.size();
  Var X = G.dropout(G.embedding(TgtEmbed, InputIds), Config.DropoutRate,
                    DropRng);
  auto [NewH, NewC] = Decoder.step(G, X, H, C);

  // Luong "general" attention, per batch row (row i attends over item i).
  Var Query = Int8Inference && !G.isTraining()
                  ? G.matmulInt8(NewH, AttnWQuant)
                  : G.matmul(NewH, G.param(AttnW)); // [B, 2h]
  std::vector<Var> Contexts;
  Contexts.reserve(B);
  for (size_t Row = 0; Row < B; ++Row) {
    Var RowQuery = G.sliceRow(Query, Row); // [1, 2h]
    Var Scores =
        G.matmulTransposeB(RowQuery, Enc.PerItemStates[Row]); // [1, T]
    Scores = G.add(Scores, Enc.PadMasks[Row]);
    Var Weights = G.softmaxRows(Scores);
    Contexts.push_back(G.matmul(Weights, Enc.PerItemStates[Row])); // [1,2h]
  }
  Var Context = Contexts.size() == 1 ? Contexts[0] : G.stackRows(Contexts);
  Var Combined = G.tanhOp(
      AttnCombine.forward(G, G.concatCols(NewH, Context))); // [B, h]
  Combined = G.dropout(Combined, Config.DropoutRate, DropRng);
  Var Logits = Output.forward(G, Combined); // [B, V]
  return {Logits, NewH, NewC};
}

float Seq2SeqModel::forwardBackward(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets, bool Train,
    float LossScale, GradientSink *Sink, Rng &DropRng) {
  assert(Sources.size() == Targets.size() && "batch size mismatch");
  size_t B = Sources.size();
  if (B == 0)
    return 0.0f;

  Graph G(Train, Sink);
  Encoded Enc = encode(G, Sources, DropRng);

  // Teacher forcing: inputs = BOS + target, targets = target + EOS, padded.
  size_t MaxSteps = 1;
  for (const std::vector<uint32_t> &Target : Targets)
    MaxSteps = std::max(MaxSteps,
                        std::min(Target.size(), Config.MaxTgtLen - 1) + 1);

  Var H = Enc.DecoderH, C = Enc.DecoderC;
  Var TotalLoss = G.zeros(1, 1);
  for (size_t Step = 0; Step < MaxSteps; ++Step) {
    std::vector<uint32_t> Inputs(B), StepTargets(B);
    for (size_t Row = 0; Row < B; ++Row) {
      const std::vector<uint32_t> &Target = Targets[Row];
      size_t Len = std::min(Target.size(), Config.MaxTgtLen - 1);
      Inputs[Row] = Step == 0 ? Config.BosId
                    : Step - 1 < Len ? Target[Step - 1]
                                     : Config.PadId;
      StepTargets[Row] = Step < Len    ? Target[Step]
                         : Step == Len ? Config.EosId
                                       : Config.PadId;
    }
    DecodeStep Decoded = decodeStep(G, Inputs, H, C, Enc, DropRng);
    H = Decoded.H;
    C = Decoded.C;
    Var StepLoss = G.crossEntropy(Decoded.Logits, StepTargets, Config.PadId);
    TotalLoss = G.add(TotalLoss, StepLoss);
  }
  Var MeanLoss = G.scale(TotalLoss, 1.0f / static_cast<float>(MaxSteps));
  float LossValue = MeanLoss.at(0, 0);
  if (Train) {
    Var Scaled = LossScale == 1.0f ? MeanLoss : G.scale(MeanLoss, LossScale);
    G.backward(Scaled);
  }
  return LossValue;
}

float Seq2SeqModel::trainBatch(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets,
    AdamOptimizer &Optimizer) {
  float Loss = computeBatchGradients(Sources, Targets);
  if (!Sources.empty())
    Optimizer.step();
  return Loss;
}

float Seq2SeqModel::computeBatchGradients(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets) {
  assert(Sources.size() == Targets.size() && "batch size mismatch");
  size_t B = Sources.size();
  if (B == 0)
    return 0.0f;

  // Fixed-size shard decomposition (never a function of the thread count)
  // and one ModelRng draw per batch from which every shard derives a
  // private dropout stream: both are what make training bit-identical for
  // any SNOWWHITE_THREADS value.
  size_t NumShards = (B + TrainShardSize - 1) / TrainShardSize;
  uint64_t DropoutBase = ModelRng.next();

  std::vector<GradientSink> Sinks(NumShards);
  std::vector<float> ShardLoss(NumShards, 0.0f);
  ThreadPool::global().mapReduceOrdered(
      NumShards,
      [&](size_t Shard) {
        size_t Begin = Shard * TrainShardSize;
        size_t End = std::min(Begin + TrainShardSize, B);
        std::vector<std::vector<uint32_t>> ShardSources(
            Sources.begin() + Begin, Sources.begin() + End);
        std::vector<std::vector<uint32_t>> ShardTargets(
            Targets.begin() + Begin, Targets.begin() + End);
        Rng ShardRng(hashCombine(DropoutBase, Shard));
        float Scale = static_cast<float>(End - Begin) / static_cast<float>(B);
        ShardLoss[Shard] =
            forwardBackward(ShardSources, ShardTargets, /*Train=*/true, Scale,
                            &Sinks[Shard], ShardRng) *
            Scale;
      },
      [&](size_t Shard) { Sinks[Shard].accumulateInto(); });

  float Loss = 0.0f;
  for (float Term : ShardLoss)
    Loss += Term;
  return Loss;
}

float Seq2SeqModel::evaluateLoss(
    const std::vector<std::vector<uint32_t>> &Sources,
    const std::vector<std::vector<uint32_t>> &Targets) {
  // Inference: dropout is the identity, so ModelRng is never advanced and
  // evaluation stays side-effect free.
  return forwardBackward(Sources, Targets, /*Train=*/false, 1.0f, nullptr,
                         ModelRng);
}

BeamOutcome
Seq2SeqModel::predictTopKBudgeted(const std::vector<uint32_t> &Source,
                                  unsigned BeamWidth,
                                  uint64_t MaxDecodeSteps) {
  Graph G(/*Training=*/false);
  Encoded Enc = encode(G, {Source}, ModelRng);
  // Step state s is the (H, C) pair States[s]; the root is the bridge's.
  std::vector<std::pair<Var, Var>> States = {{Enc.DecoderH, Enc.DecoderC}};
  BeamSpec Spec{BeamWidth,    Config.MaxTgtLen, MaxDecodeSteps, Config.PadId,
                Config.UnkId, Config.BosId,     Config.EosId};
  return beamSearch(Spec, [&](size_t Parent,
                              const std::vector<uint32_t> &Prefix) {
    uint32_t LastToken = Prefix.empty() ? Config.BosId : Prefix.back();
    auto [H, C] = States[Parent];
    DecodeStep Decoded = decodeStep(G, {LastToken}, H, C, Enc, ModelRng);
    States.emplace_back(Decoded.H, Decoded.C);
    return BeamStepResult{{Decoded.Logits.value(), Decoded.Logits.cols()},
                          States.size() - 1};
  });
}

// --- Serialization ---------------------------------------------------------

namespace {

constexpr uint64_t ModelMagic = 0x534e4f574d4f444cULL; // "SNOWMODL"

} // namespace

std::vector<uint8_t> Seq2SeqModel::serialize() const {
  std::vector<uint8_t> Out;
  bytes::Writer W(Out);
  W.u64(ModelMagic);
  W.u64(Config.SrcVocabSize);
  W.u64(Config.TgtVocabSize);
  W.u64(Config.EmbedDim);
  W.u64(Config.HiddenDim);
  W.u64(Config.MaxSrcLen);
  W.u64(Config.MaxTgtLen);
  W.u64(Config.Seed);
  W.f32AsU64(Config.DropoutRate);

  std::vector<Parameter *> Params =
      const_cast<Seq2SeqModel *>(this)->parameters();
  W.u64(Params.size());
  for (const Parameter *P : Params) {
    W.u64(P->Rows);
    W.u64(P->Cols);
    W.floats(P->Value);
  }
  return Out;
}

Result<Seq2SeqModel> Seq2SeqModel::deserialize(
    const std::vector<uint8_t> &Bytes) {
  bytes::Reader In(Bytes);
  uint64_t Magic;
  if (!In.u64(Magic))
    return Error(ErrorCode::Truncated, "model buffer shorter than its magic");
  if (Magic != ModelMagic)
    return Error(ErrorCode::Malformed, "bad model file magic");
  Seq2SeqConfig Config;
  auto ReadField = [&](size_t &Field) {
    uint64_t Value;
    if (!In.u64(Value))
      return false;
    Field = Value;
    return true;
  };
  if (!ReadField(Config.SrcVocabSize) || !ReadField(Config.TgtVocabSize) ||
      !ReadField(Config.EmbedDim) || !ReadField(Config.HiddenDim) ||
      !ReadField(Config.MaxSrcLen) || !ReadField(Config.MaxTgtLen) ||
      !In.u64(Config.Seed) || !In.f32AsU64(Config.DropoutRate))
    return Error(ErrorCode::Truncated, "truncated model config");
  // Bound every dimension, so the shape and byte arithmetic below cannot
  // overflow.
  constexpr uint64_t MaxDim = 1u << 24;
  if (Config.SrcVocabSize > MaxDim || Config.TgtVocabSize > MaxDim ||
      Config.EmbedDim > MaxDim || Config.HiddenDim > MaxDim ||
      Config.MaxSrcLen > MaxDim || Config.MaxTgtLen > MaxDim)
    return Error(ErrorCode::LimitExceeded,
                 "model config dimension exceeds sanity bound");

  // The constructor asserts room for the four special tokens.
  if (Config.SrcVocabSize <= 4 || Config.TgtVocabSize <= 4)
    return Error(ErrorCode::Malformed,
                 "model vocabulary smaller than its special tokens");

  // Walk the parameter stream against the shapes the header implies before
  // anything is built: a flipped dimension byte then costs a shape check,
  // not gigabytes of weights. Each blob is one parameter's float bytes.
  std::vector<std::pair<size_t, size_t>> Shapes = parameterShapes(Config);
  uint64_t NumParams;
  if (!In.u64(NumParams) || NumParams != Shapes.size())
    return Error(ErrorCode::Malformed, "parameter count mismatch");
  std::vector<std::span<const uint8_t>> Blobs(Shapes.size());
  for (size_t I = 0; I < Shapes.size(); ++I) {
    uint64_t Rows, Cols;
    if (!In.u64(Rows) || !In.u64(Cols) || Rows != Shapes[I].first ||
        Cols != Shapes[I].second)
      return Error(ErrorCode::Malformed, "parameter shape mismatch");
    if (!In.raw(Rows * Cols * sizeof(float), Blobs[I]))
      return Error(ErrorCode::Truncated, "truncated parameter data");
  }
  if (!In.atEnd())
    return Error(ErrorCode::Malformed, "trailing bytes after model data");

  Seq2SeqModel Model(Config);
  std::vector<Parameter *> Params = Model.parameters();
  assert(Params.size() == Shapes.size() && "parameterShapes out of step");
  for (size_t I = 0; I < Params.size(); ++I) {
    bool Filled = bytes::Reader(Blobs[I]).floats(Params[I]->Value);
    assert(Filled && "blob length was checked against the shape");
    (void)Filled;
  }
  return Model;
}

Result<void> Seq2SeqModel::save(const std::string &Path) const {
  return io::writeFileChecksummed(Path, serialize())
      .withContext("saving model to '" + Path + "'");
}

Result<Seq2SeqModel> Seq2SeqModel::load(const std::string &Path) {
  Result<std::vector<uint8_t>> Bytes = io::readFileChecksummed(Path);
  if (Bytes.isErr())
    return Bytes.error().withContext("loading model from '" + Path + "'");
  return deserialize(*Bytes).withContext("loading model from '" + Path + "'");
}

} // namespace nn
} // namespace snowwhite
