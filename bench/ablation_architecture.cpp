//===- bench/ablation_architecture.cpp - LSTM vs Transformer (§4.2) --------===//
//
// The paper: "As an alternative sequence-to-sequence architecture, we also
// explored Transformers, but did not find it improving accuracy, so we
// select the computationally much cheaper LSTM model." This bench trains
// both architectures on the same L_SW parameter task with the same sample
// budget and reports accuracy and wall-clock cost.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "nn/transformer.h"

#include <chrono>
#include <cstdio>

using namespace snowwhite;
using namespace snowwhite::model;

namespace {

struct ArchResult {
  eval::AccuracyReport Report;
  double TrainSeconds = 0.0;
  size_t Parameters = 0;
};

ArchResult runLstm(const Task &T) {
  TrainOptions Train = bench::benchTrainOptions();
  Train.MaxEpochs = 8;
  TrainResult Trained = trainModel(T, Train);
  ArchResult Out;
  Out.Report = bench::modelAccuracy(T, *Trained.Model, 5, 400);
  Out.TrainSeconds = Trained.TrainSeconds;
  Out.Parameters = Trained.Model->numParameters();
  return Out;
}

ArchResult runTransformer(const Task &T) {
  auto Start = std::chrono::steady_clock::now();
  nn::TransformerConfig Config;
  Config.SrcVocabSize = T.sourceVocab().size();
  Config.TgtVocabSize = T.targetVocab().size();
  Config.ModelDim = 48;
  Config.NumHeads = 4;
  Config.FfnDim = 96;
  Config.NumLayers = 2;
  Config.MaxSrcLen = 96;
  Config.MaxTgtLen = 20;
  Config.Seed = 1234;
  nn::TransformerModel Model(Config);
  nn::AdamOptimizer Optimizer(Model.parameters());

  const std::vector<EncodedSample> &Train = T.train();
  Rng Shuffle(4711);
  std::vector<size_t> Order(Train.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  const size_t BatchSize = 24;
  for (int Epoch = 0; Epoch < 8; ++Epoch) {
    Shuffle.shuffle(Order);
    for (size_t Begin = 0; Begin < Order.size(); Begin += BatchSize) {
      size_t End = std::min(Begin + BatchSize, Order.size());
      std::vector<std::vector<uint32_t>> Sources, Targets;
      for (size_t I = Begin; I < End; ++I) {
        Sources.push_back(Train[Order[I]].Source);
        Targets.push_back(Train[Order[I]].Target);
      }
      Model.trainBatch(Sources, Targets, Optimizer);
    }
  }

  ArchResult Out;
  Out.TrainSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  Out.Parameters = Model.numParameters();
  Out.Report = bench::accuracyOf(
      T, 5, 400, [&](const EncodedSample &Sample, unsigned K) {
        return decodeCandidates(T, Model.predictTopK(Sample.Source, K), K,
                                /*Deduplicate=*/false);
      });
  return Out;
}

} // namespace

int main() {
  dataset::Dataset Data = bench::benchDataset();
  TaskOptions Options;
  Options.MaxTrainSamples = static_cast<size_t>(3000 * bench::benchScale());
  Task T(Data, Options);

  std::printf("Ablation: seq2seq architecture (L_SW parameter types, same "
              "training budget).\n");
  bench::printRule('=');
  std::printf("%-24s %10s %8s %8s %6s %10s\n", "Architecture", "params",
              "Top-1", "Top-5", "TPS", "train[s]");
  bench::printRule();

  std::fprintf(stderr, "[arch] training bi-LSTM + attention ...\n");
  ArchResult Lstm = runLstm(T);
  std::printf("%-24s %10zu %8s %8s %6s %10s\n", "bi-LSTM + attention",
              Lstm.Parameters, formatPercent(Lstm.Report.top1(), 1).c_str(),
              formatPercent(Lstm.Report.topK(), 1).c_str(),
              formatDouble(Lstm.Report.meanPrefixScoreTopK(), 2).c_str(),
              formatDouble(Lstm.TrainSeconds, 0).c_str());

  std::fprintf(stderr, "[arch] training Transformer ...\n");
  ArchResult Trans = runTransformer(T);
  std::printf("%-24s %10zu %8s %8s %6s %10s\n", "Transformer (2 layers)",
              Trans.Parameters,
              formatPercent(Trans.Report.top1(), 1).c_str(),
              formatPercent(Trans.Report.topK(), 1).c_str(),
              formatDouble(Trans.Report.meanPrefixScoreTopK(), 2).c_str(),
              formatDouble(Trans.TrainSeconds, 0).c_str());

  bench::printRule();
  std::printf("(paper §4.2: the Transformer did not improve accuracy over "
              "the computationally much cheaper LSTM.)\n");
  return 0;
}
