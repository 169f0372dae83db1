//===- bench/bench_common.h - Shared setup for the paper-table benches -----===//
//
// Every table/figure bench builds the same corpus and dataset so numbers are
// comparable across benches. Scale with SNOWWHITE_BENCH_SCALE (default 1.0):
// e.g. 0.25 for a quick smoke run, 4 for a larger corpus.
//
// The robustness tables and snowwhite_fuzz's model modes share a second,
// much smaller fixture (TinyFixture).
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_BENCH_COMMON_H
#define SNOWWHITE_BENCH_COMMON_H

#include "dataset/pipeline.h"
#include "eval/metrics.h"
#include "frontend/corpus.h"
#include "model/predictor.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/scratch_dir.h"
#include "support/str.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

namespace snowwhite {
namespace bench {

inline double benchScale() {
  const char *Raw = std::getenv("SNOWWHITE_BENCH_SCALE");
  if (!Raw)
    return 1.0;
  double Scale = std::atof(Raw);
  return Scale > 0.0 ? Scale : 1.0;
}

/// The corpus every bench shares (deterministic).
inline frontend::Corpus benchCorpus() {
  frontend::CorpusSpec Spec;
  Spec.Seed = 20220613; // PLDI'22 started June 13.
  Spec.NumPackages = static_cast<uint32_t>(150 * benchScale());
  if (Spec.NumPackages < 10)
    Spec.NumPackages = 10;
  return frontend::buildCorpus(Spec);
}

inline dataset::Dataset benchDataset() {
  frontend::Corpus Corpus = benchCorpus();
  dataset::DatasetOptions Options;
  // With O(100) packages, the paper's 1% threshold would admit every name;
  // scale it so only genuinely shared names qualify (>= ~8 packages).
  Options.NameVocabThreshold = 0.02;
  // The paper's 96/2/2 split assumes thousands of packages; at this corpus
  // size widen validation/test so accuracy estimates are stable.
  Options.TrainFraction = 0.86;
  Options.ValidFraction = 0.05;
  return dataset::buildDataset(Corpus, Options);
}

/// Default training setup used by the model benches.
inline model::TrainOptions benchTrainOptions() {
  model::TrainOptions Train;
  Train.MaxEpochs = 10;
  Train.BatchSize = 24;
  Train.EmbedDim = 32;
  Train.HiddenDim = 48;
  Train.MaxSrcLen = 96;
  Train.MaxValidSamples = 192;
  Train.ChecksPerEpoch = 2;
  Train.Patience = 3;
  return Train;
}

/// Accuracy over the test split of any ranked-prediction source.
inline eval::AccuracyReport accuracyOf(
    const model::Task &Task, unsigned K, size_t MaxSamples,
    const std::function<std::vector<model::TypePrediction>(
        const model::EncodedSample &, unsigned)> &Predict) {
  return eval::evaluateAccuracy(
      Task,
      [&](const model::EncodedSample &Sample, unsigned Width) {
        std::vector<std::vector<std::string>> Out;
        for (model::TypePrediction &P : Predict(Sample, Width))
          Out.push_back(std::move(P.Tokens));
        return Out;
      },
      K, MaxSamples);
}

/// Accuracy of a Predictor over the test split.
inline eval::AccuracyReport
modelAccuracy(const model::Task &Task, nn::Seq2SeqModel &Model,
              unsigned K = 5, size_t MaxSamples = 600) {
  model::Predictor Pred(Model, Task);
  return accuracyOf(Task, K, MaxSamples,
                    [&](const model::EncodedSample &Sample, unsigned Width) {
                      return Pred.predictEncoded(Sample.Source, Width);
                    });
}

/// Accuracy of the statistical baseline over the test split.
inline eval::AccuracyReport
baselineAccuracy(const model::Task &Task, unsigned K = 5,
                 size_t MaxSamples = 600) {
  model::StatisticalBaseline Baseline(Task);
  return accuracyOf(Task, K, MaxSamples,
                    [&](const model::EncodedSample &Sample, unsigned Width) {
                      return Baseline.predict(Sample.LowLevel, Width);
                    });
}

/// A tiny task and a training setup fast enough to run many times: an
/// 8-package corpus, 96 training samples, one epoch of a 12/16-wide model.
struct TinyFixture {
  dataset::Dataset Data;
  std::unique_ptr<model::Task> BoundTask;
  model::TrainOptions Options;
};

inline TinyFixture makeTinyFixture(uint64_t Seed) {
  TinyFixture Out;
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 8;
  Spec.Seed = Seed ^ 0x7e57c0deULL;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  Out.Data = dataset::buildDataset(Corpus);
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 96;
  Out.BoundTask = std::make_unique<model::Task>(Out.Data, TaskOpts);
  Out.Options.MaxEpochs = 1;
  Out.Options.BatchSize = 16;
  Out.Options.EmbedDim = 12;
  Out.Options.HiddenDim = 16;
  Out.Options.MaxValidSamples = 32;
  Out.Options.Seed = Seed;
  return Out;
}

inline void printRule(char Fill = '-', int Width = 78) {
  for (int I = 0; I < Width; ++I)
    std::putchar(Fill);
  std::putchar('\n');
}

} // namespace bench
} // namespace snowwhite

#endif // SNOWWHITE_BENCH_COMMON_H
