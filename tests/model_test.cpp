//===- tests/model_test.cpp - Task, predictor, baseline, metrics tests -----===//

#include "eval/distribution.h"
#include "eval/metrics.h"
#include "model/predictor.h"
#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/hash.h"
#include "support/str.h"
#include "typelang/type.h"
#include "typelang/variants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace snowwhite {
namespace model {
namespace {

using dataset::Dataset;
using typelang::TypeLanguageKind;

/// One shared small corpus/dataset for all fixtures in this file.
const Dataset &sharedDataset() {
  static Dataset Data = [] {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 30;
    Spec.Seed = 123;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    dataset::DatasetOptions Options;
    // At 30 packages the paper's 1% threshold admits every name; require
    // ~3 packages so L_SW and the All-Names variant actually differ.
    Options.NameVocabThreshold = 0.1;
    return dataset::buildDataset(Corpus, Options);
  }();
  return Data;
}

// --- Task ---------------------------------------------------------------------

TEST(Task, SeparatesParameterAndReturnSamples) {
  TaskOptions ParamOptions;
  ParamOptions.Kind = TaskKind::TK_Parameter;
  Task ParamTask(sharedDataset(), ParamOptions);
  TaskOptions ReturnOptions;
  ReturnOptions.Kind = TaskKind::TK_Return;
  Task ReturnTask(sharedDataset(), ReturnOptions);

  EXPECT_GT(ParamTask.train().size(), ReturnTask.train().size());
  EXPECT_FALSE(ReturnTask.train().empty());
}

TEST(Task, TargetsAreValidTypeSequencesInLsw) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  for (const EncodedSample &Sample : T.test()) {
    Result<typelang::Type> Parsed = typelang::parseType(Sample.TargetTokens);
    ASSERT_TRUE(Parsed.isOk())
        << "bad target: " << joinStrings(Sample.TargetTokens, " ");
    EXPECT_EQ(Parsed->nestingDepth(), Sample.NestingDepth);
  }
}

TEST(Task, EklavyaTargetsAreSingleLabels) {
  TaskOptions Options;
  Options.Language = TypeLanguageKind::TL_Eklavya;
  Task T(sharedDataset(), Options);
  for (const EncodedSample &Sample : T.train())
    EXPECT_EQ(Sample.TargetTokens.size(), 1u);
  // Target vocab: 4 specials + at most 7 labels.
  EXPECT_LE(T.targetVocab().size(), 11u);
}

TEST(Task, SourceEncodingRespectsBpeAndSpecials) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  ASSERT_FALSE(T.train().empty());
  const EncodedSample &Sample = T.train()[0];
  EXPECT_FALSE(Sample.Source.empty());
  // No token encodes to <unk> on training data (vocab was built from it).
  for (uint32_t Id : Sample.Source)
    EXPECT_NE(Id, dataset::TokenVocab::Unk);
}

TEST(Task, StripLowLevelAblationShortensInput) {
  TaskOptions WithType;
  Task TaskWith(sharedDataset(), WithType);
  TaskOptions WithoutType = WithType;
  WithoutType.StripLowLevelType = true;
  Task TaskWithout(sharedDataset(), WithoutType);
  ASSERT_FALSE(TaskWith.train().empty());
  EXPECT_EQ(TaskWith.train()[0].Source.size(),
            TaskWithout.train()[0].Source.size() + 1);
}

TEST(Task, MaxTrainSamplesCap) {
  TaskOptions Options;
  Options.MaxTrainSamples = 50;
  Task T(sharedDataset(), Options);
  EXPECT_LE(T.train().size(), 50u);
  EXPECT_GT(T.test().size(), 0u);
}

TEST(Task, AllNamesVocabularyIsLarger) {
  TaskOptions Sw;
  Task SwTask(sharedDataset(), Sw);
  TaskOptions AllNames;
  AllNames.Language = TypeLanguageKind::TL_SwAllNames;
  Task AllNamesTask(sharedDataset(), AllNames);
  EXPECT_GT(AllNamesTask.targetVocab().size(), SwTask.targetVocab().size());
}

TEST(Task, CorpusEncodingGolden) {
  // Pins the BPE merge list, both vocabularies in id order and every
  // split's source and target ids, with evidence and path tokens on as the
  // benchmark builds its Task, so a change to BPE training or to source or
  // target encoding that alters any id fails. The second task covers
  // target BPE and the low-level-type ablation.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 20;
  Spec.Seed = 11;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  dataset::DatasetOptions DataOptions;
  DataOptions.Extract.EvidenceTokens = true;
  DataOptions.Extract.PathTokens = true;
  DataOptions.TrainFraction = 0.6;
  DataOptions.ValidFraction = 0.1;
  Dataset Data = dataset::buildDataset(Corpus, DataOptions);

  TaskOptions Plain;
  Plain.Language = TypeLanguageKind::TL_SwSimplified;
  TaskOptions Variant;
  Variant.Kind = TaskKind::TK_Return;
  Variant.BpeTargets = true;
  Variant.StripLowLevelType = true;
  Variant.BpeVocabSize = 300;

  std::string Text;
  auto AppendIds = [&](const std::vector<uint32_t> &Ids) {
    for (uint32_t Id : Ids)
      Text += std::to_string(Id) + ",";
    Text += "\n";
  };
  for (const TaskOptions &Options : {Plain, Variant}) {
    Task T(Data, Options);
    for (const auto &[Left, Right] : T.bpe().merges())
      Text += Left + "\x1f" + Right + "\n";
    for (const dataset::TokenVocab *Vocab : {&T.sourceVocab(), &T.targetVocab()})
      for (uint32_t Id = 0; Id < Vocab->size(); ++Id)
        Text += Vocab->tokenOf(Id) + "\n";
    for (const std::vector<EncodedSample> *Split : {&T.train(), &T.valid(),
                                                    &T.test()})
      for (const EncodedSample &Sample : *Split) {
        AppendIds(Sample.Source);
        AppendIds(Sample.Target);
      }
  }
  EXPECT_EQ(hashToHex(hashString(Text)), "b2a3ec5ac516fcf4");
}

// --- Statistical baseline -------------------------------------------------------

TEST(Baseline, PredictsMostFrequentPerLowLevelType) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  StatisticalBaseline Baseline(T);
  std::vector<TypePrediction> Top = Baseline.predict(wasm::ValType::F64, 5);
  ASSERT_FALSE(Top.empty());
  // The most frequent f64-lowered type must be the double.
  EXPECT_EQ(joinStrings(Top[0].Tokens, " "), "primitive float 64");
  // Ranked by descending probability.
  for (size_t I = 1; I < Top.size(); ++I)
    EXPECT_GE(Top[I - 1].LogProb, Top[I].LogProb);
}

TEST(Baseline, I32CoversManyTypes) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  StatisticalBaseline Baseline(T);
  std::vector<TypePrediction> Top = Baseline.predict(wasm::ValType::I32, 5);
  EXPECT_EQ(Top.size(), 5u);
}

// --- Metrics -------------------------------------------------------------------

TEST(Metrics, TypePrefixScoreExamplesFromPaper) {
  using V = std::vector<std::string>;
  EXPECT_EQ(eval::typePrefixScore(V{"pointer", "struct"},
                                  V{"pointer", "class"}),
            1u);
  EXPECT_EQ(eval::typePrefixScore(V{"pointer", "struct"},
                                  V{"primitive", "int", "32"}),
            0u);
  EXPECT_EQ(eval::typePrefixScore(V{"pointer", "struct"},
                                  V{"pointer", "struct"}),
            2u);
  EXPECT_EQ(eval::typePrefixScore(V{}, V{"pointer"}), 0u);
}

TEST(Metrics, EvaluateAccuracyWithOracleAndWithAlwaysWrong) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  // Oracle: always returns the ground truth.
  eval::AccuracyReport Oracle = eval::evaluateAccuracy(
      T,
      [](const EncodedSample &Sample, unsigned K) {
        return std::vector<std::vector<std::string>>{Sample.TargetTokens};
      },
      5, 200);
  EXPECT_DOUBLE_EQ(Oracle.top1(), 1.0);
  EXPECT_DOUBLE_EQ(Oracle.topK(), 1.0);

  // Always-wrong predictor.
  eval::AccuracyReport Wrong = eval::evaluateAccuracy(
      T,
      [](const EncodedSample &Sample, unsigned K) {
        // A token no real type sequence starts with, so TPS is 0 too.
        return std::vector<std::vector<std::string>>{{"zzz_not_a_type"}};
      },
      5, 200);
  EXPECT_DOUBLE_EQ(Wrong.top1(), 0.0);
  EXPECT_DOUBLE_EQ(Wrong.meanPrefixScoreTop1(), 0.0);
  EXPECT_DOUBLE_EQ(Wrong.meanPrefixScoreTopK(), 0.0);
}

TEST(Metrics, Top5CountsLaterHits) {
  TaskOptions Options;
  Task T(sharedDataset(), Options);
  eval::AccuracyReport Report = eval::evaluateAccuracy(
      T,
      [](const EncodedSample &Sample, unsigned K) {
        // Rank the truth second behind a wrong guess.
        return std::vector<std::vector<std::string>>{{"unknown"},
                                                     Sample.TargetTokens};
      },
      5, 100);
  EXPECT_LT(Report.top1(), 0.2);
  EXPECT_DOUBLE_EQ(Report.topK(), 1.0);
  // The top-K TPS must credit the rank-1 exact hit, not score rank 0
  // unconditionally (the pre-fix behaviour).
  EXPECT_GT(Report.meanPrefixScoreTopK(), Report.meanPrefixScoreTop1());
}

// --- Distributions ---------------------------------------------------------------

TEST(Distribution, EntropyOfUniformIsOne) {
  eval::TypeDistribution Dist;
  for (int I = 0; I < 4; ++I)
    for (int Copy = 0; Copy < 10; ++Copy)
      Dist.add("type" + std::to_string(I));
  EXPECT_NEAR(Dist.normalizedEntropy(), 1.0, 1e-9);
  EXPECT_EQ(Dist.uniqueTypes(), 4u);
  EXPECT_EQ(Dist.totalSamples(), 40u);
}

TEST(Distribution, SkewLowersNormalizedEntropy) {
  eval::TypeDistribution Skewed;
  for (int I = 0; I < 97; ++I)
    Skewed.add("dominant");
  Skewed.add("a");
  Skewed.add("b");
  Skewed.add("c");
  EXPECT_LT(Skewed.normalizedEntropy(), 0.3);
  auto [Top, Share] = Skewed.mostFrequent();
  EXPECT_EQ(Top, "dominant");
  EXPECT_NEAR(Share, 0.97, 1e-9);
}

TEST(Distribution, MostCommonOrdering) {
  eval::TypeDistribution Dist;
  for (int I = 0; I < 5; ++I)
    Dist.add("second");
  for (int I = 0; I < 9; ++I)
    Dist.add("first");
  Dist.add("third");
  auto Top = Dist.mostCommon(2);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].first, "first");
  EXPECT_EQ(Top[1].first, "second");
}

// --- End-to-end: train a small model and beat chance ------------------------------

/// One small trained model shared by the end-to-end and predictor tests
/// (training dominates this file's runtime).
struct TrainedFixture {
  std::unique_ptr<Task> T;
  TrainResult Result;
};

TrainedFixture &trainedFixture() {
  static TrainedFixture Fixture = [] {
    TrainedFixture Out;
    TaskOptions Options;
    Options.Language = TypeLanguageKind::TL_SwSimplified;
    Out.T = std::make_unique<Task>(sharedDataset(), Options);
    TrainOptions Train;
    Train.MaxEpochs = 10;
    Train.BatchSize = 16;
    Train.EmbedDim = 16;
    Train.HiddenDim = 32;
    Train.MaxSrcLen = 64;
    Train.MaxValidSamples = 64;
    Train.Patience = 5;
    Out.Result = trainModel(*Out.T, Train);
    return Out;
  }();
  return Fixture;
}

TEST(Predictor, WidensBeamWhenFiltersEatTheMargin) {
  // Regression: the filtered predictor used a fixed beam of K + 4 and
  // silently returned whatever survived, even when that was fewer than K.
  // It must now double the beam and re-run, so every shortfall case returns
  // strictly more survivors than the first beam contained (up to K, or
  // until the beam is exhausted).
  TrainedFixture &Fixture = trainedFixture();
  Task &T = *Fixture.T;
  nn::Seq2SeqModel &Model = *Fixture.Result.Model;

  const unsigned K = 5;
  auto countSurvivors = [&](const std::vector<nn::Hypothesis> &Beam,
                            wasm::ValType LowLevel) {
    std::set<std::vector<std::string>> Seen;
    unsigned Survivors = 0;
    for (const nn::Hypothesis &Hyp : Beam) {
      std::vector<std::string> Tokens = T.decodeTarget(Hyp.Tokens);
      Result<typelang::Type> Parsed = typelang::parseType(Tokens);
      if (Parsed.isErr() || typelang::lowLevelTypeOf(*Parsed) != LowLevel)
        continue;
      if (Seen.insert(Tokens).second)
        ++Survivors;
    }
    return Survivors;
  };

  Predictor Filtered(Model, T, /*DeduplicatePredictions=*/true,
                     /*WellFormedOnly=*/true, /*ConsistentWithLowLevel=*/true);
  unsigned ShortfallCases = 0, Recovered = 0;
  size_t Checked = 0;
  for (const EncodedSample &Sample : T.test()) {
    if (++Checked > 8)
      break;
    // Forcing each low-level type makes the consistency filter aggressive:
    // most beam hypotheses lower to the dominant i32.
    for (wasm::ValType Low :
         {wasm::ValType::I32, wasm::ValType::I64, wasm::ValType::F32,
          wasm::ValType::F64}) {
      unsigned FirstBeam =
          countSurvivors(Model.predictTopK(Sample.Source, K + 4), Low);
      if (FirstBeam >= K)
        continue;
      ++ShortfallCases;
      std::vector<TypePrediction> Out =
          Filtered.predictEncoded(Sample.Source, K, Low);
      EXPECT_LE(Out.size(), K);
      if (Out.size() > FirstBeam)
        ++Recovered;
      // Whatever is returned must actually pass the filters.
      std::set<std::vector<std::string>> Unique;
      for (const TypePrediction &P : Out) {
        Result<typelang::Type> Parsed = typelang::parseType(P.Tokens);
        ASSERT_TRUE(Parsed.isOk());
        EXPECT_EQ(typelang::lowLevelTypeOf(*Parsed), Low);
        EXPECT_TRUE(Unique.insert(P.Tokens).second);
      }
    }
  }
  // The trained model's beam falls short of K for the rarer low-level types,
  // and the widened retry recovers candidates the K + 4 beam missed.
  EXPECT_GT(ShortfallCases, 0u);
  EXPECT_GT(Recovered, 0u)
      << "retry never returned more than the first beam's survivors";
}

// --- Serving gate: a parsed candidate the evidence contradicts ---------------

/// Evidence that contradicts every pointer candidate: each return of the
/// slot's function is a comparison result (always 0 or 1). The ladder gates
/// with whatever evidence a request carries.
analysis::QueryEvidence comparisonReturnEvidence() {
  analysis::QueryEvidence Evidence;
  Evidence.Ret.emplace();
  Evidence.Ret->TotalReturns = 2;
  Evidence.Ret->FromComparison = 2;
  return Evidence;
}

TEST(ServingGate, ContradictedRankOneFallsThroughEveryModelRung) {
  // The 10-epoch model's rank 1 parses, so the gate really fires: with one
  // candidate per rung, a contradicted pointer empties the beam rung, then
  // the greedy rung, and the baseline answers.
  TrainedFixture &Fixture = trainedFixture();
  Task &T = *Fixture.T;
  const Dataset &Data = sharedDataset();
  const analysis::QueryEvidence Evidence = comparisonReturnEvidence();
  ServingOptions Options;
  Options.TopK = 1;
  StatisticalBaseline Baseline(T);

  size_t Checked = 0, Fired = 0;
  for (const EncodedSample &Sample : T.test()) {
    if (++Checked > 40)
      break;
    ServeRequest Request;
    Request.Id = Checked;
    Request.InputTokens = Data.Samples[Sample.DatasetIndex].Input;
    ServingEngine Ungated(*Fixture.Result.Model, T, Options);
    ServeResponse Plain = Ungated.processOne(Request);
    ASSERT_EQ(Plain.Tier, PredictionTier::Beam);
    ASSERT_EQ(Plain.Predictions.size(), 1u);
    if (gatePrediction(Plain.Predictions[0], Evidence) ==
        analysis::GateVerdict::Consistent)
      continue;
    ++Fired;
    ASSERT_TRUE(typelang::parseType(Plain.Predictions[0].Tokens).isOk());

    Request.Evidence = Evidence;
    ServingEngine Gated(*Fixture.Result.Model, T, Options);
    ServeResponse R = Gated.processOne(Request);
    EXPECT_EQ(R.Tier, PredictionTier::Baseline);
    EXPECT_EQ(R.Outcome, ServeOutcome::OkBaseline);
    EXPECT_EQ(R.Detail, "beam: all candidates contradicted evidence; "
                        "greedy: all candidates contradicted evidence");
    EXPECT_FALSE(R.Suspect) << "a gated request is not a poison request";
    // Both rungs decoded the same single candidate.
    EXPECT_EQ(R.DecodeStepsUsed, 2 * Plain.DecodeStepsUsed);
    wasm::ValType Slot =
        lowLevelOf(Request.InputTokens).value_or(wasm::ValType::I32);
    std::vector<TypePrediction> Expected = Baseline.predict(Slot, 1);
    ASSERT_EQ(R.Predictions.size(), Expected.size());
    EXPECT_EQ(R.Predictions[0].Tokens, Expected[0].Tokens);
    const ServingStats &S = Gated.stats();
    EXPECT_EQ(S.GatedCandidates, 2u);
    EXPECT_EQ(S.GateDegradations, 2u);
    EXPECT_EQ(S.BaselineAnswers, 1u);
    EXPECT_EQ(S.BeamAnswers + S.GreedyAnswers, 0u);
  }
  EXPECT_GT(Fired, 0u) << "no rank-1 candidate was contradicted";
}

TEST(EndToEnd, TinyModelTrainsAndPredicts) {
  TrainedFixture &Fixture = trainedFixture();
  Task &T = *Fixture.T;
  const TrainResult &Result = Fixture.Result;
  ASSERT_NE(Result.Model, nullptr);
  EXPECT_GT(Result.BatchesRun, 0u);
  EXPECT_TRUE(std::isfinite(Result.BestValidLoss));

  Predictor Pred(*Result.Model, T);
  eval::AccuracyReport Report = eval::evaluateAccuracy(
      T,
      [&](const EncodedSample &Sample, unsigned K) {
        std::vector<std::vector<std::string>> Out;
        for (const TypePrediction &P : Pred.predictEncoded(Sample.Source, K))
          Out.push_back(P.Tokens);
        return Out;
      },
      5, 60);
  // Against >100 possible types, even a minimally trained model must do far
  // better than random within the top 5.
  EXPECT_GT(Report.topK(), 0.15);
}

} // namespace
} // namespace model
} // namespace snowwhite
