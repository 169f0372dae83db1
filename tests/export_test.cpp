//===- tests/export_test.cpp - Plaintext export + predictor filters --------===//

#include "dataset/export.h"
#include "frontend/corpus.h"
#include "model/predictor.h"
#include "model/trainer.h"
#include "support/scratch_dir.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace snowwhite {
namespace {

/// A fresh directory in this process's scratch directory.
std::string scratchDir(const std::string &Name) {
  std::string Dir = scratchPath(Name);
  std::filesystem::create_directories(Dir);
  return Dir;
}

const dataset::Dataset &exportDataset() {
  static dataset::Dataset Data = [] {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 16;
    Spec.Seed = 321;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    return dataset::buildDataset(Corpus);
  }();
  return Data;
}

static size_t countLines(const std::string &Path) {
  std::ifstream Stream(Path);
  size_t Lines = 0;
  std::string Line;
  while (std::getline(Stream, Line))
    ++Lines;
  return Lines;
}

TEST(Export, WritesParallelFiles) {
  const dataset::Dataset &Data = exportDataset();
  std::string Dir = scratchDir("parallel");
  Result<std::vector<uint64_t>> Written =
      dataset::exportPlaintext(Data, Dir);
  ASSERT_TRUE(Written.isOk()) << Written.error().message();
  ASSERT_EQ(Written->size(), 6u);

  // Source and target files are line-parallel and counts match the splits.
  EXPECT_EQ(countLines(Dir + "/train.param.wasm"), (*Written)[0]);
  EXPECT_EQ(countLines(Dir + "/train.param.type"), (*Written)[0]);
  EXPECT_EQ(countLines(Dir + "/train.return.wasm"), (*Written)[1]);
  EXPECT_EQ(countLines(Dir + "/test.param.wasm"), (*Written)[4]);
  EXPECT_EQ((*Written)[0], Data.countParams(Data.Train));
  EXPECT_EQ((*Written)[1], Data.countReturns(Data.Train));
  EXPECT_EQ((*Written)[4] + (*Written)[5], Data.Test.size());

  // Each target line is a valid sentence of the type grammar.
  std::ifstream Targets(Dir + "/train.param.type");
  std::string Line;
  size_t Checked = 0;
  while (std::getline(Targets, Line) && Checked < 50) {
    Result<typelang::Type> Parsed = typelang::parseType(Line);
    EXPECT_TRUE(Parsed.isOk()) << Line;
    ++Checked;
  }
  EXPECT_GT(Checked, 10u);

  // Each source line starts with a low-level type and <begin>.
  std::ifstream Sources(Dir + "/train.param.wasm");
  Checked = 0;
  while (std::getline(Sources, Line) && Checked < 50) {
    std::vector<std::string> Tokens = splitWhitespace(Line);
    ASSERT_GE(Tokens.size(), 2u);
    EXPECT_TRUE(Tokens[0] == "i32" || Tokens[0] == "i64" ||
                Tokens[0] == "f32" || Tokens[0] == "f64");
    EXPECT_EQ(Tokens[1], "<begin>");
    ++Checked;
  }
}

TEST(Export, EklavyaVariantWritesSingleLabels) {
  const dataset::Dataset &Data = exportDataset();
  std::string Dir = scratchDir("eklavya");
  dataset::ExportOptions Options;
  Options.Language = typelang::TypeLanguageKind::TL_Eklavya;
  ASSERT_TRUE(dataset::exportPlaintext(Data, Dir, Options).isOk());
  std::ifstream Targets(Dir + "/train.param.type");
  std::string Line;
  size_t Checked = 0;
  while (std::getline(Targets, Line) && Checked < 50) {
    EXPECT_EQ(splitWhitespace(Line).size(), 1u) << Line;
    ++Checked;
  }
  EXPECT_GT(Checked, 0u);
}

TEST(Export, FailsOnUnwritableDirectory) {
  const dataset::Dataset &Data = exportDataset();
  EXPECT_TRUE(
      dataset::exportPlaintext(Data, "/nonexistent/dir/xyz").isErr());
}

TEST(Predictor, WellFormedFilterDropsMalformedSequences) {
  // An untrained model produces mostly malformed sequences; with the filter
  // every surviving prediction must parse.
  const dataset::Dataset &Data = exportDataset();
  model::TaskOptions Options;
  model::Task T(Data, Options);
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = T.sourceVocab().size();
  Config.TgtVocabSize = T.targetVocab().size();
  Config.EmbedDim = 12;
  Config.HiddenDim = 16;
  Config.MaxSrcLen = 32;
  Config.MaxTgtLen = 10;
  nn::Seq2SeqModel Model(Config);
  model::Predictor Filtered(Model, T, /*DeduplicatePredictions=*/true,
                            /*WellFormedOnly=*/true);
  ASSERT_FALSE(T.test().empty());
  for (size_t I = 0; I < 5 && I < T.test().size(); ++I) {
    std::vector<model::TypePrediction> Top =
        Filtered.predictEncoded(T.test()[I].Source, 5);
    for (const model::TypePrediction &P : Top)
      EXPECT_TRUE(typelang::parseType(P.Tokens).isOk())
          << joinStrings(P.Tokens, " ");
  }
}

TEST(Predictor, ConsistencyFilterRespectsLowLevelType) {
  const dataset::Dataset &Data = exportDataset();
  model::TaskOptions Options;
  model::Task T(Data, Options);
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = T.sourceVocab().size();
  Config.TgtVocabSize = T.targetVocab().size();
  Config.EmbedDim = 12;
  Config.HiddenDim = 16;
  Config.MaxSrcLen = 32;
  Config.MaxTgtLen = 10;
  nn::Seq2SeqModel Model(Config);
  model::Predictor Consistent(Model, T, true, true,
                              /*ConsistentWithLowLevel=*/true);
  // For every test sample, surviving predictions must lower to the sample's
  // wasm type.
  size_t Checked = 0;
  for (const model::EncodedSample &Sample : T.test()) {
    if (Checked >= 6)
      break;
    std::vector<model::TypePrediction> Top =
        Consistent.predictEncoded(Sample.Source, 5, Sample.LowLevel);
    for (const model::TypePrediction &P : Top) {
      Result<typelang::Type> Parsed = typelang::parseType(P.Tokens);
      ASSERT_TRUE(Parsed.isOk());
      EXPECT_EQ(typelang::lowLevelTypeOf(*Parsed), Sample.LowLevel)
          << joinStrings(P.Tokens, " ");
    }
    ++Checked;
  }
  EXPECT_GT(Checked, 0u);
}

TEST(LowLevelTypeOf, AbiLowering) {
  using typelang::lowLevelTypeOf;
  using typelang::Type;
  EXPECT_EQ(lowLevelTypeOf(Type::makeInt(64)), wasm::ValType::I64);
  EXPECT_EQ(lowLevelTypeOf(Type::makeUint(64)), wasm::ValType::I64);
  EXPECT_EQ(lowLevelTypeOf(Type::makeInt(32)), wasm::ValType::I32);
  EXPECT_EQ(lowLevelTypeOf(Type::makeInt(8)), wasm::ValType::I32);
  EXPECT_EQ(lowLevelTypeOf(Type::makeFloat(32)), wasm::ValType::F32);
  EXPECT_EQ(lowLevelTypeOf(Type::makeFloat(64)), wasm::ValType::F64);
  EXPECT_EQ(lowLevelTypeOf(Type::makeFloat(128)), wasm::ValType::I32);
  EXPECT_EQ(lowLevelTypeOf(Type::makePointer(Type::makeFloat(64))),
            wasm::ValType::I32);
  EXPECT_EQ(lowLevelTypeOf(Type::makeNamed(
                "time_t", Type::makeInt(64))),
            wasm::ValType::I64);
  EXPECT_EQ(lowLevelTypeOf(Type::makeConst(Type::makeBool())),
            wasm::ValType::I32);
  EXPECT_EQ(lowLevelTypeOf(Type::makeEnum()), wasm::ValType::I32);
}

TEST(Predictor, DeduplicateRemovesRepeats) {
  const dataset::Dataset &Data = exportDataset();
  model::TaskOptions Options;
  model::Task T(Data, Options);
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = T.sourceVocab().size();
  Config.TgtVocabSize = T.targetVocab().size();
  Config.EmbedDim = 12;
  Config.HiddenDim = 16;
  Config.MaxSrcLen = 32;
  Config.MaxTgtLen = 10;
  nn::Seq2SeqModel Model(Config);
  model::Predictor Deduped(Model, T, /*DeduplicatePredictions=*/true);
  ASSERT_FALSE(T.test().empty());
  std::vector<model::TypePrediction> Top =
      Deduped.predictEncoded(T.test()[0].Source, 5);
  std::set<std::string> Unique;
  for (const model::TypePrediction &P : Top)
    EXPECT_TRUE(Unique.insert(joinStrings(P.Tokens, " ")).second)
        << "duplicate prediction survived deduplication";
}

} // namespace
} // namespace snowwhite
