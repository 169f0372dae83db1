//===- tests/dataset_test.cpp - Dataset pipeline unit tests ----------------===//

#include "dataset/bpe.h"
#include "dataset/extract.h"
#include "dataset/pipeline.h"
#include "dataset/token_vocab.h"
#include "frontend/codegen.h"
#include "frontend/corpus.h"
#include "model/task.h"
#include "wasm/writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace snowwhite {
namespace dataset {
namespace {

using wasm::FuncType;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

// --- Extraction (§4.1) ----------------------------------------------------

/// A function with a recognizable head, a parameter use in the middle of a
/// long noise stretch, and an end.
static Module makeExtractionModule(size_t NoiseBefore, size_t NoiseAfter,
                                   bool WithReturn = false) {
  Module M;
  FuncType Type;
  Type.Params = {ValType::I32, ValType::F64};
  if (WithReturn)
    Type.Results = {ValType::I32};
  wasm::Function Func;
  Func.TypeIndex = M.internType(Type);
  for (size_t I = 0; I < NoiseBefore; ++I)
    Func.Body.push_back(Instr(Opcode::Nop));
  Func.Body.push_back(Instr::localGet(0));
  Func.Body.push_back(Instr(Opcode::Drop));
  for (size_t I = 0; I < NoiseAfter; ++I)
    Func.Body.push_back(Instr(Opcode::Nop));
  if (WithReturn)
    Func.Body.push_back(Instr::i32Const(7));
  Func.Body.push_back(Instr(Opcode::End));
  M.Functions.push_back(std::move(Func));
  M.Memories.push_back(wasm::MemoryDecl{1, false, 0});
  return M;
}

TEST(Extract, SequenceStartsWithLowLevelTypeAndBegin) {
  Module M = makeExtractionModule(0, 0);
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0], "i32");
  EXPECT_EQ(Tokens[1], BeginToken);

  std::vector<std::string> Tokens2 = extractParamInput(M, 0, 1);
  EXPECT_EQ(Tokens2[0], "f64");
}

TEST(Extract, LowLevelTypeAblation) {
  Module M = makeExtractionModule(0, 0);
  ExtractOptions Options;
  Options.IncludeLowLevelType = false;
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0, Options);
  EXPECT_EQ(Tokens[0], BeginToken);
}

TEST(Extract, ParamIndexReplacedByParamToken) {
  Module M = makeExtractionModule(2, 2);
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  // "local.get <param>" appears; the raw index does not follow local.get.
  bool Found = false;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    if (Tokens[I] == "local.get") {
      EXPECT_EQ(Tokens[I + 1], ParamToken);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(Extract, OtherLocalsKeepTheirIndex) {
  Module M = makeExtractionModule(0, 0);
  // Add a use of parameter 1 right next to parameter 0's use.
  M.Functions[0].Body.insert(M.Functions[0].Body.begin(),
                             Instr::localGet(1));
  M.Functions[0].Body.insert(M.Functions[0].Body.begin() + 1,
                             Instr(Opcode::Drop));
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  bool SawOther = false;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    if (Tokens[I] == "local.get" && Tokens[I + 1] == "1")
      SawOther = true;
  EXPECT_TRUE(SawOther);
}

TEST(Extract, WindowLimitsContextAroundUse) {
  // 100 nops, use, 100 nops: the window (21) keeps ~10 on each side.
  Module M = makeExtractionModule(100, 100);
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  size_t Instructions =
      std::count(Tokens.begin(), Tokens.end(), std::string(InstrSeparator)) +
      1;
  EXPECT_LE(Instructions, 22u);
  EXPECT_GE(Instructions, 20u);
}

TEST(Extract, DisjointUsesProduceWindowSeparator) {
  Module M = makeExtractionModule(0, 100);
  // Second use far away from the first.
  auto &Body = M.Functions[0].Body;
  Body.insert(Body.end() - 1, Instr::localSet(0));
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  EXPECT_NE(std::find(Tokens.begin(), Tokens.end(), std::string(WindowToken)),
            Tokens.end());
  // local.set of the parameter is also rewritten.
  bool SawSet = false;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    if (Tokens[I] == "local.set" && Tokens[I + 1] == ParamToken)
      SawSet = true;
  EXPECT_TRUE(SawSet);
}

TEST(Extract, AdjacentUsesMergeIntoOneWindow) {
  Module M = makeExtractionModule(5, 5);
  auto &Body = M.Functions[0].Body;
  // Adjacent second use.
  Body.insert(Body.begin() + 7, Instr::localTee(0));
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  EXPECT_EQ(std::find(Tokens.begin(), Tokens.end(), std::string(WindowToken)),
            Tokens.end());
}

TEST(Extract, UnusedParameterFallsBackToWholeBody) {
  Module M = makeExtractionModule(3, 3);
  std::vector<std::string> Tokens = extractParamInput(M, 0, 1); // f64 unused.
  EXPECT_EQ(Tokens[0], "f64");
  size_t Instructions =
      std::count(Tokens.begin(), Tokens.end(), std::string(InstrSeparator)) +
      1;
  EXPECT_EQ(Instructions, M.Functions[0].Body.size());
}

TEST(Extract, ReturnWindowEndsAtFunctionEnd) {
  Module M = makeExtractionModule(100, 100, /*WithReturn=*/true);
  std::vector<std::string> Tokens = extractReturnInput(M, 0);
  EXPECT_EQ(Tokens[0], "i32");
  // The i32.const 7 right before end is inside the window.
  bool SawConst = false;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    if (Tokens[I] == "i32.const" && Tokens[I + 1] == "7")
      SawConst = true;
  EXPECT_TRUE(SawConst);
  size_t Instructions =
      std::count(Tokens.begin(), Tokens.end(), std::string(InstrSeparator)) +
      1;
  EXPECT_LE(Instructions, 21u);
}

TEST(Extract, ExplicitReturnsGetTheirOwnWindows) {
  Module M = makeExtractionModule(100, 100, /*WithReturn=*/true);
  auto &Body = M.Functions[0].Body;
  Body.insert(Body.begin() + 10, Instr(Opcode::Return));
  Body.insert(Body.begin() + 10, Instr::i32Const(42));
  std::vector<std::string> Tokens = extractReturnInput(M, 0);
  EXPECT_NE(std::find(Tokens.begin(), Tokens.end(), std::string(WindowToken)),
            Tokens.end());
  bool Saw42 = false;
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    if (Tokens[I] == "i32.const" && Tokens[I + 1] == "42")
      Saw42 = true;
  EXPECT_TRUE(Saw42);
}

TEST(Extract, CallIndicesAreOmitted) {
  Module M = makeExtractionModule(0, 0);
  auto &Body = M.Functions[0].Body;
  Body.insert(Body.begin(), Instr::call(17));
  std::vector<std::string> Tokens = extractParamInput(M, 0, 0);
  auto CallIt = std::find(Tokens.begin(), Tokens.end(), std::string("call"));
  ASSERT_NE(CallIt, Tokens.end());
  ++CallIt;
  EXPECT_NE(*CallIt, "17");
}

// --- BPE -----------------------------------------------------------------------

TEST(Bpe, LearnsFrequentMerges) {
  std::map<std::string, uint64_t> Words = {
      {"offset=8", 50}, {"offset=16", 40}, {"offset=24", 30}, {"i32.add", 100}};
  BpeModel Model;
  Model.train(Words, 200);
  EXPECT_TRUE(Model.isTrained());
  EXPECT_GT(Model.numMerges(), 0u);
  // A frequent word collapses into few symbols.
  EXPECT_LE(Model.encodeWord("i32.add").size(), 2u);
}

TEST(Bpe, EncodeDecodeRoundtrip) {
  std::map<std::string, uint64_t> Words = {
      {"local.get", 100}, {"i32.const", 90}, {"12345", 5}, {"700", 8}};
  BpeModel Model;
  Model.train(Words, 80);
  std::vector<std::string> Sequence = {"local.get", "12345", "i32.const",
                                       "unseen_token_999"};
  std::vector<std::string> Encoded = Model.encodeSequence(Sequence);
  EXPECT_EQ(Model.decodeSequence(Encoded), Sequence);
}

TEST(Bpe, RareWordsSplitIntoMoreSymbols) {
  std::map<std::string, uint64_t> Words;
  Words["common"] = 1000;
  Words["rareword"] = 1;
  BpeModel Model;
  Model.train(Words, 40);
  EXPECT_LT(Model.encodeWord("common").size(),
            Model.encodeWord("rareword").size());
}

TEST(Bpe, ProtectedTokensNeverSplit) {
  std::map<std::string, uint64_t> Words = {{"<param>", 1000},
                                           {"paramlike", 10}};
  BpeModel Model;
  Model.train(Words, 100, {"<param>"});
  std::vector<std::string> Encoded = Model.encodeWord("<param>");
  ASSERT_EQ(Encoded.size(), 1u);
  EXPECT_EQ(Encoded[0], "<param>");
}

TEST(Bpe, VocabularyBounded) {
  std::map<std::string, uint64_t> Words;
  for (int I = 0; I < 500; ++I)
    Words["token" + std::to_string(I)] = 10 + I % 7;
  BpeModel Model;
  Model.train(Words, 120);
  EXPECT_LE(Model.symbolVocabulary().size(), 130u);
}

TEST(Bpe, EqualCountsPickTheSmallestPair) {
  // Every pair occurs 3 times; merges follow (left, right) string order.
  std::map<std::string, uint64_t> Words = {{"zb", 3}, {"za", 3}, {"ya", 3}};
  BpeModel Model;
  Model.train(Words, 4 + 3);
  using Merge = std::pair<std::string, std::string>;
  EXPECT_EQ(Model.merges(),
            (std::vector<Merge>{{"y", "a</w>"}, {"z", "a</w>"},
                                {"z", "b</w>"}}));
}

TEST(Bpe, SelfOverlappingPairMergesLeftToRight) {
  // a a a a</w>: applying (a, a) left to right without overlap gives
  // aa a a</w>, whose two pairs tie and learn (a, a</w>) next. A
  // right-to-left application would give a aa a</w> and learn (a, aa).
  std::map<std::string, uint64_t> Words = {{"aaaa", 5}};
  BpeModel Model;
  Model.train(Words, 2 + 2);
  using Merge = std::pair<std::string, std::string>;
  EXPECT_EQ(Model.merges(),
            (std::vector<Merge>{{"a", "a"}, {"a", "a</w>"}}));
  EXPECT_EQ(Model.encodeWord("aaaa"),
            (std::vector<std::string>{"aa", "aa</w>"}));
  EXPECT_EQ(Model.encodeWord("aaaaa"),
            (std::vector<std::string>{"aa", "aa", "a</w>"}));
}

TEST(Bpe, ProtectedWordsAreLeftOutOfTraining) {
  std::map<std::string, uint64_t> Words = {{"<p>", 1000}, {"xy", 2}};
  BpeModel Model;
  Model.train(Words, 100, {"<p>"});
  using Merge = std::pair<std::string, std::string>;
  EXPECT_EQ(Model.merges(), (std::vector<Merge>{{"x", "y</w>"}}));
  EXPECT_EQ(Model.symbolVocabulary(),
            (std::vector<std::string>{"<p>", "x", "xy</w>", "y</w>"}));
}

TEST(Bpe, UnseenWordsEncodeAndRoundTrip) {
  std::map<std::string, uint64_t> Words = {{"local.get", 100}, {"i32", 40}};
  BpeModel Model;
  Model.train(Words, 60, {"<param>"});
  for (const std::string &Word :
       {std::string(), std::string("\x7f"), std::string("zq\x7f"),
        std::string("local.set")}) {
    std::vector<std::string> Symbols = Model.encodeWord(Word);
    EXPECT_FALSE(Symbols.empty());
    EXPECT_EQ(Model.decodeSequence(Symbols), std::vector<std::string>{Word});
  }
  std::vector<std::string> Sequence = {"", "<param>", "\x7f", "local.get"};
  EXPECT_EQ(Model.decodeSequence(Model.encodeSequence(Sequence)), Sequence);
}

TEST(Bpe, TaskWordTableMatchesMergeLoop) {
  // Task encodes training words from a table filled once; every entry, and
  // every word the table misses, must equal the BPE merge loop's ids.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 10;
  Spec.Seed = 5;
  Dataset Data = buildDataset(frontend::buildCorpus(Spec));
  model::Task T(Data, model::TaskOptions());
  auto MergeLoop = [&](const std::string &Word) {
    return T.sourceVocab().encode(T.bpe().encodeWord(Word));
  };
  std::set<std::string> TrainWords;
  for (const model::EncodedSample &Sample : T.train())
    for (const std::string &Word : Data.Samples[Sample.DatasetIndex].Input)
      TrainWords.insert(Word);
  ASSERT_FALSE(TrainWords.empty());
  for (const std::string &Word : TrainWords)
    EXPECT_EQ(T.encodeSource({Word}), MergeLoop(Word)) << Word;
  for (const std::string &Word :
       {std::string(), std::string("\x7f"), std::string("never_seen_42")}) {
    ASSERT_EQ(TrainWords.count(Word), 0u);
    EXPECT_EQ(T.encodeSource({Word}), MergeLoop(Word));
  }
}

// --- Token vocab ------------------------------------------------------------------

TEST(TokenVocab, SpecialsAreFixed) {
  TokenVocab Vocab;
  EXPECT_EQ(Vocab.size(), 4u);
  EXPECT_EQ(Vocab.idOf("<pad>"), TokenVocab::Pad);
  EXPECT_EQ(Vocab.idOf("<unk>"), TokenVocab::Unk);
  EXPECT_EQ(Vocab.idOf("<s>"), TokenVocab::Bos);
  EXPECT_EQ(Vocab.idOf("</s>"), TokenVocab::Eos);
}

TEST(TokenVocab, UnknownMapsToUnk) {
  TokenVocab Vocab;
  Vocab.addToken("pointer");
  EXPECT_EQ(Vocab.idOf("nonexistent"), TokenVocab::Unk);
  EXPECT_EQ(Vocab.tokenOf(Vocab.idOf("pointer")), "pointer");
}

TEST(TokenVocab, AddIsIdempotent) {
  TokenVocab Vocab;
  uint32_t A = Vocab.addToken("x");
  uint32_t B = Vocab.addToken("x");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Vocab.size(), 5u);
}

TEST(TokenVocab, EncodeDecode) {
  TokenVocab Vocab;
  Vocab.addToken("pointer");
  Vocab.addToken("struct");
  std::vector<std::string> Tokens = {"pointer", "struct"};
  EXPECT_EQ(Vocab.decode(Vocab.encode(Tokens)), Tokens);
}

// --- Pipeline ------------------------------------------------------------------------

struct PipelineFixture : ::testing::Test {
  frontend::Corpus Corpus;
  Dataset Data;

  void SetUp() override {
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 24;
    Spec.Seed = 9;
    Spec.ExactDupRate = 0.15;
    Spec.NearDupRate = 0.1;
    Corpus = frontend::buildCorpus(Spec);
    Data = buildDataset(Corpus);
  }
};

TEST_F(PipelineFixture, DedupReducesTheCorpus) {
  EXPECT_GT(Data.Dedup.ObjectsBefore, Data.Dedup.ObjectsAfter);
  EXPECT_GT(Data.Dedup.ExactDuplicates + Data.Dedup.NearDuplicates, 0u);
  EXPECT_EQ(Data.Dedup.ObjectsBefore,
            Data.Dedup.ObjectsAfter + Data.Dedup.ExactDuplicates +
                Data.Dedup.NearDuplicates);
  EXPECT_GT(Data.Dedup.InstructionsBefore, Data.Dedup.InstructionsAfter);
}

TEST_F(PipelineFixture, ProducesParameterAndReturnSamples) {
  EXPECT_GT(Data.Samples.size(), 100u);
  uint64_t Params = 0, Returns = 0;
  for (const TypeSample &Sample : Data.Samples)
    (Sample.IsReturn ? Returns : Params)++;
  EXPECT_GT(Params, Returns) << "more parameter than return samples (§5)";
  EXPECT_GT(Returns, 0u);
}

TEST_F(PipelineFixture, SamplesHaveWellFormedInputs) {
  for (const TypeSample &Sample : Data.Samples) {
    ASSERT_GE(Sample.Input.size(), 2u);
    EXPECT_EQ(Sample.Input[1], BeginToken);
    const std::string &LowLevel = Sample.Input[0];
    EXPECT_TRUE(LowLevel == "i32" || LowLevel == "i64" || LowLevel == "f32" ||
                LowLevel == "f64");
    // The rich type is a valid type of the language.
    EXPECT_FALSE(Sample.RichType.tokens().empty());
  }
}

TEST_F(PipelineFixture, SplitsAreDisjointByPackage) {
  std::set<uint32_t> TrainPackages, ValidPackages, TestPackages;
  for (uint32_t Index : Data.Train)
    TrainPackages.insert(Data.Samples[Index].PackageId);
  for (uint32_t Index : Data.Valid)
    ValidPackages.insert(Data.Samples[Index].PackageId);
  for (uint32_t Index : Data.Test)
    TestPackages.insert(Data.Samples[Index].PackageId);
  for (uint32_t Package : ValidPackages) {
    EXPECT_FALSE(TrainPackages.count(Package));
    EXPECT_FALSE(TestPackages.count(Package));
  }
  for (uint32_t Package : TestPackages)
    EXPECT_FALSE(TrainPackages.count(Package));
  EXPECT_FALSE(Data.Train.empty());
  EXPECT_FALSE(Data.Valid.empty());
  EXPECT_FALSE(Data.Test.empty());
  EXPECT_EQ(Data.Train.size() + Data.Valid.size() + Data.Test.size(),
            Data.Samples.size());
}

TEST_F(PipelineFixture, CommonNamesAreFound) {
  // size_t has a 64% per-package inclusion probability, so it must clear
  // the 1% threshold in any non-trivial corpus.
  EXPECT_TRUE(Data.Names.contains("size_t"));
  EXPECT_GT(Data.Names.size(), 2u);
  // Project-specific names are confined to one package and must be dropped.
  for (const std::string &Name : Data.Names.names())
    EXPECT_EQ(Name.find("pkg"), std::string::npos) << Name;
}

TEST_F(PipelineFixture, SomeFunctionsAreSkippedForParamMismatch) {
  EXPECT_GT(Data.FunctionsSkippedMismatch, 0u);
}

TEST_F(PipelineFixture, CapLimitsPerPackageSamples) {
  std::map<uint32_t, uint64_t> PerPackage;
  for (const TypeSample &Sample : Data.Samples)
    ++PerPackage[Sample.PackageId];
  std::vector<uint64_t> Counts;
  for (const auto &[Package, Count] : PerPackage)
    Counts.push_back(Count);
  std::sort(Counts.rbegin(), Counts.rend());
  ASSERT_GE(Counts.size(), 2u);
  EXPECT_EQ(Counts[0], Counts[1]) << "largest package capped to second";
}

TEST(Pipeline, DedupCanBeDisabled) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 10;
  Spec.Seed = 21;
  Spec.ExactDupRate = 0.3;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  DatasetOptions Options;
  Options.Deduplicate = false;
  Dataset Data = buildDataset(Corpus, Options);
  EXPECT_EQ(Data.Dedup.ObjectsBefore, Data.Dedup.ObjectsAfter);
}

} // namespace
} // namespace dataset
} // namespace snowwhite
