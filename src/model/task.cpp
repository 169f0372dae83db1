#include "model/task.h"

#include "analysis/evidence.h"
#include "analysis/paths.h"
#include "dataset/extract.h"

#include <cassert>
#include <map>

namespace snowwhite {
namespace model {

using dataset::Dataset;
using dataset::TypeSample;
using typelang::NameVocabulary;

namespace {

/// Tokens that the BPE model must never split: structural delimiters and
/// the type-language keywords. Evidence and path tokens join the set only
/// when the inputs actually carry them (ExtractOptions::EvidenceTokens /
/// PathTokens), so the vocabulary — and therefore model shape and behavior —
/// is unchanged for datasets without the auxiliary tokens.
std::vector<std::string> protectedTokens(bool WithEvidence, bool WithPaths) {
  std::vector<std::string> Out = {
      dataset::BeginToken, dataset::ParamToken, dataset::WindowToken,
      dataset::InstrSeparator, "i32", "i64", "f32", "f64"};
  for (const std::string &Keyword : typelang::typeLanguageKeywords())
    Out.push_back(Keyword);
  if (WithEvidence)
    for (const std::string &Token : analysis::evidenceTokenVocabulary())
      Out.push_back(Token);
  if (WithPaths)
    for (const std::string &Token : analysis::pathTokenVocabulary())
      Out.push_back(Token);
  return Out;
}

} // namespace

Task::Task(const Dataset &Data, const TaskOptions &Options)
    : Options(Options) {
  bool WantReturn = Options.Kind == TaskKind::TK_Return;
  bool WantFields = Options.Kind == TaskKind::TK_Fields;

  // Collect the relevant sample indices per split.
  auto SelectSplit = [&](const std::vector<uint32_t> &Split) {
    std::vector<uint32_t> Selected;
    for (uint32_t Index : Split) {
      const TypeSample &Sample = Data.Samples[Index];
      if (WantFields) {
        if (!Sample.IsReturn && !Sample.FieldTokens.empty())
          Selected.push_back(Index);
        continue;
      }
      if (Sample.IsReturn == WantReturn)
        Selected.push_back(Index);
    }
    return Selected;
  };
  std::vector<uint32_t> TrainIdx = SelectSplit(Data.Train);
  std::vector<uint32_t> ValidIdx = SelectSplit(Data.Valid);
  std::vector<uint32_t> TestIdx = SelectSplit(Data.Test);
  if (Options.MaxTrainSamples != 0 &&
      TrainIdx.size() > Options.MaxTrainSamples)
    TrainIdx.resize(Options.MaxTrainSamples);

  // Train the input BPE model on training-split word frequencies only (no
  // information from validation/test leaks into the tokenization).
  std::map<std::string, uint64_t> WordFrequencies;
  bool HasEvidenceTokens = false;
  bool HasPathTokens = false;
  for (uint32_t Index : TrainIdx)
    for (const std::string &Token : Data.Samples[Index].Input) {
      ++WordFrequencies[Token];
      if (!HasEvidenceTokens && Token.rfind("<evid:", 0) == 0)
        HasEvidenceTokens = true;
      if (!HasPathTokens && Token.rfind("<path:", 0) == 0)
        HasPathTokens = true;
    }
  Bpe.train(WordFrequencies, Options.BpeVocabSize,
            protectedTokens(HasEvidenceTokens, HasPathTokens));
  for (const std::string &Symbol : Bpe.symbolVocabulary())
    SourceVocab.addToken(Symbol);
  WordSourceIds.reserve(WordFrequencies.size());
  for (const auto &Entry : WordFrequencies)
    WordSourceIds.emplace(Entry.first,
                          SourceVocab.encode(Bpe.encodeWord(Entry.first)));

  // Encode all splits, lowering each target type once. The target
  // vocabulary grows from the training split's target symbols; a symbol
  // keeps its id once added, so encoding a training sample right after
  // adding its symbols gives the ids a vocabulary-first pass would.
  auto EncodeAll = [&](const std::vector<uint32_t> &Indices,
                       std::vector<EncodedSample> &Out, bool GrowTargetVocab) {
    Out.reserve(Indices.size());
    for (uint32_t Index : Indices) {
      const TypeSample &Sample = Data.Samples[Index];
      EncodedSample Encoded;
      Encoded.Source = encodeSource(Sample.Input);
      Encoded.TargetTokens =
          WantFields ? Sample.FieldTokens
                     : typelang::lowerTypeToLanguage(
                           Sample.RichType, Options.Language, &Data.Names);
      std::vector<std::string> TargetSymbols =
          Options.BpeTargets ? Bpe.encodeSequence(Encoded.TargetTokens)
                             : Encoded.TargetTokens;
      if (GrowTargetVocab)
        for (const std::string &Symbol : TargetSymbols)
          TargetVocab.addToken(Symbol);
      Encoded.Target = TargetVocab.encode(TargetSymbols);
      Encoded.LowLevel = Sample.LowLevel;
      Encoded.NestingDepth =
          typelang::filterTypeNames(Sample.RichType, &Data.Names)
              .nestingDepth();
      Encoded.DatasetIndex = Index;
      Out.push_back(std::move(Encoded));
    }
  };
  EncodeAll(TrainIdx, Train, true);
  EncodeAll(ValidIdx, Valid, false);
  EncodeAll(TestIdx, Test, false);
}

std::vector<uint32_t>
Task::encodeSource(const std::vector<std::string> &Tokens) const {
  // The low-level-type ablation drops the leading type token.
  size_t First = Options.StripLowLevelType && Tokens.size() >= 2 &&
                         Tokens[1] == dataset::BeginToken
                     ? 1
                     : 0;
  std::vector<uint32_t> Ids;
  Ids.reserve(Tokens.size() - First);
  for (size_t I = First; I < Tokens.size(); ++I) {
    auto It = WordSourceIds.find(Tokens[I]);
    if (It != WordSourceIds.end()) {
      Ids.insert(Ids.end(), It->second.begin(), It->second.end());
      continue;
    }
    for (const std::string &Symbol : Bpe.encodeWord(Tokens[I]))
      Ids.push_back(SourceVocab.idOf(Symbol));
  }
  return Ids;
}

std::vector<std::string>
Task::decodeTarget(const std::vector<uint32_t> &Ids) const {
  std::vector<std::string> Tokens = TargetVocab.decode(Ids);
  if (Options.BpeTargets)
    return Bpe.decodeSequence(Tokens);
  return Tokens;
}

} // namespace model
} // namespace snowwhite
