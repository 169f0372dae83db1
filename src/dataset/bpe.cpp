#include "dataset/bpe.h"

#include <cassert>
#include <set>

namespace snowwhite {
namespace dataset {

namespace {

std::string mergeKey(const std::string &Left, const std::string &Right) {
  return Left + '\x1f' + Right;
}

/// Interned symbol strings: training works on dense ids and compares the
/// strings only to break ties between equally frequent pairs.
class SymbolTable {
public:
  uint32_t intern(const std::string &Symbol) {
    auto [It, Inserted] = Ids.emplace(Symbol, uint32_t(Texts.size()));
    if (Inserted)
      Texts.push_back(Symbol);
    return It->second;
  }
  const std::string &text(uint32_t Id) const { return Texts[Id]; }

private:
  std::vector<std::string> Texts;
  std::unordered_map<std::string, uint32_t> Ids;
};

uint64_t pairKey(uint32_t Left, uint32_t Right) {
  return (uint64_t(Left) << 32) | Right;
}

} // namespace

std::vector<std::string>
BpeModel::splitToSymbols(const std::string &Word) const {
  std::vector<std::string> Symbols;
  for (size_t I = 0; I < Word.size(); ++I)
    Symbols.emplace_back(1, Word[I]);
  if (Symbols.empty())
    Symbols.emplace_back("");
  Symbols.back() += EndOfWord;
  return Symbols;
}

void BpeModel::train(const std::map<std::string, uint64_t> &WordFrequencies,
                     size_t TargetVocabSize,
                     const std::vector<std::string> &Protected) {
  assert(!Trained && "train called twice");
  ProtectedTokens.insert(Protected.begin(), Protected.end());

  // Working copy: each word as its current symbol-id sequence.
  struct WorkWord {
    std::vector<uint32_t> Symbols;
    uint64_t Frequency;
  };
  SymbolTable Table;
  std::vector<WorkWord> Words;
  std::set<std::string> SymbolSet;
  for (const auto &[Word, Frequency] : WordFrequencies) {
    if (ProtectedTokens.count(Word))
      continue;
    WorkWord Work{{}, Frequency};
    for (const std::string &Symbol : splitToSymbols(Word)) {
      SymbolSet.insert(Symbol);
      Work.Symbols.push_back(Table.intern(Symbol));
    }
    Words.push_back(std::move(Work));
  }
  BaseSymbols.assign(SymbolSet.begin(), SymbolSet.end());

  // Frequency-weighted count of every adjacent pair; a pair whose count
  // drops to zero is erased, so the table holds exactly the pairs present.
  std::unordered_map<uint64_t, uint64_t> PairCounts;
  auto CountPairs = [&](const WorkWord &Work, bool Add) {
    if (Work.Frequency == 0)
      return;
    for (size_t I = 0; I + 1 < Work.Symbols.size(); ++I) {
      uint64_t Key = pairKey(Work.Symbols[I], Work.Symbols[I + 1]);
      if (Add) {
        PairCounts[Key] += Work.Frequency;
        continue;
      }
      auto It = PairCounts.find(Key);
      assert(It != PairCounts.end() && It->second >= Work.Frequency);
      if ((It->second -= Work.Frequency) == 0)
        PairCounts.erase(It);
    }
  };
  for (const WorkWord &Work : Words)
    CountPairs(Work, /*Add=*/true);

  // Protected is counted as listed, duplicates included; the encoding
  // golden pins the merge list this budget yields.
  size_t VocabSize = SymbolSet.size() + Protected.size();
  while (VocabSize < TargetVocabSize && !PairCounts.empty()) {
    // The most frequent pair; ties go to the lexicographically smallest
    // (left, right) string pair.
    auto Strings = [&](uint64_t Key) {
      return std::pair<const std::string &, const std::string &>(
          Table.text(uint32_t(Key >> 32)), Table.text(uint32_t(Key)));
    };
    uint64_t BestKey = 0, BestCount = 0;
    for (const auto &[Key, Count] : PairCounts)
      if (Count > BestCount ||
          (Count == BestCount && Strings(Key) < Strings(BestKey))) {
        BestKey = Key;
        BestCount = Count;
      }
    if (BestCount < 2)
      break;
    uint32_t Left = uint32_t(BestKey >> 32), Right = uint32_t(BestKey);
    std::string LeftText = Table.text(Left), RightText = Table.text(Right);
    uint32_t Merged = Table.intern(LeftText + RightText);
    MergeRank.emplace(mergeKey(LeftText, RightText), Merges.size());
    Merges.emplace_back(std::move(LeftText), std::move(RightText));
    ++VocabSize;

    // Apply the merge greedily left to right, recounting only the words
    // that contain the pair.
    for (WorkWord &Work : Words) {
      std::vector<uint32_t> &Symbols = Work.Symbols;
      size_t First = 0;
      while (First + 1 < Symbols.size() &&
             !(Symbols[First] == Left && Symbols[First + 1] == Right))
        ++First;
      if (First + 1 >= Symbols.size())
        continue;
      CountPairs(Work, /*Add=*/false);
      size_t Out = First;
      for (size_t I = First; I < Symbols.size(); ++I) {
        if (I + 1 < Symbols.size() && Symbols[I] == Left &&
            Symbols[I + 1] == Right) {
          Symbols[Out++] = Merged;
          ++I;
        } else {
          Symbols[Out++] = Symbols[I];
        }
      }
      Symbols.resize(Out);
      CountPairs(Work, /*Add=*/true);
    }
  }
  Trained = true;
}

std::vector<std::string> BpeModel::encodeWord(const std::string &Word) const {
  assert(Trained && "encode before train");
  if (ProtectedTokens.count(Word))
    return {Word};

  std::vector<std::string> Symbols = splitToSymbols(Word);
  // Greedy lowest-rank-first merging (standard BPE application).
  while (Symbols.size() > 1) {
    size_t BestRank = SIZE_MAX;
    size_t BestIndex = SIZE_MAX;
    for (size_t I = 0; I + 1 < Symbols.size(); ++I) {
      auto It = MergeRank.find(mergeKey(Symbols[I], Symbols[I + 1]));
      if (It != MergeRank.end() && It->second < BestRank) {
        BestRank = It->second;
        BestIndex = I;
      }
    }
    if (BestIndex == SIZE_MAX)
      break;
    Symbols[BestIndex] += Symbols[BestIndex + 1];
    Symbols.erase(Symbols.begin() + BestIndex + 1);
  }
  return Symbols;
}

std::vector<std::string>
BpeModel::encodeSequence(const std::vector<std::string> &Words) const {
  std::vector<std::string> Out;
  for (const std::string &Word : Words) {
    std::vector<std::string> Symbols = encodeWord(Word);
    Out.insert(Out.end(), Symbols.begin(), Symbols.end());
  }
  return Out;
}

std::vector<std::string>
BpeModel::decodeSequence(const std::vector<std::string> &Symbols) const {
  std::vector<std::string> Words;
  std::string Current;
  const std::string Marker = EndOfWord;
  for (const std::string &Symbol : Symbols) {
    if (ProtectedTokens.count(Symbol)) {
      if (!Current.empty()) {
        Words.push_back(Current);
        Current.clear();
      }
      Words.push_back(Symbol);
      continue;
    }
    if (Symbol.size() >= Marker.size() &&
        Symbol.compare(Symbol.size() - Marker.size(), Marker.size(), Marker) ==
            0) {
      Current += Symbol.substr(0, Symbol.size() - Marker.size());
      Words.push_back(Current);
      Current.clear();
    } else {
      Current += Symbol;
    }
  }
  if (!Current.empty())
    Words.push_back(Current);
  return Words;
}

std::vector<std::string> BpeModel::symbolVocabulary() const {
  assert(Trained && "vocabulary before train");
  std::set<std::string> Symbols(BaseSymbols.begin(), BaseSymbols.end());
  for (const auto &[Left, Right] : Merges)
    Symbols.insert(Left + Right);
  for (const std::string &ProtectedToken : ProtectedTokens)
    Symbols.insert(ProtectedToken);
  return std::vector<std::string>(Symbols.begin(), Symbols.end());
}

} // namespace dataset
} // namespace snowwhite
