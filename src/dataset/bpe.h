//===- dataset/bpe.h - Byte-pair-encoding subword model (§4.1) -------------===//
//
// Code has a huge number of unique but infrequent tokens (the paper reports
// >427,000, mostly numbers like memory offsets and constants). Embedding all
// of them is wasteful, so the input is re-tokenized with a byte-pair-encoding
// subword model (Sennrich et al.): frequent tokens stay whole, rare tokens
// split into frequent subwords, at the cost of slightly longer sequences.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_DATASET_BPE_H
#define SNOWWHITE_DATASET_BPE_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace snowwhite {
namespace dataset {

/// A trained BPE subword model over word-level tokens. Words are split into
/// byte symbols with an end-of-word marker, then the learned merges are
/// replayed greedily in learn order.
class BpeModel {
public:
  /// End-of-word marker appended to the final symbol of each word.
  static constexpr const char *EndOfWord = "</w>";

  /// Learns a merge table from word frequencies until the symbol vocabulary
  /// reaches TargetVocabSize (or no pair occurs at least twice). Tokens
  /// listed in Protected (e.g. '<param>', type keywords) are never split.
  void train(const std::map<std::string, uint64_t> &WordFrequencies,
             size_t TargetVocabSize,
             const std::vector<std::string> &Protected = {});

  /// Splits one word into subword symbols.
  std::vector<std::string> encodeWord(const std::string &Word) const;

  /// Encodes a token sequence (concatenation of per-word encodings).
  std::vector<std::string>
  encodeSequence(const std::vector<std::string> &Words) const;

  /// Reassembles words from a subword stream (inverse of encodeSequence for
  /// well-formed input; unterminated trailing symbols become a final word).
  std::vector<std::string>
  decodeSequence(const std::vector<std::string> &Symbols) const;

  /// All symbols the model can emit (single bytes with/without the marker
  /// plus merged symbols plus protected tokens).
  std::vector<std::string> symbolVocabulary() const;

  size_t numMerges() const { return Merges.size(); }
  /// The learned merges in learn order.
  const std::vector<std::pair<std::string, std::string>> &merges() const {
    return Merges;
  }
  bool isTrained() const { return Trained; }

private:
  std::vector<std::string> splitToSymbols(const std::string &Word) const;

  /// Learned merges in order; (left, right) -> left+right.
  std::vector<std::pair<std::string, std::string>> Merges;
  /// Merge lookup: "left\x1fright" -> rank.
  std::unordered_map<std::string, size_t> MergeRank;
  /// Tokens never split; one set serves training, encodeWord and
  /// decodeSequence.
  std::unordered_set<std::string> ProtectedTokens;
  std::vector<std::string> BaseSymbols;
  bool Trained = false;
};

} // namespace dataset
} // namespace snowwhite

#endif // SNOWWHITE_DATASET_BPE_H
