//===- bench/ablation_evidence.cpp - Evidence/path tokens + the gate -------===//
//
// Three measurements for the dataflow-analysis subsystem:
//
//  1. Auxiliary-token ablation: train the same model on the same corpus with
//     every combination of the analysis-derived `<evid:*>` evidence tokens
//     and the CFG-derived `<path:*>` WasmWalker-style path tokens
//     (none / evidence / paths / both) and compare top-1/top-5 accuracy.
//     Evidence tokens summarize statically-proven facts (access widths,
//     sign uses, escapes); path tokens sketch the bounded acyclic control
//     shapes of the function (analysis/paths.h).
//
//  2. Gate precision on the held-out test split, flow-insensitively: decode
//     beam candidates, check each top-1 against the ground-truth slot's
//     QueryEvidence, and score every gate rejection against the label.
//     Precision is the fraction of gated top-1s that were genuinely wrong —
//     the gate only rejects on contradiction with a proof, so this must be
//     high (the acceptance bar is >= 0.9). Also reported: how accuracy
//     moves when the gate picks the first *consistent* beam candidate
//     instead of the raw top-1, and that every request still gets an answer
//     (baseline fall-through, never gated).
//
//  3. The same precision measurement with the path-sensitive gate
//     (GateOptions::PathSensitive): evidence only contradicts when its
//     instructions lie on *every* entry->exit path (the CFG must-execute
//     mask). Gating strictly less often can only raise precision, at the
//     cost of fewer corrections — both rows print so the trade is visible.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "analysis/gate.h"

#include <algorithm>
#include <cstdio>

using namespace snowwhite;
using namespace snowwhite::model;

namespace {

dataset::Dataset tokenDataset(bool EvidenceTokens, bool PathTokens) {
  frontend::Corpus Corpus = bench::benchCorpus();
  dataset::DatasetOptions Options;
  Options.NameVocabThreshold = 0.02;
  Options.TrainFraction = 0.86;
  Options.ValidFraction = 0.05;
  Options.Extract.EvidenceTokens = EvidenceTokens;
  Options.Extract.PathTokens = PathTokens;
  Options.ComputeEvidence = true; // Every arm carries evidence for the gate.
  return dataset::buildDataset(Corpus, Options);
}

struct Arm {
  const char *Name;
  dataset::Dataset Data;
  std::unique_ptr<Task> BoundTask;
  TrainResult Trained;
  eval::AccuracyReport Report;
};

void runArm(Arm &A) {
  TaskOptions Options;
  Options.MaxTrainSamples = static_cast<size_t>(4000 * bench::benchScale());
  A.BoundTask = std::make_unique<Task>(A.Data, Options);
  std::fprintf(stderr, "[ablation] training %s ...\n", A.Name);
  TrainOptions Train = bench::benchTrainOptions();
  Train.MaxEpochs = 8;
  A.Trained = trainModel(*A.BoundTask, Train);
  A.Report = bench::modelAccuracy(*A.BoundTask, *A.Trained.Model, 5, 400);
}

struct GateStats {
  size_t Evaluated = 0, Gated = 0, GatedWrong = 0, Unanswered = 0;
  size_t RawTop1Right = 0, GatedTop1Right = 0;
  double precision() const {
    return Gated == 0 ? 1.0 : double(GatedWrong) / double(Gated);
  }
};

/// Replays the test split through the serving ladder (first consistent beam
/// candidate, baseline fall-through) under the given gate mode.
GateStats measureGate(Arm &A, const analysis::GateOptions &Options) {
  Task &T = *A.BoundTask;
  Predictor Pred(*A.Trained.Model, T);
  StatisticalBaseline Baseline(T);

  GateStats S;
  for (const EncodedSample &Sample : T.test()) {
    if (S.Evaluated >= 400)
      break;
    ++S.Evaluated;
    std::vector<TypePrediction> Candidates =
        Pred.predictEncoded(Sample.Source, 5);
    const analysis::QueryEvidence &Evidence =
        A.Data.Samples[Sample.DatasetIndex].Evidence;

    bool RawRight =
        !Candidates.empty() && Candidates[0].Tokens == Sample.TargetTokens;
    S.RawTop1Right += RawRight;

    // The gated answer: first consistent beam candidate, else the baseline
    // top-1 (which is never gated — every request is answered).
    auto Answer = std::find_if(
        Candidates.begin(), Candidates.end(), [&](const TypePrediction &P) {
          return gatePrediction(P, Evidence, Options) ==
                 analysis::GateVerdict::Consistent;
        });
    if (Answer != Candidates.begin()) {
      ++S.Gated;
      if (!RawRight)
        ++S.GatedWrong;
    }
    if (Answer == Candidates.end()) {
      Candidates = Baseline.predict(Sample.LowLevel, 1);
      Answer = Candidates.begin();
    }
    if (Answer == Candidates.end()) {
      ++S.Unanswered;
      continue;
    }
    S.GatedTop1Right += Answer->Tokens == Sample.TargetTokens;
  }
  return S;
}

void printGateRow(const char *Name, const GateStats &S) {
  std::printf("%-18s %8zu %8zu %10s %10s %10s %11zu\n", Name, S.Gated,
              S.GatedWrong, formatPercent(S.precision(), 1).c_str(),
              formatPercent(double(S.RawTop1Right) / double(S.Evaluated), 1)
                  .c_str(),
              formatPercent(double(S.GatedTop1Right) / double(S.Evaluated), 1)
                  .c_str(),
              S.Unanswered);
}

} // namespace

int main() {
  std::printf("Ablation: analysis evidence tokens, CFG path tokens, and the "
              "consistency gate.\n\n");

  Arm None{"neither token kind", tokenDataset(false, false), nullptr, {}, {}};
  Arm Evid{"evidence tokens", tokenDataset(true, false), nullptr, {}, {}};
  Arm Path{"path tokens", tokenDataset(false, true), nullptr, {}, {}};
  Arm Both{"evidence + path tokens", tokenDataset(true, true), nullptr, {},
           {}};
  runArm(None);
  runArm(Evid);
  runArm(Path);
  runArm(Both);

  bench::printRule('=');
  std::printf("%-28s %8s %8s %9s\n", "input encoding", "Top-1", "Top-5",
              "train[s]");
  bench::printRule();
  for (const Arm *A : {&None, &Evid, &Path, &Both})
    std::printf("%-28s %8s %8s %9s\n", A->Name,
                formatPercent(A->Report.top1(), 1).c_str(),
                formatPercent(A->Report.topK(), 1).c_str(),
                formatDouble(A->Trained.TrainSeconds, 0).c_str());
  bench::printRule();

  // --- Gate precision on the held-out test split -------------------------
  // Uses the evidence+paths arm: its TypeSample::Evidence carries the
  // statically-proven facts (including the must-execute counters) for
  // exactly the slot each sample predicts.
  GateStats Flow = measureGate(Both, analysis::GateOptions{false});
  GateStats Sensitive = measureGate(Both, analysis::GateOptions{true});

  std::printf("\nGate precision (test split, %zu samples; bar: >= 90%%, "
              "unanswered must be 0):\n",
              Flow.Evaluated);
  std::printf("%-18s %8s %8s %10s %10s %10s %11s\n", "gate mode", "gated",
              "wrong", "precision", "raw@1", "gated@1", "unanswered");
  bench::printRule();
  printGateRow("flow-insensitive", Flow);
  printGateRow("path-sensitive", Sensitive);
  bench::printRule();
  // The path-sensitive gate fires on a subset of the flow-insensitive one's
  // contradictions, so it may only improve precision.
  bool Pass = Flow.precision() >= 0.9 && Sensitive.precision() >= 0.9 &&
              Sensitive.precision() >= Flow.precision() - 1e-9 &&
              Flow.Unanswered == 0 && Sensitive.Unanswered == 0;
  return Pass ? 0 : 1;
}
