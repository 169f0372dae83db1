//===- tests/parallel_test.cpp - Thread pool and determinism tests ---------===//
//
// Unit tests for the worker pool plus the parallel layer's central promise:
// SNOWWHITE_THREADS never changes results. Kernels, training, and the
// dataset pipeline are run under pools of different sizes and compared
// bit-for-bit. These tests carry the `threaded` ctest label so the TSan
// preset can single them out.
//
//===----------------------------------------------------------------------===//

#include "dataset/pipeline.h"
#include "frontend/typegen.h"
#include "model/task.h"
#include "model/trainer.h"
#include "nn/graph.h"
#include "nn/seq2seq.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>

namespace snowwhite {
namespace {

// --- ThreadPool unit tests ---------------------------------------------------

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::vector<size_t> Seen;
  Pool.parallelTasks(5, [&](size_t I) { Seen.push_back(I); });
  // With no workers the caller runs every task, in order, on its own stack.
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, AllTasksRunExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Runs(N);
  Pool.parallelTasks(N, [&](size_t I) { ++Runs[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Runs[I].load(), 1) << "task " << I;
}

TEST(ThreadPool, ParallelForCoversRangeDisjointly) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(997); // Prime: uneven chunking.
  Pool.parallelFor(0, Hits.size(), 10, [&](size_t Begin, size_t End) {
    ASSERT_LE(End, Hits.size());
    for (size_t I = Begin; I < End; ++I)
      ++Hits[I];
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, NestedParallelCallsRunInline) {
  ThreadPool Pool(4);
  std::atomic<int> Inner{0};
  Pool.parallelTasks(8, [&](size_t) {
    // A nested call must not deadlock waiting for queue slots held by its
    // ancestors; it runs inline instead.
    Pool.parallelTasks(8, [&](size_t) { ++Inner; });
  });
  EXPECT_EQ(Inner.load(), 64);
}

TEST(ThreadPool, MapReduceOrderedReducesInShardOrder) {
  ThreadPool Pool(4);
  std::vector<int> Partial(64);
  std::vector<int> ReduceOrder;
  Pool.mapReduceOrdered(
      Partial.size(), [&](size_t I) { Partial[I] = static_cast<int>(I); },
      [&](size_t I) { ReduceOrder.push_back(Partial[I]); });
  std::vector<int> Expected(64);
  std::iota(Expected.begin(), Expected.end(), 0);
  EXPECT_EQ(ReduceOrder, Expected);
}

TEST(ThreadPool, ThreadsFromEnvParsesOverride) {
  // Only exercised when the variable is unset by the harness; the parse
  // itself is covered by setting and restoring.
  const char *Saved = std::getenv("SNOWWHITE_THREADS");
  std::string SavedValue = Saved ? Saved : "";
  setenv("SNOWWHITE_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::threadsFromEnv(), 3u);
  setenv("SNOWWHITE_THREADS", "0", 1); // Invalid: falls back to hardware.
  EXPECT_GE(ThreadPool::threadsFromEnv(), 1u);
  if (Saved)
    setenv("SNOWWHITE_THREADS", SavedValue.c_str(), 1);
  else
    unsetenv("SNOWWHITE_THREADS");
}

// --- Kernel determinism ------------------------------------------------------

/// Runs Body under a global pool of each size in {1, 4} and returns the
/// per-size outputs for comparison. Restores the env-sized pool afterwards.
template <typename BodyFn>
std::pair<std::vector<float>, std::vector<float>> runAtOneAndFour(BodyFn Body) {
  ThreadPool::resetGlobal(1);
  std::vector<float> AtOne = Body();
  ThreadPool::resetGlobal(4);
  std::vector<float> AtFour = Body();
  ThreadPool::resetGlobal(0);
  return {std::move(AtOne), std::move(AtFour)};
}

void expectBitIdentical(const std::vector<float> &A,
                        const std::vector<float> &B) {
  ASSERT_EQ(A.size(), B.size());
  // memcmp, not ==: bit-identical is the contract, and it also catches
  // -0.0f vs 0.0f and NaN-payload drift that float equality would hide.
  EXPECT_EQ(std::memcmp(A.data(), B.data(), A.size() * sizeof(float)), 0);
}

TEST(Determinism, MatmulForwardAndBackward) {
  constexpr size_t M = 37, K = 41, N = 43; // Odd sizes: ragged chunks.
  auto [AtOne, AtFour] = runAtOneAndFour([&] {
    nn::Parameter A(M, K), B(K, N);
    Rng R(11);
    A.initXavier(R);
    B.initXavier(R);
    nn::Graph G(/*Training=*/true);
    nn::Var C = G.matmul(G.param(A), G.param(B));
    // Reduce to a scalar through matmulTransposeB so its kernels run too.
    nn::Var CT = G.matmulTransposeB(C, C); // [M, M]
    std::vector<float> OnesRow(M, 1.0f), OnesCol(M, 1.0f);
    nn::Var Left = G.input(1, M, OnesRow.data());
    nn::Var Right = G.input(M, 1, OnesCol.data());
    nn::Var Loss = G.matmul(G.matmul(Left, CT), Right);
    G.backward(Loss);
    std::vector<float> Out(C.value(), C.value() + M * N);
    Out.insert(Out.end(), A.Grad.begin(), A.Grad.end());
    Out.insert(Out.end(), B.Grad.begin(), B.Grad.end());
    return Out;
  });
  expectBitIdentical(AtOne, AtFour);
}

TEST(Determinism, EmbeddingScatterBackward) {
  constexpr size_t Vocab = 17, Dim = 64, Lookups = 1024;
  auto [AtOne, AtFour] = runAtOneAndFour([&] {
    nn::Parameter E(Vocab, Dim);
    Rng R(13);
    E.initXavier(R);
    // Heavy id repetition: the grouped scatter must accumulate each id's
    // occurrences in ascending position order to stay bit-identical.
    std::vector<uint32_t> Ids(Lookups);
    for (size_t I = 0; I < Lookups; ++I)
      Ids[I] = static_cast<uint32_t>(R.nextBelow(Vocab));
    nn::Graph G(/*Training=*/true);
    nn::Var Emb = G.tanhOp(G.embedding(E, Ids));
    std::vector<float> OnesRow(Lookups, 1.0f), OnesCol(Dim, 1.0f);
    nn::Var Left = G.input(1, Lookups, OnesRow.data());
    nn::Var Right = G.input(Dim, 1, OnesCol.data());
    G.backward(G.matmul(G.matmul(Left, Emb), Right));
    return E.Grad;
  });
  expectBitIdentical(AtOne, AtFour);
}

TEST(Determinism, CrossEntropyForwardAndBackward) {
  constexpr size_t Rows = 300, Classes = 120; // Above the parallel cutoff.
  auto [AtOne, AtFour] = runAtOneAndFour([&] {
    nn::Parameter Logits(Rows, Classes);
    Rng R(17);
    Logits.initXavier(R);
    std::vector<uint32_t> Targets(Rows);
    for (size_t I = 0; I < Rows; ++I)
      Targets[I] = static_cast<uint32_t>(R.nextBelow(Classes));
    Targets[3] = 0;
    Targets[7] = 0; // IgnoreIndex positions.
    nn::Graph G(/*Training=*/true);
    nn::Var Loss =
        G.crossEntropy(G.param(Logits), Targets, /*IgnoreIndex=*/0);
    G.backward(Loss);
    std::vector<float> Out = {Loss.at(0, 0)};
    Out.insert(Out.end(), Logits.Grad.begin(), Logits.Grad.end());
    return Out;
  });
  expectBitIdentical(AtOne, AtFour);
}

// --- Training determinism ----------------------------------------------------

/// A batch of synthetic copy-task rows shared by the training tests.
void makeBatch(std::vector<std::vector<uint32_t>> &Sources,
               std::vector<std::vector<uint32_t>> &Targets, size_t Rows) {
  Rng R(29);
  for (size_t I = 0; I < Rows; ++I) {
    uint32_t Token = 4 + static_cast<uint32_t>(R.nextBelow(8));
    Sources.push_back({Token, 4, 5});
    Targets.push_back({Token});
  }
}

std::vector<float> trainedWeights(unsigned Threads) {
  ThreadPool::resetGlobal(Threads);
  nn::Seq2SeqConfig Config;
  Config.SrcVocabSize = 16;
  Config.TgtVocabSize = 16;
  Config.EmbedDim = 12;
  Config.HiddenDim = 16;
  Config.DropoutRate = 0.3f; // Nonzero: shard RNG streams must line up.
  Config.MaxSrcLen = 8;
  Config.MaxTgtLen = 4;
  Config.Seed = 41;
  nn::Seq2SeqModel Model(Config);
  nn::AdamOptimizer Optimizer(Model.parameters(), 5e-3f);
  std::vector<std::vector<uint32_t>> Sources, Targets;
  makeBatch(Sources, Targets, 21); // Not a multiple of TrainShardSize.
  std::vector<float> Losses;
  for (int Step = 0; Step < 4; ++Step)
    Losses.push_back(Model.trainBatch(Sources, Targets, Optimizer));
  std::vector<float> Out = Losses;
  for (nn::Parameter *P : Model.parameters())
    Out.insert(Out.end(), P->Value.begin(), P->Value.end());
  // Predictions after training must agree too.
  for (const nn::Hypothesis &Hyp : Model.predictTopK(Sources.front(), 4)) {
    Out.push_back(Hyp.LogProb);
    for (uint32_t Token : Hyp.Tokens)
      Out.push_back(static_cast<float>(Token));
  }
  ThreadPool::resetGlobal(0);
  return Out;
}

TEST(Determinism, TrainedParametersAndPredictionsMatchAcrossThreadCounts) {
  std::vector<float> AtOne = trainedWeights(1);
  std::vector<float> AtFour = trainedWeights(4);
  expectBitIdentical(AtOne, AtFour);
}

TEST(Determinism, EvaluateLossMatchesAcrossThreadCounts) {
  auto [AtOne, AtFour] = runAtOneAndFour([&]() -> std::vector<float> {
    nn::Seq2SeqConfig Config;
    Config.SrcVocabSize = 16;
    Config.TgtVocabSize = 16;
    Config.EmbedDim = 12;
    Config.HiddenDim = 16;
    Config.DropoutRate = 0.0f;
    Config.Seed = 43;
    nn::Seq2SeqModel Model(Config);
    std::vector<std::vector<uint32_t>> Sources, Targets;
    makeBatch(Sources, Targets, 17);
    return {Model.evaluateLoss(Sources, Targets)};
  });
  expectBitIdentical(AtOne, AtFour);
}

// --- Dataset pipeline determinism -------------------------------------------

TEST(Determinism, DatasetPipelineSplitsMatchAcrossThreadCounts) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = 77;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  auto Build = [&] {
    return dataset::buildDataset(Corpus);
  };
  ThreadPool::resetGlobal(1);
  dataset::Dataset AtOne = Build();
  ThreadPool::resetGlobal(4);
  dataset::Dataset AtFour = Build();
  ThreadPool::resetGlobal(0);

  // Dedup decisions, sample order and content, vocabulary, and splits all
  // must be identical.
  EXPECT_EQ(AtOne.Dedup.ObjectsAfter, AtFour.Dedup.ObjectsAfter);
  EXPECT_EQ(AtOne.Dedup.ExactDuplicates, AtFour.Dedup.ExactDuplicates);
  EXPECT_EQ(AtOne.Dedup.NearDuplicates, AtFour.Dedup.NearDuplicates);
  EXPECT_EQ(AtOne.FunctionsSkippedMismatch, AtFour.FunctionsSkippedMismatch);
  EXPECT_EQ(AtOne.Names.names(), AtFour.Names.names());
  ASSERT_EQ(AtOne.Samples.size(), AtFour.Samples.size());
  for (size_t I = 0; I < AtOne.Samples.size(); ++I) {
    const dataset::TypeSample &A = AtOne.Samples[I];
    const dataset::TypeSample &B = AtFour.Samples[I];
    EXPECT_EQ(A.PackageId, B.PackageId);
    EXPECT_EQ(A.IsReturn, B.IsReturn);
    EXPECT_EQ(A.LowLevel, B.LowLevel);
    EXPECT_EQ(A.Input, B.Input);
    EXPECT_EQ(A.RichType.toString(), B.RichType.toString());
    EXPECT_EQ(A.FieldTokens, B.FieldTokens);
  }
  EXPECT_EQ(AtOne.Train, AtFour.Train);
  EXPECT_EQ(AtOne.Valid, AtFour.Valid);
  EXPECT_EQ(AtOne.Test, AtFour.Test);
}

// --- Concurrent source encoding ---------------------------------------------

TEST(Determinism, TaskEncodesSourceFromManyThreads) {
  // The daemon shares one const Task across its workers, so its frozen
  // word table and the merge-loop fallback must be safe to read at once.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 8;
  Spec.Seed = 99;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  const dataset::Dataset Data = dataset::buildDataset(Corpus);
  const model::Task T(Data, model::TaskOptions());

  std::vector<std::vector<std::string>> Inputs;
  for (const dataset::TypeSample &Sample : Data.Samples)
    Inputs.push_back(Sample.Input);
  Inputs.push_back({"never_seen_word", "", "i32.const", "\x7f"});
  auto EncodeAll = [&] {
    std::vector<std::vector<uint32_t>> Out;
    for (const std::vector<std::string> &Input : Inputs)
      Out.push_back(T.encodeSource(Input));
    return Out;
  };
  // The threads run before any sequential call, so a cache filled on
  // first use would be written concurrently here.
  std::vector<std::vector<std::vector<uint32_t>>> PerThread(4);
  std::vector<std::thread> Threads;
  for (auto &Out : PerThread)
    Threads.emplace_back([&] { Out = EncodeAll(); });
  for (std::thread &Thread : Threads)
    Thread.join();
  const std::vector<std::vector<uint32_t>> Sequential = EncodeAll();
  for (const auto &Out : PerThread)
    EXPECT_EQ(Out, Sequential);
}

// --- Full training-loop determinism ------------------------------------------

TEST(Determinism, TrainModelEndToEndMatchesAcrossThreadCounts) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 8;
  Spec.Seed = 99;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  dataset::Dataset Data = dataset::buildDataset(Corpus);
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 64;
  model::Task T(Data, TaskOpts);

  auto Train = [&](unsigned Threads) {
    ThreadPool::resetGlobal(Threads);
    model::TrainOptions Options;
    Options.MaxEpochs = 1;
    Options.BatchSize = 12;
    Options.EmbedDim = 8;
    Options.HiddenDim = 12;
    Options.MaxSrcLen = 48;
    Options.MaxValidSamples = 24;
    model::TrainResult Result = model::trainModel(T, Options);
    std::vector<float> Out = {Result.BestValidLoss};
    for (nn::Parameter *P : Result.Model->parameters())
      Out.insert(Out.end(), P->Value.begin(), P->Value.end());
    ThreadPool::resetGlobal(0);
    return Out;
  };
  expectBitIdentical(Train(1), Train(4));
}

} // namespace
} // namespace snowwhite
