//===- tests/nn_test.cpp - Autograd and seq2seq model tests ----------------===//

#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/seq2seq.h"
#include "support/hash.h"
#include "support/scratch_dir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>

// --- Allocation probe --------------------------------------------------------
//
// This binary replaces the global operator new so a test can ask how large
// the largest single allocation was while the probe was armed on its thread.
// Array and aligned forms route here or to malloc/free, so delete stays
// consistent.

namespace {
thread_local bool AllocProbeArmed = false;
thread_local size_t AllocProbeLargest = 0;
} // namespace

void *operator new(std::size_t Size) {
  if (AllocProbeArmed)
    AllocProbeLargest = std::max(AllocProbeLargest, Size);
  if (void *P = std::malloc(Size == 0 ? 1 : Size))
    return P;
  throw std::bad_alloc();
}

// GCC checks inlined delete calls against the standard operator new and
// warns about free(); here both sides are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop

namespace snowwhite {
namespace nn {
namespace {

// --- Numerical gradient checking ---------------------------------------------
//
// For a scalar loss L(P) built by Builder from a parameter P, compare the
// autograd gradient against central finite differences.

using LossBuilder = std::function<Var(Graph &, Parameter &)>;

void checkGradient(Parameter &P, const LossBuilder &Builder,
                   float Tolerance = 2e-2f) {
  // Analytic gradient.
  P.zeroGrad();
  {
    Graph G(/*Training=*/true);
    Var Loss = Builder(G, P);
    ASSERT_EQ(Loss.rows(), 1u);
    ASSERT_EQ(Loss.cols(), 1u);
    G.backward(Loss);
  }
  std::vector<float> Analytic = P.Grad;

  // Finite differences on a subset of coordinates (all if small).
  const float Epsilon = 1e-2f;
  size_t Stride = P.size() <= 64 ? 1 : P.size() / 48;
  for (size_t I = 0; I < P.size(); I += Stride) {
    float Saved = P.Value[I];
    P.Value[I] = Saved + Epsilon;
    float LossPlus;
    {
      Graph G(false);
      LossPlus = Builder(G, P).at(0, 0);
    }
    P.Value[I] = Saved - Epsilon;
    float LossMinus;
    {
      Graph G(false);
      LossMinus = Builder(G, P).at(0, 0);
    }
    P.Value[I] = Saved;
    float Numeric = (LossPlus - LossMinus) / (2 * Epsilon);
    float Diff = std::fabs(Numeric - Analytic[I]);
    float Scale = std::max({1.0f, std::fabs(Numeric), std::fabs(Analytic[I])});
    EXPECT_LT(Diff / Scale, Tolerance)
        << "coordinate " << I << ": numeric " << Numeric << " vs analytic "
        << Analytic[I];
  }
}

/// Sums all entries of X into a scalar via matmuls with ones.
static Var sumAll(Graph &G, Var X) {
  std::vector<float> OnesRow(X.rows(), 1.0f);
  std::vector<float> OnesCol(X.cols(), 1.0f);
  Var Left = G.input(1, X.rows(), OnesRow.data());
  Var Right = G.input(X.cols(), 1, OnesCol.data());
  return G.matmul(G.matmul(Left, X), Right);
}

static void fillParam(Parameter &P, uint64_t Seed) {
  Rng R(Seed);
  for (float &V : P.Value)
    V = R.nextUniformFloat(0.8f);
}

TEST(GradCheck, Matmul) {
  Parameter P(4, 5);
  fillParam(P, 1);
  Parameter Other(5, 3);
  fillParam(Other, 2);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    return sumAll(G, G.tanhOp(G.matmul(G.param(Param), G.param(Other))));
  });
  checkGradient(Other, [&](Graph &G, Parameter &Param) {
    return sumAll(G, G.tanhOp(G.matmul(G.param(P), G.param(Param))));
  });
}

TEST(GradCheck, MatmulTransposeB) {
  Parameter P(3, 6);
  fillParam(P, 3);
  Parameter Other(4, 6);
  fillParam(Other, 4);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    return sumAll(G,
                  G.sigmoid(G.matmulTransposeB(G.param(Param), G.param(Other))));
  });
  checkGradient(Other, [&](Graph &G, Parameter &Param) {
    return sumAll(G,
                  G.sigmoid(G.matmulTransposeB(G.param(P), G.param(Param))));
  });
}

TEST(GradCheck, AddAndMulAndScale) {
  Parameter P(3, 4);
  fillParam(P, 5);
  Parameter Other(3, 4);
  fillParam(Other, 6);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    Var A = G.param(Param);
    Var Combined = G.scale(G.mul(G.add(A, G.param(Other)), A), 0.5f);
    return sumAll(G, G.tanhOp(Combined));
  });
}

TEST(GradCheck, AddRowBroadcast) {
  Parameter Bias(1, 5);
  fillParam(Bias, 7);
  Parameter Matrix(4, 5);
  fillParam(Matrix, 8);
  checkGradient(Bias, [&](Graph &G, Parameter &Param) {
    return sumAll(G,
                  G.tanhOp(G.addRowBroadcast(G.param(Matrix), G.param(Param))));
  });
}

TEST(GradCheck, SigmoidTanh) {
  Parameter P(2, 6);
  fillParam(P, 9);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    return sumAll(G, G.sigmoid(G.tanhOp(G.param(Param))));
  });
}

TEST(GradCheck, SliceAndConcat) {
  Parameter P(3, 8);
  fillParam(P, 10);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    Var A = G.param(Param);
    Var Left = G.sliceCols(A, 0, 3);
    Var Right = G.sliceCols(A, 5, 3);
    return sumAll(G, G.tanhOp(G.mul(G.concatCols(Left, Right),
                                    G.concatCols(Right, Left))));
  });
}

TEST(GradCheck, SliceRowAndStackRows) {
  Parameter P(4, 5);
  fillParam(P, 11);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    Var A = G.param(Param);
    std::vector<Var> Rows = {G.sliceRow(A, 2), G.sliceRow(A, 0),
                             G.sliceRow(A, 2)};
    return sumAll(G, G.tanhOp(G.stackRows(Rows)));
  });
}

TEST(GradCheck, SoftmaxRows) {
  Parameter P(3, 7);
  fillParam(P, 12);
  Parameter Weights(3, 7);
  fillParam(Weights, 13);
  checkGradient(P, [&](Graph &G, Parameter &Param) {
    return sumAll(G, G.mul(G.softmaxRows(G.param(Param)), G.param(Weights)));
  });
}

TEST(GradCheck, CrossEntropy) {
  Parameter Logits(5, 9);
  fillParam(Logits, 14);
  std::vector<uint32_t> Targets = {2, 0, 7, 1, 0};
  checkGradient(Logits, [&](Graph &G, Parameter &Param) {
    return G.crossEntropy(G.param(Param), Targets, /*IgnoreIndex=*/0);
  });
}

TEST(GradCheck, CrossEntropyWithIgnoredPositions) {
  // Ignored rows must be excluded from the mean denominator in the forward
  // pass AND receive exactly zero gradient in the backward pass; the finite
  // differences verify the two stay consistent.
  Parameter Logits(6, 5);
  fillParam(Logits, 21);
  std::vector<uint32_t> Targets = {1, 4, 4, 2, 4, 3}; // 4 = ignored.
  checkGradient(Logits, [&](Graph &G, Parameter &Param) {
    return G.crossEntropy(G.param(Param), Targets, /*IgnoreIndex=*/4);
  });

  Logits.zeroGrad();
  Graph G(/*Training=*/true);
  G.backward(G.crossEntropy(G.param(Logits), Targets, /*IgnoreIndex=*/4));
  for (size_t Row : {1u, 2u, 4u})
    for (size_t Col = 0; Col < 5; ++Col)
      EXPECT_EQ(Logits.Grad[Row * 5 + Col], 0.0f)
          << "ignored row " << Row << " leaked gradient at col " << Col;
}

TEST(Graph, CrossEntropyClampedProbabilityStaysFinite) {
  // The target's probability underflows the forward clamp log(max(p, 1e-9)).
  // The loss is then locally constant in the logits, so the backward pass
  // must produce zero gradient for that row — not the +-1/p explosion the
  // unclamped formula would give.
  Parameter Logits(2, 3);
  Logits.Value = {-40.0f, 40.0f, 0.0f, // Row 0: p(target 0) ~ e^-80.
                  1.0f, 0.5f, -0.5f};  // Row 1: well-conditioned.
  Graph G(/*Training=*/true);
  Var Loss = G.crossEntropy(G.param(Logits), {0, 1}, /*IgnoreIndex=*/999);
  ASSERT_TRUE(std::isfinite(Loss.at(0, 0)));
  // Clamped row contributes -log(1e-9), about 20.7, to the mean of two.
  EXPECT_GT(Loss.at(0, 0), 9.0f);
  G.backward(Loss);
  for (size_t I = 0; I < Logits.size(); ++I)
    ASSERT_TRUE(std::isfinite(Logits.Grad[I])) << "coordinate " << I;
  for (size_t Col = 0; Col < 3; ++Col)
    EXPECT_EQ(Logits.Grad[Col], 0.0f) << "clamped row leaked at col " << Col;
  // The healthy row still trains.
  EXPECT_NE(Logits.Grad[3], 0.0f);
}

TEST(GradCheck, Embedding) {
  Parameter E(6, 4);
  fillParam(E, 15);
  std::vector<uint32_t> Ids = {1, 3, 3, 5};
  checkGradient(E, [&](Graph &G, Parameter &Param) {
    return sumAll(G, G.tanhOp(G.embedding(Param, Ids)));
  });
}

TEST(GradCheck, LstmCellStep) {
  Rng R(77);
  LstmCell Cell(5, 4, R);
  Parameter Input(2, 5);
  fillParam(Input, 16);
  std::vector<Parameter *> CellParams;
  Cell.collectParameters(CellParams);
  for (Parameter *P : CellParams) {
    checkGradient(*P, [&](Graph &G, Parameter &Unused) {
      (void)Unused;
      Var H = G.zeros(2, 4), C = G.zeros(2, 4);
      Var X = G.param(Input);
      auto [H1, C1] = Cell.step(G, X, H, C);
      auto [H2, C2] = Cell.step(G, X, H1, C1);
      return sumAll(G, G.add(H2, C2));
    });
  }
}

// --- Graph basics -----------------------------------------------------------

TEST(Graph, InferenceModeAllocatesNoGradients) {
  Graph G(false);
  Parameter P(2, 2);
  Var V = G.param(P);
  EXPECT_EQ(V.Data->Grad, nullptr);
  Var Sum = G.add(V, V);
  EXPECT_EQ(Sum.Data->Grad, nullptr);
}

TEST(Graph, DropoutIsIdentityAtInference) {
  Graph G(false);
  Rng R(1);
  std::vector<float> Data = {1, 2, 3, 4};
  Var X = G.input(2, 2, Data.data());
  Var Dropped = G.dropout(X, 0.5f, R);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Dropped.value()[I], Data[I]);
}

TEST(Graph, DropoutScalesKeptUnits) {
  Graph G(true);
  Rng R(2);
  std::vector<float> Data(1000, 1.0f);
  Var X = G.input(1, 1000, Data.data());
  Var Dropped = G.dropout(X, 0.3f, R);
  int Zeros = 0;
  double Sum = 0;
  for (int I = 0; I < 1000; ++I) {
    if (Dropped.value()[I] == 0.0f)
      ++Zeros;
    Sum += Dropped.value()[I];
  }
  EXPECT_NEAR(Zeros, 300, 60);
  EXPECT_NEAR(Sum / 1000.0, 1.0, 0.1); // Inverted dropout keeps expectation.
}

TEST(Graph, SoftmaxRowsSumToOne) {
  Graph G(false);
  std::vector<float> Data = {1, 2, 3, -5, 0, 5};
  Var X = G.input(2, 3, Data.data());
  Var Probs = G.softmaxRows(X);
  for (int Row = 0; Row < 2; ++Row) {
    float Sum = 0;
    for (int Col = 0; Col < 3; ++Col)
      Sum += Probs.at(Row, Col);
    EXPECT_NEAR(Sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(Probs.at(0, 2), Probs.at(0, 0));
}

// --- Numerical stability at extreme magnitudes --------------------------------
//
// Audit targets for the self-healing work: every exp/log call site must
// stay finite when logits reach magnitudes far beyond anything a healthy
// model produces, so one overflowing batch degrades into a detectable NaN
// gradient at worst — never into silent inf propagation.

TEST(Graph, SoftmaxRowsFiniteAtExtremeLogits) {
  Graph G(false);
  std::vector<float> Data = {1e4f,  -1e4f, 0.0f,   // One dominating logit.
                             3e4f,  3e4f,  -3e4f,  // Tied at the top.
                             -3e4f, -3e4f, -3e4f}; // All tiny, tied.
  Var Probs = G.softmaxRows(G.input(3, 3, Data.data()));
  for (int Row = 0; Row < 3; ++Row) {
    float Sum = 0;
    for (int Col = 0; Col < 3; ++Col) {
      ASSERT_TRUE(std::isfinite(Probs.at(Row, Col)))
          << "row " << Row << " col " << Col;
      Sum += Probs.at(Row, Col);
    }
    EXPECT_NEAR(Sum, 1.0f, 1e-5f) << "row " << Row;
  }
  EXPECT_NEAR(Probs.at(0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(Probs.at(1, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(Probs.at(2, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(GradCheck, CrossEntropyAtExtremeLogits) {
  // Max-subtracted log-sum-exp keeps both the loss and its gradient finite;
  // the finite differences confirm analytic and numeric agree even where
  // most coordinates are fully saturated (both ~0).
  Parameter Logits(3, 4);
  Logits.Value = {1e3f, -1e3f, 0.0f,  0.5f,  // Saturated towards col 0.
                  2e3f, 2e3f,  -2e3f, 0.0f,  // Top-2 tie.
                  0.3f, -0.2f, 0.1f,  0.4f}; // Well-conditioned.
  std::vector<uint32_t> Targets = {0, 1, 3};
  {
    Graph G(/*Training=*/true);
    Var Loss = G.crossEntropy(G.param(Logits), Targets, /*IgnoreIndex=*/99);
    ASSERT_TRUE(std::isfinite(Loss.at(0, 0)));
    G.backward(Loss);
    for (size_t I = 0; I < Logits.size(); ++I)
      ASSERT_TRUE(std::isfinite(Logits.Grad[I])) << "coordinate " << I;
  }
  checkGradient(Logits, [&](Graph &G, Parameter &Param) {
    return G.crossEntropy(G.param(Param), Targets, /*IgnoreIndex=*/99);
  });
}

TEST(Graph, SigmoidStableAtLargeMagnitude) {
  // The two-branch form never evaluates exp on a positive argument, so
  // sigmoid(-100) underflows to 0 instead of inf/(1+inf) = NaN.
  Graph G(false);
  std::vector<float> Data = {-100.0f, -4.0f, 0.0f, 4.0f, 100.0f};
  Var S = G.sigmoid(G.input(1, 5, Data.data()));
  for (int Col = 0; Col < 5; ++Col) {
    ASSERT_TRUE(std::isfinite(S.at(0, Col))) << "col " << Col;
    EXPECT_GE(S.at(0, Col), 0.0f);
    EXPECT_LE(S.at(0, Col), 1.0f);
  }
  EXPECT_NEAR(S.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(S.at(0, 4), 1.0f, 1e-6f);
  EXPECT_NEAR(S.at(0, 2), 0.5f, 1e-6f);
  // Both branches agree with the reference formula where it is stable.
  EXPECT_NEAR(S.at(0, 1), 1.0f / (1.0f + std::exp(4.0f)), 1e-6f);
  EXPECT_NEAR(S.at(0, 3), 1.0f / (1.0f + std::exp(-4.0f)), 1e-6f);
}

TEST(Graph, AllFiniteFlagsEveryNonFiniteKind) {
  std::vector<float> Healthy = {0.0f, -1.5f, 3e38f, -3e38f};
  EXPECT_TRUE(allFinite(Healthy.data(), Healthy.size()));
  for (float Bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    std::vector<float> Poisoned = Healthy;
    Poisoned[2] = Bad;
    EXPECT_FALSE(allFinite(Poisoned.data(), Poisoned.size()));
  }
  EXPECT_TRUE(allFinite(nullptr, 0));
}

// --- Optimizer ---------------------------------------------------------------

TEST(Adam, MinimizesQuadratic) {
  // Minimize ||P - T||^2 for a fixed target T via autograd + Adam.
  Parameter P(1, 4);
  P.Value = {5.0f, -3.0f, 2.0f, 0.5f};
  std::vector<float> Target = {1.0f, 1.0f, 1.0f, 1.0f};
  AdamOptimizer Optimizer({&P}, 0.05f);
  float FirstLoss = 0, LastLoss = 0;
  for (int Step = 0; Step < 300; ++Step) {
    Graph G(true);
    Var Diff = G.add(G.param(P), G.scale(G.input(1, 4, Target.data()), -1.0f));
    Var Loss = G.matmulTransposeB(Diff, Diff);
    if (Step == 0)
      FirstLoss = Loss.at(0, 0);
    LastLoss = Loss.at(0, 0);
    G.backward(Loss);
    Optimizer.step();
  }
  EXPECT_LT(LastLoss, FirstLoss * 0.01f);
  for (int I = 0; I < 4; ++I)
    EXPECT_NEAR(P.Value[I], 1.0f, 0.1f);
}

TEST(Adam, GradientClippingBoundsUpdates) {
  Parameter P(1, 2);
  P.Value = {0.0f, 0.0f};
  P.Grad = {1e6f, -1e6f};
  AdamOptimizer Optimizer({&P}, 0.1f);
  Optimizer.step(/*MaxNorm=*/1.0f);
  // After clipping, the Adam step magnitude stays near the learning rate.
  EXPECT_LT(std::fabs(P.Value[0]), 0.2f);
  // Gradients are consumed.
  EXPECT_EQ(P.Grad[0], 0.0f);
}

TEST(Adam, BiasCorrectionSurvivesManySteps) {
  // In float, beta2^t rounds to 1 - epsilon long before beta1^t does, and
  // both eventually collapse to 0; with the corrections computed in double
  // the optimizer state stays finite and keeps contracting a quadratic well
  // past 10k steps.
  Parameter P(1, 1);
  P.Value[0] = 5.0f;
  AdamOptimizer Optimizer({&P}, 1e-3f);
  float MaxFirstWindow = 0.0f, MaxLastWindow = 0.0f;
  const int Steps = 12000;
  for (int Step = 0; Step < Steps; ++Step) {
    P.Grad[0] = 2.0f * P.Value[0]; // d/dx of x^2.
    Optimizer.step();
    ASSERT_TRUE(std::isfinite(P.Value[0])) << "step " << Step;
    ASSERT_TRUE(std::isfinite(P.AdamM[0])) << "step " << Step;
    ASSERT_TRUE(std::isfinite(P.AdamV[0])) << "step " << Step;
    float Abs = std::fabs(P.Value[0]);
    if (Step < 1000)
      MaxFirstWindow = std::max(MaxFirstWindow, Abs);
    if (Step >= Steps - 1000)
      MaxLastWindow = std::max(MaxLastWindow, Abs);
  }
  // Monotone at window granularity: late iterates stay far inside the early
  // envelope instead of diverging when the correction degrades.
  EXPECT_LT(MaxLastWindow, MaxFirstWindow * 0.01f);
  EXPECT_LT(std::fabs(P.Value[0]), 0.05f);
}

// --- Seq2Seq -----------------------------------------------------------------

static Seq2SeqConfig tinyConfig(size_t SrcVocab = 20, size_t TgtVocab = 12) {
  Seq2SeqConfig Config;
  Config.SrcVocabSize = SrcVocab;
  Config.TgtVocabSize = TgtVocab;
  Config.EmbedDim = 12;
  Config.HiddenDim = 16;
  Config.DropoutRate = 0.0f;
  Config.MaxSrcLen = 24;
  Config.MaxTgtLen = 8;
  Config.Seed = 7;
  return Config;
}

TEST(Seq2Seq, OverfitsATinyCopyTask) {
  // Target = a deterministic function of the first source token.
  Seq2SeqModel Model(tinyConfig());
  AdamOptimizer Optimizer(Model.parameters(), 5e-3f);
  std::vector<std::vector<uint32_t>> Sources, Targets;
  Rng R(3);
  for (int I = 0; I < 60; ++I) {
    uint32_t Key = 4 + static_cast<uint32_t>(R.nextBelow(6));
    std::vector<uint32_t> Source = {Key, 5, 6};
    std::vector<uint32_t> Target = {Key, static_cast<uint32_t>(4 + (Key % 3))};
    Sources.push_back(Source);
    Targets.push_back(Target);
  }
  float FirstLoss = 0, LastLoss = 0;
  for (int Epoch = 0; Epoch < 60; ++Epoch) {
    LastLoss = Model.trainBatch(Sources, Targets, Optimizer);
    if (Epoch == 0)
      FirstLoss = LastLoss;
  }
  EXPECT_LT(LastLoss, FirstLoss * 0.3f);

  // Greedy/beam prediction reproduces the mapping.
  int Correct = 0;
  for (uint32_t Key = 4; Key < 10; ++Key) {
    std::vector<Hypothesis> Top =
        Model.predictTopK({Key, 5, 6}, /*BeamWidth=*/1);
    ASSERT_FALSE(Top.empty());
    std::vector<uint32_t> Expected = {Key, 4 + (Key % 3)};
    if (Top[0].Tokens == Expected)
      ++Correct;
  }
  EXPECT_GE(Correct, 4);
}

TEST(Seq2Seq, EvaluateLossMatchesTrainLossWithoutUpdating) {
  Seq2SeqModel Model(tinyConfig());
  std::vector<std::vector<uint32_t>> Sources = {{4, 5}, {6, 7}};
  std::vector<std::vector<uint32_t>> Targets = {{4}, {5, 6}};
  float LossA = Model.evaluateLoss(Sources, Targets);
  float LossB = Model.evaluateLoss(Sources, Targets);
  EXPECT_FLOAT_EQ(LossA, LossB) << "evaluation must not change weights";
}

TEST(Seq2Seq, BeamSearchReturnsSortedUniqueWidths) {
  Seq2SeqModel Model(tinyConfig());
  std::vector<Hypothesis> Top = Model.predictTopK({4, 5, 6}, 5);
  ASSERT_LE(Top.size(), 5u);
  ASSERT_GE(Top.size(), 1u);
  for (size_t I = 1; I < Top.size(); ++I)
    EXPECT_GE(Top[I - 1].LogProb, Top[I].LogProb);
  for (const Hypothesis &Hyp : Top)
    EXPECT_LE(Hyp.Tokens.size(), tinyConfig().MaxTgtLen);
}

TEST(Seq2Seq, BeamWidthOneIsGreedy) {
  Seq2SeqModel Model(tinyConfig());
  std::vector<Hypothesis> A = Model.predictTopK({4, 5}, 1);
  std::vector<Hypothesis> B = Model.predictTopK({4, 5}, 1);
  ASSERT_EQ(A.size(), 1u);
  EXPECT_EQ(A[0].Tokens, B[0].Tokens) << "inference is deterministic";
}

TEST(Seq2Seq, HandlesLongAndEmptyInputs) {
  Seq2SeqModel Model(tinyConfig());
  std::vector<uint32_t> Long(500, 5); // Truncated to MaxSrcLen internally.
  EXPECT_NO_FATAL_FAILURE(Model.predictTopK(Long, 2));
  EXPECT_NO_FATAL_FAILURE(Model.predictTopK({}, 2));
}

TEST(Seq2Seq, BatchWithVaryingLengths) {
  Seq2SeqModel Model(tinyConfig());
  AdamOptimizer Optimizer(Model.parameters());
  std::vector<std::vector<uint32_t>> Sources = {
      {4}, {4, 5, 6, 7, 8, 9, 10, 11}, {5, 6}};
  std::vector<std::vector<uint32_t>> Targets = {{4, 5, 6}, {7}, {8, 9}};
  float Loss = Model.trainBatch(Sources, Targets, Optimizer);
  EXPECT_TRUE(std::isfinite(Loss));
}

TEST(Seq2Seq, SaveLoadRoundtrip) {
  Seq2SeqModel Model(tinyConfig());
  // Nudge weights so they are not the seed defaults.
  AdamOptimizer Optimizer(Model.parameters());
  std::vector<std::vector<uint32_t>> Sources = {{4, 5, 6}};
  std::vector<std::vector<uint32_t>> Targets = {{7, 8}};
  Model.trainBatch(Sources, Targets, Optimizer);

  std::string Path = scratchPath("snowwhite_model.bin");
  Result<void> Saved = Model.save(Path);
  ASSERT_TRUE(Saved.isOk()) << Saved.error().message();
  Result<Seq2SeqModel> Loaded = Seq2SeqModel::load(Path);
  ASSERT_TRUE(Loaded.isOk()) << Loaded.error().message();

  std::vector<Hypothesis> Original = Model.predictTopK({4, 5, 6}, 3);
  std::vector<Hypothesis> Restored = Loaded->predictTopK({4, 5, 6}, 3);
  ASSERT_EQ(Original.size(), Restored.size());
  for (size_t I = 0; I < Original.size(); ++I) {
    EXPECT_EQ(Original[I].Tokens, Restored[I].Tokens);
    EXPECT_NEAR(Original[I].LogProb, Restored[I].LogProb, 1e-5f);
  }
  std::remove(Path.c_str());
}

TEST(Seq2Seq, LoadRejectsCorruptFiles) {
  std::string Path = scratchPath("not_a_model.bin");
  FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  std::fputs("garbage", File);
  std::fclose(File);
  EXPECT_TRUE(Seq2SeqModel::load(Path).isErr());
  EXPECT_TRUE(Seq2SeqModel::load("/nonexistent/path.bin").isErr());
  std::remove(Path.c_str());
}

TEST(Seq2Seq, ParameterCountIsPlausible) {
  Seq2SeqModel Model(tinyConfig());
  size_t Count = Model.numParameters();
  // Embeddings + 3 LSTMs + attention + projections.
  EXPECT_GT(Count, 1000u);
  EXPECT_LT(Count, 200000u);
}

// --- Hostile-shape differential audit ----------------------------------------
//
// Every kernel-backed forward/backward pair is finite-difference audited at
// shapes chosen to stress the tuned kernels' blocking: 1 (beam steps), odd,
// and non-multiples of the 4-row / 8- and 16-wide column tiles. Zero
// dimensions get a dedicated smoke below (the gradient of nothing is
// nothing, but the forward pass must still be well defined).

TEST(GradCheckHostile, MatmulShapeGrid) {
  const size_t Sizes[] = {1, 3, 17};
  uint64_t Seed = 400;
  for (size_t M : Sizes)
    for (size_t K : Sizes)
      for (size_t N : Sizes) {
        Parameter A(M, K), B(K, N);
        fillParam(A, Seed++);
        fillParam(B, Seed++);
        checkGradient(A, [&](Graph &G, Parameter &Param) {
          return sumAll(G, G.tanhOp(G.matmul(G.param(Param), G.param(B))));
        });
        checkGradient(B, [&](Graph &G, Parameter &Param) {
          return sumAll(G, G.tanhOp(G.matmul(G.param(A), G.param(Param))));
        });
      }
}

TEST(GradCheckHostile, MatmulTransposeBShapeGrid) {
  const size_t Sizes[] = {1, 3, 17};
  uint64_t Seed = 450;
  for (size_t M : Sizes)
    for (size_t K : Sizes)
      for (size_t N : Sizes) {
        Parameter A(M, K), B(N, K);
        fillParam(A, Seed++);
        fillParam(B, Seed++);
        checkGradient(A, [&](Graph &G, Parameter &Param) {
          return sumAll(
              G, G.tanhOp(G.matmulTransposeB(G.param(Param), G.param(B))));
        });
        checkGradient(B, [&](Graph &G, Parameter &Param) {
          return sumAll(
              G, G.tanhOp(G.matmulTransposeB(G.param(A), G.param(Param))));
        });
      }
}

TEST(GradCheckHostile, RowOpsAtWidthOneAndOdd) {
  for (size_t N : {size_t(1), size_t(7)}) {
    Parameter P(3, N), Weights(3, N), Gain(1, N), Bias(1, N);
    fillParam(P, 500 + N);
    fillParam(Weights, 510 + N);
    fillParam(Gain, 520 + N);
    fillParam(Bias, 530 + N);
    checkGradient(P, [&](Graph &G, Parameter &Param) {
      return sumAll(G,
                    G.mul(G.softmaxRows(G.param(Param)), G.param(Weights)));
    });
    checkGradient(P, [&](Graph &G, Parameter &Param) {
      return sumAll(G, G.tanhOp(G.layerNorm(G.param(Param), G.param(Gain),
                                            G.param(Bias))));
    });
    checkGradient(Bias, [&](Graph &G, Parameter &Param) {
      return sumAll(
          G, G.tanhOp(G.addRowBroadcast(G.param(P), G.param(Param))));
    });
  }
}

TEST(GraphHostile, ZeroDimensionMatmulsAreWellDefined) {
  // K = 0 contracts over nothing: the product is defined (all zeros) and
  // the backward pass has nothing to scatter. M = 0 / N = 0 produce empty
  // outputs. None of these may touch memory out of bounds.
  Graph G(/*Training=*/true);
  float Dummy = 0.0f;
  Parameter A(3, 0), B(0, 4);
  Var Product = G.matmul(G.param(A), G.param(B));
  ASSERT_EQ(Product.rows(), 3u);
  ASSERT_EQ(Product.cols(), 4u);
  for (size_t I = 0; I < 3; ++I)
    for (size_t J = 0; J < 4; ++J)
      EXPECT_EQ(Product.at(I, J), 0.0f);

  Var Empty = G.input(0, 5, &Dummy);
  Parameter W(5, 2);
  fillParam(W, 540);
  Var NoRows = G.matmul(Empty, G.param(W));
  EXPECT_EQ(NoRows.rows(), 0u);
  EXPECT_EQ(NoRows.cols(), 2u);

  Parameter BT(4, 0);
  Var ProductTB = G.matmulTransposeB(G.param(A), G.param(BT));
  EXPECT_EQ(ProductTB.rows(), 3u);
  EXPECT_EQ(ProductTB.cols(), 4u);
  Var Loss = sumAll(G, G.add(Product, ProductTB));
  G.backward(Loss); // Must not crash; there is no gradient to produce.
  EXPECT_EQ(Loss.at(0, 0), 0.0f);
}

// Named regressions for bugs found by the hostile-shape audit: all three
// reached past the end of (or divided by the size of) a zero-width row.

TEST(GraphHostile, SoftmaxRowsZeroColumnsRegression) {
  // softmaxRows unconditionally read Row[0] for the max; a [m, 0] input
  // read out of bounds. The softmax of an empty row is the empty row.
  Graph G(/*Training=*/true);
  Parameter P(3, 0);
  Var S = G.softmaxRows(G.param(P));
  EXPECT_EQ(S.rows(), 3u);
  EXPECT_EQ(S.cols(), 0u);
}

TEST(GraphHostile, CrossEntropyZeroVocabRegression) {
  // crossEntropy's softmax loop had the same Row[0] read for a zero-width
  // vocabulary. The loss of nothing is zero with no gradient.
  Graph G(/*Training=*/true);
  Parameter Logits(2, 0);
  std::vector<uint32_t> Targets = {0, 0};
  Var Loss = G.crossEntropy(G.param(Logits), Targets, /*IgnoreIndex=*/99);
  ASSERT_EQ(Loss.rows(), 1u);
  ASSERT_EQ(Loss.cols(), 1u);
  EXPECT_EQ(Loss.at(0, 0), 0.0f);
  G.backward(Loss); // Must not crash.
}

TEST(GraphHostile, LayerNormZeroColumnsRegression) {
  // layerNorm's mean divided by N; a zero-width row poisoned the cached
  // stats with NaN before any output was written.
  Graph G(/*Training=*/true);
  Parameter A(2, 0), Gain(1, 0), Bias(1, 0);
  Var Y = G.layerNorm(G.param(A), G.param(Gain), G.param(Bias));
  EXPECT_EQ(Y.rows(), 2u);
  EXPECT_EQ(Y.cols(), 0u);
}

// --- On-disk format goldens --------------------------------------------------
//
// The model file's bytes, and every verdict its loader gives on a damaged
// image, are pinned by hash: the byte codec underneath may change, the format
// and the error taxonomy may not.

static Seq2SeqConfig formatGoldenConfig() {
  Seq2SeqConfig Config;
  Config.SrcVocabSize = 6;
  Config.TgtVocabSize = 5;
  Config.EmbedDim = 2;
  Config.HiddenDim = 2;
  Config.DropoutRate = 0.25f;
  Config.MaxSrcLen = 4;
  Config.MaxTgtLen = 3;
  Config.Seed = 11;
  return Config;
}

TEST(ModelFormat, SerializeGolden) {
  std::vector<uint8_t> Bytes = Seq2SeqModel(formatGoldenConfig()).serialize();
  EXPECT_EQ(Bytes.size(), 1124u);
  EXPECT_EQ(hashToHex(hashVector(Bytes)), "0bdd788bc9ecfe7c");
}

TEST(ModelFormat, LoaderVerdictsGolden) {
  std::vector<uint8_t> Image = Seq2SeqModel(formatGoldenConfig()).serialize();
  std::string Verdicts;
  auto Judge = [&](const std::vector<uint8_t> &Bytes) {
    Result<Seq2SeqModel> Loaded = Seq2SeqModel::deserialize(Bytes);
    if (Loaded.isOk())
      Verdicts += "ok " + hashToHex(hashVector(Loaded->serialize()));
    else
      Verdicts += std::string(errorCodeName(Loaded.error().code())) + " " +
                  Loaded.error().message();
    Verdicts += '\n';
  };
  for (size_t Len = 0; Len <= Image.size(); ++Len)
    Judge(std::vector<uint8_t>(Image.begin(),
                               Image.begin() + static_cast<ptrdiff_t>(Len)));
  for (size_t At = 0; At < Image.size(); ++At) {
    // Bytes 1 and 2 of the four shape fields (source/target vocabulary,
    // embedding and hidden width, bytes 8..39) are left out: this golden was
    // captured when the loader built a model up to 2^24 wide from them
    // before it checked a single parameter. InflatedHeaderAllocatesNothing
    // covers those flips.
    if (At >= 8 && At < 40 && (At % 8 == 1 || At % 8 == 2))
      continue;
    std::vector<uint8_t> Flipped = Image;
    Flipped[At] ^= 0xff;
    Judge(Flipped);
  }
  EXPECT_EQ(hashToHex(hashString(Verdicts)), "b5a316b2a242ed9b");
}

// The flips LoaderVerdictsGolden leaves out inflate one model dimension by
// up to 2^24. The loader must refuse each with a typed error after checking
// the parameter shapes against the header, before it allocates anything
// the size of a model: no single allocation may exceed the image itself.
TEST(ModelFormat, InflatedHeaderAllocatesNothing) {
  std::vector<uint8_t> Image = Seq2SeqModel(formatGoldenConfig()).serialize();
  for (size_t At : {9, 10, 17, 18, 25, 26, 33, 34}) {
    std::vector<uint8_t> Flipped = Image;
    Flipped[At] ^= 0xff;
    AllocProbeLargest = 0;
    AllocProbeArmed = true;
    Result<Seq2SeqModel> Loaded = Seq2SeqModel::deserialize(Flipped);
    AllocProbeArmed = false;
    ASSERT_TRUE(Loaded.isErr()) << "byte " << At;
    EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed) << "byte " << At;
    EXPECT_EQ(Loaded.error().message(), "parameter shape mismatch")
        << "byte " << At;
    EXPECT_LT(AllocProbeLargest, Image.size()) << "byte " << At;
  }
  // The probe itself works: a successful load allocates the weights.
  AllocProbeLargest = 0;
  AllocProbeArmed = true;
  Result<Seq2SeqModel> Good = Seq2SeqModel::deserialize(Image);
  AllocProbeArmed = false;
  ASSERT_TRUE(Good.isOk());
  EXPECT_GT(AllocProbeLargest, 0u);
}

// An image whose header and first parameter agree on a source vocabulary
// of 4 (no room for the special tokens) is refused as Malformed; it used to
// reach the constructor's assert.
TEST(ModelFormat, TinyVocabularyIsMalformedNotAnAssert) {
  std::vector<uint8_t> Image = Seq2SeqModel(formatGoldenConfig()).serialize();
  // Header: magic, then SrcVocabSize at byte 8. Then the parameter count
  // (byte 72) and SrcEmbed's rows (80), cols (88) and 6 x 2 floats (96..).
  ASSERT_EQ(Image[8], 6u);
  ASSERT_EQ(Image[80], 6u);
  std::vector<uint8_t> Shrunk = Image;
  Shrunk[8] = 4;
  Shrunk[80] = 4;
  Shrunk.erase(Shrunk.begin() + 96 + 4 * 2 * 4,
               Shrunk.begin() + 96 + 6 * 2 * 4);
  Result<Seq2SeqModel> Loaded = Seq2SeqModel::deserialize(Shrunk);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed);
  EXPECT_EQ(Loaded.error().message(),
            "model vocabulary smaller than its special tokens");
}

// parameterShapes() is the loader's picture of the architecture; it must
// match what the constructor builds, parameter for parameter.
TEST(ModelFormat, ParameterShapesMatchTheModel) {
  for (auto [Src, Tgt, Embed, Hidden] :
       std::vector<std::array<size_t, 4>>{
           {6, 5, 2, 2}, {9, 7, 3, 5}, {40, 11, 8, 1}, {5, 30, 1, 7}}) {
    Seq2SeqConfig Config = formatGoldenConfig();
    Config.SrcVocabSize = Src;
    Config.TgtVocabSize = Tgt;
    Config.EmbedDim = Embed;
    Config.HiddenDim = Hidden;
    Seq2SeqModel Model(Config);
    std::vector<std::pair<size_t, size_t>> Built;
    for (const Parameter *P : Model.parameters())
      Built.emplace_back(P->Rows, P->Cols);
    EXPECT_EQ(Seq2SeqModel::parameterShapes(Config), Built)
        << Src << "x" << Tgt << "x" << Embed << "x" << Hidden;
  }
}

} // namespace
} // namespace nn
} // namespace snowwhite
