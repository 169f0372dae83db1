#include "nn/graph.h"

#include "nn/kernels.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace snowwhite {
namespace nn {

namespace {

using kernels::ParallelMinWork;
using kernels::parallelOverRows;

/// A borrowed arena that grew past this is freed when its graph ends. A
/// serving request (beam width 5 over ~83 steps) takes ~1.3 MB and stays
/// warm; a validation batch takes ~10 MB, and keeping it would add its whole
/// size to the training run's peak RSS.
constexpr size_t MaxRetainedBytes = 4 << 20;

/// The arena inference graphs on this thread borrow, one at a time.
struct ThreadArena {
  Arena Nodes;
  bool InUse = false;
};

ThreadArena &threadArena() {
  thread_local ThreadArena Shared;
  return Shared;
}

} // namespace

Graph::Graph(bool Training, GradientSink *Sink)
    : Training(Training), Sink(Sink) {
  if (Training)
    return;
  ThreadArena &Shared = threadArena();
  if (Shared.InUse)
    return; // Nested inference graph: keeps OwnArena.
  Shared.InUse = true;
  Shared.Nodes.reset();
  NodeArena = &Shared.Nodes;
  BorrowedInUse = &Shared.InUse;
}

Graph::~Graph() {
  // Closures on the tape may reference arena storage; drop them while the
  // borrowed arena is still ours.
  Tape.clear();
  if (!BorrowedInUse)
    return;
  if (NodeArena->bytesReserved() > MaxRetainedBytes)
    NodeArena->releaseMemory();
  *BorrowedInUse = false;
}

bool allFinite(const float *Data, size_t Size) {
  // Accumulating |x| keeps the loop branch-free and auto-vectorizable; the
  // sum is +inf or NaN iff some element was non-finite.
  float Probe = 0.0f;
  for (size_t I = 0; I < Size; ++I)
    Probe += std::fabs(Data[I]) * 0.0f;
  return Probe == 0.0f;
}

VarData *Graph::newNode(size_t Rows, size_t Cols, bool NeedGrad) {
  VarData *Node = NodeArena->create<VarData>();
  Node->Rows = Rows;
  Node->Cols = Cols;
  size_t Size = Rows * Cols;
  Node->Value = NodeArena->allocateArray<float>(Size);
  std::memset(Node->Value, 0, Size * sizeof(float));
  if (NeedGrad && Training) {
    Node->Grad = NodeArena->allocateArray<float>(Size);
    std::memset(Node->Grad, 0, Size * sizeof(float));
  }
  ++NodeCount;
  return Node;
}

Var Graph::input(size_t Rows, size_t Cols, const float *Data) {
  VarData *Node = newNode(Rows, Cols, /*NeedGrad=*/false);
  std::memcpy(Node->Value, Data, Rows * Cols * sizeof(float));
  return Var{Node};
}

Var Graph::zeros(size_t Rows, size_t Cols) {
  return Var{newNode(Rows, Cols, /*NeedGrad=*/false)};
}

Var Graph::param(Parameter &P) {
  VarData *Node = NodeArena->create<VarData>();
  Node->Rows = P.Rows;
  Node->Cols = P.Cols;
  Node->Value = P.Value.data();
  if (Training)
    Node->Grad = paramGradTarget(P);
  ++NodeCount;
  return Var{Node};
}

Var Graph::matmul(Var A, Var B) {
  assert(A.cols() == B.rows() && "matmul shape mismatch");
  size_t M = A.rows(), K = A.cols(), N = B.cols();
  VarData *Out = newNode(M, N, true);
  // All four products (forward and both backward terms) route through the
  // active kernel backend (nn/kernels.h); the output buffers are
  // zero-initialized (forward) or accumulators (backward), matching the
  // kernels' accumulate-into-C convention.
  kernels::gemm(M, K, N, A.value(), B.value(), Out->Value);
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, M, K, N] {
      const float *G = Out->Grad;
      if (AD->Grad) // dA[M,K] += G[M,N] * B[K,N]^T
        kernels::gemmTB(M, N, K, G, BD->Value, AD->Grad);
      if (BD->Grad) // dB[K,N] += A[M,K]^T * G[M,N]
        kernels::gemmTA(M, K, N, /*Lda=*/K, AD->Value, G, BD->Grad);
    });
  return Var{Out};
}

Var Graph::matmulInt8(Var A, const kernels::QuantizedMatrix &W) {
  assert(!Training && "matmulInt8 is inference-only (no backward rule)");
  assert(A.cols() == W.Rows && "matmulInt8 shape mismatch");
  size_t M = A.rows(), K = A.cols(), N = W.Cols;
  VarData *Out = newNode(M, N, /*NeedGrad=*/false);
  kernels::gemmInt8(M, K, N, A.value(), W.Data.data(), W.RowScale.data(),
                    Out->Value);
  return Var{Out};
}

Var Graph::matmulTransposeB(Var A, Var B) {
  assert(A.cols() == B.cols() && "matmulTransposeB shape mismatch");
  size_t M = A.rows(), K = A.cols(), N = B.rows();
  VarData *Out = newNode(M, N, true);
  kernels::gemmTB(M, K, N, A.value(), B.value(), Out->Value);
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, M, K, N] {
      const float *G = Out->Grad;
      if (AD->Grad) // dA[M,K] += G[M,N] * B[N,K]
        kernels::gemm(M, N, K, G, BD->Value, AD->Grad);
      if (BD->Grad) // dB[N,K] += G[M,N]^T * A[M,K]
        kernels::gemmTA(M, N, K, /*Lda=*/N, G, AD->Value, BD->Grad);
    });
  return Var{Out};
}

Var Graph::add(Var A, Var B) {
  assert(A.rows() == B.rows() && A.cols() == B.cols() && "add shape mismatch");
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  for (size_t I = 0; I < Size; ++I)
    Out->Value[I] = A.value()[I] + B.value()[I];
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, Size] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I)
          AD->Grad[I] += Out->Grad[I];
      if (BD->Grad)
        for (size_t I = 0; I < Size; ++I)
          BD->Grad[I] += Out->Grad[I];
    });
  return Var{Out};
}

Var Graph::addRowBroadcast(Var A, Var B) {
  assert(B.rows() == 1 && A.cols() == B.cols() && "broadcast shape mismatch");
  size_t M = A.rows(), N = A.cols();
  VarData *Out = newNode(M, N, true);
  for (size_t I = 0; I < M; ++I)
    for (size_t J = 0; J < N; ++J)
      Out->Value[I * N + J] = A.value()[I * N + J] + B.value()[J];
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, M, N] {
      if (AD->Grad)
        for (size_t I = 0; I < M * N; ++I)
          AD->Grad[I] += Out->Grad[I];
      if (BD->Grad)
        for (size_t I = 0; I < M; ++I)
          for (size_t J = 0; J < N; ++J)
            BD->Grad[J] += Out->Grad[I * N + J];
    });
  return Var{Out};
}

Var Graph::mul(Var A, Var B) {
  assert(A.rows() == B.rows() && A.cols() == B.cols() && "mul shape mismatch");
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  for (size_t I = 0; I < Size; ++I)
    Out->Value[I] = A.value()[I] * B.value()[I];
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, Size] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I)
          AD->Grad[I] += Out->Grad[I] * BD->Value[I];
      if (BD->Grad)
        for (size_t I = 0; I < Size; ++I)
          BD->Grad[I] += Out->Grad[I] * AD->Value[I];
    });
  return Var{Out};
}

Var Graph::scale(Var A, float Factor) {
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  for (size_t I = 0; I < Size; ++I)
    Out->Value[I] = A.value()[I] * Factor;
  if (Training)
    Tape.push_back([AD = A.Data, Out, Size, Factor] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I)
          AD->Grad[I] += Out->Grad[I] * Factor;
    });
  return Var{Out};
}

Var Graph::sigmoid(Var A) {
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  // Two-branch form so exp() only ever sees non-positive arguments: the
  // naive 1/(1+exp(-x)) overflows exp for x < -88 and round-trips through
  // inf. Both branches agree exactly at x = 0.
  for (size_t I = 0; I < Size; ++I) {
    float X = A.value()[I];
    if (X >= 0.0f) {
      Out->Value[I] = 1.0f / (1.0f + std::exp(-X));
    } else {
      float E = std::exp(X);
      Out->Value[I] = E / (1.0f + E);
    }
  }
  if (Training)
    Tape.push_back([AD = A.Data, Out, Size] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I) {
          float Y = Out->Value[I];
          AD->Grad[I] += Out->Grad[I] * Y * (1.0f - Y);
        }
    });
  return Var{Out};
}

Var Graph::tanhOp(Var A) {
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  for (size_t I = 0; I < Size; ++I)
    Out->Value[I] = std::tanh(A.value()[I]);
  if (Training)
    Tape.push_back([AD = A.Data, Out, Size] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I) {
          float Y = Out->Value[I];
          AD->Grad[I] += Out->Grad[I] * (1.0f - Y * Y);
        }
    });
  return Var{Out};
}

Var Graph::relu(Var A) {
  VarData *Out = newNode(A.rows(), A.cols(), true);
  size_t Size = Out->size();
  for (size_t I = 0; I < Size; ++I)
    Out->Value[I] = A.value()[I] > 0.0f ? A.value()[I] : 0.0f;
  if (Training)
    Tape.push_back([AD = A.Data, Out, Size] {
      if (AD->Grad)
        for (size_t I = 0; I < Size; ++I)
          if (AD->Value[I] > 0.0f)
            AD->Grad[I] += Out->Grad[I];
    });
  return Var{Out};
}

Var Graph::layerNorm(Var A, Var Gain, Var Bias) {
  assert(Gain.rows() == 1 && Gain.cols() == A.cols() && "bad gain shape");
  assert(Bias.rows() == 1 && Bias.cols() == A.cols() && "bad bias shape");
  size_t M = A.rows(), N = A.cols();
  constexpr float Epsilon = 1e-5f;
  VarData *Out = newNode(M, N, true);
  // Zero-width rows have no elements to normalize (and 0/0 would poison the
  // cached stats with NaN); the output is the empty matrix.
  if (N == 0)
    return Var{Out};
  // Cache per-row mean and inverse stddev for the backward pass.
  float *Stats = NodeArena->allocateArray<float>(2 * M);
  for (size_t I = 0; I < M; ++I) {
    const float *Row = A.value() + I * N;
    float Mean = 0.0f;
    for (size_t J = 0; J < N; ++J)
      Mean += Row[J];
    Mean /= static_cast<float>(N);
    float Variance = 0.0f;
    for (size_t J = 0; J < N; ++J) {
      float Centered = Row[J] - Mean;
      Variance += Centered * Centered;
    }
    Variance /= static_cast<float>(N);
    float InvStd = 1.0f / std::sqrt(Variance + Epsilon);
    Stats[2 * I] = Mean;
    Stats[2 * I + 1] = InvStd;
    for (size_t J = 0; J < N; ++J)
      Out->Value[I * N + J] =
          (Row[J] - Mean) * InvStd * Gain.value()[J] + Bias.value()[J];
  }
  if (Training)
    Tape.push_back([AD = A.Data, GD = Gain.Data, BD = Bias.Data, Out, Stats,
                    M, N] {
      for (size_t I = 0; I < M; ++I) {
        float Mean = Stats[2 * I];
        float InvStd = Stats[2 * I + 1];
        const float *Row = AD->Value + I * N;
        const float *G = Out->Grad + I * N;
        // Normalized activations and the gradient wrt them.
        // dXhat_j = G_j * gain_j; dX uses the standard layernorm backward.
        float SumDXhat = 0.0f, SumDXhatXhat = 0.0f;
        for (size_t J = 0; J < N; ++J) {
          float XHat = (Row[J] - Mean) * InvStd;
          float DXhat = G[J] * GD->Value[J];
          SumDXhat += DXhat;
          SumDXhatXhat += DXhat * XHat;
          if (GD->Grad)
            GD->Grad[J] += G[J] * XHat;
          if (BD->Grad)
            BD->Grad[J] += G[J];
        }
        if (AD->Grad) {
          float InvN = 1.0f / static_cast<float>(N);
          for (size_t J = 0; J < N; ++J) {
            float XHat = (Row[J] - Mean) * InvStd;
            float DXhat = G[J] * GD->Value[J];
            AD->Grad[I * N + J] +=
                InvStd * (DXhat - InvN * SumDXhat - InvN * XHat * SumDXhatXhat);
          }
        }
      }
    });
  return Var{Out};
}

Var Graph::sliceCols(Var A, size_t Begin, size_t Count) {
  assert(Begin + Count <= A.cols() && "slice out of range");
  size_t M = A.rows(), N = A.cols();
  VarData *Out = newNode(M, Count, true);
  for (size_t I = 0; I < M; ++I)
    std::memcpy(Out->Value + I * Count, A.value() + I * N + Begin,
                Count * sizeof(float));
  if (Training)
    Tape.push_back([AD = A.Data, Out, M, N, Begin, Count] {
      if (AD->Grad)
        for (size_t I = 0; I < M; ++I)
          for (size_t J = 0; J < Count; ++J)
            AD->Grad[I * N + Begin + J] += Out->Grad[I * Count + J];
    });
  return Var{Out};
}

Var Graph::concatCols(Var A, Var B) {
  assert(A.rows() == B.rows() && "concatCols row mismatch");
  size_t M = A.rows(), NA = A.cols(), NB = B.cols();
  VarData *Out = newNode(M, NA + NB, true);
  for (size_t I = 0; I < M; ++I) {
    std::memcpy(Out->Value + I * (NA + NB), A.value() + I * NA,
                NA * sizeof(float));
    std::memcpy(Out->Value + I * (NA + NB) + NA, B.value() + I * NB,
                NB * sizeof(float));
  }
  if (Training)
    Tape.push_back([AD = A.Data, BD = B.Data, Out, M, NA, NB] {
      for (size_t I = 0; I < M; ++I) {
        if (AD->Grad)
          for (size_t J = 0; J < NA; ++J)
            AD->Grad[I * NA + J] += Out->Grad[I * (NA + NB) + J];
        if (BD->Grad)
          for (size_t J = 0; J < NB; ++J)
            BD->Grad[I * NB + J] += Out->Grad[I * (NA + NB) + NA + J];
      }
    });
  return Var{Out};
}

Var Graph::sliceRow(Var A, size_t Row) {
  assert(Row < A.rows() && "row out of range");
  size_t N = A.cols();
  VarData *Out = newNode(1, N, true);
  std::memcpy(Out->Value, A.value() + Row * N, N * sizeof(float));
  if (Training)
    Tape.push_back([AD = A.Data, Out, Row, N] {
      if (AD->Grad)
        for (size_t J = 0; J < N; ++J)
          AD->Grad[Row * N + J] += Out->Grad[J];
    });
  return Var{Out};
}

Var Graph::stackRows(const std::vector<Var> &Rows) {
  assert(!Rows.empty() && "stackRows of nothing");
  size_t N = Rows[0].cols();
  VarData *Out = newNode(Rows.size(), N, true);
  for (size_t I = 0; I < Rows.size(); ++I) {
    assert(Rows[I].rows() == 1 && Rows[I].cols() == N && "row shape mismatch");
    std::memcpy(Out->Value + I * N, Rows[I].value(), N * sizeof(float));
  }
  if (Training) {
    std::vector<VarData *> Sources;
    for (const Var &RowVar : Rows)
      Sources.push_back(RowVar.Data);
    Tape.push_back([Sources, Out, N] {
      for (size_t I = 0; I < Sources.size(); ++I)
        if (Sources[I]->Grad)
          for (size_t J = 0; J < N; ++J)
            Sources[I]->Grad[J] += Out->Grad[I * N + J];
    });
  }
  return Var{Out};
}

Var Graph::dropout(Var A, float Rate, Rng &R) {
  if (!Training || Rate <= 0.0f)
    return A;
  size_t Size = A.Data->size();
  VarData *Out = newNode(A.rows(), A.cols(), true);
  // Inverted dropout: kept units are scaled so inference needs no change.
  float Keep = 1.0f - Rate;
  float *Mask = NodeArena->allocateArray<float>(Size);
  for (size_t I = 0; I < Size; ++I) {
    Mask[I] = R.nextDouble() < Rate ? 0.0f : 1.0f / Keep;
    Out->Value[I] = A.value()[I] * Mask[I];
  }
  Tape.push_back([AD = A.Data, Out, Size, Mask] {
    if (AD->Grad)
      for (size_t I = 0; I < Size; ++I)
        AD->Grad[I] += Out->Grad[I] * Mask[I];
  });
  return Var{Out};
}

Var Graph::embedding(Parameter &E, const std::vector<uint32_t> &Ids) {
  size_t N = E.Cols;
  VarData *Out = newNode(Ids.size(), N, true);
  for (size_t I = 0; I < Ids.size(); ++I) {
    assert(Ids[I] < E.Rows && "embedding id out of range");
    std::memcpy(Out->Value + I * N, E.Value.data() + Ids[I] * N,
                N * sizeof(float));
  }
  if (Training) {
    float *EGrad = paramGradTarget(E);
    Tape.push_back([EGrad, Out, Ids, N] {
      size_t M = Ids.size();
      if (ThreadPool::global().numThreads() == 1 || M * N < ParallelMinWork) {
        for (size_t I = 0; I < M; ++I)
          for (size_t J = 0; J < N; ++J)
            EGrad[Ids[I] * N + J] += Out->Grad[I * N + J];
        return;
      }
      // Scatter with duplicate ids: group positions by id so each gradient
      // row is owned by exactly one task and accumulated in ascending
      // position order — bit-identical to the sequential scatter for any
      // thread count.
      std::vector<std::pair<uint32_t, uint32_t>> Occurrences(M);
      for (size_t I = 0; I < M; ++I)
        Occurrences[I] = {Ids[I], static_cast<uint32_t>(I)};
      std::stable_sort(Occurrences.begin(), Occurrences.end(),
                       [](const auto &A, const auto &B) {
                         return A.first < B.first;
                       });
      std::vector<size_t> GroupStarts = {0};
      for (size_t I = 1; I < M; ++I)
        if (Occurrences[I].first != Occurrences[I - 1].first)
          GroupStarts.push_back(I);
      GroupStarts.push_back(M);
      ThreadPool::global().parallelTasks(
          GroupStarts.size() - 1, [&](size_t Group) {
            for (size_t I = GroupStarts[Group]; I < GroupStarts[Group + 1];
                 ++I) {
              float *Dst = EGrad + size_t(Occurrences[I].first) * N;
              const float *Src = Out->Grad + size_t(Occurrences[I].second) * N;
              for (size_t J = 0; J < N; ++J)
                Dst[J] += Src[J];
            }
          });
    });
  }
  return Var{Out};
}

Var Graph::softmaxRows(Var A) {
  size_t M = A.rows(), N = A.cols();
  VarData *Out = newNode(M, N, true);
  // Zero-width rows: there is no element to read for the running max (the
  // old loop read Row[0] out of bounds) and the softmax of an empty row is
  // the empty row.
  if (N == 0)
    return Var{Out};
  for (size_t I = 0; I < M; ++I) {
    const float *Row = A.value() + I * N;
    float *ORow = Out->Value + I * N;
    float Max = Row[0];
    for (size_t J = 1; J < N; ++J)
      Max = std::max(Max, Row[J]);
    float Sum = 0.0f;
    for (size_t J = 0; J < N; ++J) {
      ORow[J] = std::exp(Row[J] - Max);
      Sum += ORow[J];
    }
    float Inverse = 1.0f / Sum;
    for (size_t J = 0; J < N; ++J)
      ORow[J] *= Inverse;
  }
  if (Training)
    Tape.push_back([AD = A.Data, Out, M, N] {
      if (!AD->Grad)
        return;
      for (size_t I = 0; I < M; ++I) {
        const float *Y = Out->Value + I * N;
        const float *G = Out->Grad + I * N;
        float Dot = 0.0f;
        for (size_t J = 0; J < N; ++J)
          Dot += Y[J] * G[J];
        for (size_t J = 0; J < N; ++J)
          AD->Grad[I * N + J] += Y[J] * (G[J] - Dot);
      }
    });
  return Var{Out};
}

Var Graph::crossEntropy(Var Logits, const std::vector<uint32_t> &Targets,
                        uint32_t IgnoreIndex) {
  size_t M = Logits.rows(), V = Logits.cols();
  assert(Targets.size() == M && "targets/logits mismatch");
  VarData *Out = newNode(1, 1, true);

  // A zero-width vocabulary has no probabilities to take (the softmax loop
  // would read Row[0] out of bounds) and no target can be in range; the
  // loss of nothing is zero with no gradient.
  if (V == 0)
    return Var{Out};

  // The loss clamps log(max(p, ProbFloor)); the backward pass must see the
  // same clamp: a row whose target probability underflowed the floor has a
  // constant loss there, so its gradient is exactly zero (previously the
  // unclamped softmax gradient leaked through).
  constexpr float ProbFloor = 1e-9f;

  // Softmax probabilities are needed for both value and gradient. Rows are
  // independent: compute them (and each row's loss term) in parallel, then
  // reduce the scalar loss sequentially in row order so the sum is
  // bit-identical for any thread count.
  float *Probs = NodeArena->allocateArray<float>(M * V);
  std::vector<float> RowLoss(M, 0.0f);
  parallelOverRows(M, 4 * V, [&](size_t I0, size_t I1) {
    for (size_t I = I0; I < I1; ++I) {
      const float *Row = Logits.value() + I * V;
      float *PRow = Probs + I * V;
      float Max = Row[0];
      for (size_t J = 1; J < V; ++J)
        Max = std::max(Max, Row[J]);
      float Sum = 0.0f;
      for (size_t J = 0; J < V; ++J) {
        PRow[J] = std::exp(Row[J] - Max);
        Sum += PRow[J];
      }
      float Inverse = 1.0f / Sum;
      for (size_t J = 0; J < V; ++J)
        PRow[J] *= Inverse;
      if (Targets[I] != IgnoreIndex)
        RowLoss[I] = std::log(std::max(PRow[Targets[I]], ProbFloor));
    }
  });
  // Positions equal to IgnoreIndex contribute neither to the sum nor to the
  // mean denominator.
  size_t Counted = 0;
  double Loss = 0.0;
  for (size_t I = 0; I < M; ++I)
    if (Targets[I] != IgnoreIndex) {
      Loss -= RowLoss[I];
      ++Counted;
    }
  if (Counted == 0)
    Counted = 1;
  Out->Value[0] = static_cast<float>(Loss / static_cast<double>(Counted));
  if (Training)
    Tape.push_back([LD = Logits.Data, Out, Probs, Targets, IgnoreIndex, M, V,
                    Counted] {
      if (!LD->Grad)
        return;
      float Seed = Out->Grad[0] / static_cast<float>(Counted);
      parallelOverRows(M, 2 * V, [&](size_t I0, size_t I1) {
        for (size_t I = I0; I < I1; ++I) {
          if (Targets[I] == IgnoreIndex)
            continue;
          const float *PRow = Probs + I * V;
          // Clamped row: the forward value is the constant -log(ProbFloor),
          // so this row's logits receive no gradient.
          if (PRow[Targets[I]] < ProbFloor)
            continue;
          float *GRow = LD->Grad + I * V;
          for (size_t J = 0; J < V; ++J)
            GRow[J] += Seed * PRow[J];
          GRow[Targets[I]] -= Seed;
        }
      });
    });
  return Var{Out};
}

void Graph::backward(Var Loss) {
  assert(Training && "backward on inference graph");
  assert(Loss.Data->size() == 1 && "loss must be scalar");
  assert(Loss.Data->Grad && "loss has no gradient");
  Loss.Data->Grad[0] = 1.0f;
  for (auto It = Tape.rbegin(); It != Tape.rend(); ++It)
    (*It)();
}

} // namespace nn
} // namespace snowwhite
