//===- tests/kernel_test.cpp - GEMM kernel tests ---------------------------===//
//
// The kernel layer's contract (nn/kernels.h): the CPU dispatch, bit-for-bit
// tuned-vs-reference identity over hostile shapes, numeric correctness
// against double-precision, int8 quantization (including degenerate rows),
// arena reset/reuse semantics, the tiny-shape pool-dispatch fast path, and
// the threaded entry points against the reference at several pool sizes.
// Carries the `kernels` ctest label (plus `threaded` for the TSan preset).
//
//===----------------------------------------------------------------------===//

#include "nn/graph.h"
#include "nn/kernels.h"
#include "support/arena.h"
#include "support/rng.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace snowwhite {
namespace {

namespace kernels = nn::kernels;

/// Restores the global pool on scope exit so test order never leaks state.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::resetGlobal(0); }
};

std::vector<float> randomMatrix(size_t Elements, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> M(Elements);
  for (float &V : M)
    V = R.nextUniformFloat(2.0f);
  return M;
}

/// Hostile sizes: zero, one, odd, and non-multiples of every block/tile
/// width the tuned kernels use (4-row blocks, 8/16-wide column tiles).
const size_t HostileSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33};

// --- CPU dispatch ------------------------------------------------------------

TEST(KernelDispatch, TunedDispatchIsReported) {
  std::string Target = kernels::activeName();
  EXPECT_EQ(Target, kernels::tuned().Name);
  EXPECT_TRUE(Target == "avx2" || Target == "reference") << Target;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The dispatch follows the CPU: the AVX2 kernels exactly when it has AVX2.
  EXPECT_EQ(Target == "avx2", __builtin_cpu_supports("avx2") != 0);
#endif
}

// --- Bit-for-bit tuned vs reference ------------------------------------------

using GemmFn = void (*)(size_t, size_t, size_t, const float *, const float *,
                        float *);

void expectBitIdentical(GemmFn Reference, GemmFn Tuned, size_t M, size_t K,
                        size_t N, size_t ASize, size_t BSize, size_t CSize) {
  std::vector<float> A = randomMatrix(ASize, 1000 + M * 100 + K * 10 + N);
  std::vector<float> B = randomMatrix(BSize, 2000 + M * 100 + K * 10 + N);
  // Nonzero C exercises the accumulate (not overwrite) semantics.
  std::vector<float> CRef = randomMatrix(CSize, 3000 + M * 100 + K * 10 + N);
  std::vector<float> CTuned = CRef;
  Reference(M, K, N, A.data(), B.data(), CRef.data());
  Tuned(M, K, N, A.data(), B.data(), CTuned.data());
  // memcmp's pointers must be non-null even for zero sizes.
  ASSERT_TRUE(CSize == 0 || std::memcmp(CRef.data(), CTuned.data(),
                                        CSize * sizeof(float)) == 0)
      << "M=" << M << " K=" << K << " N=" << N;
}

TEST(KernelBitIdentity, GemmHostileShapeGrid) {
  const kernels::KernelBackend &Ref = kernels::reference();
  const kernels::KernelBackend &Tuned = kernels::tuned();
  for (size_t M : HostileSizes)
    for (size_t K : HostileSizes)
      for (size_t N : HostileSizes)
        expectBitIdentical(Ref.Gemm, Tuned.Gemm, M, K, N, M * K, K * N,
                           M * N);
}

TEST(KernelBitIdentity, GemmTBHostileShapeGrid) {
  const kernels::KernelBackend &Ref = kernels::reference();
  const kernels::KernelBackend &Tuned = kernels::tuned();
  for (size_t M : HostileSizes)
    for (size_t K : HostileSizes)
      for (size_t N : HostileSizes)
        expectBitIdentical(Ref.GemmTB, Tuned.GemmTB, M, K, N, M * K, N * K,
                           M * N);
}

TEST(KernelBitIdentity, GemmTAHostileShapeGrid) {
  const kernels::KernelBackend &Ref = kernels::reference();
  const kernels::KernelBackend &Tuned = kernels::tuned();
  for (size_t M : HostileSizes)
    for (size_t K : HostileSizes)
      for (size_t N : HostileSizes) {
        std::vector<float> A = randomMatrix(M * K, 11 + M + K + N);
        std::vector<float> B = randomMatrix(M * N, 13 + M + K + N);
        std::vector<float> CRef = randomMatrix(K * N, 17 + M + K + N);
        std::vector<float> CTuned = CRef;
        Ref.GemmTA(M, K, N, K, A.data(), B.data(), CRef.data());
        Tuned.GemmTA(M, K, N, K, A.data(), B.data(), CTuned.data());
        ASSERT_TRUE(K * N == 0 || std::memcmp(CRef.data(), CTuned.data(),
                                              K * N * sizeof(float)) == 0)
            << "M=" << M << " K=" << K << " N=" << N;
      }
}

TEST(KernelBitIdentity, GemmTAColumnSlices) {
  // GemmTA's Lda parameter slices columns out of a wider A; the threaded
  // wrapper relies on it when partitioning dB rows. Every (offset, width)
  // window of a 7-column matrix must agree bitwise between backends.
  const kernels::KernelBackend &Ref = kernels::reference();
  const kernels::KernelBackend &Tuned = kernels::tuned();
  size_t M = 9, Lda = 7, N = 13;
  std::vector<float> A = randomMatrix(M * Lda, 23);
  std::vector<float> B = randomMatrix(M * N, 29);
  for (size_t Offset = 0; Offset < Lda; ++Offset)
    for (size_t K = 1; K + Offset <= Lda; ++K) {
      std::vector<float> CRef = randomMatrix(K * N, 31 + Offset + K);
      std::vector<float> CTuned = CRef;
      Ref.GemmTA(M, K, N, Lda, A.data() + Offset, B.data(), CRef.data());
      Tuned.GemmTA(M, K, N, Lda, A.data() + Offset, B.data(), CTuned.data());
      ASSERT_EQ(
          std::memcmp(CRef.data(), CTuned.data(), K * N * sizeof(float)), 0)
          << "Offset=" << Offset << " K=" << K;
    }
}

TEST(KernelBitIdentity, Int8HostileShapeGrid) {
  const kernels::KernelBackend &Ref = kernels::reference();
  const kernels::KernelBackend &Tuned = kernels::tuned();
  for (size_t M : HostileSizes)
    for (size_t K : HostileSizes)
      for (size_t N : HostileSizes) {
        std::vector<float> A = randomMatrix(M * K, 41 + M + K + N);
        std::vector<float> W = randomMatrix(K * N, 43 + M + K + N);
        kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), K, N);
        std::vector<float> CRef = randomMatrix(M * N, 47 + M + K + N);
        std::vector<float> CTuned = CRef;
        Ref.GemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
                     CRef.data());
        Tuned.GemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
                       CTuned.data());
        ASSERT_TRUE(M * N == 0 || std::memcmp(CRef.data(), CTuned.data(),
                                              M * N * sizeof(float)) == 0)
            << "M=" << M << " K=" << K << " N=" << N;
      }
}

TEST(KernelBitIdentity, ZeroLengthReductionLeavesCUntouched) {
  // The contract says K == 0 must not even add 0.0f into C: a -0.0f entry
  // would flip to +0.0f. Both tables, all primitives.
  std::vector<float> A, B;
  std::vector<float> Pristine(12, -0.0f);
  for (const kernels::KernelBackend *Backend :
       {&kernels::reference(), &kernels::tuned()}) {
    std::vector<float> C = Pristine;
    Backend->Gemm(3, 0, 4, A.data(), B.data(), C.data());
    Backend->GemmTB(3, 0, 4, A.data(), B.data(), C.data());
    Backend->GemmTA(0, 3, 4, 3, A.data(), B.data(), C.data());
    Backend->GemmInt8(3, 0, 4, A.data(), nullptr, nullptr, C.data());
    EXPECT_EQ(std::memcmp(C.data(), Pristine.data(), 12 * sizeof(float)), 0)
        << Backend->Name;
  }
}

// --- Numeric correctness -----------------------------------------------------

TEST(KernelNumerics, ReferenceMatchesDoublePrecision) {
  size_t M = 7, K = 33, N = 11;
  std::vector<float> A = randomMatrix(M * K, 61);
  std::vector<float> B = randomMatrix(K * N, 67);
  std::vector<float> C(M * N, 0.0f);
  kernels::reference().Gemm(M, K, N, A.data(), B.data(), C.data());
  for (size_t I = 0; I < M; ++I)
    for (size_t J = 0; J < N; ++J) {
      double Exact = 0.0;
      for (size_t P = 0; P < K; ++P)
        Exact += static_cast<double>(A[I * K + P]) * B[P * N + J];
      EXPECT_NEAR(C[I * N + J], Exact, 1e-4) << "I=" << I << " J=" << J;
    }
}

TEST(KernelNumerics, GemmTBMatchesDoublePrecision) {
  size_t M = 5, K = 29, N = 9;
  std::vector<float> A = randomMatrix(M * K, 71);
  std::vector<float> B = randomMatrix(N * K, 73);
  std::vector<float> C(M * N, 0.0f);
  kernels::reference().GemmTB(M, K, N, A.data(), B.data(), C.data());
  for (size_t I = 0; I < M; ++I)
    for (size_t J = 0; J < N; ++J) {
      double Exact = 0.0;
      for (size_t P = 0; P < K; ++P)
        Exact += static_cast<double>(A[I * K + P]) * B[J * K + P];
      EXPECT_NEAR(C[I * N + J], Exact, 1e-4) << "I=" << I << " J=" << J;
    }
}

// --- int8 quantization -------------------------------------------------------

TEST(KernelInt8, AllZeroRowGetsZeroScaleAndCodes) {
  std::vector<float> W(3 * 4, 0.0f);
  W[0 * 4 + 1] = 2.0f; // Row 0 is healthy; rows 1 and 2 are all zero.
  kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), 3, 4);
  EXPECT_GT(Q.RowScale[0], 0.0f);
  EXPECT_EQ(Q.RowScale[1], 0.0f);
  EXPECT_EQ(Q.RowScale[2], 0.0f);
  for (size_t C = 0; C < 4; ++C) {
    EXPECT_EQ(Q.Data[1 * 4 + C], 0);
    EXPECT_EQ(Q.Data[2 * 4 + C], 0);
  }
  for (float Scale : Q.RowScale)
    EXPECT_TRUE(std::isfinite(Scale));
}

TEST(KernelInt8, ConstantRowQuantizesExactly) {
  // A constant row has zero *range* but nonzero maxabs: symmetric per-row
  // quantization represents it exactly (every code is ±127).
  std::vector<float> W(8, -0.375f);
  kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), 1, 8);
  ASSERT_TRUE(std::isfinite(Q.RowScale[0]));
  std::vector<float> Back(8);
  kernels::dequantizeRow(Q, 0, Back.data());
  for (size_t C = 0; C < 8; ++C) {
    EXPECT_EQ(Q.Data[C], -127);
    EXPECT_NEAR(Back[C], -0.375f, 1e-6f);
  }
}

TEST(KernelInt8, DegeneratePropertySweep) {
  // Property: for random matrices seeded with hostile rows (all-zero,
  // constant positive/negative, subnormal, single-spike), every scale is
  // finite and non-negative, every code is in [-127, 127], and dequantized
  // values sit within half a quantization step of the original.
  Rng R(97);
  for (int Trial = 0; Trial < 50; ++Trial) {
    size_t Rows = 1 + R.nextBelow(6);
    size_t Cols = 1 + R.nextBelow(9);
    std::vector<float> W(Rows * Cols);
    for (size_t Row = 0; Row < Rows; ++Row) {
      switch (R.nextBelow(5)) {
      case 0: // All zero.
        break;
      case 1: { // Constant.
        float C = R.nextUniformFloat(3.0f);
        for (size_t J = 0; J < Cols; ++J)
          W[Row * Cols + J] = C;
        break;
      }
      case 2: // Subnormal magnitudes.
        for (size_t J = 0; J < Cols; ++J)
          W[Row * Cols + J] = 1e-41f * static_cast<float>(R.nextBelow(7));
        break;
      case 3: // One spike in a zero row.
        W[Row * Cols + R.nextBelow(Cols)] = R.nextUniformFloat(100.0f);
        break;
      default: // Random.
        for (size_t J = 0; J < Cols; ++J)
          W[Row * Cols + J] = R.nextUniformFloat(10.0f);
      }
    }
    kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), Rows, Cols);
    std::vector<float> Back(Cols);
    for (size_t Row = 0; Row < Rows; ++Row) {
      float Scale = Q.RowScale[Row];
      ASSERT_TRUE(std::isfinite(Scale)) << "trial " << Trial;
      ASSERT_GE(Scale, 0.0f);
      kernels::dequantizeRow(Q, Row, Back.data());
      for (size_t J = 0; J < Cols; ++J) {
        int Code = Q.Data[Row * Cols + J];
        ASSERT_GE(Code, -127);
        ASSERT_LE(Code, 127);
        ASSERT_TRUE(std::isfinite(Back[J]));
        ASSERT_NEAR(Back[J], W[Row * Cols + J], 0.5f * Scale + 1e-7f)
            << "trial " << Trial << " row " << Row << " col " << J;
      }
    }
  }
}

TEST(KernelInt8, GemmInt8ApproximatesF32) {
  size_t M = 4, K = 24, N = 16;
  std::vector<float> A = randomMatrix(M * K, 101);
  std::vector<float> W = randomMatrix(K * N, 103);
  kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), K, N);
  std::vector<float> Exact(M * N, 0.0f), Approx(M * N, 0.0f);
  kernels::reference().Gemm(M, K, N, A.data(), W.data(), Exact.data());
  kernels::reference().GemmInt8(M, K, N, A.data(), Q.Data.data(),
                                Q.RowScale.data(), Approx.data());
  // Worst-case per-term quantization error is scale/2 * |a|; bound the sum.
  for (size_t I = 0; I < M; ++I)
    for (size_t J = 0; J < N; ++J) {
      float Bound = 1e-5f;
      for (size_t P = 0; P < K; ++P)
        Bound += 0.5f * Q.RowScale[P] * std::fabs(A[I * K + P]) + 1e-6f;
      EXPECT_NEAR(Approx[I * N + J], Exact[I * N + J], Bound);
    }
}

TEST(KernelInt8, GraphMatmulInt8MatchesDense) {
  nn::Graph G(/*Training=*/false);
  size_t M = 3, K = 12, N = 8;
  std::vector<float> AData = randomMatrix(M * K, 107);
  nn::Parameter W(K, N);
  Rng R(109);
  W.initXavier(R);
  kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.Value.data(), K, N);
  nn::Var A = G.input(M, K, AData.data());
  nn::Var Dense = G.matmul(A, G.param(W));
  nn::Var Quant = G.matmulInt8(A, Q);
  ASSERT_EQ(Quant.rows(), M);
  ASSERT_EQ(Quant.cols(), N);
  for (size_t I = 0; I < M; ++I)
    for (size_t J = 0; J < N; ++J)
      EXPECT_NEAR(Quant.at(I, J), Dense.at(I, J), 0.05f);
}

// --- Arena -------------------------------------------------------------------

TEST(ArenaTest, BumpAndAlignment) {
  Arena A;
  char *P1 = static_cast<char *>(A.allocate(3, 1));
  char *P2 = static_cast<char *>(A.allocate(64, 64));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 64, 0u);
  EXPECT_NE(P1, P2);
  float *F = A.allocateArray<float>(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(F) % alignof(float), 0u);
  EXPECT_GE(A.bytesAllocated(), 3u + 64u + 40u);
  int *V = A.create<int>(42);
  EXPECT_EQ(*V, 42);
}

TEST(ArenaTest, ResetRetainsBlocksForReuse) {
  Arena A(/*FirstBlockBytes=*/256, /*MaxBlockBytes=*/4096);
  // Force several block allocations.
  for (int I = 0; I < 100; ++I)
    A.allocate(128);
  size_t Reserved = A.bytesReserved();
  size_t Blocks = A.numBlocks();
  EXPECT_GT(Blocks, 1u);
  // Steady state: the same workload after reset() must not grow the arena.
  for (int Round = 0; Round < 5; ++Round) {
    A.reset();
    EXPECT_EQ(A.bytesAllocated(), 0u);
    for (int I = 0; I < 100; ++I)
      A.allocate(128);
    EXPECT_EQ(A.bytesReserved(), Reserved) << "round " << Round;
    EXPECT_EQ(A.numBlocks(), Blocks) << "round " << Round;
  }
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena A(/*FirstBlockBytes=*/64, /*MaxBlockBytes=*/128);
  void *Big = A.allocate(10000);
  ASSERT_NE(Big, nullptr);
  std::memset(Big, 0xAB, 10000); // Must be fully usable.
  // And the arena still serves small requests afterwards.
  void *Small = A.allocate(8);
  ASSERT_NE(Small, nullptr);
}

TEST(ArenaTest, ReleaseMemoryReturnsToEmpty) {
  Arena A;
  A.allocate(1000);
  EXPECT_GT(A.bytesReserved(), 0u);
  A.releaseMemory();
  EXPECT_EQ(A.bytesReserved(), 0u);
  EXPECT_EQ(A.numBlocks(), 0u);
  // Usable again after release, and the block geometry starts over at the
  // first block's size rather than where the doubling left off.
  EXPECT_NE(A.allocate(16), nullptr);
  Arena Small(/*FirstBlockBytes=*/64, /*MaxBlockBytes=*/1024);
  for (int I = 0; I < 8; ++I)
    Small.allocate(60);
  EXPECT_GT(Small.bytesReserved(), 64u * 4);
  Small.releaseMemory();
  Small.allocate(8);
  EXPECT_EQ(Small.bytesReserved(), 64u);
}

TEST(ArenaTest, GraphNodesLiveInArena) {
  nn::Graph G(/*Training=*/true);
  std::vector<float> Data(6, 1.0f);
  nn::Var A = G.input(2, 3, Data.data());
  nn::Var B = G.input(2, 3, Data.data());
  (void)G.add(A, B);
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_GT(G.nodeArena().bytesAllocated(), 0u);
  EXPECT_GT(G.nodeArena().bytesReserved(), 0u);
}

// Inference graphs on one thread take turns on one arena, reset between
// them, so a request reuses the blocks the one before it warmed. A graph
// built while another holds that arena, and every training graph, gets its
// own.
TEST(ArenaTest, InferenceGraphsShareTheThreadArena) {
  std::vector<float> Data(6, 1.0f);
  const Arena *Shared = nullptr;
  size_t Reserved = 0;
  {
    nn::Graph First(/*Training=*/false);
    (void)First.input(2, 3, Data.data());
    Shared = &First.nodeArena();
    Reserved = Shared->bytesReserved();
    nn::Graph Nested(/*Training=*/false);
    EXPECT_NE(&Nested.nodeArena(), Shared);
    nn::Graph Training(/*Training=*/true);
    EXPECT_NE(&Training.nodeArena(), Shared);
  }
  nn::Graph Second(/*Training=*/false);
  EXPECT_EQ(&Second.nodeArena(), Shared);
  EXPECT_EQ(Second.nodeArena().bytesAllocated(), 0u);
  (void)Second.input(2, 3, Data.data());
  EXPECT_EQ(Second.nodeArena().bytesReserved(), Reserved);
}

// --- Pool dispatch fast path -------------------------------------------------

TEST(KernelDispatch, SingleRowNeverPaysPoolDispatch) {
  PoolGuard Guard;
  ThreadPool::resetGlobal(4);
  // A beam-search-sized GEMV: M = 1 but K*N far above the work threshold.
  size_t K = 256, N = 512;
  std::vector<float> A = randomMatrix(K, 201);
  std::vector<float> B = randomMatrix(K * N, 203);
  std::vector<float> C(N, 0.0f);
  uint64_t Before = kernels::poolDispatchCount();
  kernels::gemm(1, K, N, A.data(), B.data(), C.data());
  kernels::gemmTB(1, N, K, C.data(), B.data(), A.data());
  EXPECT_EQ(kernels::poolDispatchCount(), Before)
      << "M=1 matmuls must run inline";
  // Sanity: a multi-row call of the same magnitude does fan out.
  std::vector<float> A8 = randomMatrix(8 * K, 207);
  std::vector<float> C8(8 * N, 0.0f);
  kernels::gemm(8, K, N, A8.data(), B.data(), C8.data());
  EXPECT_GT(kernels::poolDispatchCount(), Before);
}

TEST(KernelDispatch, ThreadCountInvariance) {
  // The threaded entry points equal the reference table bit for bit on all
  // four primitives at every pool size. The shape clears ParallelMinWork,
  // so a pool wider than one thread splits the output rows.
  PoolGuard Guard;
  const kernels::KernelBackend &Ref = kernels::reference();
  size_t M = 37, K = 67, N = 45;
  ASSERT_GE(M * K * N, kernels::ParallelMinWork);
  std::vector<float> A = randomMatrix(M * K, 211);
  std::vector<float> B = randomMatrix(K * N, 213);
  std::vector<float> BT = randomMatrix(N * K, 217);
  std::vector<float> G = randomMatrix(M * N, 219);
  kernels::QuantizedMatrix Q = kernels::quantizeRowwise(B.data(), K, N);
  // Nonzero C exercises the accumulate (not overwrite) semantics.
  std::vector<float> C0 = randomMatrix(M * N, 223);
  std::vector<float> D0 = randomMatrix(K * N, 227);
  const char *Names[] = {"gemm", "gemmTB", "gemmTA", "gemmInt8"};
  std::vector<float> Want[] = {C0, C0, D0, C0};
  Ref.Gemm(M, K, N, A.data(), B.data(), Want[0].data());
  Ref.GemmTB(M, K, N, A.data(), BT.data(), Want[1].data());
  Ref.GemmTA(M, K, N, K, A.data(), G.data(), Want[2].data());
  Ref.GemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
               Want[3].data());
  for (unsigned Threads : {1u, 2u, 4u}) {
    ThreadPool::resetGlobal(Threads);
    uint64_t Before = kernels::poolDispatchCount();
    std::vector<float> Got[] = {C0, C0, D0, C0};
    kernels::gemm(M, K, N, A.data(), B.data(), Got[0].data());
    kernels::gemmTB(M, K, N, A.data(), BT.data(), Got[1].data());
    kernels::gemmTA(M, K, N, K, A.data(), G.data(), Got[2].data());
    kernels::gemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
                      Got[3].data());
    EXPECT_EQ(kernels::poolDispatchCount() - Before, Threads == 1 ? 0u : 4u)
        << Threads << " threads";
    for (size_t P = 0; P < 4; ++P)
      EXPECT_EQ(std::memcmp(Want[P].data(), Got[P].data(),
                            Want[P].size() * sizeof(float)),
                0)
          << Names[P] << " at " << Threads << " threads";
  }
}

} // namespace
} // namespace snowwhite
