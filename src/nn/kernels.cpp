//===- nn/kernels.cpp - GEMM kernels ---------------------------------------===//
//
// Reference (scalar) and AVX2 (register-blocked SIMD) implementations of the
// four accumulate primitives, the CPU dispatch that picks one of them, and
// the thread-pool row partitioner. Built with -ffp-contract=off so
// multiply+add never fuses into FMA: the bit-identity contract between the
// two tables depends on every term being rounded twice.
//
//===----------------------------------------------------------------------===//

#include "nn/kernels.h"

#include "support/thread_pool.h"

#include <atomic>
#include <cassert>
#include <cmath>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SNOWWHITE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace snowwhite {
namespace nn {
namespace kernels {

namespace {

std::atomic<uint64_t> PoolDispatches{0};

// --- Reference kernels -------------------------------------------------------
//
// The executable specification. Every chain here is what the AVX2 kernels
// reproduce exactly; keep these loops boring.

void referenceGemm(size_t M, size_t K, size_t N, const float *A,
                   const float *B, float *C) {
  if (K == 0)
    return;
  for (size_t I = 0; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    for (size_t J = 0; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t P = 0; P < K; ++P)
        Sum += ARow[P] * B[P * N + J];
      CRow[J] += Sum;
    }
  }
}

/// The 8-lane split-reduction chain for dot products (see kernels.h): term p
/// folds into lane p mod 8; lanes combine with a fixed binary tree.
inline float dotSplit8(const float *X, const float *Y, size_t K) {
  float Lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (size_t P = 0; P < K; ++P)
    Lane[P % 8] += X[P] * Y[P];
  return ((Lane[0] + Lane[1]) + (Lane[2] + Lane[3])) +
         ((Lane[4] + Lane[5]) + (Lane[6] + Lane[7]));
}

void referenceGemmTB(size_t M, size_t K, size_t N, const float *A,
                     const float *B, float *C) {
  if (K == 0)
    return;
  for (size_t I = 0; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    for (size_t J = 0; J < N; ++J)
      CRow[J] += dotSplit8(ARow, B + J * K, K);
  }
}

void referenceGemmTA(size_t M, size_t K, size_t N, size_t Lda, const float *A,
                     const float *B, float *C) {
  if (M == 0)
    return;
  for (size_t P = 0; P < K; ++P) {
    float *CRow = C + P * N;
    for (size_t J = 0; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t I = 0; I < M; ++I)
        Sum += A[I * Lda + P] * B[I * N + J];
      CRow[J] += Sum;
    }
  }
}

void referenceGemmInt8(size_t M, size_t K, size_t N, const float *A,
                       const int8_t *Q, const float *Scale, float *C) {
  if (K == 0)
    return;
  for (size_t I = 0; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    for (size_t J = 0; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t P = 0; P < K; ++P)
        Sum += (ARow[P] * Scale[P]) * static_cast<float>(Q[P * N + J]);
      CRow[J] += Sum;
    }
  }
}

#ifdef SNOWWHITE_AVX2_KERNELS

// --- AVX2 kernels ------------------------------------------------------------
//
// Register-blocked: 4 output rows x 16 output columns accumulate in 8 ymm
// registers over the full K extent (ascending, mul then add — never FMA),
// then one add into C. Lanes are distinct output elements, so every
// element's chain equals the reference chain. GemmTB instead vectorizes the
// reduction itself, which is exactly the 8-lane split chain the reference
// specifies.

__attribute__((target("avx2"))) void avx2Gemm(size_t M, size_t K, size_t N,
                                              const float *A, const float *B,
                                              float *C) {
  if (K == 0)
    return;
  size_t I = 0;
  for (; I + 4 <= M; I += 4) {
    const float *A0 = A + (I + 0) * K, *A1 = A + (I + 1) * K,
                *A2 = A + (I + 2) * K, *A3 = A + (I + 3) * K;
    float *C0 = C + (I + 0) * N, *C1 = C + (I + 1) * N, *C2 = C + (I + 2) * N,
          *C3 = C + (I + 3) * N;
    size_t J = 0;
    for (; J + 16 <= N; J += 16) {
      __m256 Acc00 = _mm256_setzero_ps(), Acc01 = _mm256_setzero_ps();
      __m256 Acc10 = _mm256_setzero_ps(), Acc11 = _mm256_setzero_ps();
      __m256 Acc20 = _mm256_setzero_ps(), Acc21 = _mm256_setzero_ps();
      __m256 Acc30 = _mm256_setzero_ps(), Acc31 = _mm256_setzero_ps();
      for (size_t P = 0; P < K; ++P) {
        __m256 B0 = _mm256_loadu_ps(B + P * N + J);
        __m256 B1 = _mm256_loadu_ps(B + P * N + J + 8);
        __m256 V0 = _mm256_set1_ps(A0[P]);
        Acc00 = _mm256_add_ps(Acc00, _mm256_mul_ps(V0, B0));
        Acc01 = _mm256_add_ps(Acc01, _mm256_mul_ps(V0, B1));
        __m256 V1 = _mm256_set1_ps(A1[P]);
        Acc10 = _mm256_add_ps(Acc10, _mm256_mul_ps(V1, B0));
        Acc11 = _mm256_add_ps(Acc11, _mm256_mul_ps(V1, B1));
        __m256 V2 = _mm256_set1_ps(A2[P]);
        Acc20 = _mm256_add_ps(Acc20, _mm256_mul_ps(V2, B0));
        Acc21 = _mm256_add_ps(Acc21, _mm256_mul_ps(V2, B1));
        __m256 V3 = _mm256_set1_ps(A3[P]);
        Acc30 = _mm256_add_ps(Acc30, _mm256_mul_ps(V3, B0));
        Acc31 = _mm256_add_ps(Acc31, _mm256_mul_ps(V3, B1));
      }
      _mm256_storeu_ps(C0 + J, _mm256_add_ps(_mm256_loadu_ps(C0 + J), Acc00));
      _mm256_storeu_ps(C0 + J + 8,
                       _mm256_add_ps(_mm256_loadu_ps(C0 + J + 8), Acc01));
      _mm256_storeu_ps(C1 + J, _mm256_add_ps(_mm256_loadu_ps(C1 + J), Acc10));
      _mm256_storeu_ps(C1 + J + 8,
                       _mm256_add_ps(_mm256_loadu_ps(C1 + J + 8), Acc11));
      _mm256_storeu_ps(C2 + J, _mm256_add_ps(_mm256_loadu_ps(C2 + J), Acc20));
      _mm256_storeu_ps(C2 + J + 8,
                       _mm256_add_ps(_mm256_loadu_ps(C2 + J + 8), Acc21));
      _mm256_storeu_ps(C3 + J, _mm256_add_ps(_mm256_loadu_ps(C3 + J), Acc30));
      _mm256_storeu_ps(C3 + J + 8,
                       _mm256_add_ps(_mm256_loadu_ps(C3 + J + 8), Acc31));
    }
    for (; J + 8 <= N; J += 8) {
      __m256 Acc0 = _mm256_setzero_ps(), Acc1 = _mm256_setzero_ps();
      __m256 Acc2 = _mm256_setzero_ps(), Acc3 = _mm256_setzero_ps();
      for (size_t P = 0; P < K; ++P) {
        __m256 BV = _mm256_loadu_ps(B + P * N + J);
        Acc0 = _mm256_add_ps(Acc0, _mm256_mul_ps(_mm256_set1_ps(A0[P]), BV));
        Acc1 = _mm256_add_ps(Acc1, _mm256_mul_ps(_mm256_set1_ps(A1[P]), BV));
        Acc2 = _mm256_add_ps(Acc2, _mm256_mul_ps(_mm256_set1_ps(A2[P]), BV));
        Acc3 = _mm256_add_ps(Acc3, _mm256_mul_ps(_mm256_set1_ps(A3[P]), BV));
      }
      _mm256_storeu_ps(C0 + J, _mm256_add_ps(_mm256_loadu_ps(C0 + J), Acc0));
      _mm256_storeu_ps(C1 + J, _mm256_add_ps(_mm256_loadu_ps(C1 + J), Acc1));
      _mm256_storeu_ps(C2 + J, _mm256_add_ps(_mm256_loadu_ps(C2 + J), Acc2));
      _mm256_storeu_ps(C3 + J, _mm256_add_ps(_mm256_loadu_ps(C3 + J), Acc3));
    }
    for (; J < N; ++J) {
      float S0 = 0.0f, S1 = 0.0f, S2 = 0.0f, S3 = 0.0f;
      for (size_t P = 0; P < K; ++P) {
        float BV = B[P * N + J];
        S0 += A0[P] * BV;
        S1 += A1[P] * BV;
        S2 += A2[P] * BV;
        S3 += A3[P] * BV;
      }
      C0[J] += S0;
      C1[J] += S1;
      C2[J] += S2;
      C3[J] += S3;
    }
  }
  for (; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    size_t J = 0;
    for (; J + 8 <= N; J += 8) {
      __m256 Acc = _mm256_setzero_ps();
      for (size_t P = 0; P < K; ++P)
        Acc = _mm256_add_ps(
            Acc, _mm256_mul_ps(_mm256_set1_ps(ARow[P]),
                               _mm256_loadu_ps(B + P * N + J)));
      _mm256_storeu_ps(CRow + J,
                       _mm256_add_ps(_mm256_loadu_ps(CRow + J), Acc));
    }
    for (; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t P = 0; P < K; ++P)
        Sum += ARow[P] * B[P * N + J];
      CRow[J] += Sum;
    }
  }
}

/// Horizontal combine matching the reference tree:
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
__attribute__((target("avx2"))) inline float hsumTree(__m256 V) {
  __m128 Lo = _mm256_castps256_ps128(V);   // l0..l3
  __m128 Hi = _mm256_extractf128_ps(V, 1); // l4..l7
  // Pairwise within each half: (l0+l1, l2+l3, ...) via shuffle+add.
  __m128 LoSwap = _mm_movehdup_ps(Lo); // l1,l1,l3,l3
  __m128 LoPair = _mm_add_ps(Lo, LoSwap);
  __m128 HiSwap = _mm_movehdup_ps(Hi);
  __m128 HiPair = _mm_add_ps(Hi, HiSwap);
  float L01 = _mm_cvtss_f32(LoPair);                       // l0+l1
  float L23 = _mm_cvtss_f32(_mm_movehl_ps(LoPair, LoPair)); // l2+l3
  float L45 = _mm_cvtss_f32(HiPair);
  float L67 = _mm_cvtss_f32(_mm_movehl_ps(HiPair, HiPair));
  return (L01 + L23) + (L45 + L67);
}

__attribute__((target("avx2"))) void avx2GemmTB(size_t M, size_t K, size_t N,
                                                const float *A, const float *B,
                                                float *C) {
  if (K == 0)
    return;
  size_t KVec = K - K % 8;
  for (size_t I = 0; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    size_t J = 0;
    // Two B rows at a time: one pass over ARow feeds both dots.
    for (; J + 2 <= N; J += 2) {
      const float *B0 = B + J * K, *B1 = B + (J + 1) * K;
      __m256 Acc0 = _mm256_setzero_ps(), Acc1 = _mm256_setzero_ps();
      for (size_t P = 0; P < KVec; P += 8) {
        __m256 AV = _mm256_loadu_ps(ARow + P);
        Acc0 = _mm256_add_ps(Acc0, _mm256_mul_ps(AV, _mm256_loadu_ps(B0 + P)));
        Acc1 = _mm256_add_ps(Acc1, _mm256_mul_ps(AV, _mm256_loadu_ps(B1 + P)));
      }
      // Remainder terms land in lane p mod 8, matching the split-8 spec.
      if (KVec < K) {
        float Tail0[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        float Tail1[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (size_t P = KVec; P < K; ++P) {
          Tail0[P % 8] = ARow[P] * B0[P];
          Tail1[P % 8] = ARow[P] * B1[P];
        }
        Acc0 = _mm256_add_ps(Acc0, _mm256_loadu_ps(Tail0));
        Acc1 = _mm256_add_ps(Acc1, _mm256_loadu_ps(Tail1));
      }
      CRow[J] += hsumTree(Acc0);
      CRow[J + 1] += hsumTree(Acc1);
    }
    for (; J < N; ++J)
      CRow[J] += dotSplit8(ARow, B + J * K, K);
  }
}

__attribute__((target("avx2"))) void avx2GemmTA(size_t M, size_t K, size_t N,
                                                size_t Lda, const float *A,
                                                const float *B, float *C) {
  if (M == 0)
    return;
  size_t P = 0;
  for (; P + 4 <= K; P += 4) {
    float *C0 = C + (P + 0) * N, *C1 = C + (P + 1) * N, *C2 = C + (P + 2) * N,
          *C3 = C + (P + 3) * N;
    size_t J = 0;
    for (; J + 8 <= N; J += 8) {
      __m256 Acc0 = _mm256_setzero_ps(), Acc1 = _mm256_setzero_ps();
      __m256 Acc2 = _mm256_setzero_ps(), Acc3 = _mm256_setzero_ps();
      for (size_t I = 0; I < M; ++I) {
        const float *ACol = A + I * Lda + P;
        __m256 BV = _mm256_loadu_ps(B + I * N + J);
        Acc0 = _mm256_add_ps(Acc0, _mm256_mul_ps(_mm256_set1_ps(ACol[0]), BV));
        Acc1 = _mm256_add_ps(Acc1, _mm256_mul_ps(_mm256_set1_ps(ACol[1]), BV));
        Acc2 = _mm256_add_ps(Acc2, _mm256_mul_ps(_mm256_set1_ps(ACol[2]), BV));
        Acc3 = _mm256_add_ps(Acc3, _mm256_mul_ps(_mm256_set1_ps(ACol[3]), BV));
      }
      _mm256_storeu_ps(C0 + J, _mm256_add_ps(_mm256_loadu_ps(C0 + J), Acc0));
      _mm256_storeu_ps(C1 + J, _mm256_add_ps(_mm256_loadu_ps(C1 + J), Acc1));
      _mm256_storeu_ps(C2 + J, _mm256_add_ps(_mm256_loadu_ps(C2 + J), Acc2));
      _mm256_storeu_ps(C3 + J, _mm256_add_ps(_mm256_loadu_ps(C3 + J), Acc3));
    }
    for (; J < N; ++J) {
      float S0 = 0.0f, S1 = 0.0f, S2 = 0.0f, S3 = 0.0f;
      for (size_t I = 0; I < M; ++I) {
        const float *ACol = A + I * Lda + P;
        float BV = B[I * N + J];
        S0 += ACol[0] * BV;
        S1 += ACol[1] * BV;
        S2 += ACol[2] * BV;
        S3 += ACol[3] * BV;
      }
      C0[J] += S0;
      C1[J] += S1;
      C2[J] += S2;
      C3[J] += S3;
    }
  }
  for (; P < K; ++P) {
    float *CRow = C + P * N;
    size_t J = 0;
    for (; J + 8 <= N; J += 8) {
      __m256 Acc = _mm256_setzero_ps();
      for (size_t I = 0; I < M; ++I)
        Acc = _mm256_add_ps(
            Acc, _mm256_mul_ps(_mm256_set1_ps(A[I * Lda + P]),
                               _mm256_loadu_ps(B + I * N + J)));
      _mm256_storeu_ps(CRow + J,
                       _mm256_add_ps(_mm256_loadu_ps(CRow + J), Acc));
    }
    for (; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t I = 0; I < M; ++I)
        Sum += A[I * Lda + P] * B[I * N + J];
      CRow[J] += Sum;
    }
  }
}

__attribute__((target("avx2"))) void
avx2GemmInt8(size_t M, size_t K, size_t N, const float *A, const int8_t *Q,
             const float *Scale, float *C) {
  if (K == 0)
    return;
  for (size_t I = 0; I < M; ++I) {
    const float *ARow = A + I * K;
    float *CRow = C + I * N;
    size_t J = 0;
    for (; J + 16 <= N; J += 16) {
      __m256 Acc0 = _mm256_setzero_ps(), Acc1 = _mm256_setzero_ps();
      for (size_t P = 0; P < K; ++P) {
        __m256 XS = _mm256_set1_ps(ARow[P] * Scale[P]);
        const int8_t *QRow = Q + P * N + J;
        __m128i Raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(QRow));
        __m256 Q0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(Raw));
        __m256 Q1 = _mm256_cvtepi32_ps(
            _mm256_cvtepi8_epi32(_mm_srli_si128(Raw, 8)));
        Acc0 = _mm256_add_ps(Acc0, _mm256_mul_ps(XS, Q0));
        Acc1 = _mm256_add_ps(Acc1, _mm256_mul_ps(XS, Q1));
      }
      _mm256_storeu_ps(CRow + J,
                       _mm256_add_ps(_mm256_loadu_ps(CRow + J), Acc0));
      _mm256_storeu_ps(CRow + J + 8,
                       _mm256_add_ps(_mm256_loadu_ps(CRow + J + 8), Acc1));
    }
    for (; J < N; ++J) {
      float Sum = 0.0f;
      for (size_t P = 0; P < K; ++P)
        Sum += (ARow[P] * Scale[P]) * static_cast<float>(Q[P * N + J]);
      CRow[J] += Sum;
    }
  }
}

#endif // SNOWWHITE_AVX2_KERNELS

// --- CPU dispatch ------------------------------------------------------------

const KernelBackend ReferenceKernels = {"reference", referenceGemm,
                                        referenceGemmTB, referenceGemmTA,
                                        referenceGemmInt8};

#ifdef SNOWWHITE_AVX2_KERNELS
const KernelBackend Avx2Kernels = {"avx2", avx2Gemm, avx2GemmTB, avx2GemmTA,
                                   avx2GemmInt8};
#endif

/// The table this CPU runs: the AVX2 kernels exactly when it has AVX2.
const KernelBackend &dispatchForCpu() {
#ifdef SNOWWHITE_AVX2_KERNELS
  if (__builtin_cpu_supports("avx2"))
    return Avx2Kernels;
#endif
  // Without AVX2 the reference loops are the fast path too: the two are
  // bit-identical by contract, so nothing else needs to run here.
  return ReferenceKernels;
}

} // namespace

const KernelBackend &reference() { return ReferenceKernels; }

const KernelBackend &tuned() {
  static const KernelBackend &Dispatch = dispatchForCpu();
  return Dispatch;
}

const char *activeName() { return tuned().Name; }

// --- int8 quantization -------------------------------------------------------

QuantizedMatrix quantizeRowwise(const float *W, size_t Rows, size_t Cols) {
  QuantizedMatrix Q;
  Q.Rows = Rows;
  Q.Cols = Cols;
  Q.Data.resize(Rows * Cols);
  Q.RowScale.resize(Rows);
  for (size_t R = 0; R < Rows; ++R) {
    const float *Row = W + R * Cols;
    float MaxAbs = 0.0f;
    for (size_t C = 0; C < Cols; ++C)
      MaxAbs = std::max(MaxAbs, std::fabs(Row[C]));
    // Degenerate rows (all zero) quantize to scale 0 / codes 0 (resize()
    // above value-initialized every code); Inverse is only formed when
    // MaxAbs is strictly positive, so no division by zero and never a NaN
    // scale.
    float ScaleValue = MaxAbs / 127.0f;
    Q.RowScale[R] = ScaleValue;
    if (MaxAbs == 0.0f)
      continue;
    float Inverse = 127.0f / MaxAbs;
    for (size_t C = 0; C < Cols; ++C) {
      float Scaled = Row[C] * Inverse;
      int Rounded = static_cast<int>(std::lrintf(Scaled));
      Rounded = std::max(-127, std::min(127, Rounded));
      Q.Data[R * Cols + C] = static_cast<int8_t>(Rounded);
    }
  }
  return Q;
}

void dequantizeRow(const QuantizedMatrix &Q, size_t Row, float *Out) {
  assert(Row < Q.Rows && "row out of range");
  float ScaleValue = Q.RowScale[Row];
  for (size_t C = 0; C < Q.Cols; ++C)
    Out[C] = ScaleValue * static_cast<float>(Q.Data[Row * Q.Cols + C]);
}

// --- Threaded entry points ---------------------------------------------------

void parallelOverRows(size_t Rows, size_t WorkPerRow,
                      const std::function<void(size_t, size_t)> &Body) {
  ThreadPool &Pool = ThreadPool::global();
  // Rows == 1 can never be split, so fanning out would be pure dispatch
  // overhead — the beam-search M=1 regression (see poolDispatchCount).
  if (Pool.numThreads() == 1 || Rows <= 1 ||
      Rows * WorkPerRow < ParallelMinWork) {
    Body(0, Rows);
    return;
  }
  PoolDispatches.fetch_add(1, std::memory_order_relaxed);
  size_t Grain =
      std::max<size_t>(1, ParallelMinWork / std::max<size_t>(1, WorkPerRow));
  Pool.parallelFor(0, Rows, Grain, Body);
}

uint64_t poolDispatchCount() {
  return PoolDispatches.load(std::memory_order_relaxed);
}

void gemm(size_t M, size_t K, size_t N, const float *A, const float *B,
          float *C) {
  if (M == 0 || N == 0 || K == 0)
    return;
  const KernelBackend &Backend = tuned();
  parallelOverRows(M, K * N, [&](size_t I0, size_t I1) {
    Backend.Gemm(I1 - I0, K, N, A + I0 * K, B, C + I0 * N);
  });
}

void gemmTB(size_t M, size_t K, size_t N, const float *A, const float *B,
            float *C) {
  if (M == 0 || N == 0 || K == 0)
    return;
  const KernelBackend &Backend = tuned();
  parallelOverRows(M, K * N, [&](size_t I0, size_t I1) {
    Backend.GemmTB(I1 - I0, K, N, A + I0 * K, B, C + I0 * N);
  });
}

void gemmTA(size_t M, size_t K, size_t N, size_t Lda, const float *A,
            const float *B, float *C) {
  if (M == 0 || N == 0 || K == 0)
    return;
  const KernelBackend &Backend = tuned();
  // Output rows are the K axis; each slice sees a column window of A.
  parallelOverRows(K, M * N, [&](size_t P0, size_t P1) {
    Backend.GemmTA(M, P1 - P0, N, Lda, A + P0, B, C + P0 * N);
  });
}

void gemmInt8(size_t M, size_t K, size_t N, const float *A, const int8_t *Q,
              const float *Scale, float *C) {
  if (M == 0 || N == 0 || K == 0)
    return;
  const KernelBackend &Backend = tuned();
  parallelOverRows(M, K * N, [&](size_t I0, size_t I1) {
    Backend.GemmInt8(I1 - I0, K, N, A + I0 * K, Q, Scale, C + I0 * N);
  });
}

} // namespace kernels
} // namespace nn
} // namespace snowwhite
