//===- nn/kernels.h - GEMM kernel backends and int8 quantization -----------===//
//
// The numeric substrate under Graph::matmul / matmulTransposeB and their
// backward tapes. Every matrix product in the system routes through one of
// three accumulate-into-C primitives (plus an int8 variant), provided by a
// registry of interchangeable backends:
//
//   * `reference` — portable scalar loops, the executable specification.
//   * `tuned`     — cache/register-blocked and explicitly vectorized
//                   (AVX2 selected at runtime via __builtin_cpu_supports,
//                   portable blocked fallback elsewhere). Bit-identical to
//                   `reference` by
//                   construction: both follow the same per-element
//                   accumulation chains (see below).
//   * `differential` — runs `tuned` and `reference` side by side and counts
//                   any bitwise divergence; the safety net for tests, the
//                   fuzzer, and field debugging.
//
// Accumulation-chain contract (what makes bit-identity possible):
//
//   Gemm / GemmTA / GemmInt8: each output element is a fold over the
//   reduction axis in ascending order, one round-to-nearest multiply and one
//   add per term, accumulated in a local starting from +0, then added once
//   into C. SIMD lanes map to distinct output elements, so vector width
//   never touches a chain.
//
//   GemmTB reduces along the contiguous axis of both operands, so its spec
//   splits the reduction into 8 interleaved lanes (term p goes to lane
//   p mod 8) folded in ascending order, then combines lanes with the fixed
//   tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The scalar reference
//   implements exactly this chain, which is what an 8-wide vector kernel
//   produces naturally.
//
//   A reduction axis of length zero leaves C untouched (no "+= 0").
//
// Kernels never contract multiply+add into FMA (kernels.cpp is built with
// -ffp-contract=off), so the chains above are exact on every backend.
//
// Threading stays *outside* the backends: the free-function wrappers
// (kernels::gemm etc.) partition output rows over the global ThreadPool and
// call the active backend per disjoint slice. Chains are per-element, so
// results are bit-identical for any thread count and any partition.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_NN_KERNELS_H
#define SNOWWHITE_NN_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace snowwhite {
namespace nn {
namespace kernels {

// --- Post-training int8 quantization ----------------------------------------

/// A weight matrix quantized to int8 with one dequantization scale per row
/// (the reduction axis of y = x W, so scales fold into the activation
/// broadcast). Inference-only: gradients never see this representation.
struct QuantizedMatrix {
  size_t Rows = 0, Cols = 0;
  std::vector<int8_t> Data;    ///< Row-major [Rows, Cols].
  std::vector<float> RowScale; ///< [Rows]; Data[r]*RowScale[r] ~ W[r].
};

/// Symmetric per-row quantization: scale_r = maxabs(row r) / 127, values
/// round-to-nearest. Degenerate rows are well-defined by construction: an
/// all-zero (or otherwise maxabs == 0) row gets scale 0 and all-zero codes —
/// no division by the zero range ever happens, so scales are always finite.
QuantizedMatrix quantizeRowwise(const float *W, size_t Rows, size_t Cols);

/// Dequantizes one row into Out[Cols] (tests and debugging).
void dequantizeRow(const QuantizedMatrix &Q, size_t Row, float *Out);

// --- Backend registry --------------------------------------------------------

/// One kernel backend: a name plus the four accumulate-into-C primitives.
/// All primitives follow the accumulation-chain contract in the file header.
struct KernelBackend {
  const char *Name;
  /// C[M,N] += A[M,K] * B[K,N]. Row-major, dense.
  void (*Gemm)(size_t M, size_t K, size_t N, const float *A, const float *B,
               float *C);
  /// C[M,N] += A[M,K] * B[N,K]^T (B stored row-major [N,K]).
  void (*GemmTB)(size_t M, size_t K, size_t N, const float *A, const float *B,
                 float *C);
  /// C[K,N] += A^T * B where A is [M, Lda] row-major and only its first K
  /// columns participate (Lda lets callers hand in a column slice of a wider
  /// matrix); B is [M,N].
  void (*GemmTA)(size_t M, size_t K, size_t N, size_t Lda, const float *A,
                 const float *B, float *C);
  /// C[M,N] += A[M,K] * diag(Scale) * Q[K,N], dequantize-on-accumulate:
  /// term p of row i is (A[i][p] * Scale[p]) * float(Q[p][j]).
  void (*GemmInt8)(size_t M, size_t K, size_t N, const float *A,
                   const int8_t *Q, const float *Scale, float *C);
};

/// All registered backends, in registration order (reference first).
const std::vector<const KernelBackend *> &registry();

/// Lookup by name ("reference", "tuned", "differential"); nullptr if unknown.
const KernelBackend *find(std::string_view Name);

/// The backend the graph routes through. Resolution order: the last
/// successful setActive() call, else the SNOWWHITE_KERNEL environment
/// variable (unknown names are ignored), else "tuned".
const KernelBackend &active();
const char *activeName();

/// Selects the active backend by name. Returns false (and changes nothing)
/// for unknown names. Not thread-safe against in-flight kernels; call it
/// from setup code only.
bool setActive(std::string_view Name);

/// True when the tuned backend dispatched to a SIMD implementation on this
/// machine (false means it is running the portable blocked fallback).
bool tunedIsVectorized();

/// Human-readable tuned dispatch target: "avx2" or "portable".
const char *tunedDispatchName();

/// Bitwise tuned-vs-reference divergences observed by the `differential`
/// backend since process start. Any nonzero value is a bug.
uint64_t differentialMismatches();

// --- Threaded entry points (what Graph calls) --------------------------------

void gemm(size_t M, size_t K, size_t N, const float *A, const float *B,
          float *C);
void gemmTB(size_t M, size_t K, size_t N, const float *A, const float *B,
            float *C);
void gemmTA(size_t M, size_t K, size_t N, size_t Lda, const float *A,
            const float *B, float *C);
void gemmInt8(size_t M, size_t K, size_t N, const float *A, const int8_t *Q,
              const float *Scale, float *C);

/// Runs Body over disjoint row ranges of [0, Rows), fanning out over the
/// global pool only when the total work clears the dispatch-overhead
/// threshold. A single row can never be split, so Rows == 1 always runs
/// inline (beam-search GEMV steps must not pay pool overhead; see
/// poolDispatchCount). Exposed for the non-matmul kernels in graph.cpp.
void parallelOverRows(size_t Rows, size_t WorkPerRow,
                      const std::function<void(size_t, size_t)> &Body);

/// Number of times a kernel actually fanned out over the thread pool.
/// Regression hook for the tiny-shape fast path: serving-sized calls must
/// leave this counter untouched.
uint64_t poolDispatchCount();

} // namespace kernels
} // namespace nn
} // namespace snowwhite

#endif // SNOWWHITE_NN_KERNELS_H
