//===- perfbench/probe.cpp - Same-thread reference probe ------------------===//
//
// A 32x32x32 scalar single-precision GEMM over fixed data. Compiled with
// fixed flags (see CMakeLists.txt) so a change anywhere else in the build
// cannot change the probe's code, and with its code and data aligned to 64
// bytes so a change cannot move it either: on the x86-64 VM the benchmark
// was tuned on, the same kernel's best time was 15 us at some offsets mod 64
// and 28 us at others.
//
//===----------------------------------------------------------------------===//

#include "probe.h"

#include <algorithm>
#include <chrono>

namespace perfbench {
namespace {

constexpr int N = 32;

volatile float ProbeSink;

struct alignas(64) ProbeData {
  float A[N * N];
  float B[N * N];
  float C[N * N];
  ProbeData() {
    for (int I = 0; I < N * N; ++I) {
      A[I] = static_cast<float>((I * 7) % 13) * 0.125f;
      B[I] = static_cast<float>((I * 5) % 11) * 0.25f;
    }
  }
};

ProbeData &data() {
  static ProbeData D;
  return D;
}

/// The kernel. The result is folded into a volatile sink so the loop cannot
/// be removed.
void kernel(ProbeData &D) {
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int K = 0; K < N; ++K)
        Acc += D.A[I * N + K] * D.B[K * N + J];
      D.C[I * N + J] = Acc;
    }
  ProbeSink = D.C[(N * N) / 2];
}

} // namespace

uint64_t probeNs(int Reps) {
  ProbeData &D = data();
  uint64_t Best = UINT64_MAX;
  for (int R = 0; R < std::max(Reps, 1); ++R) {
    auto Start = std::chrono::steady_clock::now();
    kernel(D);
    auto End = std::chrono::steady_clock::now();
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count());
    Best = std::min(Best, Ns);
  }
  return Best;
}

} // namespace perfbench
