//===- perfbench/probe.h - Same-thread reference probe -----------*- C++ -*-===//
//
// The machine this benchmark runs on changes speed underneath a process: a
// fixed loop runs at one of two speeds (about 2x apart), and each state lasts
// from hundreds of milliseconds to a whole run. Raw wall times therefore
// spread far more than any code change worth detecting. The probe is a fixed
// scalar kernel, compiled into the benchmark with fixed flags and linking no
// program code, whose time tracks that speed state. Every measured unit of
// work is divided by a probe taken on the same thread right before it and
// multiplied by the calibration constant, so reported times read "as if the
// machine were in its reference state".
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_PERFBENCH_PROBE_H
#define SNOWWHITE_PERFBENCH_PROBE_H

#include <cstdint>

namespace perfbench {

/// The probe time the calibration maps to, in nanoseconds: a round figure
/// for the probe on the 4-vCPU x86-64 VM the benchmark was tuned on (its
/// per-run median ranged 28-45 us there). Calibrated times are in
/// "reference nanoseconds"; changing this constant rescales every reported
/// time and breaks comparison with older records.
inline constexpr double ProbeRefNs = 40000.0;

/// Back-to-back repetitions per probe; the minimum is kept so the probe's
/// own data is warm in cache.
inline constexpr int ProbeReps = 3;

/// One probe: the minimum wall time over Reps runs of the kernel, in ns.
uint64_t probeNs(int Reps = ProbeReps);

/// Raw -> calibrated time: Raw * ProbeRefNs / Probe. A probe of 0 (which a
/// steady clock cannot produce for this kernel) returns Raw unchanged.
inline double calibrate(double RawNs, double ProbeNsValue) {
  return ProbeNsValue > 0.0 ? RawNs * ProbeRefNs / ProbeNsValue : RawNs;
}

} // namespace perfbench

#endif // SNOWWHITE_PERFBENCH_PROBE_H
