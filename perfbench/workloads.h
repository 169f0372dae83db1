//===- perfbench/workloads.h - The benchmark's three workloads --*- C++ -*-===//
//
// Every workload runs the same three stages with a different emphasis:
//
//   set-up  generate the inputs and write the training corpus to disk
//           (repeated; its median is setup_s). The inputs' content is
//           fixed per workload; the seed arranges them (layout, order);
//   build   corpus on disk -> dataset::streamIngest -> model::Task ->
//           model::trainModel (the corpus -> model path);
//   answer  type queries through one model::ServeDaemon worker.
//
// annotate-cold spends its time answering fresh held-out binaries (read ->
// analyze -> extract -> decode), serve-repeat answers a skewed repeat stream
// from a warm cache, and corpus-to-model repeats the build on a larger
// corpus and answers its test split. All of it runs on one thread; see
// README.md for why and for the metric -> layer map.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_PERFBENCH_WORKLOADS_H
#define SNOWWHITE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;  ///< Tiny inputs and budgets, for the benchmark's tests.
  std::string WorkDir; ///< Where set-up writes the corpus files.
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> Metrics;
  /// Run metadata and raw diagnostics: name -> JSON value text.
  std::vector<std::pair<std::string, std::string>> Meta;
  std::vector<std::string> Failures; ///< One line per failed check.
};

/// The workload names, as BENCHMARK.json lists them (with why each was
/// chosen).
const std::vector<std::string> &workloadNames();

/// A double as JSON text with all its digits (non-finite values print 0).
std::string jsonNumber(double V);

/// Runs one workload. Never throws on a failed check: the failure is
/// recorded in the result and Correct is cleared.
RunResult runWorkload(const Options &Opts);

/// FNV digest of everything set-up generates for Opts.Seed (corpus file
/// paths and bytes, held-out modules and their order, the repeat stream).
/// Writes the corpus under Opts.WorkDir like the real set-up does.
uint64_t inputDigest(const Options &Opts);

} // namespace perfbench

#endif // SNOWWHITE_PERFBENCH_WORKLOADS_H
