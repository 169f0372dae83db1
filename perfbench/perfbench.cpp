//===- perfbench/perfbench.cpp - Benchmark program entry point ------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-sha SHA] [--build-type T] [--smoke]
//   perfbench --digest --workload NAME --seed N [--work-dir DIR] [--smoke]
//   perfbench --selftest
//
// A run prints two JSON lines on stdout: the snowwhite.bench.v1 record (run
// metadata, sample counts, probe diagnostics, failed checks), then the
// result object {"correct", "attempted", "failed", "metrics"}. It exits 1
// when a correctness check failed and 2 on a usage error. run.py builds this
// binary and is the intended entry point.
//
//===----------------------------------------------------------------------===//

#include "probe.h"
#include "stats.h"
#include "workloads.h"

#include "nn/kernels.h"
#include "support/thread_pool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

int selfTest() {
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::printf("FAIL %s\n", What);
      ++Failures;
    }
  };
  // Nearest-rank percentiles and the ten-beyond rule.
  Expect(rankIndex(1000, 990) == 989, "rankIndex(1000, p99) == 989");
  Expect(samplesBeyond(1000, 990) == 10, "1000 samples leave 10 beyond p99");
  Expect(samplesBeyond(999, 990) == 9, "999 samples leave 9 beyond p99");
  Expect(rankIndex(1, 500) == 0 && rankIndex(2, 500) == 0 &&
             rankIndex(3, 500) == 1,
         "rankIndex small counts");
  std::vector<double> Values;
  for (int I = 1000; I >= 1; --I)
    Values.push_back(I);
  Percentile P99 = percentile(Values, 990);
  Expect(P99.Value == 990.0 && P99.Beyond == 10 && P99.Supported,
         "p99 of 1..1000 is 990 with 10 beyond");
  Values.pop_back();
  Expect(!percentile(Values, 990).Supported, "p99 of 999 samples unsupported");
  Expect(percentile(Values, 500).Supported, "p50 always supported");
  Expect(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
         "median odd and even");
  // Probe arithmetic: a unit measured while the probe read twice its
  // reference time is reported at half its raw time.
  Expect(calibrate(1000.0, 2.0 * ProbeRefNs) == 500.0, "calibrate halves");
  Expect(calibrate(1000.0, ProbeRefNs) == 1000.0, "calibrate identity");
  Expect(calibrate(1000.0, 0.0) == 1000.0, "calibrate zero probe");
  uint64_t Probe = probeNs();
  Expect(Probe > 0, "probe measures a positive time");
  std::printf("probe_ns %llu\n", static_cast<unsigned long long>(Probe));
  if (Failures == 0)
    std::printf("selftest ok\n");
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  std::string GitSha = "unknown", BuildType = "unknown";
  bool Digest = false;
  bool TraceSet = false, SeedSet = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--selftest")
      return selfTest();
    if (Arg == "--workload") {
      Opts.Workload = Value();
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value(), nullptr, 10);
      SeedSet = true;
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::atof(Value());
    } else if (Arg == "--trace") {
      Opts.Trace = std::strcmp(Value(), "0") != 0;
      TraceSet = true;
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Value();
    } else if (Arg == "--git-sha") {
      GitSha = Value();
    } else if (Arg == "--build-type") {
      BuildType = Value();
    } else if (Arg == "--smoke") {
      Opts.Smoke = true;
    } else if (Arg == "--digest") {
      Digest = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
  }
  bool Known = false;
  for (const std::string &Name : workloadNames())
    Known |= Opts.Workload == Name;
  if (!Known || !SeedSet || (!Digest && !TraceSet) || Opts.Seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload "
                         "annotate-cold|serve-repeat|corpus-to-model --seed N "
                         "--seconds S --trace 0|1\n");
    return 2;
  }
  if (Opts.WorkDir.empty())
    Opts.WorkDir = (std::filesystem::temp_directory_path() /
                    ("perfbench-" + Opts.Workload))
                       .string();

  // One thread: the machine's slow periods are per vCPU (README.md).
  snowwhite::ThreadPool::resetGlobal(1);

  if (Digest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(inputDigest(Opts)));
    return 0;
  }

  RunResult Res = runWorkload(Opts);

  const char *Threads = std::getenv("SNOWWHITE_THREADS");
  std::string Record = "{\"schema\": \"snowwhite.bench.v1\"";
  auto Field = [&](const std::string &Name, const std::string &Json) {
    Record += ", " + jsonString(Name) + ": " + Json;
  };
  Field("workload", jsonString(Opts.Workload));
  Field("seed", std::to_string(Opts.Seed));
  Field("seconds", jsonNumber(Opts.Seconds));
  Field("trace", Opts.Trace ? "true" : "false");
  Field("smoke", Opts.Smoke ? "true" : "false");
  Field("git_sha", jsonString(GitSha));
  Field("build_type", jsonString(BuildType));
  Field("kernel", jsonString(snowwhite::nn::kernels::activeName()));
  Field("snowwhite_threads", jsonString(Threads ? Threads : ""));
  Field("nproc", std::to_string(std::thread::hardware_concurrency()));
  Field("daemon_workers", "1");
  for (const auto &[Name, Json] : Res.Meta)
    Field(Name, Json);
  std::string Failures = "[";
  for (size_t I = 0; I < Res.Failures.size(); ++I)
    Failures += (I ? ", " : "") + jsonString(Res.Failures[I]);
  Field("failures", Failures + "]");
  std::printf("%s}\n", Record.c_str());

  std::string Metrics;
  for (const Metric &M : Res.Metrics)
    Metrics += (Metrics.empty() ? "" : ", ") + jsonString(M.Name) +
               ": {\"value\": " + jsonNumber(M.Value) +
               ", \"unit\": " + jsonString(M.Unit) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Res.Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed), Metrics.c_str());
  for (const std::string &F : Res.Failures)
    std::fprintf(stderr, "check failed: %s\n", F.c_str());
  return Res.Correct ? 0 : 1;
}
