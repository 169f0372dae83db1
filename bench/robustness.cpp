//===- bench/robustness.cpp - Robustness and crash-safe serving tables -----===//
//
// Prints the tables behind EXPERIMENTS.md's robustness sections, in this
// order:
//
//   1. peak RSS of a streamed vs. a buffered decode of a module with a
//      256 MiB skipped data section. It runs first because ru_maxrss is a
//      process-wide high-water mark: any earlier table would raise it.
//   2. fault injection: a growing fraction of a fixed corpus corrupted, the
//      lenient pipeline run, a small model trained on the survivors.
//   3. self-healing recovery: NaN gradients injected into a growing number
//      of batches; batches skipped, rollbacks, wall-clock delta.
//   4. degradation ladder: a request batch at growing injected model-failure
//      rates; answers per tier (answered must stay 100%).
//   5. ingest journal overhead: one on-disk corpus ingested with no journal,
//      per-file and every-8 journal cadences, and a kill-halfway + resume.
//   6. crash-safe serving: snapshot save/load time, the hit rate of a daemon
//      restarted from its snapshot, and the shed rate of an overload burst.
//
// Takes no arguments; seed 1 throughout. Every column but the wall-clock
// ones is deterministic. Scratch files live in a per-process directory
// under the system temp directory, removed on exit.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "model/serve_daemon.h"
#include "model/serving.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "wasm/reader.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace snowwhite;

namespace {

constexpr uint64_t Seed = 1;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

int runRssTable(const ScratchDir &Scratch) {
  constexpr size_t PayloadBytes = 256u << 20; // 256 MiB data section.
  std::string Path = Scratch.path("rss.wasm");
  {
    // Written chunk-wise on purpose: materializing the payload in one
    // vector here would ratchet ru_maxrss up before either measurement.
    std::vector<uint8_t> Header = {0x00, 'a', 's', 'm', 1, 0, 0, 0};
    Header.push_back(11); // data section: skipped, streamed through
    uint64_t Size = PayloadBytes;
    while (Size >= 0x80) {
      Header.push_back(static_cast<uint8_t>(Size) | 0x80);
      Size >>= 7;
    }
    Header.push_back(static_cast<uint8_t>(Size));
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::vector<uint8_t> Chunk(1u << 20, 0xAA);
    bool Ok = std::fwrite(Header.data(), 1, Header.size(), Out) ==
              Header.size();
    for (size_t Written = 0; Ok && Written < PayloadBytes;
         Written += Chunk.size())
      Ok = std::fwrite(Chunk.data(), 1, Chunk.size(), Out) == Chunk.size();
    Ok = std::fclose(Out) == 0 && Ok;
    if (!Ok) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 1;
    }
  }
  auto MaxRssKb = []() {
    struct rusage Usage;
    getrusage(RUSAGE_SELF, &Usage);
    return static_cast<uint64_t>(Usage.ru_maxrss);
  };

  std::printf("| decode path | file | peak-RSS delta |\n");
  std::printf("|-------------|-----:|---------------:|\n");
  uint64_t Before = MaxRssKb();
  {
    io::FileByteSource Source(Path, 64 * 1024);
    Result<wasm::Module> Mod = wasm::readModuleStreamed(Source);
    if (Mod.isErr()) {
      std::fprintf(stderr, "error: streamed decode failed: %s\n",
                   Mod.error().message().c_str());
      return 1;
    }
  }
  std::printf("| streamed (64 KiB window) | %zu MiB | %llu KiB |\n",
              PayloadBytes >> 20,
              static_cast<unsigned long long>(MaxRssKb() - Before));
  Before = MaxRssKb();
  {
    Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Path);
    if (Bytes.isErr()) {
      std::fprintf(stderr, "error: buffered read failed\n");
      return 1;
    }
    Result<wasm::Module> Mod = wasm::readModule(*Bytes);
    if (Mod.isErr()) {
      std::fprintf(stderr, "error: buffered decode failed: %s\n",
                   Mod.error().message().c_str());
      return 1;
    }
  }
  std::printf("| buffered (whole file) | %zu MiB | %llu KiB |\n",
              PayloadBytes >> 20,
              static_cast<unsigned long long>(MaxRssKb() - Before));
  std::filesystem::remove(Path);
  return 0;
}

int runFaultTable() {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 30;
  Spec.Seed = 42;
  const double Rates[] = {0.0, 0.05, 0.10, 0.20, 0.40};

  std::printf("| fault rate | corrupted | quarantined | samples | "
              "valid loss |\n");
  std::printf("|-----------:|----------:|------------:|--------:|"
              "-----------:|\n");
  for (double Rate : Rates) {
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, static_cast<uint64_t>(Rate * 1000));
    fault::FaultInjector Injector(Config);
    Rng Pick(hashCombine(Seed, 0x9c0ffee));
    uint64_t Corrupted = 0;
    for (frontend::Package &Pkg : Corpus.Packages)
      for (frontend::CompiledObject &Object : Pkg.Objects)
        if (Rate > 0.0 && Pick.nextBool(Rate)) {
          Injector.corrupt(Object.Bytes);
          ++Corrupted;
        }

    dataset::Dataset Data = dataset::buildDataset(Corpus);
    model::Task Task(Data, model::TaskOptions{});
    model::TrainOptions Options;
    Options.MaxEpochs = 1;
    Options.Verbose = false;
    model::TrainResult Trained = model::trainModel(Task, Options);
    std::printf("| %9.0f%% | %9llu | %11llu | %7zu | %10.4f |\n",
                Rate * 100.0, static_cast<unsigned long long>(Corrupted),
                static_cast<unsigned long long>(Data.Quarantine.total()),
                Data.Samples.size(), Trained.BestValidLoss);
    std::fflush(stdout);
  }
  return 0;
}

int runRecoveryTable() {
  bench::TinyFixture Fixture = bench::makeTinyFixture(Seed);
  Fixture.Options.Recovery.RollbackAfterConsecutive = 2;

  // Clean reference run for the wall-clock delta.
  model::TrainResult Clean =
      model::trainModel(*Fixture.BoundTask, Fixture.Options);

  std::printf("| poisoned batches | skipped | rollbacks | lr backoffs | "
              "diverged | wall-clock delta |\n");
  std::printf("|-----------------:|--------:|----------:|------------:|"
              ":--------:|-----------------:|\n");
  const std::vector<std::vector<uint64_t>> PoisonSets = {
      {}, {3}, {2, 5}, {2, 3, 4}, {1, 2, 3, 4, 5, 6}};
  for (const std::vector<uint64_t> &Poison : PoisonSets) {
    fault::FaultConfig Config;
    Config.Seed = Seed;
    Config.PoisonGradBatches = Poison;
    fault::FaultInjector Injector(Config);
    model::TrainOptions Options = Fixture.Options;
    Options.Faults = &Injector;
    model::TrainResult Run = model::trainModel(*Fixture.BoundTask, Options);
    std::printf("| %16zu | %7zu | %9zu | %11zu | %8s | %15.2fs |\n",
                Poison.size(), Run.Recovery.BatchesSkipped,
                Run.Recovery.Rollbacks, Run.Recovery.LrBackoffs,
                Run.Recovery.Diverged ? "yes" : "no",
                Run.TrainSeconds - Clean.TrainSeconds);
    std::fflush(stdout);
  }
  return 0;
}

int runServingTable(const bench::TinyFixture &Fixture,
                    nn::Seq2SeqModel &Model) {
  std::printf("| model failure rate | requests | answered | beam | greedy | "
              "baseline |\n");
  std::printf("|-------------------:|---------:|---------:|-----:|-------:|"
              "---------:|\n");
  for (double Rate : {0.0, 0.2, 0.5, 0.8}) {
    fault::FaultConfig Config;
    Config.Seed = Seed;
    Config.ModelFailureRate = Rate;
    fault::FaultInjector Injector(Config);
    model::ServingOptions Opts;
    Opts.TopK = 3;
    Opts.DefaultStepBudget = 128;
    if (Rate > 0.0)
      Opts.Faults = &Injector;
    model::ServingEngine Engine(Model, *Fixture.BoundTask, Opts);
    size_t Requests = 0;
    for (uint32_t Index : Fixture.Data.Test) {
      if (Requests >= 64)
        break;
      model::ServeRequest Request;
      Request.Id = Requests++;
      Request.InputTokens = Fixture.Data.Samples[Index].Input;
      if (Engine.processOne(Request).Predictions.empty()) {
        std::fprintf(stderr, "FAIL: request %llu got no prediction\n",
                     static_cast<unsigned long long>(Request.Id));
        return 1;
      }
    }
    const model::ServingStats &Stats = Engine.stats();
    std::printf("| %17.0f%% | %8zu | %7.0f%% | %4llu | %6llu | %8llu |\n",
                Rate * 100.0, Requests,
                Requests == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(Stats.Answered) /
                          static_cast<double>(Requests),
                static_cast<unsigned long long>(Stats.BeamAnswers),
                static_cast<unsigned long long>(Stats.GreedyAnswers),
                static_cast<unsigned long long>(Stats.BaselineAnswers));
    std::fflush(stdout);
  }
  return 0;
}

int runIngestTable(const ScratchDir &Scratch) {
  // Lay a synthetic corpus out on disk the way ingest sees real ones.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 60;
  Spec.Seed = Seed ^ 0x16e57;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  std::string Root = Scratch.path("ingest");
  for (const frontend::Package &Pkg : Corpus.Packages) {
    std::string Dir = Root + "/" + Pkg.Name;
    std::filesystem::create_directories(Dir);
    for (size_t O = 0; O < Pkg.Objects.size(); ++O)
      if (io::writeFileAtomic(Dir + "/obj" + std::to_string(O) + ".wasm",
                              Pkg.Objects[O].Bytes)
              .isErr()) {
        std::fprintf(stderr, "error: cannot write corpus\n");
        return 1;
      }
  }
  Result<std::vector<dataset::IngestFile>> Files =
      dataset::discoverWasmFiles(Root);
  if (Files.isErr()) {
    std::fprintf(stderr, "error: %s\n", Files.error().message().c_str());
    return 1;
  }
  std::string JournalPath = Root + "/ingest.journal";

  auto TimedRun = [&](const dataset::StreamIngestOptions &Options,
                      double &Seconds)
      -> Result<dataset::StreamIngestResult> {
    auto Start = std::chrono::steady_clock::now();
    Result<dataset::StreamIngestResult> Out =
        dataset::streamIngest(*Files, Options);
    Seconds = secondsSince(Start);
    return Out;
  };

  std::printf("| variant | files | wall | journal publishes | replayed |\n");
  std::printf("|---------|------:|-----:|------------------:|---------:|\n");
  auto Row = [&](const char *Name, const dataset::StreamIngestResult &R,
                 double Seconds) {
    std::printf("| %s | %zu | %.3fs | %llu | %llu |\n", Name, Files->size(),
                Seconds,
                static_cast<unsigned long long>(R.JournalPublishes),
                static_cast<unsigned long long>(R.FilesReplayed));
    std::fflush(stdout);
  };

  double Seconds = 0.0;
  dataset::StreamIngestOptions Options;
  Result<dataset::StreamIngestResult> R = TimedRun(Options, Seconds);
  if (R.isErr())
    return 1;
  Row("no journal", *R, Seconds);

  for (uint64_t Every : {1ull, 8ull}) {
    std::filesystem::remove(JournalPath);
    Options.JournalPath = JournalPath;
    Options.JournalEvery = Every;
    R = TimedRun(Options, Seconds);
    if (R.isErr())
      return 1;
    Row(Every == 1 ? "journal, every file" : "journal, every 8", *R,
        Seconds);
  }

  // Kill halfway, then measure the resumed run (replay + remainder).
  std::filesystem::remove(JournalPath);
  fault::FaultConfig CrashConfig;
  CrashConfig.CrashAtTick = Files->size() / 2;
  fault::FaultInjector CrashFaults(CrashConfig);
  Options.JournalEvery = 8;
  Options.Faults = &CrashFaults;
  R = TimedRun(Options, Seconds);
  if (R.isErr() || !R->Crashed) {
    std::fprintf(stderr, "error: injected crash did not fire\n");
    return 1;
  }
  Options.Faults = nullptr;
  Options.Resume = true;
  R = TimedRun(Options, Seconds);
  if (R.isErr())
    return 1;
  Row("killed halfway + resume", *R, Seconds);
  return 0;
}

/// Submits the whole stream, pumping after every 64 submissions and
/// whenever admission sheds (the shed request is then retried once).
void runPass(model::ServeDaemon &Daemon,
             const std::vector<std::vector<std::string>> &Stream) {
  uint64_t NextId = 0;
  size_t InFlight = 0;
  for (const std::vector<std::string> &Input : Stream) {
    model::DaemonRequest Request;
    Request.Request.Id = NextId++;
    Request.Request.InputTokens = Input;
    if (Daemon.submit(Request).Outcome != model::AdmitOutcome::Admitted) {
      Daemon.pump();
      InFlight = 0;
      Request.Request.Id = NextId++;
      Daemon.submit(std::move(Request));
    }
    if (++InFlight >= 64) {
      Daemon.pump();
      InFlight = 0;
    }
  }
  Daemon.pump();
}

int runCrashSafeTable(const bench::TinyFixture &Fixture,
                      nn::Seq2SeqModel &Model,
                      const ScratchDir &Scratch) {
  // A dedup-heavy stream: 64 distinct inputs, each repeated 16 times,
  // round-robin interleaved.
  constexpr size_t Unique = 64, Repeats = 16;
  std::vector<std::vector<std::string>> Stream;
  for (size_t Round = 0; Round < Repeats; ++Round)
    for (size_t I = 0; I < Unique && I < Fixture.Data.Samples.size(); ++I)
      Stream.push_back(Fixture.Data.Samples[I].Input);

  model::DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 128;
  Opts.Serving.QueueCapacity = 128;
  Opts.SnapshotPath = Scratch.path("daemon.snapshot");

  model::ServeDaemon Original(Model, *Fixture.BoundTask, Opts);
  runPass(Original, Stream); // Warms the cache with every distinct input.
  uint64_t Entries = Original.cache()->totals().Entries;
  auto Start = std::chrono::steady_clock::now();
  if (Original.saveSnapshotNow().isErr()) {
    std::fprintf(stderr, "error: snapshot save failed\n");
    return 1;
  }
  double SaveSeconds = secondsSince(Start);
  Original.shutdown();

  // The restarted daemon loads the snapshot, then serves the same stream:
  // every request should hit the reloaded cache.
  model::ServeDaemon Restarted(Model, *Fixture.BoundTask, Opts);
  Start = std::chrono::steady_clock::now();
  Result<model::SnapshotLoadReport> Loaded = Restarted.loadSnapshotNow();
  double LoadSeconds = secondsSince(Start);
  if (Loaded.isErr()) {
    std::fprintf(stderr, "error: snapshot load failed\n");
    return 1;
  }
  runPass(Restarted, Stream);
  uint64_t RestartHits = Restarted.cache()->totals().Hits;
  Restarted.shutdown();

  // Overload: the whole stream in one burst against a small per-shard cost
  // budget, pumping only when admission sheds.
  model::DaemonOptions OverloadOpts = Opts;
  OverloadOpts.SnapshotPath.clear();
  OverloadOpts.Serving.QueueCapacity = 4096;
  OverloadOpts.ShardCostBudget = 8 * Opts.Serving.DefaultStepBudget;
  model::ServeDaemon Overloaded(Model, *Fixture.BoundTask, OverloadOpts);
  uint64_t NextId = 0, Shed = 0, RetryRoundsHinted = 0;
  for (const std::vector<std::string> &Input : Stream) {
    model::DaemonRequest Request;
    Request.Request.Id = NextId++;
    Request.Request.InputTokens = Input;
    model::AdmitResult Admit = Overloaded.submit(std::move(Request));
    if (Admit.Outcome == model::AdmitOutcome::RejectedOverload) {
      ++Shed;
      RetryRoundsHinted += Admit.RetryAfterRounds;
      Overloaded.pump(); // The shed client's backoff round.
    }
  }
  Overloaded.pump();
  model::ServingStats OverloadTotals = Overloaded.engineTotals();
  Overloaded.shutdown();
  if (!Overloaded.checkStats()) {
    std::fprintf(stderr, "error: overload daemon stats inconsistent\n");
    return 1;
  }

  auto Pct = [](uint64_t Part, size_t Whole) {
    return Whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(Part) /
                            static_cast<double>(Whole);
  };
  std::printf("| metric | value |\n");
  std::printf("|--------|-------|\n");
  std::printf("| snapshot save (%llu entries) | %.2f ms |\n",
              static_cast<unsigned long long>(Entries), SaveSeconds * 1e3);
  std::printf("| snapshot load (%llu entries, %llu/%llu segments) | "
              "%.2f ms |\n",
              static_cast<unsigned long long>(Loaded->EntriesLoaded),
              static_cast<unsigned long long>(Loaded->SegmentsLoaded),
              static_cast<unsigned long long>(Loaded->SegmentsTotal),
              LoadSeconds * 1e3);
  std::printf("| warm-restart pass (%zu requests) | %.1f%% cache hits |\n",
              Stream.size(), Pct(RestartHits, Stream.size()));
  std::printf("| overload burst (%zu requests, cost budget %llu) | shed "
              "%llu (%.1f%%), answered %llu, mean retry-after %.1f rounds |\n",
              Stream.size(),
              static_cast<unsigned long long>(OverloadOpts.ShardCostBudget),
              static_cast<unsigned long long>(Shed), Pct(Shed, Stream.size()),
              static_cast<unsigned long long>(OverloadTotals.Answered),
              Shed == 0 ? 0.0
                        : static_cast<double>(RetryRoundsHinted) /
                              static_cast<double>(Shed));
  return 0;
}

} // namespace

int main() {
  ScratchDir Scratch("snowwhite_robustness");

  std::printf("Peak RSS: streamed vs. buffered decode\n\n");
  if (runRssTable(Scratch) != 0)
    return 1;
  std::printf("\nFault injection: dataset survival and validation loss\n\n");
  if (runFaultTable() != 0)
    return 1;
  std::printf("\nSelf-healing recovery overhead\n\n");
  if (runRecoveryTable() != 0)
    return 1;

  bench::TinyFixture Fixture = bench::makeTinyFixture(Seed);
  model::TrainResult Trained =
      model::trainModel(*Fixture.BoundTask, Fixture.Options);
  std::printf("\nDegradation ladder: answers per tier\n\n");
  if (runServingTable(Fixture, *Trained.Model) != 0)
    return 1;
  std::printf("\nIngest journal overhead\n\n");
  if (runIngestTable(Scratch) != 0)
    return 1;
  std::printf("\nCrash-safe serving (2 workers)\n\n");
  return runCrashSafeTable(Fixture, *Trained.Model, Scratch);
}
