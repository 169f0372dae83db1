//===- perfbench/workloads.cpp - The benchmark's three workloads ----------===//
//
// Timing rules (README.md has the measurements behind them):
//  - everything runs on the calling thread (SNOWWHITE_THREADS=1, one daemon
//    worker), because the machine's slow periods are per vCPU;
//  - every timing is the best of repeated identical units of at most about
//    a second, each calibrated by probes taken on the same thread next to
//    it (probe.h);
//  - layers are timed from outside, around calls to their public functions,
//    and only in the traced run; counts come from the program's own
//    telemetry registry and stats structs.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "probe.h"
#include "stats.h"

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/paths.h"
#include "dataset/extract.h"
#include "dataset/pipeline.h"
#include "dwarf/io.h"
#include "frontend/corpus.h"
#include "model/serve_daemon.h"
#include "model/task.h"
#include "model/trainer.h"
#include "nn/kernels.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "typelang/from_dwarf.h"
#include "typelang/variants.h"
#include "wasm/reader.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace snowwhite;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t splitMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

// What the workload seed varies. The *content* of every input is fixed per
// workload -- the training corpora, the held-out binaries, the serving hot
// set -- so the trained models, their validation loss and every accuracy
// figure are identical in every run (the trainer's bit-identity contract
// makes that checkable). The seed varies how the same work arrives: the
// corpus's on-disk layout, the order of held-out binaries and test queries,
// and the repeat stream's request sequence. Per-seed content would make the
// spread across seeds measure the inputs rather than the code.
constexpr uint64_t ServingCorpusSeed = 20220613; ///< The served model's.
constexpr uint64_t HeldOutCorpusSeed = 20220614; ///< Disjoint from training.
constexpr uint64_t C2mCorpusSeed = 20220615;     ///< corpus-to-model's.
constexpr uint64_t HotSetSeed = 20220616;        ///< serve-repeat's ranking.

/// Per-stream seeds derived from the workload seed.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  return splitMix(Seed * 0x100000001b3ULL + Stream);
}

/// A seeded permutation of 0..N-1.
std::vector<uint32_t> permutation(uint64_t Seed, size_t N) {
  std::vector<uint32_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = static_cast<uint32_t>(I);
  Rng R(Seed);
  R.shuffle(Order);
  return Order;
}

enum class Kind { AnnotateCold, ServeRepeat, CorpusToModel };

/// The counts of repeated units (Units, Builds) are for a run of
/// RefSeconds and scale with --seconds. They are fixed by --seconds alone,
/// not by how fast the machine happens to be: the best of fewer repetitions
/// reads slower, so a time budget would count a slow period twice. They are
/// sized so a run takes about --seconds on the VM the benchmark was tuned
/// on, longer in its slow periods.
constexpr double RefSeconds = 30.0;

struct Sizes {
  uint32_t CorpusPackages = 40; ///< Training corpus written to disk.
  double TrainFraction = 0.8;   ///< Split by file; validation is 0.1.
  size_t MaxTrainSamples = 480; ///< 30 batches: training takes ~0.5 s.
  uint32_t HeldOutPackages = 0; ///< Held-out binaries (serving workloads).
  unsigned SetupReps = 15;
  unsigned Units = 8;  ///< Timed units (rounds, blocks of windows, builds).
  unsigned Builds = 9; ///< Serving: builds spread over the units.
  size_t UniqueSlots = 256; ///< serve-repeat: distinct requests.
  size_t Window = 64;       ///< Requests per pump (serve-repeat, c2m).
};

/// One training budget for every workload (one epoch of 480 samples): a
/// build takes about a second on one thread, so each of its stages is a
/// unit short enough to calibrate, and the model is trained far enough to
/// emit short, well-formed types instead of running every beam to its
/// length cap.
Sizes sizesFor(Kind K, bool Smoke, double Seconds) {
  Sizes S;
  if (K == Kind::CorpusToModel) {
    // A larger corpus with a 50/10/40 split, so each build's test split
    // has the ~1000 queries p99 needs; training stays capped.
    S.CorpusPackages = 100;
    S.TrainFraction = 0.5;
    S.Units = 9; // Each unit is a build.
  } else {
    S.HeldOutPackages = 40;
  }
  if (K == Kind::ServeRepeat) {
    S.Units = 26;
    S.Builds = 13;
  }
  auto Scale = [&](unsigned N) {
    return static_cast<unsigned>(std::lround(N * Seconds / RefSeconds));
  };
  S.Units = std::max(3u, Scale(S.Units)); // Best of at least three.
  S.Builds = std::max(1u, Scale(S.Builds));
  if (Smoke) {
    S.CorpusPackages = 6;
    S.HeldOutPackages = S.HeldOutPackages ? 4 : 0;
    S.MaxTrainSamples = 64;
    S.SetupReps = 2;
    S.Builds = 1;
    S.Units = 2;
    S.UniqueSlots = 16;
  }
  return S;
}

Kind kindOf(const std::string &Name) {
  if (Name == "serve-repeat")
    return Kind::ServeRepeat;
  if (Name == "corpus-to-model")
    return Kind::CorpusToModel;
  return Kind::AnnotateCold;
}

//===----------------------------------------------------------------------===//
// Set-up: inputs generated from the seed
//===----------------------------------------------------------------------===//

/// One queried parameter slot of a held-out binary, with its DWARF type.
struct Slot {
  uint32_t Func = 0;
  uint32_t Param = 0;
  typelang::Type Rich;
  std::vector<std::string> Truth; ///< Lowered once the name vocabulary exists.
};

struct HeldOutModule {
  std::vector<uint8_t> Bytes;
  std::vector<Slot> Slots;
};

struct Inputs {
  std::vector<dataset::IngestFile> Files; ///< Training corpus on disk.
  std::vector<HeldOutModule> HeldOut;
  std::vector<uint32_t> Order; ///< Seeded order of HeldOut in a round.
};

/// The served type language. L_SW without names, const and class (the
/// paper's "Simplified" variant): a model small enough to train in seconds
/// learns it to a useful accuracy, while full L_SW names stay near zero.
constexpr typelang::TypeLanguageKind TargetLanguage =
    typelang::TypeLanguageKind::TL_SwSimplified;

dataset::ExtractOptions extractOptions() {
  dataset::ExtractOptions Extract;
  Extract.EvidenceTokens = true;
  Extract.PathTokens = true;
  return Extract;
}

frontend::Corpus makeCorpus(uint64_t Seed, uint32_t Packages) {
  frontend::CorpusSpec Spec;
  Spec.Seed = Seed;
  Spec.NumPackages = Packages;
  return frontend::buildCorpus(Spec);
}

/// Writes Bytes to Path without truncating an existing file. Set-up repeats
/// write byte-identical files to the same paths, so after the first they
/// rewrite cached pages instead of freeing and reallocating blocks (on a
/// filesystem mounted with `discard`, frees stall later writes).
bool writeInPlace(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N <= 0)
      break;
    Done += static_cast<size_t>(N);
  }
  return ::close(Fd) == 0 && Done == Bytes.size();
}

/// Lays the corpus out as one directory tree per package, nested to a
/// seeded depth as real project trees are, and discovers it the way
/// `snowwhite ingest` does. The package-number prefix keeps discovery order
/// (and so the dataset) independent of the layout.
bool writeCorpus(const frontend::Corpus &Corpus, const std::string &Dir,
                 uint64_t LayoutSeed, Inputs &Out, std::string &Error) {
  std::error_code Ec;
  Rng Layout(LayoutSeed);
  for (size_t P = 0; P < Corpus.Packages.size(); ++P) {
    const frontend::Package &Pkg = Corpus.Packages[P];
    char Prefix[32];
    std::snprintf(Prefix, sizeof(Prefix), "p%03zu-", P);
    std::string PkgDir = Dir + "/" + Prefix + Pkg.Name;
    for (uint64_t Depth = Layout.nextBelow(3); Depth > 0; --Depth)
      PkgDir += "/d" + std::to_string(Layout.nextBelow(100));
    fs::create_directories(PkgDir, Ec);
    for (size_t O = 0; O < Pkg.Objects.size(); ++O) {
      std::string Path = PkgDir + "/obj" + std::to_string(O) + ".wasm";
      const std::vector<uint8_t> &Bytes = Pkg.Objects[O].Bytes;
      if (!writeInPlace(Path, Bytes)) {
        Error = "cannot write " + Path;
        return false;
      }
    }
  }
  Result<std::vector<dataset::IngestFile>> Files =
      dataset::discoverWasmFiles(Dir);
  if (Files.isErr()) {
    Error = Files.error().message();
    return false;
  }
  Out.Files = Files.take();
  return true;
}

/// Held-out binaries with every parameter slot whose DWARF subprogram
/// matches the wasm signature (the pipeline's own matching rule).
bool makeHeldOut(const frontend::Corpus &Corpus, Inputs &Out,
                 std::string &Error) {
  typelang::ConvertOptions Convert;
  Convert.KeepNestedNames = true;
  for (const frontend::Package &Pkg : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Pkg.Objects) {
      Result<wasm::Module> Mod = wasm::readModule(Object.Bytes);
      if (Mod.isErr()) {
        Error = "held-out module: " + Mod.error().message();
        return false;
      }
      Result<dwarf::DebugInfo> Debug = dwarf::extractDebugInfo(*Mod);
      if (Debug.isErr()) {
        Error = "held-out DWARF: " + Debug.error().message();
        return false;
      }
      HeldOutModule Held;
      for (uint32_t F = 0; F < Mod->Functions.size(); ++F) {
        dwarf::DieRef Sub =
            Debug->findSubprogramByLowPc(Mod->Functions[F].CodeOffset);
        if (Sub == dwarf::InvalidDieRef)
          continue;
        std::vector<dwarf::DieRef> Params = Debug->formalParameters(Sub);
        if (Params.size() != Mod->functionType(F).Params.size())
          continue;
        for (uint32_t P = 0; P < Params.size(); ++P) {
          Slot S;
          S.Func = F;
          S.Param = P;
          S.Rich = typelang::typeFromDwarf(*Debug, Debug->typeOf(Params[P]),
                                           Convert);
          Held.Slots.push_back(std::move(S));
        }
      }
      if (Held.Slots.empty())
        continue;
      Held.Bytes = Object.Bytes;
      Out.HeldOut.push_back(std::move(Held));
    }
  return true;
}

/// Generates every input and writes the training corpus under Dir.
bool setUp(Kind K, const Sizes &S, const Options &Opts, const std::string &Dir,
           Inputs &Out, std::string &Error) {
  Out = Inputs();
  uint64_t CorpusSeed =
      K == Kind::CorpusToModel ? C2mCorpusSeed : ServingCorpusSeed;
  if (!writeCorpus(makeCorpus(CorpusSeed, S.CorpusPackages), Dir,
                   streamSeed(Opts.Seed, 1), Out, Error))
    return false;
  if (S.HeldOutPackages > 0 &&
      !makeHeldOut(makeCorpus(HeldOutCorpusSeed, S.HeldOutPackages), Out,
                   Error))
    return false;
  Out.Order = permutation(streamSeed(Opts.Seed, 2), Out.HeldOut.size());
  return true;
}

/// The serve-repeat request sequence: slot ranks drawn with
/// P(rank r) ~ 1 / (r + 1)^1.1 from the workload seed. Which slot holds
/// which rank is fixed (the workload's hot set).
std::vector<uint32_t> zipfStream(uint64_t Seed, size_t Slots, size_t Length) {
  Rng R(streamSeed(Seed, 3));
  std::vector<uint32_t> RankToSlot = permutation(HotSetSeed, Slots);
  std::vector<double> Cdf(Slots);
  double Total = 0.0;
  for (size_t I = 0; I < Slots; ++I) {
    Total += 1.0 / std::pow(static_cast<double>(I + 1), 1.1);
    Cdf[I] = Total;
  }
  std::vector<uint32_t> Stream(Length);
  for (uint32_t &Pick : Stream) {
    double U = R.nextDouble() * Total;
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    Pick = RankToSlot[std::min(Rank, Slots - 1)];
  }
  return Stream;
}

//===----------------------------------------------------------------------===//
// Timing: two estimators, best of repeated identical units
//===----------------------------------------------------------------------===//

/// One measured time under both estimators: raw wall nanoseconds, and the
/// same calibrated by the probe (probe.h).
struct Timing {
  double Raw = 0.0;
  double Cal = 0.0;
};

/// The reported estimator: probe-calibrated. The raw one is printed in the
/// record as alt_<metric> (README.md, "Estimator").
double est(const Timing &T) { return T.Cal; }
double raw(const Timing &T) { return T.Raw; }

/// Keeps the most recent probe; a unit timed after it is calibrated by it.
/// Probes are taken between units, never inside one.
struct Calibrator {
  /// How far before a long unit probes still calibrate it.
  static constexpr uint64_t LongWindowNs = 300'000'000;
  double LastProbe = 0.0;
  std::vector<double> Probes;
  std::vector<uint64_t> ProbeAt; ///< When each probe started.
  uint64_t ProbeWallNs = 0; ///< Wall time spent probing, for trace spans.
  void probe() {
    uint64_t T0 = nowNs();
    LastProbe = static_cast<double>(probeNs());
    Probes.push_back(LastProbe);
    ProbeAt.push_back(T0);
    ProbeWallNs += nowNs() - T0;
  }
  Timing time(uint64_t RawNs) const {
    double Raw = static_cast<double>(RawNs);
    return {Raw, calibrate(Raw, LastProbe)};
  }
  /// For a long unit (a set-up or a build stage, up to about a second) that
  /// began at BeginNs and just ended: probes again and calibrates by the
  /// fastest probe from LongWindowNs before it began until now. One probe
  /// on either side reads a momentary slow blip as the state of the whole
  /// unit; the fastest of the probes around it does not (README.md,
  /// "Estimator").
  Timing timeAcross(uint64_t BeginNs) {
    double Raw = static_cast<double>(nowNs() - BeginNs);
    probe();
    double Fastest = LastProbe;
    for (size_t I = Probes.size();
         I-- > 0 && ProbeAt[I] + LongWindowNs >= BeginNs;)
      Fastest = std::min(Fastest, Probes[I]);
    return {Raw, calibrate(Raw, Fastest)};
  }
};

/// Per key (a module, a window of the repeat stream, a build stage), the
/// fastest of the repetitions of that identical unit of work, kept
/// separately for each estimator. A slow period of the machine only ever
/// lengthens a repetition, so the minimum over a few is what the code costs.
struct BestOf {
  std::vector<Timing> Best;
  std::vector<uint32_t> Reps;
  void add(size_t Key, const Timing &T) {
    if (Key >= Best.size()) {
      Best.resize(Key + 1, {HUGE_VAL, HUGE_VAL});
      Reps.resize(Key + 1, 0);
    }
    Best[Key].Raw = std::min(Best[Key].Raw, T.Raw);
    Best[Key].Cal = std::min(Best[Key].Cal, T.Cal);
    ++Reps[Key];
  }
  bool seen(size_t Key) const { return Key < Reps.size() && Reps[Key] > 0; }
  const Timing &get(size_t Key) const {
    return Best[Key];
  }
  /// Fewest repetitions any seen key got.
  uint32_t minReps() const {
    uint32_t Min = 0;
    for (uint32_t R : Reps)
      if (R > 0 && (Min == 0 || R < Min))
        Min = R;
    return Min;
  }
};

struct ProcSample {
  double UserS = 0, SysS = 0;
  uint64_t MinorFaults = 0;
  static ProcSample now() {
    rusage U;
    std::memset(&U, 0, sizeof(U));
    getrusage(RUSAGE_SELF, &U);
    ProcSample S;
    S.UserS = static_cast<double>(U.ru_utime.tv_sec) +
              static_cast<double>(U.ru_utime.tv_usec) * 1e-6;
    S.SysS = static_cast<double>(U.ru_stime.tv_sec) +
             static_cast<double>(U.ru_stime.tv_usec) * 1e-6;
    S.MinorFaults = static_cast<uint64_t>(U.ru_minflt);
    return S;
  }
};

double peakRssMb() {
  rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

uint64_t counterValue(const char *Name) {
  return telemetry::counter(Name).value();
}

uint64_t phaseWallNs(const char *Name) {
  return telemetry::Registry::global().phase(Name).WallNs;
}

//===----------------------------------------------------------------------===//
// Build: corpus on disk -> dataset -> task -> model
//===----------------------------------------------------------------------===//

const char *const IngestPhases[] = {
    "ingest.stream_parse", "ingest.debug_extract", "ingest.analysis",
    "ingest.match",        "ingest.names",         "ingest.materialize",
    "ingest.cap_and_split", "ingest.total"};
constexpr size_t NumIngestPhases = sizeof(IngestPhases) / sizeof(IngestPhases[0]);
constexpr unsigned IngestReps = 3;
constexpr unsigned TrainReps = 2;

struct Build {
  dataset::Dataset Data;
  std::unique_ptr<model::Task> TheTask;
  std::unique_ptr<nn::Seq2SeqModel> Model;
  float ValidLoss = 0.0f;
  uint64_t TrainSamples = 0;
  Timing Ingest, TaskBuild, Train; ///< Outside timers around the three calls.
  double TrainRawSumNs = 0;        ///< Every training repetition, raw.
  /// The program's own phase times inside them, under the reported
  /// estimator; those of ingest and training are their fastest repetition's.
  double PhaseNs[NumIngestPhases] = {};
  /// The last ingest repetition: its raw time, and where it started (wall
  /// clock and Calibrator::ProbeWallNs), so a traced unit can be timed as
  /// one span from there on.
  double LastIngestRawNs = 0;
  uint64_t LastIngestStartNs = 0, LastIngestProbeWallNs = 0;
  double BatchNs = 0, ValidationNs = 0;
  uint64_t Batches = 0;
};

/// Scales an inside-program time by the same factor as the outside timer
/// that encloses it under estimator Est.
double likeOuter(uint64_t InnerRawNs, const Timing &Outer,
                 double (*Est)(const Timing &)) {
  return Outer.Raw > 0.0
             ? static_cast<double>(InnerRawNs) * Est(Outer) / Outer.Raw
             : 0.0;
}

/// What one ingest produced: its samples (inputs, types, slots), splits and
/// counts. Repetitions of the same ingest must agree on it.
uint64_t datasetDigest(const dataset::Dataset &Data) {
  uint64_t H = hashCombine(Data.Samples.size(), Data.NumPackages);
  for (const dataset::TypeSample &S : Data.Samples) {
    for (const std::string &T : S.Input)
      H = hashCombine(H, hashString(T));
    for (const std::string &T : S.FieldTokens)
      H = hashCombine(H, hashString(T));
    H = hashCombine(H, hashString(S.RichType.toString()));
    H = hashCombine(H, (uint64_t(S.PackageId) << 8) |
                           (uint64_t(S.IsReturn) << 7) |
                           static_cast<uint64_t>(S.LowLevel));
  }
  for (const std::vector<uint32_t> *Split : {&Data.Train, &Data.Valid,
                                             &Data.Test})
    for (uint32_t I : *Split)
      H = hashCombine(H, I);
  H = hashCombine(H, Data.Dedup.FunctionsAfter);
  H = hashCombine(H, Data.SamplesDroppedByCap);
  return H;
}

std::optional<Build> buildModel(const Inputs &In, const Sizes &S,
                                Calibrator &Cal, std::string &Error) {
  Build B;
  dataset::StreamIngestOptions Ingest;
  Ingest.Dataset.Extract = extractOptions();
  // Wider validation/test than the paper's 96/2/2: at tens of packages the
  // paper split leaves a handful of validation samples.
  Ingest.Dataset.TrainFraction = S.TrainFraction;
  Ingest.Dataset.ValidFraction = 0.1;
  Ingest.Dataset.NameVocabThreshold = 0.02;

  // Ingest is short next to training, so it runs IngestReps times and the
  // fastest repetition is kept, with its phase times. Every repetition must
  // succeed and produce the same dataset; the last one's is kept.
  B.Ingest = {HUGE_VAL, HUGE_VAL};
  uint64_t FirstDigest = 0;
  for (unsigned Rep = 0; Rep < IngestReps; ++Rep) {
    uint64_t PhaseBefore[NumIngestPhases];
    for (size_t I = 0; I < NumIngestPhases; ++I)
      PhaseBefore[I] = phaseWallNs(IngestPhases[I]);
    Cal.probe();
    B.LastIngestProbeWallNs = Cal.ProbeWallNs;
    uint64_t T0 = B.LastIngestStartNs = nowNs();
    Result<dataset::StreamIngestResult> Ingested =
        dataset::streamIngest(In.Files, Ingest);
    Timing T = Cal.timeAcross(T0);
    B.LastIngestRawNs = T.Raw;
    std::string Which = "ingest repetition " + std::to_string(Rep + 1);
    if (Ingested.isErr()) {
      Error = Which + ": " + Ingested.error().message();
      return std::nullopt;
    }
    if (Ingested->Data.Quarantine.total() != 0) {
      Error = Which + " quarantined generated files";
      return std::nullopt;
    }
    uint64_t Digest = datasetDigest(Ingested->Data);
    if (Rep == 0)
      FirstDigest = Digest;
    else if (Digest != FirstDigest) {
      Error = Which + " produced a different dataset than repetition 1";
      return std::nullopt;
    }
    if (est(T) < est(B.Ingest))
      for (size_t I = 0; I < NumIngestPhases; ++I)
        B.PhaseNs[I] = likeOuter(phaseWallNs(IngestPhases[I]) - PhaseBefore[I],
                                 T, est);
    B.Ingest.Raw = std::min(B.Ingest.Raw, T.Raw);
    B.Ingest.Cal = std::min(B.Ingest.Cal, T.Cal);
    B.Data = std::move(Ingested->Data);
  }

  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = S.MaxTrainSamples;
  TaskOpts.Language = TargetLanguage;
  uint64_t T0 = nowNs();
  B.TheTask = std::make_unique<model::Task>(B.Data, TaskOpts);
  B.TaskBuild = Cal.timeAcross(T0);

  model::TrainOptions Train;
  Train.MaxEpochs = 1;
  Train.LearningRate = 5e-3f;
  Train.BatchSize = 16;
  Train.EmbedDim = 16;
  Train.HiddenDim = 24;
  Train.MaxValidSamples = 64;
  Train.Seed = 5150;
  // Training is the longest stage and the hardest to time, so it also runs
  // TrainReps times and the fastest repetition is kept. The trainer is
  // deterministic: every repetition must reach the same validation loss.
  B.Train = {HUGE_VAL, HUGE_VAL};
  model::TrainResult Trained;
  for (unsigned Rep = 0; Rep < TrainReps; ++Rep) {
    uint64_t BatchBefore = telemetry::histogram("train.batch_ns").sum();
    uint64_t ValidBefore = phaseWallNs("train.validation");
    uint64_t BatchesBefore = counterValue("train.batches");
    T0 = nowNs();
    model::TrainResult Result = model::trainModel(*B.TheTask, Train);
    Timing T = Cal.timeAcross(T0);
    B.TrainRawSumNs += T.Raw;
    if (!Result.Model) {
      Error = "trainModel returned no model";
      return std::nullopt;
    }
    if (Rep > 0 && Result.BestValidLoss != Trained.BestValidLoss) {
      Error = "training repetitions reached different validation losses";
      return std::nullopt;
    }
    if (est(T) < est(B.Train)) {
      B.BatchNs = likeOuter(
          telemetry::histogram("train.batch_ns").sum() - BatchBefore, T, est);
      B.ValidationNs = likeOuter(
          phaseWallNs("train.validation") - ValidBefore, T, est);
      B.Batches = counterValue("train.batches") - BatchesBefore;
    }
    B.Train.Raw = std::min(B.Train.Raw, T.Raw);
    B.Train.Cal = std::min(B.Train.Cal, T.Cal);
    Trained = std::move(Result);
  }
  B.Model = std::move(Trained.Model);
  B.ValidLoss = Trained.BestValidLoss;
  B.TrainSamples = static_cast<uint64_t>(Trained.BatchesRun) * Train.BatchSize;
  return B;
}

/// Lowers every held-out slot's DWARF type into the served model's target
/// language (names filtered by the build's vocabulary), as the Task does for
/// its own samples.
void lowerTruth(Inputs &In, const dataset::Dataset &Data) {
  for (HeldOutModule &M : In.HeldOut)
    for (Slot &S : M.Slots)
      S.Truth = typelang::lowerTypeToLanguage(S.Rich, TargetLanguage,
                                              &Data.Names);
}

//===----------------------------------------------------------------------===//
// Answering
//===----------------------------------------------------------------------===//

model::DaemonOptions daemonOptions() {
  model::DaemonOptions Opts;
  Opts.NumWorkers = 1;
  Opts.Serving.TopK = 5;
  Opts.Serving.QueueCapacity = 1024;
  return Opts;
}

/// Byte-exact rendering of one answer: outcome, then every candidate's
/// tokens and the bits of its log-probability.
std::string renderAnswer(const model::ServeResponse &R) {
  std::string Out = model::outcomeCode(R.Outcome);
  for (const model::TypePrediction &P : R.Predictions) {
    Out += '|';
    for (const std::string &T : P.Tokens) {
      Out += T;
      Out += ' ';
    }
    uint32_t Bits = 0;
    std::memcpy(&Bits, &P.LogProb, sizeof(Bits));
    char Hex[12];
    std::snprintf(Hex, sizeof(Hex), "%08x", Bits);
    Out += Hex;
  }
  return Out;
}

/// The same answer with a cache-hit outcome: what a hit must replay.
std::string renderAsHit(const model::ServeResponse &R) {
  model::ServeResponse Hit = R;
  Hit.Outcome = model::ServeOutcome::OkCached;
  return renderAnswer(Hit);
}

bool answered(const model::ServeResponse &R) {
  return R.Outcome != model::ServeOutcome::RejectedQueueFull &&
         R.Outcome != model::ServeOutcome::RejectedShutdown &&
         !R.Predictions.empty();
}

struct Accuracy {
  uint64_t Judged = 0, Top1 = 0, Top5 = 0;
  void add(const model::ServeResponse &R,
           const std::vector<std::string> &Truth) {
    ++Judged;
    for (size_t I = 0; I < R.Predictions.size() && I < 5; ++I)
      if (R.Predictions[I].Tokens == Truth) {
        Top1 += I == 0;
        ++Top5;
        break;
      }
  }
};

/// Outside timers and counters for the traced run, summed over traced units.
/// Times are calibrated by the probe taken before the current unit.
struct LayerSums {
  const Calibrator *Cal = nullptr;
  double ReadNs = 0, AnalyzeNs = 0, ExtractNs = 0, SubmitNs = 0, PumpNs = 0;
  double KeyNs = 0, FindNs = 0, UnitNs = 0;
  /// For trace.coverage_pct, in raw wall time: what the layer timers saw,
  /// and the traced units' whole wall spans less the probes inside them.
  double CoveredRawNs = 0, SpanRawNs = 0;
  uint64_t Modules = 0, Queries = 0, Requests = 0, Units = 0, Lookups = 0;
  // Program counters over the traced units.
  uint64_t DecodeSteps = 0, Beam = 0, Greedy = 0, Baseline = 0;
  uint64_t Answered = 0, GateChecks = 0, GateContradicted = 0;
  uint64_t GateDegradations = 0, PoolDispatches = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, Insertions = 0, Evictions = 0;

  void add(double &Field, uint64_t Begin, uint64_t End) {
    Field += est(Cal->time(End - Begin));
    CoveredRawNs += static_cast<double>(End - Begin);
  }
  /// A traced unit that began at BeginNs, when the calibrator's probe wall
  /// time read ProbeWallBefore, ends now.
  void addSpan(uint64_t BeginNs, uint64_t ProbeWallBefore) {
    SpanRawNs += static_cast<double>((nowNs() - BeginNs) -
                                     (Cal->ProbeWallNs - ProbeWallBefore));
  }
};

/// Program counters read before and after a traced unit.
struct CounterSnap {
  uint64_t GateChecks, GateContradicted, PoolDispatches;
  static CounterSnap now() {
    return {counterValue("gate.checks"), counterValue("gate.contradicted"),
            nn::kernels::poolDispatchCount()};
  }
};

/// Folds one finished daemon's counters into the layer sums.
void addDaemonCounters(LayerSums &L, model::ServeDaemon &D,
                       const model::ServingStats &Before,
                       const model::CacheStats &CacheBefore,
                       const CounterSnap &Snap) {
  model::ServingStats S = D.engineTotals();
  model::CacheStats C = D.cache()->totals();
  CounterSnap After = CounterSnap::now();
  L.DecodeSteps += S.DecodeSteps - Before.DecodeSteps;
  L.Beam += S.BeamAnswers - Before.BeamAnswers;
  L.Greedy += S.GreedyAnswers - Before.GreedyAnswers;
  L.Baseline += S.BaselineAnswers - Before.BaselineAnswers;
  L.Answered += S.Answered - Before.Answered;
  L.GateDegradations += S.GateDegradations - Before.GateDegradations;
  L.CacheHits += C.Hits - CacheBefore.Hits;
  L.CacheMisses += C.Misses - CacheBefore.Misses;
  L.Insertions += C.Insertions - CacheBefore.Insertions;
  L.Evictions += C.Evictions - CacheBefore.Evictions;
  L.GateChecks += After.GateChecks - Snap.GateChecks;
  L.GateContradicted += After.GateContradicted - Snap.GateContradicted;
  L.PoolDispatches += After.PoolDispatches - Snap.PoolDispatches;
}

/// The daemon-level checks every serving unit ends with.
bool daemonConsistent(model::ServeDaemon &D, std::string &Why) {
  model::ServingStats S = D.engineTotals();
  if (!D.checkStats()) {
    Why = "ServeDaemon::checkStats failed";
    return false;
  }
  if (!D.cache()->checkStats()) {
    Why = "PredictionCache::checkStats failed";
    return false;
  }
  if (S.Submitted != S.Rejected + S.Answered) {
    Why = "Submitted != Rejected + Answered";
    return false;
  }
  return true;
}

/// What a workload's answering stage produced. Untraced units fill the
/// best-of tables the end-to-end metrics come from; traced units fill the
/// layer sums.
struct AnswerStats {
  BestOf Windows;                      ///< Per window (or module) key.
  std::vector<uint32_t> WindowQueries; ///< Answered queries per window key.
  BestOf Requests; ///< Per request key; empty = each query waits its window.
  double UntracedNs = 0, TracedNs = 0; ///< For the tracing overhead.
  uint64_t UntracedQueries = 0, TracedQueries = 0;
  uint64_t Attempted = 0, Ok = 0;
  Accuracy Acc;
  LayerSums Layers;

  void addWindow(size_t Key, const Timing &T, uint32_t Queries) {
    Windows.add(Key, T);
    if (Key >= WindowQueries.size())
      WindowQueries.resize(Key + 1, 0);
    WindowQueries[Key] = Queries;
  }

  /// Queries per second over one pass of every window at its best time.
  using Pick = double (*)(const Timing &);

  double throughput(Pick P) const {
    double Queries = 0, Ns = 0;
    for (size_t K = 0; K < WindowQueries.size(); ++K)
      if (Windows.seen(K)) {
        Queries += WindowQueries[K];
        Ns += P(Windows.get(K));
      }
    return Ns > 0 ? Queries / (Ns * 1e-9) : 0.0;
  }

  std::vector<double> latencies(Pick P) const {
    std::vector<double> Out;
    if (!Requests.Reps.empty()) {
      for (size_t K = 0; K < Requests.Reps.size(); ++K)
        if (Requests.seen(K))
          Out.push_back(P(Requests.get(K)));
      return Out;
    }
    for (size_t K = 0; K < WindowQueries.size(); ++K)
      if (Windows.seen(K))
        Out.insert(Out.end(), WindowQueries[K], P(Windows.get(K)));
    return Out;
  }
};

/// The requests of one held-out module: read -> analyze -> extract.
/// Returns false (with Why) if the program rejects a generated binary.
bool annotateRequests(const HeldOutModule &M, uint64_t &NextId,
                      std::vector<model::DaemonRequest> &Out,
                      LayerSums *Trace, std::string &Why) {
  uint64_t T0 = Trace ? nowNs() : 0;
  Result<wasm::Module> Mod = wasm::readModule(M.Bytes);
  if (Mod.isErr()) {
    Why = "readModule: " + Mod.error().message();
    return false;
  }
  uint64_t T1 = Trace ? nowNs() : 0;
  Result<analysis::ModuleSummary> Summary = analysis::analyzeModule(*Mod);
  if (Summary.isErr()) {
    Why = "analyzeModule: " + Summary.error().message();
    return false;
  }
  std::map<uint32_t, std::vector<std::string>> Paths;
  for (const Slot &S : M.Slots) {
    if (Paths.count(S.Func))
      continue;
    Result<analysis::ControlFlowGraph> Cfg = analysis::buildCfg(*Mod, S.Func);
    Paths[S.Func] = Cfg.isOk() ? analysis::extractPathTokens(Cfg.value())
                               : std::vector<std::string>();
  }
  uint64_t T2 = Trace ? nowNs() : 0;
  dataset::ExtractOptions Extract = extractOptions();
  Out.clear();
  for (const Slot &S : M.Slots) {
    model::DaemonRequest R;
    R.Request.Id = NextId++;
    R.Request.Evidence =
        analysis::queryEvidence(*Summary, S.Func, static_cast<int>(S.Param));
    const std::vector<std::string> &P = Paths[S.Func];
    R.Request.InputTokens = dataset::extractParamInput(
        *Mod, S.Func, S.Param, Extract,
        R.Request.Evidence.Param ? &*R.Request.Evidence.Param : nullptr,
        P.empty() ? nullptr : &P);
    Out.push_back(std::move(R));
  }
  if (Trace) {
    uint64_t T3 = nowNs();
    Trace->add(Trace->ReadNs, T0, T1);
    Trace->add(Trace->AnalyzeNs, T1, T2);
    Trace->add(Trace->ExtractNs, T2, T3);
    ++Trace->Modules;
    Trace->Queries += M.Slots.size();
  }
  return true;
}

/// Submits Requests, pumps once, and returns the answers in request order.
/// Latencies (raw ns, pump end minus each request's submit start) are
/// appended to LatencyRaw for admitted requests.
std::vector<std::optional<model::ServeResponse>>
submitAndPump(model::ServeDaemon &D, std::vector<model::DaemonRequest> &Reqs,
              std::vector<uint64_t> &StartNs, LayerSums *Trace) {
  size_t N = Reqs.size();
  uint64_t FirstId = N ? Reqs[0].Request.Id : 0;
  StartNs.assign(N, 0);
  std::vector<bool> Admitted(N, false);
  uint64_t S0 = nowNs();
  for (size_t I = 0; I < N; ++I) {
    StartNs[I] = nowNs();
    Admitted[I] = D.submit(std::move(Reqs[I])).Outcome ==
                  model::AdmitOutcome::Admitted;
  }
  uint64_t S1 = nowNs();
  std::vector<model::ServeResponse> Responses = D.pump();
  uint64_t S2 = nowNs();
  if (Trace) {
    Trace->add(Trace->SubmitNs, S0, S1);
    Trace->add(Trace->PumpNs, S1, S2);
    Trace->Requests += N;
  }
  std::vector<std::optional<model::ServeResponse>> Out(N);
  for (model::ServeResponse &R : Responses)
    if (R.Id >= FirstId && R.Id - FirstId < N && Admitted[R.Id - FirstId])
      Out[R.Id - FirstId] = std::move(R);
  StartNs.push_back(S2); // The shared completion time, last.
  return Out;
}

//===----------------------------------------------------------------------===//
// Run bookkeeping
//===----------------------------------------------------------------------===//

/// Per-build layer totals (program phases and outside stage timers), summed
/// over every build of the run, under the reported estimator.
struct BuildSums {
  double PhaseNs[NumIngestPhases] = {};
  double IngestNs = 0, TaskNs = 0, TrainNs = 0, BatchNs = 0, ValidationNs = 0;
  uint64_t Batches = 0, Builds = 0;
};

/// Keys of the build stages in Run::BuildBest.
enum BuildStage : size_t { StageIngest, StageTask, StageTrain };

struct Run {
  Kind K;
  Sizes S;
  const Options &Opts;
  RunResult &Res;
  Calibrator Cal;
  std::vector<Timing> Setups;
  BestOf BuildBest; ///< Keyed by BuildStage.
  uint64_t TrainSamples = 0;
  std::vector<float> BuildLoss;
  BuildSums BuildLayers;
  uint64_t Files = 0;
  AnswerStats A;
  ProcSample ProcStart;
  uint64_t TimedUnits = 0;
  uint64_t MeasureStartNs = 0;

  Run(Kind K, const Options &Opts, RunResult &Res)
      : K(K), S(sizesFor(K, Opts.Smoke, Opts.Seconds)), Opts(Opts), Res(Res) {
    A.Layers.Cal = &Cal;
  }
  // A.Layers points at Cal.
  Run(const Run &) = delete;
  Run &operator=(const Run &) = delete;

  void fail(const std::string &Why) {
    if (Res.Failures.size() < 16)
      Res.Failures.push_back(Why);
    Res.Correct = false;
  }

  /// Keep measuring until the run's units are done (in the traced run every
  /// other one is traced). In the machine's slow periods a run takes up to
  /// 1.5 times as long; past 1.25 times --seconds it stops early, after at
  /// least one traced and one untraced unit, so the runs of a whole
  /// benchmark session stay within a fixed time.
  bool wantMore(uint64_t Units) const {
    double Elapsed = static_cast<double>(nowNs() - MeasureStartNs) * 1e-9;
    return Units < S.Units && (Units < 2 || Elapsed < 1.25 * Opts.Seconds);
  }

  /// In the traced run, every other unit runs with the outside timers on,
  /// so the untraced ones measure the tracing overhead.
  bool traced(uint64_t Unit) const { return Opts.Trace && Unit % 2 == 1; }

  /// Sets up SetupReps times into one directory, emptied once beforehand.
  bool setUp(Inputs &In) {
    std::string Error, Dir = Opts.WorkDir + "/corpus";
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    for (unsigned R = 0; R < S.SetupReps; ++R) {
      Cal.probe();
      uint64_t T0 = nowNs();
      if (!perfbench::setUp(K, S, Opts, Dir, In, Error)) {
        fail("set-up: " + Error);
        return false;
      }
      Setups.push_back(Cal.timeAcross(T0));
    }
    Files = In.Files.size();
    return true;
  }

  /// One corpus -> model build. Every build of the same corpus must reach
  /// the bit-identical validation loss.
  std::optional<Build> build(const Inputs &In) {
    std::string Error;
    std::optional<Build> B = buildModel(In, S, Cal, Error);
    if (!B) {
      fail("build: " + Error);
      return B;
    }
    if (!BuildLoss.empty() && BuildLoss.front() != B->ValidLoss)
      fail("valid_loss differs between builds of the same corpus");
    BuildLoss.push_back(B->ValidLoss);
    TrainSamples = B->TrainSamples;
    BuildBest.add(StageIngest, B->Ingest);
    BuildBest.add(StageTask, B->TaskBuild);
    BuildBest.add(StageTrain, B->Train);
    BuildSums &L = BuildLayers;
    for (size_t I = 0; I < NumIngestPhases; ++I)
      L.PhaseNs[I] += B->PhaseNs[I];
    L.IngestNs += est(B->Ingest);
    L.TaskNs += est(B->TaskBuild);
    L.TrainNs += est(B->Train);
    L.BatchNs += B->BatchNs;
    L.ValidationNs += B->ValidationNs;
    L.Batches += B->Batches;
    ++L.Builds;
    return B;
  }

  /// Serving workloads: the model they serve comes from the first build;
  /// the other S.Builds - 1 builds of the same corpus run after answering
  /// units, evenly over them, so the best-of-builds samples more than one
  /// of the machine's speed periods. Their models are discarded.
  void rebuildAfter(uint64_t Unit, const Inputs &In) {
    size_t Done = BuildLoss.size();
    if (Done < S.Builds && (Unit + 1) * S.Builds >= Done * S.Units)
      build(In);
  }

  /// Checks one answer against unit 1's answer at the same index (recording
  /// it during unit 1) and counts it. Returns whether the answer is ok.
  bool judge(const std::optional<model::ServeResponse> &R, uint64_t Unit,
             size_t Index, std::vector<std::string> &Reference,
             const std::vector<std::string> &Truth, const char *What) {
    ++A.Attempted;
    std::string Rendered = R && answered(*R) ? renderAnswer(*R) : "";
    if (Unit == 0) {
      Reference.push_back(Rendered);
      if (!Rendered.empty())
        A.Acc.add(*R, Truth);
    }
    if (Rendered.empty()) {
      fail(std::string(What) + ": a request was not answered");
      return false;
    }
    if (Index >= Reference.size() || Rendered != Reference[Index]) {
      fail(std::string(What) + ": unit " + std::to_string(Unit + 1) +
           " answers differ from unit 1");
      return false;
    }
    ++A.Ok;
    return true;
  }

  void endUnit(double Ns, uint64_t Queries, bool Traced) {
    (Traced ? A.TracedNs : A.UntracedNs) += Ns;
    (Traced ? A.TracedQueries : A.UntracedQueries) += Queries;
    if (Traced) {
      A.Layers.UnitNs += Ns;
      ++A.Layers.Units;
    }
  }

  void annotateCold(Inputs &In, const Build &B);
  void serveRepeat(Inputs &In, const Build &B);
  void corpusToModel(Inputs &In);
  void endToEndMetrics();
  void layerMetrics();
  void finish();
};

void Run::annotateCold(Inputs &In, const Build &B) {
  std::vector<std::string> Reference; // Round 1's answers, byte-exact.
  std::vector<uint64_t> StartNs;
  std::vector<model::DaemonRequest> Reqs;
  uint64_t Round = 0;
  for (; wantMore(Round); ++Round) {
    bool Traced = traced(Round);
    LayerSums *T = Traced ? &A.Layers : nullptr;
    uint64_t SpanStart = nowNs(), SpanProbes = Cal.ProbeWallNs;
    // A fresh daemon per round: the cache only holds the round's own
    // duplicates, so nearly every query decodes.
    model::ServeDaemon D(*B.Model, *B.TheTask, daemonOptions());
    model::ServingStats StatsBefore = D.engineTotals();
    model::CacheStats CacheBefore = D.cache()->totals();
    CounterSnap Snap = CounterSnap::now();
    uint64_t NextId = 0;
    size_t Index = 0;
    double RoundNs = 0;
    uint64_t RoundQueries = 0;
    for (uint32_t Mod : In.Order) {
      const HeldOutModule &M = In.HeldOut[Mod];
      Cal.probe();
      uint64_t T0 = nowNs();
      std::string Why;
      if (!annotateRequests(M, NextId, Reqs, T, Why)) {
        fail(Why);
        A.Attempted += M.Slots.size();
        Index += M.Slots.size();
        continue;
      }
      auto Out = submitAndPump(D, Reqs, StartNs, T);
      // Every query of a module waits for the whole module: from its bytes
      // arriving to the pump that answers it.
      Timing ModuleTime = Cal.time(StartNs.back() - T0);
      RoundNs += est(ModuleTime);
      uint32_t Ok = 0;
      for (size_t I = 0; I < Out.size(); ++I, ++Index)
        Ok += judge(Out[I], Round, Index, Reference, M.Slots[I].Truth,
                    "annotate-cold");
      RoundQueries += Ok;
      if (!Traced)
        A.addWindow(Mod, ModuleTime, Ok);
    }
    std::string Why;
    if (!daemonConsistent(D, Why))
      fail("annotate-cold: " + Why);
    if (T) {
      addDaemonCounters(*T, D, StatsBefore, CacheBefore, Snap);
      T->addSpan(SpanStart, SpanProbes);
    }
    endUnit(RoundNs, RoundQueries, Traced);
    rebuildAfter(Round, In);
  }
  TimedUnits = Round;
}

void Run::serveRepeat(Inputs &In, const Build &B) {
  // The distinct requests: held-out slots in order, deduplicated by the
  // cache's own request key, each with its truth.
  model::DaemonOptions DOpts = daemonOptions();
  struct Unique {
    model::DaemonRequest Request;
    std::vector<std::string> Truth;
    std::string Key;
    uint64_t Hash = 0;
    std::string Cold; ///< The warm-up answer, rendered as a hit.
  };
  auto KeyOf = [&](const model::ServeRequest &R) {
    return model::PredictionCache::requestKey(
        R, DOpts.Serving.DefaultStepBudget, DOpts.Serving.TopK,
        DOpts.Serving.TopK);
  };
  std::vector<Unique> Slots;
  std::map<std::string, size_t> Seen;
  uint64_t NextId = 0;
  std::vector<model::DaemonRequest> Reqs;
  for (const HeldOutModule &M : In.HeldOut) {
    if (Slots.size() >= S.UniqueSlots)
      break;
    std::string Why;
    if (!annotateRequests(M, NextId, Reqs, nullptr, Why)) {
      fail(Why);
      return;
    }
    for (size_t I = 0; I < Reqs.size() && Slots.size() < S.UniqueSlots; ++I) {
      std::string Key = KeyOf(Reqs[I].Request);
      if (!Seen.emplace(Key, Slots.size()).second)
        continue;
      Unique U;
      U.Request = std::move(Reqs[I]);
      U.Truth = M.Slots[I].Truth;
      U.Hash = hashString(Key);
      U.Key = std::move(Key);
      Slots.push_back(std::move(U));
    }
  }
  if (Slots.empty()) {
    fail("serve-repeat: no held-out slots");
    return;
  }

  // Warm-up (untimed): every distinct request computes once. A shadow cache
  // gets the same entries for the traced run's outside key/find timers, so
  // the daemon's own cache stats stay exact.
  model::ServeDaemon D(*B.Model, *B.TheTask, DOpts);
  model::PredictionCache Shadow(DOpts.Cache);
  std::vector<uint64_t> StartNs;
  for (size_t Begin = 0; Begin < Slots.size(); Begin += S.Window) {
    size_t End = std::min(Slots.size(), Begin + S.Window);
    Reqs.clear();
    for (size_t I = Begin; I < End; ++I) {
      Reqs.push_back(Slots[I].Request);
      Reqs.back().Request.Id = NextId++;
    }
    auto Out = submitAndPump(D, Reqs, StartNs, nullptr);
    for (size_t I = Begin; I < End; ++I) {
      const std::optional<model::ServeResponse> &R = Out[I - Begin];
      if (!R || !answered(*R)) {
        fail("serve-repeat: a warm-up request was not answered");
        return;
      }
      Slots[I].Cold = renderAsHit(*R);
      // Accuracy is over the distinct requests, so it does not depend on
      // which of them the seeded stream happens to repeat most.
      A.Acc.add(*R, Slots[I].Truth);
      model::CachedPrediction Value;
      Value.ComputedBy = R->Tier;
      Value.Predictions = R->Predictions;
      Shadow.insert(Slots[I].Hash, Slots[I].Key, std::move(Value));
    }
  }

  // The stream repeats with period StreamLength, so window W and window
  // W + StreamLength / Window are identical work: that is the best-of key.
  const size_t StreamLength = Opts.Smoke ? 1024 : 65536;
  const size_t WindowsPerPeriod = StreamLength / S.Window;
  std::vector<uint32_t> Stream =
      zipfStream(Opts.Seed, Slots.size(), StreamLength);
  // A unit is a block of windows (one traced or untraced stretch); a probe
  // every WindowsPerProbe windows (~10 ms) calibrates the windows after it.
  const size_t WindowsPerUnit = Opts.Smoke ? 4 : 256;
  const size_t WindowsPerProbe = 16;
  size_t Cursor = 0;
  std::vector<uint32_t> Picks;
  uint64_t Unit = 0;
  for (; wantMore(Unit); ++Unit) {
    bool Traced = traced(Unit);
    LayerSums *T = Traced ? &A.Layers : nullptr;
    uint64_t SpanStart = nowNs(), SpanProbes = Cal.ProbeWallNs;
    model::ServingStats StatsBefore = D.engineTotals();
    model::CacheStats CacheBefore = D.cache()->totals();
    CounterSnap Snap = CounterSnap::now();
    double UnitNs = 0;
    uint64_t UnitQueries = 0;
    for (size_t W = 0; W < WindowsPerUnit; ++W) {
      if (W % WindowsPerProbe == 0)
        Cal.probe();
      size_t WindowKey = (Cursor / S.Window) % WindowsPerPeriod;
      size_t FirstPos = Cursor % StreamLength;
      Reqs.clear();
      Picks.clear();
      for (size_t I = 0; I < S.Window; ++I) {
        uint32_t Pick = Stream[Cursor++ % StreamLength];
        Picks.push_back(Pick);
        Reqs.push_back(Slots[Pick].Request);
        Reqs.back().Request.Id = NextId++;
      }
      if (T)
        for (uint32_t Pick : Picks) {
          uint64_t K0 = nowNs();
          std::string Key = KeyOf(Slots[Pick].Request.Request);
          uint64_t Hash = hashString(Key);
          uint64_t K1 = nowNs();
          bool Hit = Shadow.find(Hash, Key).has_value();
          uint64_t K2 = nowNs();
          T->add(T->KeyNs, K0, K1);
          T->add(T->FindNs, K1, K2);
          ++T->Lookups;
          if (!Hit)
            fail("serve-repeat: the shadow cache lost an entry");
        }
      auto Out = submitAndPump(D, Reqs, StartNs, T);
      uint64_t Done = StartNs.back();
      Timing WindowTime = Cal.time(Done - StartNs.front());
      UnitNs += est(WindowTime);
      uint32_t Ok = 0;
      for (size_t I = 0; I < Out.size(); ++I) {
        ++A.Attempted;
        const std::optional<model::ServeResponse> &R = Out[I];
        // Every repeat must be a hit that replays its cold answer exactly.
        if (!R || !answered(*R) || renderAnswer(*R) != Slots[Picks[I]].Cold) {
          fail("serve-repeat: a repeat did not replay its cold answer");
          continue;
        }
        ++A.Ok;
        ++Ok;
        if (!Traced)
          A.Requests.add(FirstPos + I, Cal.time(Done - StartNs[I]));
      }
      UnitQueries += Ok;
      if (!Traced)
        A.addWindow(WindowKey, WindowTime, Ok);
    }
    if (T) {
      addDaemonCounters(*T, D, StatsBefore, CacheBefore, Snap);
      T->addSpan(SpanStart, SpanProbes);
    }
    endUnit(UnitNs, UnitQueries, Traced);
    rebuildAfter(Unit, In);
  }
  std::string Why;
  if (!daemonConsistent(D, Why))
    fail("serve-repeat: " + Why);
  TimedUnits = Unit;
}

void Run::corpusToModel(Inputs &In) {
  std::vector<std::string> Reference; // Unit 1's test-split answers.
  std::vector<uint64_t> StartNs;
  std::vector<model::DaemonRequest> Reqs;
  uint64_t Unit = 0;
  for (; wantMore(Unit); ++Unit) {
    bool Traced = traced(Unit);
    LayerSums *T = Traced ? &A.Layers : nullptr;
    std::optional<Build> B = build(In);
    if (!B)
      return;
    // The fresh model answers its own test split through the daemon.
    const model::Task &Task = *B->TheTask;
    model::ServeDaemon D(*B->Model, Task, daemonOptions());
    model::ServingStats StatsBefore = D.engineTotals();
    model::CacheStats CacheBefore = D.cache()->totals();
    CounterSnap Snap = CounterSnap::now();
    double AnswerNs = 0;
    uint64_t Queries = 0, NextId = 0;
    const std::vector<model::EncodedSample> &Test = Task.test();
    // The test queries arrive in a seeded order, the same in every unit.
    std::vector<uint32_t> Order =
        permutation(streamSeed(Opts.Seed, 4), Test.size());
    for (size_t Begin = 0; Begin < Order.size(); Begin += S.Window) {
      size_t End = std::min(Order.size(), Begin + S.Window);
      Reqs.clear();
      for (size_t Pos = Begin; Pos < End; ++Pos) {
        const dataset::TypeSample &Sample =
            B->Data.Samples[Test[Order[Pos]].DatasetIndex];
        model::DaemonRequest R;
        R.Request.Id = NextId++;
        R.Request.InputTokens = Sample.Input;
        R.Request.Evidence = Sample.Evidence;
        Reqs.push_back(std::move(R));
      }
      Cal.probe();
      auto Out = submitAndPump(D, Reqs, StartNs, T);
      uint64_t Done = StartNs.back();
      Timing WindowTime = Cal.time(Done - StartNs.front());
      AnswerNs += est(WindowTime);
      uint32_t Ok = 0;
      for (size_t Pos = Begin; Pos < End; ++Pos)
        if (judge(Out[Pos - Begin], Unit, Pos, Reference,
                  Test[Order[Pos]].TargetTokens, "corpus-to-model")) {
          ++Ok;
          if (!Traced)
            A.Requests.add(Pos, Cal.time(Done - StartNs[Pos - Begin]));
        }
      Queries += Ok;
      if (!Traced)
        A.addWindow(Begin / S.Window, WindowTime, Ok);
    }
    std::string Why;
    if (!daemonConsistent(D, Why))
      fail("corpus-to-model: " + Why);
    if (T) {
      // The traced span starts with the build's last ingest repetition, the
      // one whose time is counted as covered; the earlier ones are left out.
      T->CoveredRawNs +=
          B->LastIngestRawNs + raw(B->TaskBuild) + B->TrainRawSumNs;
      addDaemonCounters(*T, D, StatsBefore, CacheBefore, Snap);
      T->addSpan(B->LastIngestStartNs, B->LastIngestProbeWallNs);
    }
    endUnit(est(B->Ingest) + est(B->TaskBuild) +
                est(B->Train) + AnswerNs,
            Queries, Traced);
  }
  TimedUnits = Unit;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

void Run::endToEndMetrics() {
  // Every timing metric calibrated (reported) or raw (alt_<name> in the
  // record).
  auto Timings = [&](bool Calibrated) {
    AnswerStats::Pick P = Calibrated ? est : raw;
    std::vector<Metric> M;
    std::vector<double> SetupNs;
    for (const Timing &T : Setups)
      SetupNs.push_back(P(T));
    std::vector<double> Lat = A.latencies(P);
    auto Stage = [&](BuildStage Key) {
      return BuildBest.seen(Key) ? P(BuildBest.get(Key)) : 0.0;
    };
    double Ingest = Stage(StageIngest), Task = Stage(StageTask),
           Train = Stage(StageTrain);
    M.push_back({"setup_s", "s", median(SetupNs) * 1e-9});
    M.push_back({"throughput_qps", "1/s", A.throughput(P)});
    M.push_back({"latency_p50_ms", "ms", percentile(Lat, 500).Value * 1e-6});
    M.push_back({"latency_p99_ms", "ms", percentile(Lat, 990).Value * 1e-6});
    M.push_back({"ingest_files_per_s", "1/s",
                 ratio(static_cast<double>(Files), Ingest * 1e-9)});
    M.push_back({"train_samples_per_s", "1/s",
                 ratio(static_cast<double>(TrainSamples), Train * 1e-9)});
    M.push_back({"corpus_to_model_s", "s", (Ingest + Task + Train) * 1e-9});
    return M;
  };
  std::vector<Metric> &M = Res.Metrics;
  M = Timings(true);
  for (const Metric &Alt : Timings(false))
    Res.Meta.push_back({"alt_" + Alt.Name, jsonNumber(Alt.Value)});
  auto Pct = [](uint64_t Num, uint64_t Den) {
    return 100.0 * ratio(static_cast<double>(Num), static_cast<double>(Den));
  };
  M.push_back({"peak_rss_mb", "MB", peakRssMb()});
  M.push_back({"ok_pct", "%", Pct(A.Ok, A.Attempted)});
  M.push_back({"top1_pct", "%", Pct(A.Acc.Top1, A.Acc.Judged)});
  M.push_back({"top5_pct", "%", Pct(A.Acc.Top5, A.Acc.Judged)});
  M.push_back({"valid_loss", "nats", BuildLoss.empty() ? 0.0 : BuildLoss[0]});

  Percentile P99 = percentile(A.latencies(est), 990);
  auto Count = [](uint64_t N) { return std::to_string(N); };
  Res.Meta.push_back({"latency_samples", Count(P99.Samples)});
  Res.Meta.push_back({"latency_p99_beyond", Count(P99.Beyond)});
  Res.Meta.push_back({"latency_min_reps",
                      Count(A.Requests.Reps.empty() ? A.Windows.minReps()
                                                    : A.Requests.minReps())});
  Res.Meta.push_back({"accuracy_samples", Count(A.Acc.Judged)});
  Res.Meta.push_back({"setup_reps", Count(Setups.size())});
  Res.Meta.push_back({"builds", Count(BuildLoss.size())});
  Res.Meta.push_back({"timed_units", Count(TimedUnits)});
  if (!P99.Supported && !Opts.Smoke)
    fail("latency_p99_ms has fewer than 10 samples beyond it");
}

void Run::layerMetrics() {
  const LayerSums &L = A.Layers;
  const BuildSums &Bs = BuildLayers;
  std::vector<Metric> &M = Res.Metrics;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  auto Us = [](double Ns, double N) { return ratio(Ns, N) * 1e-3; };
  auto Ms = [](double Ns, double N) { return ratio(Ns, N) * 1e-6; };
  auto Pct = [](double Num, double Den) { return 100.0 * ratio(Num, Den); };
  double Answered = D(L.Answered);
  double Builds = D(Bs.Builds);

  M.push_back({"wasm.read_us", "us", Us(L.ReadNs, D(L.Modules))});
  M.push_back({"analysis.analyze_us", "us", Us(L.AnalyzeNs, D(L.Modules))});
  M.push_back({"dataset.extract_us", "us", Us(L.ExtractNs, D(L.Queries))});
  M.push_back({"daemon.submit_us", "us", Us(L.SubmitNs, D(L.Requests))});
  M.push_back({"daemon.pump_us_per_req", "us", Us(L.PumpNs, D(L.Requests))});
  M.push_back({"serving.decode_steps_per_req", "count",
               ratio(D(L.DecodeSteps), Answered)});
  M.push_back({"serving.us_per_decode_step", "us",
               Us(L.PumpNs, D(L.DecodeSteps))});
  M.push_back({"serving.tier.beam_pct", "%", Pct(D(L.Beam), Answered)});
  M.push_back({"serving.tier.greedy_pct", "%", Pct(D(L.Greedy), Answered)});
  M.push_back({"serving.tier.baseline_pct", "%", Pct(D(L.Baseline), Answered)});
  M.push_back({"gate.checks_per_req", "count",
               ratio(D(L.GateChecks), Answered)});
  M.push_back({"gate.contradicted_pct", "%",
               Pct(D(L.GateContradicted), D(L.GateChecks))});
  M.push_back({"serving.gate_degradations_pct", "%",
               Pct(D(L.GateDegradations), Answered)});
  M.push_back({"kernels.pool_dispatches_per_req", "count",
               ratio(D(L.PoolDispatches), Answered)});
  M.push_back({"serve_cache.key_us", "us", Us(L.KeyNs, D(L.Lookups))});
  M.push_back({"serve_cache.find_us", "us", Us(L.FindNs, D(L.Lookups))});
  M.push_back({"serve_cache.hit_pct", "%",
               Pct(D(L.CacheHits), D(L.CacheHits + L.CacheMisses))});
  M.push_back({"serve_cache.insertions_per_kreq", "count",
               1000.0 * ratio(D(L.Insertions), D(L.Requests))});
  M.push_back({"serve_cache.evictions_per_kreq", "count",
               1000.0 * ratio(D(L.Evictions), D(L.Requests))});
  for (size_t I = 0; I < NumIngestPhases; ++I)
    M.push_back({std::string(IngestPhases[I]) + "_ms", "ms",
                 Ms(Bs.PhaseNs[I], Builds)});
  M.push_back({"stage.ingest_ms", "ms", Ms(Bs.IngestNs, Builds)});
  M.push_back({"model.task_build_ms", "ms", Ms(Bs.TaskNs, Builds)});
  M.push_back({"stage.train_ms", "ms", Ms(Bs.TrainNs, Builds)});
  M.push_back({"train.batch_ms", "ms", Ms(Bs.BatchNs, D(Bs.Batches))});
  M.push_back({"train.validation_ms", "ms", Ms(Bs.ValidationNs, Builds)});
  M.push_back({"train.batches", "count", ratio(D(Bs.Batches), Builds)});
  M.push_back({"stage.unit_ms", "ms", Ms(L.UnitNs, D(L.Units))});
  M.push_back({"trace.coverage_pct", "%", Pct(L.CoveredRawNs, L.SpanRawNs)});
  M.push_back({"trace.overhead_pct", "%",
               100.0 * (ratio(ratio(A.TracedNs, D(A.TracedQueries)),
                              ratio(A.UntracedNs, D(A.UntracedQueries))) -
                        1.0)});
  ProcSample End = ProcSample::now();
  double Cpu = (End.UserS - ProcStart.UserS) + (End.SysS - ProcStart.SysS);
  M.push_back({"proc.minor_faults_per_unit", "count",
               ratio(D(End.MinorFaults - ProcStart.MinorFaults),
                     D(TimedUnits))});
  M.push_back({"proc.sys_cpu_pct", "%", Pct(End.SysS - ProcStart.SysS, Cpu)});
  M.push_back({"probe.us", "us", median(Cal.Probes) * 1e-3});
}

void Run::finish() {
  Res.Attempted = A.Attempted;
  Res.Failed = A.Attempted - A.Ok;
  if (Opts.Trace)
    layerMetrics();
  else
    endToEndMetrics();
  Res.Meta.push_back({"estimator", "\"calibrated\""});
  Res.Meta.push_back({"probe_ref_ns", jsonNumber(ProbeRefNs)});
  Res.Meta.push_back({"probe_reps", std::to_string(ProbeReps)});
  Res.Meta.push_back({"probe_median_ns", jsonNumber(median(Cal.Probes))});
  Res.Meta.push_back({"probes", std::to_string(Cal.Probes.size())});
  Res.Meta.push_back({"corpus_files", std::to_string(Files)});
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "annotate-cold", "serve-repeat", "corpus-to-model"};
  return Names;
}

uint64_t inputDigest(const Options &Opts) {
  Kind K = kindOf(Opts.Workload);
  Sizes S = sizesFor(K, Opts.Smoke, Opts.Seconds);
  Inputs In;
  std::string Error, Dir = Opts.WorkDir + "/digest";
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  if (!setUp(K, S, Opts, Dir, In, Error))
    return 0;
  uint64_t H = hashString(Opts.Workload);
  for (const dataset::IngestFile &F : In.Files) {
    H = hashCombine(H, hashString(F.RelPath));
    std::ifstream File(F.Path, std::ios::binary);
    std::vector<char> Bytes((std::istreambuf_iterator<char>(File)),
                            std::istreambuf_iterator<char>());
    H = hashCombine(H, hashBytes(reinterpret_cast<const uint8_t *>(
                                     Bytes.data()),
                                 Bytes.size()));
  }
  for (uint32_t Mod : In.Order)
    H = hashCombine(H, Mod);
  for (const HeldOutModule &M : In.HeldOut) {
    H = hashCombine(H, hashBytes(M.Bytes.data(), M.Bytes.size()));
    for (const Slot &Sl : M.Slots)
      H = hashCombine(H, (uint64_t(Sl.Func) << 32) | Sl.Param);
  }
  if (K == Kind::ServeRepeat)
    for (uint32_t Pick : zipfStream(Opts.Seed, S.UniqueSlots, 1024))
      H = hashCombine(H, Pick);
  return H;
}

RunResult runWorkload(const Options &Opts) {
  RunResult Res;
  Kind K = kindOf(Opts.Workload);
  Run R(K, Opts, Res);
  Inputs In;
  if (!R.setUp(In))
    return Res;

  R.MeasureStartNs = nowNs();
  R.ProcStart = ProcSample::now();
  if (K == Kind::CorpusToModel) {
    R.corpusToModel(In);
  } else {
    std::optional<Build> Served = R.build(In);
    if (!Served)
      return Res;
    lowerTruth(In, Served->Data);
    if (K == Kind::AnnotateCold)
      R.annotateCold(In, *Served);
    else
      R.serveRepeat(In, *Served);
  }
  R.finish();
  return Res;
}

} // namespace perfbench
