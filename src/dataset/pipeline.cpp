#include "dataset/pipeline.h"

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/paths.h"
#include "dataset/journal.h"
#include "dwarf/io.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "typelang/fields.h"
#include "typelang/from_dwarf.h"
#include "wasm/abstract.h"
#include "wasm/reader.h"
#include "wasm/validate.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

namespace snowwhite {
namespace dataset {

using frontend::Corpus;

uint64_t Dataset::countParams(const std::vector<uint32_t> &Split) const {
  uint64_t Count = 0;
  for (uint32_t Index : Split)
    if (!Samples[Index].IsReturn)
      ++Count;
  return Count;
}

uint64_t Dataset::countReturns(const std::vector<uint32_t> &Split) const {
  uint64_t Count = 0;
  for (uint32_t Index : Split)
    if (Samples[Index].IsReturn)
      ++Count;
  return Count;
}

std::string QuarantineReport::summary() const {
  std::string Out = "quarantined " + std::to_string(total()) + " module(s): " +
                    std::to_string(ParseFailures) + " parse, " +
                    std::to_string(DebugFailures) + " debug-info";
  if (ValidateFailures)
    Out += ", " + std::to_string(ValidateFailures) + " validate";
  if (WatchdogFailures)
    Out += ", " + std::to_string(WatchdogFailures) + " watchdog";
  Out += "\n";
  for (const QuarantineEntry &Entry : Entries)
    Out += "  package " + std::to_string(Entry.PackageId) + "/obj" +
           std::to_string(Entry.ObjectIndex) + " [" + Entry.Stage + ", " +
           errorCodeName(Entry.Code) + "]: " + Entry.Message + "\n";
  return Out;
}

namespace {

/// A kept binary after dedup: parsed module + debug info + owning package.
struct KeptBinary {
  wasm::Module Mod;
  dwarf::DebugInfo Debug;
  uint32_t PackageId;
};

/// A parsed module that survived dedup, queued for the shared downstream
/// stages (debug extraction onward).
struct KeptParsed {
  wasm::Module Mod;
  std::string Name; ///< Names the object in error context.
  uint32_t PackageId = 0;
  uint32_t ObjectIndex = 0;
  uint64_t ByteSize = 0;
};

/// Runs the shared downstream stages over the deduped survivors: DWARF
/// extraction and validation, dataflow analysis, function/subprogram
/// matching, the name vocabulary, sample materialization, the per-package
/// cap, and the split.
/// Out must arrive with NumPackages and the parse/dedup-stage counters
/// already populated; this fills in everything else (including the final
/// ingest.* telemetry counters).
void finishDataset(std::vector<KeptParsed> KeptMods,
                   const DatasetOptions &Options, Dataset &Out) {
  ThreadPool &Pool = ThreadPool::global();

  // Per-stage time attribution: the stages run strictly in sequence, so one
  // rolling ScopedPhase slot gives each its own wall/CPU window in the
  // telemetry registry ("ingest.<stage>").
  std::unique_ptr<telemetry::ScopedPhase> Stage;
  auto BeginStage = [&Stage](const char *Name) {
    Stage.reset();
    Stage = std::make_unique<telemetry::ScopedPhase>(Name);
  };

  // Validation rides in the same parallel loop: the analysis, path and
  // extraction stages below assume well-typed bodies.
  BeginStage("ingest.debug_extract");
  std::vector<std::optional<dwarf::DebugInfo>> Debugs(KeptMods.size());
  std::vector<std::optional<Error>> DebugErrors(KeptMods.size());
  std::vector<std::optional<Error>> ValidateErrors(KeptMods.size());
  Pool.parallelFor(0, KeptMods.size(), 1, [&](size_t Begin, size_t End) {
    for (size_t K = Begin; K < End; ++K) {
      const std::string &Context = KeptMods[K].Name;
      Result<dwarf::DebugInfo> Debug =
          dwarf::extractDebugInfo(KeptMods[K].Mod);
      if (Debug.isErr()) {
        DebugErrors[K].emplace(Debug.error().withContext(Context));
        continue;
      }
      if (Result<void> Valid = wasm::validateModule(KeptMods[K].Mod);
          Valid.isErr()) {
        ValidateErrors[K].emplace(Valid.error().withContext(Context));
        continue;
      }
      Debugs[K].emplace(Debug.take());
    }
  });

  std::vector<KeptBinary> Kept;
  for (size_t K = 0; K < KeptMods.size(); ++K) {
    if (!Debugs[K]) {
      bool Invalid = ValidateErrors[K].has_value();
      const Error &Failure = Invalid ? *ValidateErrors[K] : *DebugErrors[K];
      ++(Invalid ? Out.Quarantine.ValidateFailures
                 : Out.Quarantine.DebugFailures);
      Out.Quarantine.Entries.push_back(
          {KeptMods[K].PackageId, KeptMods[K].ObjectIndex,
           Invalid ? "validate" : "debug-info", Failure.code(),
           Failure.message()});
      continue;
    }
    ++Out.Dedup.ObjectsAfter;
    Out.Dedup.FunctionsAfter += KeptMods[K].Mod.Functions.size();
    Out.Dedup.InstructionsAfter += KeptMods[K].Mod.countInstructions();
    Out.Dedup.BytesAfter += KeptMods[K].ByteSize;
    Kept.push_back(KeptBinary{std::move(KeptMods[K].Mod),
                              std::move(*Debugs[K]), KeptMods[K].PackageId});
  }

  // --- Stage 1b: dataflow analysis over kept binaries ---------------------
  // Summaries are a pure function of the module bytes, so per-binary slots
  // keep the results thread-count invariant. Analysis failure on a binary
  // that already passed validation is unexpected but non-fatal: the binary
  // simply contributes samples without evidence.
  BeginStage("ingest.analysis");
  bool WantEvidence = Options.ComputeEvidence || Options.Extract.EvidenceTokens;
  std::vector<std::optional<analysis::ModuleSummary>> Summaries(
      WantEvidence ? Kept.size() : 0);
  if (WantEvidence)
    Pool.parallelTasks(Kept.size(), [&](size_t BinaryIndex) {
      Result<analysis::ModuleSummary> Summary =
          analysis::analyzeModule(Kept[BinaryIndex].Mod);
      if (Summary.isOk())
        Summaries[BinaryIndex].emplace(Summary.take());
    });

  // Control-flow path tokens are per function (every query against the same
  // function shares them), so they are computed once here, not per sample.
  // A CFG build failure on a validated binary is unexpected but non-fatal:
  // the function's samples simply carry no path tokens.
  bool WantPaths = Options.Extract.PathTokens;
  std::vector<std::vector<std::vector<std::string>>> PathsPerBinary(
      WantPaths ? Kept.size() : 0);
  if (WantPaths)
    Pool.parallelTasks(Kept.size(), [&](size_t BinaryIndex) {
      const wasm::Module &Mod = Kept[BinaryIndex].Mod;
      auto &Paths = PathsPerBinary[BinaryIndex];
      Paths.resize(Mod.Functions.size());
      for (uint32_t FuncIndex = 0; FuncIndex < Mod.Functions.size();
           ++FuncIndex) {
        Result<analysis::ControlFlowGraph> Cfg =
            analysis::buildCfg(Mod, FuncIndex);
        if (Cfg.isOk())
          Paths[FuncIndex] = analysis::extractPathTokens(Cfg.value());
      }
    });

  // --- Stage 2+3: match functions to subprograms and collect raw samples -
  BeginStage("ingest.match");
  struct RawRef {
    size_t BinaryIndex;
    dwarf::DieRef TypeDie;
    uint32_t FuncIndex;
    int32_t ParamIndex; ///< -1 = return sample.
  };
  // Each binary's matches are independent; per-binary results concatenate
  // in binary order, so Raw is identical to the sequential pipeline's.
  std::vector<std::vector<RawRef>> RawPerBinary(Kept.size());
  std::vector<uint64_t> MismatchPerBinary(Kept.size(), 0);
  Pool.parallelTasks(Kept.size(), [&](size_t BinaryIndex) {
    const KeptBinary &Binary = Kept[BinaryIndex];
    for (uint32_t FuncIndex = 0; FuncIndex < Binary.Mod.Functions.size();
         ++FuncIndex) {
      const wasm::Function &Func = Binary.Mod.Functions[FuncIndex];
      dwarf::DieRef Subprogram =
          Binary.Debug.findSubprogramByLowPc(Func.CodeOffset);
      if (Subprogram == dwarf::InvalidDieRef) {
        ++MismatchPerBinary[BinaryIndex];
        continue;
      }
      const wasm::FuncType &Type = Binary.Mod.functionType(FuncIndex);
      std::vector<dwarf::DieRef> Params =
          Binary.Debug.formalParameters(Subprogram);
      if (Params.size() != Type.Params.size()) {
        // Parameter counts differ between source and binary (e.g. due to
        // optimizations): skip the whole function (§5).
        ++MismatchPerBinary[BinaryIndex];
        continue;
      }
      for (uint32_t ParamIndex = 0; ParamIndex < Params.size(); ++ParamIndex)
        RawPerBinary[BinaryIndex].push_back(
            {BinaryIndex, Binary.Debug.typeOf(Params[ParamIndex]), FuncIndex,
             static_cast<int32_t>(ParamIndex)});
      bool DwarfReturns =
          Binary.Debug.typeOf(Subprogram) != dwarf::InvalidDieRef;
      bool WasmReturns = !Type.Results.empty();
      if (DwarfReturns && WasmReturns)
        RawPerBinary[BinaryIndex].push_back(
            {BinaryIndex, Binary.Debug.typeOf(Subprogram), FuncIndex, -1});
    }
  });
  std::vector<RawRef> Raw;
  for (size_t BinaryIndex = 0; BinaryIndex < Kept.size(); ++BinaryIndex) {
    Out.FunctionsSkippedMismatch += MismatchPerBinary[BinaryIndex];
    Raw.insert(Raw.end(), RawPerBinary[BinaryIndex].begin(),
               RawPerBinary[BinaryIndex].end());
  }

  // --- Stage 4: common-name vocabulary ------------------------------------
  // Fixed-size shards collect into private vocabularies, merged in shard
  // order. NameVocabulary::merge is exactly associative (set unions and
  // integer adds), so the vocabulary matches the sequential build.
  BeginStage("ingest.names");
  constexpr size_t NameShardSize = 1024;
  size_t NameShards = (Raw.size() + NameShardSize - 1) / NameShardSize;
  std::vector<typelang::NameVocabulary> ShardNames(NameShards);
  Pool.mapReduceOrdered(
      NameShards,
      [&](size_t Shard) {
        size_t Begin = Shard * NameShardSize;
        size_t End = std::min(Begin + NameShardSize, Raw.size());
        for (size_t I = Begin; I < End; ++I)
          typelang::collectTypeNames(Kept[Raw[I].BinaryIndex].Debug,
                                     Raw[I].TypeDie,
                                     Kept[Raw[I].BinaryIndex].PackageId,
                                     ShardNames[Shard]);
      },
      [&](size_t Shard) { Out.Names.merge(ShardNames[Shard]); });
  Out.Names.finalize(Out.NumPackages, Options.NameVocabThreshold);

  // --- Materialize samples -------------------------------------------------
  // Every sample has a preallocated disjoint slot, so this is purely
  // data-parallel and order-independent.
  BeginStage("ingest.materialize");
  typelang::ConvertOptions Convert;
  Convert.KeepNestedNames = true;
  Out.Samples.resize(Raw.size());
  Pool.parallelFor(0, Raw.size(), 16, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const RawRef &Ref = Raw[I];
      const KeptBinary &Binary = Kept[Ref.BinaryIndex];
      TypeSample &Sample = Out.Samples[I];
      Sample.PackageId = Binary.PackageId;
      Sample.RichType =
          typelang::typeFromDwarf(Binary.Debug, Ref.TypeDie, Convert);
      Sample.FieldTokens =
          typelang::fieldShapeTokens(Binary.Debug, Ref.TypeDie);
      const wasm::FuncType &Type = Binary.Mod.functionType(Ref.FuncIndex);
      if (WantEvidence && Summaries[Ref.BinaryIndex])
        Sample.Evidence = analysis::queryEvidence(
            *Summaries[Ref.BinaryIndex], Ref.FuncIndex, Ref.ParamIndex);
      const std::vector<std::string> *Paths = nullptr;
      if (WantPaths && Ref.FuncIndex < PathsPerBinary[Ref.BinaryIndex].size() &&
          !PathsPerBinary[Ref.BinaryIndex][Ref.FuncIndex].empty())
        Paths = &PathsPerBinary[Ref.BinaryIndex][Ref.FuncIndex];
      if (Ref.ParamIndex < 0) {
        Sample.IsReturn = true;
        Sample.LowLevel = Type.Results[0];
        Sample.Input = extractReturnInput(
            Binary.Mod, Ref.FuncIndex, Options.Extract,
            Sample.Evidence.Ret ? &*Sample.Evidence.Ret : nullptr, Paths);
      } else {
        Sample.IsReturn = false;
        Sample.LowLevel = Type.Params[static_cast<size_t>(Ref.ParamIndex)];
        Sample.Input = extractParamInput(
            Binary.Mod, Ref.FuncIndex, static_cast<uint32_t>(Ref.ParamIndex),
            Options.Extract,
            Sample.Evidence.Param ? &*Sample.Evidence.Param : nullptr, Paths);
      }
    }
  });

  // --- Stage 5: per-package sample cap ------------------------------------
  BeginStage("ingest.cap_and_split");
  if (Options.CapPerPackage) {
    std::map<uint32_t, uint64_t> PerPackage;
    for (const TypeSample &Sample : Out.Samples)
      ++PerPackage[Sample.PackageId];
    if (PerPackage.size() >= 2) {
      std::vector<uint64_t> Counts;
      for (const auto &[PackageId, Count] : PerPackage)
        Counts.push_back(Count);
      std::sort(Counts.rbegin(), Counts.rend());
      uint64_t Cap = Counts[1]; // Second most frequent package's count.
      std::map<uint32_t, uint64_t> Taken;
      std::vector<TypeSample> Capped;
      Capped.reserve(Out.Samples.size());
      for (TypeSample &Sample : Out.Samples) {
        if (Taken[Sample.PackageId] >= Cap) {
          ++Out.SamplesDroppedByCap;
          continue;
        }
        ++Taken[Sample.PackageId];
        Capped.push_back(std::move(Sample));
      }
      Out.Samples = std::move(Capped);
    }
  }

  // --- Stage 6: split by package -------------------------------------------
  // Only packages that actually contributed samples matter for the split;
  // fully-deduplicated packages would otherwise eat a validation/test slot.
  std::set<uint32_t> Contributing;
  for (const TypeSample &Sample : Out.Samples)
    Contributing.insert(Sample.PackageId);
  std::vector<uint32_t> PackageIds(Contributing.begin(), Contributing.end());
  Rng SplitRng(Options.SplitSeed);
  SplitRng.shuffle(PackageIds);
  size_t NumTrain = static_cast<size_t>(Options.TrainFraction *
                                        static_cast<double>(PackageIds.size()));
  size_t NumValid = static_cast<size_t>(Options.ValidFraction *
                                        static_cast<double>(PackageIds.size()));
  if (PackageIds.size() >= 3) {
    // Guarantee non-empty validation and test portions.
    NumValid = std::max<size_t>(NumValid, 1);
    if (NumTrain + NumValid >= PackageIds.size())
      NumTrain = PackageIds.size() - NumValid - 1;
  }
  enum class SplitKind : uint8_t { Train, Valid, Test };
  std::map<uint32_t, SplitKind> SplitOf;
  for (size_t I = 0; I < PackageIds.size(); ++I) {
    SplitKind Kind = I < NumTrain ? SplitKind::Train
                     : I < NumTrain + NumValid ? SplitKind::Valid
                                               : SplitKind::Test;
    SplitOf[PackageIds[I]] = Kind;
  }
  for (uint32_t Index = 0; Index < Out.Samples.size(); ++Index) {
    switch (SplitOf[Out.Samples[Index].PackageId]) {
    case SplitKind::Train:
      Out.Train.push_back(Index);
      break;
    case SplitKind::Valid:
      Out.Valid.push_back(Index);
      break;
    case SplitKind::Test:
      Out.Test.push_back(Index);
      break;
    }
  }
  Stage.reset();

  telemetry::counter("ingest.quarantine.parse_failures")
      .add(Out.Quarantine.ParseFailures);
  telemetry::counter("ingest.quarantine.debug_failures")
      .add(Out.Quarantine.DebugFailures);
  telemetry::counter("ingest.quarantine.validate_failures")
      .add(Out.Quarantine.ValidateFailures);
  telemetry::counter("ingest.quarantine.watchdog_failures")
      .add(Out.Quarantine.WatchdogFailures);
  telemetry::counter("ingest.duplicates_dropped")
      .add(Out.Dedup.ExactDuplicates + Out.Dedup.NearDuplicates);
  telemetry::counter("ingest.objects_kept").add(Out.Dedup.ObjectsAfter);
  telemetry::counter("ingest.functions_skipped_mismatch")
      .add(Out.FunctionsSkippedMismatch);
  telemetry::counter("ingest.samples_dropped_by_cap")
      .add(Out.SamplesDroppedByCap);
  telemetry::counter("ingest.samples").add(Out.Samples.size());
}

} // namespace

Result<std::vector<IngestFile>> discoverWasmFiles(const std::string &Root) {
  namespace fs = std::filesystem;
  std::error_code DirError;
  std::vector<IngestFile> Files;
  fs::recursive_directory_iterator It(Root, DirError), EndIt;
  if (DirError)
    return Error(ErrorCode::IoError, "cannot list directory '" + Root +
                                         "': " + DirError.message());
  for (; It != EndIt; It.increment(DirError)) {
    if (DirError)
      return Error(ErrorCode::IoError, "cannot list directory '" + Root +
                                           "': " + DirError.message());
    std::error_code TypeError;
    if (!It->is_regular_file(TypeError) ||
        It->path().extension() != ".wasm")
      continue;
    IngestFile File;
    File.Path = It->path().string();
    File.RelPath = It->path().lexically_relative(Root).generic_string();
    Files.push_back(std::move(File));
  }
  if (Files.empty())
    return Error(ErrorCode::NotFound, "no .wasm files under '" + Root + "'");
  std::sort(Files.begin(), Files.end(),
            [](const IngestFile &A, const IngestFile &B) {
              return A.RelPath < B.RelPath;
            });
  for (size_t I = 0; I < Files.size(); ++I)
    Files[I].PackageId = static_cast<uint32_t>(I);
  return Files;
}

namespace {

/// Digest over the decision-relevant ingest knobs. A journal written under
/// different budgets (or dedup off) would have decided differently, so
/// resume refuses to mix them.
uint64_t ingestConfigDigest(const StreamIngestOptions &Options) {
  uint64_t Digest = hashString("snowwhite-ingest-journal");
  Digest = hashCombine(Digest, Options.Dataset.Deduplicate ? 1 : 0);
  Digest = hashCombine(Digest, Options.FileBudgetMillis);
  Digest = hashCombine(Digest, Options.MaxSectionBytes);
  Digest = hashCombine(Digest, Options.MaxModuleBytes);
  return Digest;
}

/// Opens File's bytes: the borrowed buffer when set, else the file at Path.
/// Both hand out at most WindowBytes per read.
std::unique_ptr<io::ByteSource> openSource(const IngestFile &File,
                                           size_t WindowBytes,
                                           fault::FaultInjector *Faults) {
  if (File.Bytes)
    return std::make_unique<io::MemoryByteSource>(*File.Bytes, WindowBytes);
  return std::make_unique<io::FileByteSource>(File.Path, WindowBytes, Faults);
}

/// Chunked byte-wise comparison of two files through bounded windows. This
/// is the collision-safety confirm for exact dedup: a 64-bit hash match
/// alone never drops a file, and confirming by re-reading costs memory
/// proportional to the window, not the file.
Result<bool> fileContentsEqual(const IngestFile &FileA, const IngestFile &FileB,
                               size_t WindowBytes,
                               fault::FaultInjector *Faults) {
  std::unique_ptr<io::ByteSource> A = openSource(FileA, WindowBytes, Faults);
  std::unique_ptr<io::ByteSource> B = openSource(FileB, WindowBytes, Faults);
  auto FillChunk = [](io::ByteSource &Source, uint8_t *Buf,
                      size_t N) -> Result<size_t> {
    size_t Got = 0;
    while (Got < N) {
      Result<size_t> R = Source.readSome(Buf + Got, N - Got);
      if (R.isErr())
        return R;
      if (*R == 0)
        break;
      Got += *R;
    }
    return Got;
  };
  uint8_t BufA[4096], BufB[4096];
  for (;;) {
    Result<size_t> GotA = FillChunk(*A, BufA, sizeof(BufA));
    if (GotA.isErr())
      return GotA.error();
    Result<size_t> GotB = FillChunk(*B, BufB, sizeof(BufB));
    if (GotB.isErr())
      return GotB.error();
    if (*GotA != *GotB)
      return false;
    if (*GotA == 0)
      return true;
    if (!std::equal(BufA, BufA + *GotA, BufB))
      return false;
  }
}

/// One file after the parse stage: the module (or why decoding failed) and
/// the hashes its dedup decision needs. A pure function of the file's bytes.
struct ParsedFile {
  Result<wasm::Module> Mod = Error(ErrorCode::Unknown, "not parsed");
  uint64_t Bytes = 0;      ///< Bytes consumed from the source.
  uint64_t ExactHash = 0;  ///< Running hash over those bytes.
  uint64_t ApproxHash = 0; ///< Hash of Abstraction.
  std::string Abstraction; ///< Canonical abstraction; empty without dedup.
};

/// Streamed parse of one file under the byte budgets and, when Watched (not
/// a journaled decision being replayed), the per-file watchdog.
ParsedFile parseFile(const IngestFile &File, const StreamIngestOptions &Options,
                     fault::FaultInjector *Faults, bool Watched) {
  std::unique_ptr<io::ByteSource> Source =
      openSource(File, Options.WindowBytes, Faults);
  fault::Deadline Watchdog(Options.FileBudgetMillis, Faults);
  wasm::ReadLimits Limits;
  Limits.MaxSectionBytes = Options.MaxSectionBytes;
  Limits.MaxModuleBytes = Options.MaxModuleBytes;
  if (Watched)
    Limits.Watchdog = &Watchdog;
  ParsedFile Out;
  Out.Mod = wasm::readModuleStreamed(*Source, Limits);
  Out.Bytes = Source->consumed();
  Out.ExactHash = Source->runningHash();
  if (Out.Mod.isOk() && Options.Dataset.Deduplicate) {
    Out.Abstraction = wasm::moduleAbstraction(*Out.Mod);
    Out.ApproxHash = hashString(Out.Abstraction);
  }
  return Out;
}

Result<StreamIngestResult> ingest(const std::vector<IngestFile> &Files,
                                  const StreamIngestOptions &Options,
                                  uint32_t NumPackages) {
  StreamIngestResult Out;
  Dataset &Data = Out.Data;
  Data.NumPackages = NumPackages;

  telemetry::ScopedPhase IngestPhase("ingest.total");
  std::unique_ptr<telemetry::ScopedPhase> Stage =
      std::make_unique<telemetry::ScopedPhase>("ingest.stream_parse");
  fault::FaultInjector *Faults =
      Options.Faults ? Options.Faults : fault::globalInjector();
  bool Journaling = !Options.JournalPath.empty();
  uint64_t ConfigDigest = ingestConfigDigest(Options);

  // --- Resume: load the journal and validate it against this corpus ------
  journal::IngestJournal J;
  J.ConfigDigest = ConfigDigest;
  size_t ReplayCount = 0;
  if (Journaling && Options.Resume) {
    Result<journal::IngestJournal> Loaded =
        journal::loadJournal(Options.JournalPath, Faults);
    std::optional<Error> Reject;
    if (Loaded.isErr()) {
      // A missing journal just means nothing to resume; anything else is a
      // damaged journal and gets quarantined aside.
      if (Loaded.error().code() != ErrorCode::IoError)
        Reject = Loaded.error();
    } else if (Loaded->ConfigDigest != ConfigDigest) {
      Reject = Error(ErrorCode::Unsupported,
                     "journal '" + Options.JournalPath +
                         "': config digest mismatch (ingest options changed)");
    } else if (Loaded->Records.size() > Files.size()) {
      Reject = Error(ErrorCode::Unsupported,
                     "journal '" + Options.JournalPath +
                         "': more records than discovered files (corpus "
                         "changed)");
    } else {
      for (size_t I = 0; I < Loaded->Records.size(); ++I)
        if (Loaded->Records[I].RelPath != Files[I].RelPath) {
          Reject = Error(ErrorCode::Unsupported,
                         "journal '" + Options.JournalPath + "': record " +
                             std::to_string(I) + " names '" +
                             Loaded->Records[I].RelPath +
                             "' but the corpus has '" + Files[I].RelPath +
                             "' (corpus changed)");
          break;
        }
    }
    if (Reject) {
      Out.JournalIssue = *Reject;
      Out.JournalQuarantinedPath =
          journal::quarantineJournal(Options.JournalPath);
      telemetry::counter("ingest.journal.quarantined").add(1);
    } else if (Loaded.isOk()) {
      J.Records = std::move(Loaded->Records);
      ReplayCount = J.Records.size();
    }
  }

  // --- Dedup state ---------------------------------------------------------
  // Near dedup keeps the canonical abstraction strings (small) in a
  // collision-checked SignatureSet. Exact dedup cannot afford full-file keys,
  // so it buckets file indices by streaming hash and confirms candidate
  // duplicates by chunked re-read: collision-safe, window-bounded memory.
  SignatureSet SeenApprox;
  std::unordered_map<uint64_t, std::vector<size_t>> ExactBuckets;
  uint64_t ExactCollisions = 0;
  auto InsertExact = [&](size_t FileIndex, uint64_t Hash) {
    std::vector<size_t> &Bucket = ExactBuckets[Hash];
    if (!Bucket.empty())
      ++ExactCollisions;
    Bucket.push_back(FileIndex);
  };

  std::vector<KeptParsed> KeptMods;
  auto Keep = [&](size_t FileIndex, ParsedFile &Parsed) {
    const IngestFile &File = Files[FileIndex];
    KeptMods.push_back({Parsed.Mod.take(), File.RelPath, File.PackageId,
                        File.ObjectIndex, Parsed.Bytes});
  };

  auto Publish = [&]() -> Result<void> {
    if (!Journaling)
      return {};
    Result<void> Saved = journal::saveJournal(Options.JournalPath, J, Faults);
    if (Saved.isOk()) {
      ++Out.JournalPublishes;
      telemetry::counter("ingest.journal.publishes").add(1);
    }
    return Saved;
  };

  // Applies a decided record's stats + quarantine entries; identical for
  // fresh and replayed records, which is what makes resume bit-identical.
  auto ApplyRecord = [&](size_t FileIndex, const journal::FileRecord &Rec) {
    ++Data.Dedup.ObjectsBefore;
    Data.Dedup.BytesBefore += Rec.Bytes;
    Data.Dedup.FunctionsBefore += Rec.Functions;
    Data.Dedup.InstructionsBefore += Rec.Instructions;
    const IngestFile &File = Files[FileIndex];
    switch (Rec.Outcome) {
    case journal::FileOutcome::Kept:
      break; // After-side stats accrue in the debug-extract stage.
    case journal::FileOutcome::QuarantinedParse:
      ++Data.Quarantine.ParseFailures;
      Data.Quarantine.Entries.push_back({File.PackageId, File.ObjectIndex,
                                         Rec.Stage, Rec.Code, Rec.Message});
      break;
    case journal::FileOutcome::QuarantinedWatchdog:
      ++Data.Quarantine.WatchdogFailures;
      Data.Quarantine.Entries.push_back({File.PackageId, File.ObjectIndex,
                                         Rec.Stage, Rec.Code, Rec.Message});
      break;
    case journal::FileOutcome::DuplicateExact:
      ++Data.Dedup.ExactDuplicates;
      break;
    case journal::FileOutcome::DuplicateNear:
      ++Data.Dedup.NearDuplicates;
      break;
    }
  };

  // Re-applies a journaled Kept decision: verify the file still matches its
  // journaled hashes, and rebuild the dedup-set state byte-exactly.
  auto ReplayKept = [&](size_t FileIndex, const journal::FileRecord &Rec,
                        ParsedFile &Parsed) -> Result<void> {
    const std::string &RelPath = Files[FileIndex].RelPath;
    if (Parsed.Mod.isErr())
      return Parsed.Mod.error().withContext(
          "resume: journaled-kept file '" + RelPath + "' no longer parses");
    if (Parsed.ExactHash != Rec.ExactHash)
      return Error(ErrorCode::ChecksumMismatch,
                   "resume: file '" + RelPath +
                       "' changed since it was journaled");
    if (Options.Dataset.Deduplicate) {
      InsertExact(FileIndex, Rec.ExactHash);
      if (Parsed.ApproxHash != Rec.ApproxHash)
        return Error(ErrorCode::ChecksumMismatch,
                     "resume: file '" + RelPath +
                         "' abstraction changed since it was journaled");
      SeenApprox.insert(Rec.ApproxHash, std::move(Parsed.Abstraction));
    }
    Keep(FileIndex, Parsed);
    return {};
  };

  // Decides one not-yet-journaled file from its parse: quarantine, or
  // collision-safe dedup.
  auto DecideFile = [&](size_t FileIndex, ParsedFile &Parsed,
                        journal::FileRecord &Rec) -> Result<void> {
    const IngestFile &File = Files[FileIndex];
    Rec.RelPath = File.RelPath;
    Rec.Bytes = Parsed.Bytes;
    telemetry::histogram("ingest.stream.file_bytes").record(Rec.Bytes);
    if (Parsed.Mod.isErr()) {
      const Error &E = Parsed.Mod.error();
      // Timeout and the reader's byte-budget breaches are the watchdog's
      // verdicts; everything else is ordinary parse damage.
      bool Watchdogged =
          E.code() == ErrorCode::Timeout ||
          (E.code() == ErrorCode::LimitExceeded &&
           E.message().find("byte budget") != std::string::npos);
      Rec.Outcome = Watchdogged ? journal::FileOutcome::QuarantinedWatchdog
                                : journal::FileOutcome::QuarantinedParse;
      Rec.Code = E.code();
      Rec.Stage = Watchdogged ? "watchdog" : "parse";
      Rec.Message = E.withContext(File.RelPath).message();
      return {};
    }
    Rec.ExactHash = Parsed.ExactHash;
    Rec.Functions = Parsed.Mod->Functions.size();
    Rec.Instructions = Parsed.Mod->countInstructions();
    if (Options.Dataset.Deduplicate) {
      for (size_t PriorIndex : ExactBuckets[Rec.ExactHash]) {
        Result<bool> Same = fileContentsEqual(Files[PriorIndex], File,
                                              Options.WindowBytes, Faults);
        if (Same.isErr())
          return Same.error().withContext("dedup confirm for '" +
                                          File.RelPath + "'");
        if (*Same) {
          Rec.Outcome = journal::FileOutcome::DuplicateExact;
          return {};
        }
      }
      InsertExact(FileIndex, Rec.ExactHash);
      Rec.ApproxHash = Parsed.ApproxHash;
      if (SeenApprox.insert(Rec.ApproxHash, std::move(Parsed.Abstraction)) ==
          SignatureSet::Insert::Duplicate) {
        Rec.Outcome = journal::FileOutcome::DuplicateNear;
        return {};
      }
    }
    Rec.Outcome = journal::FileOutcome::Kept;
    Keep(FileIndex, Parsed);
    return {};
  };

  // The parse stage: fresh files and journaled-Kept files need a module
  // (replayed duplicates and quarantines do not). Parsing is a pure function
  // of a file's bytes, so it fans out over the pool, load-balanced over the
  // whole list, and the decisions below replay in file order: the outcome is
  // thread-count independent. I/O and stall faults each draw from one random
  // stream of the injector (the dedup confirm's re-read draws I/O faults
  // too), so under those each file parses just before its decision, keeping
  // the draw order. So it does on a one-thread pool, where parsing ahead
  // would only hold every module longer.
  bool ParseAhead = ThreadPool::global().numThreads() > 1 &&
                    !(Faults && (Faults->config().IoFailureRate > 0.0 ||
                                 Faults->config().StallRate > 0.0));
  std::vector<ParsedFile> Parses(Files.size());
  auto ParseAt = [&](size_t I) {
    bool Fresh = I >= ReplayCount;
    if (Fresh || J.Records[I].Outcome == journal::FileOutcome::Kept)
      Parses[I] = parseFile(Files[I], Options, Faults, Fresh);
  };
  if (ParseAhead)
    ThreadPool::global().parallelTasks(Files.size(), ParseAt);

  // --- The per-file decision loop (strictly sequential in Files order) ----
  for (size_t I = 0; I < Files.size(); ++I) {
    if (!ParseAhead)
      ParseAt(I);
    // Dropped once decided: a duplicate's module is not held to the end.
    ParsedFile Parsed = std::move(Parses[I]);
    if (I < ReplayCount) {
      const journal::FileRecord &Rec = J.Records[I];
      if (Rec.Outcome == journal::FileOutcome::Kept) {
        Result<void> Replayed = ReplayKept(I, Rec, Parsed);
        if (Replayed.isErr())
          return Replayed.error();
      } else if (Rec.Outcome == journal::FileOutcome::DuplicateNear &&
                 Options.Dataset.Deduplicate) {
        // A near-duplicate's exact hash entered the exact set before the
        // near check dropped it; replay must rebuild that state too.
        InsertExact(I, Rec.ExactHash);
      }
      ApplyRecord(I, Rec);
      ++Out.FilesReplayed;
      continue;
    }
    journal::FileRecord Rec;
    Result<void> Decided = DecideFile(I, Parsed, Rec);
    if (Decided.isErr())
      return Decided.error();
    J.Records.push_back(Rec);
    ApplyRecord(I, Rec);
    ++Out.FilesProcessed;
    if (Journaling && Options.JournalEvery > 0 &&
        J.Records.size() % Options.JournalEvery == 0) {
      Result<void> Published = Publish();
      if (Published.isErr())
        return Published.error();
    }
    // The crash clock ticks once per decided file; when it fires the run
    // stops cold — no final publish — exactly like a kill -9 between
    // journal cadences.
    if (Faults && Faults->tick()) {
      Out.Crashed = true;
      telemetry::counter("ingest.crashes_injected").add(1);
      return Out;
    }
  }

  Result<void> Published = Publish();
  if (Published.isErr())
    return Published.error();

  Data.Dedup.SignatureCollisions = ExactCollisions + SeenApprox.collisions();
  if (Data.Dedup.SignatureCollisions)
    telemetry::counter("ingest.signature_collisions")
        .add(Data.Dedup.SignatureCollisions);
  telemetry::counter("ingest.stream.files_processed").add(Out.FilesProcessed);
  telemetry::counter("ingest.stream.files_replayed").add(Out.FilesReplayed);
  Stage.reset();

  finishDataset(std::move(KeptMods), Options.Dataset, Data);
  return Out;
}

} // namespace

Result<StreamIngestResult> streamIngest(const std::vector<IngestFile> &Files,
                                        const StreamIngestOptions &Options) {
  return ingest(Files, Options, static_cast<uint32_t>(Files.size()));
}

Dataset buildDataset(const Corpus &Corpus, const DatasetOptions &Options) {
  std::vector<IngestFile> Files;
  for (const frontend::Package &Pkg : Corpus.Packages)
    for (uint32_t Index = 0; Index < Pkg.Objects.size(); ++Index)
      Files.push_back({"",
                       "package " + std::to_string(Pkg.Id) + "/obj" +
                           std::to_string(Index),
                       &Pkg.Objects[Index].Bytes, Pkg.Id, Index});
  // An inert local injector: in-memory objects see no crash tick, stall or
  // I/O fault, and a caller's global injector is never drawn from.
  fault::FaultInjector NoFaults;
  StreamIngestOptions Ingest;
  Ingest.Dataset = Options;
  Ingest.Faults = &NoFaults;
  // Without a journal or a file on disk, nothing here can fail.
  Result<StreamIngestResult> Out =
      ingest(Files, Ingest, static_cast<uint32_t>(Corpus.Packages.size()));
  assert(Out.isOk());
  return std::move(Out->Data);
}

} // namespace dataset
} // namespace snowwhite
