//===- tools/snowwhite_cli.cpp - Command-line driver -----------------------===//
//
// A small objdump-style driver over the library, operating on real .wasm
// files on disk:
//
//   snowwhite gen <dir> [num_packages] [seed]
//       Generate a synthetic corpus and write each object file as
//       <dir>/<package>_objN.wasm (with .debug_info/.debug_str sections).
//
//   snowwhite dump <file.wasm>
//       Parse and validate a binary; list its functions with their low-level
//       signatures and, if debug info is present, the recovered high-level
//       parameter/return types in the SNOWWHITE type language.
//
//   snowwhite strip <in.wasm> <out.wasm>
//       Remove all .debug_* custom sections (what a reverse engineer
//       typically gets).
//
//   snowwhite analyze [--cfg [--dot]] <file.wasm>
//       Parse, validate, and run the dataflow analysis; print per-function
//       parameter/return evidence summaries (access widths, derived loads,
//       sign uses, escapes, ...) as JSON on stdout. Works on stripped
//       binaries — the evidence comes from the code, not from debug info.
//
//   snowwhite ingest <dir> [--strict] [--journal F] [--resume] ...
//       Run the dataset pipeline over every .wasm file under <dir>
//       (recursively; ingest order is sorted relative paths, independent of
//       directory layout). The default path streams each file section-wise
//       through a bounded window with a per-file stall watchdog and
//       byte budgets; corrupt or stalling modules are quarantined
//       (skip-and-report). --journal F writes a crash-safe ingest journal
//       on a cadence (--journal-every N) so a killed run resumes with
//       --resume bit-identically to an uninterrupted one. --export-dir D
//       writes the plaintext dataset; --report-out F the quarantine report
//       (atomically). --strict runs the same ingest without a journal and
//       exits 1 with the structured error of the first quarantined file (by
//       discovery order); combined with --journal, --resume or
//       --crash-at-file it is a usage error (exit 2).
//
//   snowwhite train [--epochs N] [--checkpoint PATH] [--resume] ...
//       Train a small model on a synthetic corpus, optionally checkpointing
//       (and resuming) so kill-and-resume behaviour can be exercised from
//       the command line.
//
//   snowwhite metrics [--check FILE]
//       Print this process's telemetry snapshot, or verify that a captured
//       snapshot is canonical (parses and round-trips byte-identically).
//
//   snowwhite predict-batch [requests] [--fail-rate F] [--budget N]
//                           [--queue N] [--seed S] [--verbose]
//       Train a small model on a synthetic corpus, then run a batch of
//       type-prediction requests through a one-worker serving daemon with
//       no cache. Emits one machine-readable line per request
//       (req= outcome= tier= steps= top1=) plus a summary; every request is
//       answered even under injected model failures.
//
//   snowwhite serve [--daemon] [--workers N] [--cache-bytes N]
//                   [--tenant-capacity N] [--tenant-refill N]
//                   [--snapshot PATH] [--snapshot-every N]
//                   [--poison-strikes N] [--shard-cost-budget N]
//                   [--fail-rate F] [--budget N] [--queue N] [--seed S]
//       The serving daemon as a line-oriented REPL: each stdin line is a
//       whitespace-separated wasm input-token sequence; the response line is
//       printed to stdout. Without --daemon it runs one worker and no
//       cache; --daemon selects 2 workers over the thread pool and an 8 MiB
//       signature-keyed prediction cache, so repeated inputs answer from
//       cache with tier=cached. An optional "@tenant " line prefix routes
//       quota accounting; queued requests are processed on every line (one
//       pump round). --snapshot makes restarts warm: the cache loads from
//       (and saves to) a checksummed snapshot; --poison-strikes arms the
//       watchdog that denylists repeatedly-degrading signatures; and
//       --shard-cost-budget sheds overload with a retry-after hint the REPL
//       honors via virtual-time backoff. "!health" prints the health
//       report; EOF or "quit" shuts the daemon down, rejecting anything
//       still queued with outcome=rejected-shutdown.
//
//   snowwhite health <snapshot>
//       Offline snapshot triage: runs the same salvage pass a restarting
//       daemon runs and reports loaded vs quarantined segments per error
//       class. Exits non-zero if anything was quarantined.
//
// Every failure path exits non-zero and prints the structured error as
// "error [<code>]: <context-chained message>".
//
//===----------------------------------------------------------------------===//

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/evidence.h"
#include "dataset/export.h"
#include "dataset/pipeline.h"
#include "dwarf/io.h"
#include "frontend/corpus.h"
#include "model/serve_daemon.h"
#include "model/serving.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/str.h"
#include "support/telemetry.h"
#include "typelang/from_dwarf.h"
#include "wasm/names.h"
#include "wasm/reader.h"
#include "wasm/text.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace snowwhite;

/// Uniform structured-error reporting: machine-readable code + chained
/// message, always to stderr, caller exits non-zero.
static void printError(const Error &E) {
  std::fprintf(stderr, "error [%s]: %s\n", errorCodeName(E.code()),
               E.message().c_str());
}

static bool writeFile(const std::string &Path,
                      const std::vector<uint8_t> &Bytes) {
  Result<void> Written = io::writeFileAtomic(Path, Bytes);
  if (Written.isErr()) {
    printError(Written.error());
    return false;
  }
  return true;
}

static bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  Result<std::vector<uint8_t>> Read = io::readFileBytes(Path);
  if (Read.isErr()) {
    printError(Read.error());
    return false;
  }
  Bytes = Read.take();
  return true;
}

/// Writes Text (plus a trailing newline) to Path, or to stdout for "-".
static bool writeTextFile(const std::string &Path, const std::string &Text) {
  if (Path == "-") {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::vector<uint8_t> Bytes(Text.begin(), Text.end());
  Bytes.push_back('\n');
  return writeFile(Path, Bytes);
}

/// Emits the telemetry snapshot and/or Chrome trace at end of command, as
/// requested by --metrics-out / --trace-out ("" = not requested, "-" =
/// stdout). The snapshot is round-trip-checked before it leaves the process
/// so a malformed emitter fails loudly here, not in a consumer.
static bool emitTelemetry(const std::string &MetricsOut,
                          const std::string &TraceOut) {
  if (!MetricsOut.empty()) {
    std::string Json = telemetry::metricsJson();
    if (telemetry::roundTripMetricsJson(Json) != Json) {
      printError(Error(ErrorCode::Malformed,
                       "metrics snapshot failed the JSON round-trip check"));
      return false;
    }
    if (!writeTextFile(MetricsOut, Json))
      return false;
  }
  if (!TraceOut.empty() && !writeTextFile(TraceOut, telemetry::traceJson()))
    return false;
  return true;
}

static int commandGen(int argc, char **argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: snowwhite gen <dir> [packages] [seed]\n");
    return 2;
  }
  std::string Dir = argv[0];
  frontend::CorpusSpec Spec;
  Spec.NumPackages = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 8;
  Spec.Seed = argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 42;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  size_t Files = 0;
  for (const frontend::Package &Pkg : Corpus.Packages) {
    for (size_t Index = 0; Index < Pkg.Objects.size(); ++Index) {
      std::string Path =
          Dir + "/" + Pkg.Name + "_obj" + std::to_string(Index) + ".wasm";
      if (!writeFile(Path, Pkg.Objects[Index].Bytes))
        return 1;
      ++Files;
    }
  }
  std::printf("wrote %zu object files (%llu functions, %llu instructions) "
              "to %s\n",
              Files, static_cast<unsigned long long>(Corpus.TotalFunctions),
              static_cast<unsigned long long>(Corpus.TotalInstructions),
              Dir.c_str());
  return 0;
}

static int commandDump(int argc, char **argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: snowwhite dump <file.wasm>\n");
    return 2;
  }
  std::vector<uint8_t> Bytes;
  if (!readFile(argv[0], Bytes))
    return 1;
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  if (Parsed.isErr()) {
    printError(Parsed.error().withContext(argv[0]));
    return 1;
  }
  wasm::Module &M = *Parsed;
  Result<void> Valid = wasm::validateModule(M);
  std::printf("%s: %zu bytes, %zu types, %zu imports, %zu functions, %zu "
              "exports, %zu custom sections — %s\n",
              argv[0], Bytes.size(), M.Types.size(), M.Imports.size(),
              M.Functions.size(), M.Exports.size(), M.Customs.size(),
              Valid.isOk() ? "valid"
                           : ("INVALID: " + Valid.error().message()).c_str());

  Result<dwarf::DebugInfo> Debug = dwarf::extractDebugInfo(M);
  bool HasDebug = Debug.isOk();
  std::printf("debug info: %s\n\n",
              HasDebug ? "present" : "absent (stripped)");

  for (uint32_t Func = 0; Func < M.Functions.size(); ++Func) {
    const wasm::FuncType &Type = M.functionType(Func);
    std::string Name = wasm::functionDisplayName(M, Func);
    std::printf("%-40s %s  (%zu instructions)\n", Name.c_str(),
                wasm::printFuncType(Type).c_str(),
                M.Functions[Func].Body.size());
    if (!HasDebug)
      continue;
    dwarf::DieRef Sub =
        Debug->findSubprogramByLowPc(M.Functions[Func].CodeOffset);
    if (Sub == dwarf::InvalidDieRef) {
      std::printf("    (no matching subprogram)\n");
      continue;
    }
    std::vector<dwarf::DieRef> Params = Debug->formalParameters(Sub);
    for (size_t P = 0; P < Params.size(); ++P) {
      typelang::Type High =
          typelang::typeFromDwarf(*Debug, Debug->typeOf(Params[P]));
      std::string ParamName =
          Debug->getString(Params[P], dwarf::Attr::Name).value_or("?");
      std::printf("    param %zu %-12s : %s\n", P, ParamName.c_str(),
                  High.toString().c_str());
    }
    if (Debug->typeOf(Sub) != dwarf::InvalidDieRef) {
      typelang::Type Ret =
          typelang::typeFromDwarf(*Debug, Debug->typeOf(Sub));
      std::printf("    returns            : %s\n", Ret.toString().c_str());
    }
  }
  return 0;
}

static int commandStrip(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: snowwhite strip <in.wasm> <out.wasm>\n");
    return 2;
  }
  std::vector<uint8_t> Bytes;
  if (!readFile(argv[0], Bytes))
    return 1;
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  if (Parsed.isErr()) {
    printError(Parsed.error().withContext(argv[0]));
    return 1;
  }
  size_t Before = Parsed->Customs.size();
  dwarf::stripDebugInfo(*Parsed);
  std::vector<uint8_t> Out = wasm::writeModule(*Parsed);
  if (!writeFile(argv[1], Out))
    return 1;
  std::printf("stripped %zu debug section(s): %zu -> %zu bytes\n",
              Before - Parsed->Customs.size(), Bytes.size(), Out.size());
  return 0;
}

static int commandAnalyze(int argc, char **argv) {
  bool EmitCfg = false;
  bool EmitDot = false;
  const char *Path = nullptr;
  for (int Arg = 0; Arg < argc; ++Arg) {
    if (std::strcmp(argv[Arg], "--cfg") == 0)
      EmitCfg = true;
    else if (std::strcmp(argv[Arg], "--dot") == 0)
      EmitDot = true;
    else
      Path = argv[Arg];
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: snowwhite analyze [--cfg [--dot]] <file.wasm>\n");
    return 2;
  }
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, Bytes))
    return 1;
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  if (Parsed.isErr()) {
    printError(Parsed.error().withContext(Path));
    return 1;
  }
  Result<void> Valid = wasm::validateModule(*Parsed);
  if (Valid.isErr()) {
    printError(Valid.error().withContext(Path));
    return 1;
  }
  if (EmitCfg) {
    // Per-function control-flow graphs: DOT for offline triage (--dot) or a
    // JSON array of graphs (blocks, edges, dominators, loop headers).
    if (!EmitDot)
      std::printf("[");
    for (uint32_t Index = 0; Index < Parsed->Functions.size(); ++Index) {
      Result<analysis::ControlFlowGraph> Cfg =
          analysis::buildCfg(*Parsed, Index);
      if (Cfg.isErr()) {
        printError(Cfg.error().withContext(Path));
        return 1;
      }
      if (EmitDot) {
        std::printf("%s", analysis::cfgToDot(*Parsed, Cfg.value()).c_str());
      } else {
        if (Index != 0)
          std::printf(",");
        std::printf("%s", analysis::cfgToJson(Cfg.value()).c_str());
      }
    }
    if (!EmitDot)
      std::printf("]");
    std::printf("\n");
    return 0;
  }
  Result<analysis::ModuleSummary> Summary = analysis::analyzeModule(*Parsed);
  if (Summary.isErr()) {
    printError(Summary.error().withContext(Path));
    return 1;
  }
  std::printf("%s\n", analysis::toJson(*Summary).c_str());
  return 0;
}

/// Renders the post-ingest summary (shared between stdout and --report-out).
static std::string ingestSummary(const dataset::Dataset &Data,
                                 size_t NumFiles) {
  char Line[512];
  std::snprintf(
      Line, sizeof(Line),
      "ingested %zu file(s): %llu kept, %llu quarantined "
      "(%llu parse, %llu debug-info, %llu validate, %llu watchdog), "
      "%zu samples (%zu train / %zu valid / %zu test)\n",
      NumFiles, static_cast<unsigned long long>(Data.Dedup.ObjectsAfter),
      static_cast<unsigned long long>(Data.Quarantine.total()),
      static_cast<unsigned long long>(Data.Quarantine.ParseFailures),
      static_cast<unsigned long long>(Data.Quarantine.DebugFailures),
      static_cast<unsigned long long>(Data.Quarantine.ValidateFailures),
      static_cast<unsigned long long>(Data.Quarantine.WatchdogFailures),
      Data.Samples.size(), Data.Train.size(), Data.Valid.size(),
      Data.Test.size());
  std::string Out = Line;
  if (!Data.Quarantine.empty())
    Out += Data.Quarantine.summary();
  return Out;
}

static int commandIngest(int argc, char **argv) {
  const char *Usage =
      "snowwhite ingest <dir> [--strict] [--journal F] [--resume] "
      "[--journal-every N] [--file-budget-ms N] [--max-section-bytes N] "
      "[--max-module-bytes N] [--window-bytes N] [--crash-at-file N] "
      "[--export-dir D] [--report-out F] [--metrics-out F] [--trace-out F]";
  if (argc < 1) {
    std::fprintf(stderr, "usage: %s\n", Usage);
    return 2;
  }
  std::string Dir = argv[0];
  bool Strict = false;
  std::string MetricsOut, TraceOut, ReportOut, ExportDir;
  dataset::StreamIngestOptions Options;
  uint64_t CrashAtFile = 0;
  for (int I = 1; I < argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\nusage: %s\n", Flag, Usage);
        return nullptr;
      }
      return argv[++I];
    };
    const char *V = nullptr;
    if (std::strcmp(argv[I], "--strict") == 0) {
      Strict = true;
    } else if (std::strcmp(argv[I], "--journal") == 0) {
      if (!(V = Value("--journal")))
        return 2;
      Options.JournalPath = V;
    } else if (std::strcmp(argv[I], "--resume") == 0) {
      Options.Resume = true;
    } else if (std::strcmp(argv[I], "--journal-every") == 0) {
      if (!(V = Value("--journal-every")))
        return 2;
      Options.JournalEvery = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--file-budget-ms") == 0) {
      if (!(V = Value("--file-budget-ms")))
        return 2;
      Options.FileBudgetMillis = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--max-section-bytes") == 0) {
      if (!(V = Value("--max-section-bytes")))
        return 2;
      Options.MaxSectionBytes = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--max-module-bytes") == 0) {
      if (!(V = Value("--max-module-bytes")))
        return 2;
      Options.MaxModuleBytes = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--window-bytes") == 0) {
      if (!(V = Value("--window-bytes")))
        return 2;
      Options.WindowBytes = static_cast<size_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--crash-at-file") == 0) {
      if (!(V = Value("--crash-at-file")))
        return 2;
      CrashAtFile = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--export-dir") == 0) {
      if (!(V = Value("--export-dir")))
        return 2;
      ExportDir = V;
    } else if (std::strcmp(argv[I], "--report-out") == 0) {
      if (!(V = Value("--report-out")))
        return 2;
      ReportOut = V;
    } else if (std::strcmp(argv[I], "--metrics-out") == 0) {
      if (!(V = Value("--metrics-out")))
        return 2;
      MetricsOut = V;
    } else if (std::strcmp(argv[I], "--trace-out") == 0) {
      if (!(V = Value("--trace-out")))
        return 2;
      TraceOut = V;
    } else {
      std::fprintf(stderr, "unknown ingest option '%s'\nusage: %s\n", argv[I],
                   Usage);
      return 2;
    }
  }

  // --strict keeps no journal, so the journal flags cannot apply to it.
  if (Strict && (!Options.JournalPath.empty() || Options.Resume ||
                 CrashAtFile > 0)) {
    std::fprintf(stderr,
                 "--strict cannot be combined with --journal, --resume or "
                 "--crash-at-file\nusage: %s\n",
                 Usage);
    return 2;
  }

  // Nested trees are the norm for real corpora (one subdirectory per
  // project); discovery recurses and sorts by relative path, so ingest
  // order is independent of directory layout and enumeration order.
  Result<std::vector<dataset::IngestFile>> Files =
      dataset::discoverWasmFiles(Dir);
  if (Files.isErr()) {
    printError(Files.error());
    return 1;
  }

  // One streaming, crash-safe path: bounded memory, journal, per-file
  // watchdog. --strict runs it without a journal and fails on the first
  // quarantined file instead of reporting it.
  fault::FaultConfig CrashConfig;
  CrashConfig.CrashAtTick = CrashAtFile; // 0 = never fires.
  fault::FaultInjector CrashFaults(CrashConfig);
  if (CrashAtFile > 0)
    Options.Faults = &CrashFaults;
  Result<dataset::StreamIngestResult> Ingested =
      dataset::streamIngest(*Files, Options);
  if (Ingested.isErr()) {
    printError(Ingested.error());
    return 1;
  }
  if (Ingested->JournalIssue) {
    std::fprintf(stderr, "warning: journal quarantined to '%s': %s\n",
                 Ingested->JournalQuarantinedPath.c_str(),
                 Ingested->JournalIssue->message().c_str());
    std::fprintf(stderr, "warning: ingest restarted from scratch\n");
  }
  if (Ingested->Crashed) {
    // Simulated kill -9: the journal stays at its last published state
    // and nothing downstream runs. A later --resume picks up from there.
    std::printf("ingest crashed (injected) after %llu file(s); journal at "
                "last publish\n",
                static_cast<unsigned long long>(Ingested->FilesProcessed));
    return 3;
  }
  if (Ingested->FilesReplayed)
    std::printf("resumed: %llu file(s) replayed from the journal, %llu "
                "decided fresh\n",
                static_cast<unsigned long long>(Ingested->FilesReplayed),
                static_cast<unsigned long long>(Ingested->FilesProcessed));
  dataset::Dataset Data = std::move(Ingested->Data);
  if (Strict && !Data.Quarantine.empty()) {
    // One package per file, so the lowest package id is the first file.
    const dataset::QuarantineEntry &First = *std::min_element(
        Data.Quarantine.Entries.begin(), Data.Quarantine.Entries.end(),
        [](const dataset::QuarantineEntry &A,
           const dataset::QuarantineEntry &B) {
          return A.PackageId < B.PackageId;
        });
    printError(Error(First.Code, First.Message));
    return 1;
  }

  std::string Summary = ingestSummary(Data, Files->size());
  std::printf("%s", Summary.c_str());
  // The report, like every other ingest artifact, publishes atomically: a
  // kill (or injected IO fault) mid-write leaves the previous report intact.
  if (!ReportOut.empty() && !writeTextFile(ReportOut, Summary))
    return 1;
  if (Data.Dedup.ObjectsAfter == 0) {
    printError(Error(ErrorCode::Malformed,
                     "all input modules were quarantined"));
    return 1;
  }
  if (!ExportDir.empty()) {
    std::error_code MkdirError;
    std::filesystem::create_directories(ExportDir, MkdirError);
    Result<std::vector<uint64_t>> Exported =
        dataset::exportPlaintext(Data, ExportDir);
    if (Exported.isErr()) {
      printError(Exported.error().withContext("export to '" + ExportDir +
                                              "'"));
      return 1;
    }
  }
  if (!emitTelemetry(MetricsOut, TraceOut))
    return 1;
  return 0;
}

static int commandTrain(int argc, char **argv) {
  const char *Usage =
      "snowwhite train [--packages N] [--epochs N] [--seed S] "
      "[--checkpoint PATH] [--checkpoint-every N] [--resume] "
      "[--metrics-out F] [--trace-out F] [--verbose]";
  uint32_t Packages = 12;
  size_t Epochs = 1;
  uint64_t Seed = 7;
  std::string Checkpoint, MetricsOut, TraceOut;
  size_t CheckpointEvery = 16;
  bool Resume = false, Verbose = false;
  for (int I = 0; I < argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\nusage: %s\n", Flag, Usage);
        return nullptr;
      }
      return argv[++I];
    };
    const char *V = nullptr;
    if (std::strcmp(argv[I], "--packages") == 0) {
      if (!(V = Value("--packages")))
        return 2;
      Packages = static_cast<uint32_t>(std::atoi(V));
    } else if (std::strcmp(argv[I], "--epochs") == 0) {
      if (!(V = Value("--epochs")))
        return 2;
      Epochs = static_cast<size_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--seed") == 0) {
      if (!(V = Value("--seed")))
        return 2;
      Seed = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--checkpoint") == 0) {
      if (!(V = Value("--checkpoint")))
        return 2;
      Checkpoint = V;
    } else if (std::strcmp(argv[I], "--checkpoint-every") == 0) {
      if (!(V = Value("--checkpoint-every")))
        return 2;
      CheckpointEvery = static_cast<size_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--resume") == 0) {
      Resume = true;
    } else if (std::strcmp(argv[I], "--metrics-out") == 0) {
      if (!(V = Value("--metrics-out")))
        return 2;
      MetricsOut = V;
    } else if (std::strcmp(argv[I], "--trace-out") == 0) {
      if (!(V = Value("--trace-out")))
        return 2;
      TraceOut = V;
    } else if (std::strcmp(argv[I], "--verbose") == 0) {
      Verbose = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\nusage: %s\n", argv[I], Usage);
      return 2;
    }
  }

  frontend::CorpusSpec Spec;
  Spec.NumPackages = Packages;
  Spec.Seed = Seed;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  dataset::Dataset Data = dataset::buildDataset(Corpus);
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 512;
  model::Task BoundTask(Data, TaskOpts);

  model::TrainOptions TrainOpts;
  TrainOpts.MaxEpochs = Epochs;
  TrainOpts.BatchSize = 16;
  TrainOpts.EmbedDim = 16;
  TrainOpts.HiddenDim = 24;
  TrainOpts.MaxValidSamples = 64;
  TrainOpts.Seed = Seed;
  TrainOpts.Verbose = Verbose;
  TrainOpts.CheckpointPath = Checkpoint;
  TrainOpts.CheckpointEveryBatches = Checkpoint.empty() ? 0 : CheckpointEvery;
  TrainOpts.Resume = Resume;
  model::TrainResult Trained = model::trainModel(BoundTask, TrainOpts);
  if (!Trained.Model) {
    printError(Error(ErrorCode::Unknown, "training produced no model"));
    return 1;
  }
  std::printf("trained %llu batch(es) in %.2fs%s — best valid loss %.4f\n",
              static_cast<unsigned long long>(Trained.BatchesRun),
              Trained.TrainSeconds, Trained.Interrupted ? " (interrupted)" : "",
              Trained.BestValidLoss);
  if (!emitTelemetry(MetricsOut, TraceOut))
    return 1;
  return 0;
}

static int commandMetrics(int argc, char **argv) {
  // With no arguments: print this process's (mostly empty) registry
  // snapshot — documents the schema and gives scripts a stable probe. With
  // --check FILE: verify a previously captured snapshot parses and
  // round-trips byte-identically.
  if (argc >= 1 && std::strcmp(argv[0], "--check") == 0) {
    if (argc < 2) {
      std::fprintf(stderr, "usage: snowwhite metrics [--check FILE]\n");
      return 2;
    }
    std::vector<uint8_t> Bytes;
    if (!readFile(argv[1], Bytes))
      return 1;
    std::string Json(Bytes.begin(), Bytes.end());
    while (!Json.empty() && (Json.back() == '\n' || Json.back() == '\r'))
      Json.pop_back();
    std::string RoundTripped = telemetry::roundTripMetricsJson(Json);
    if (RoundTripped.empty()) {
      printError(Error(ErrorCode::Malformed,
                       std::string(argv[1]) + ": not a metrics snapshot"));
      return 1;
    }
    if (RoundTripped != Json) {
      printError(Error(ErrorCode::Malformed,
                       std::string(argv[1]) +
                           ": snapshot is not canonical (round-trip differs)"));
      return 1;
    }
    std::printf("%s: ok (%zu bytes, canonical)\n", argv[1], Json.size());
    return 0;
  }
  if (argc >= 1) {
    std::fprintf(stderr, "usage: snowwhite metrics [--check FILE]\n");
    return 2;
  }
  std::printf("%s\n", telemetry::metricsJson().c_str());
  return 0;
}

// --- Serving commands --------------------------------------------------------

namespace {

/// Shared backend for predict-batch and serve: a synthetic corpus, its
/// parameter-prediction task, and a quickly trained small model.
struct ServingDemo {
  dataset::Dataset Data;
  std::unique_ptr<model::Task> BoundTask;
  model::TrainResult Trained;
};

bool buildServingDemo(uint64_t Seed, bool Verbose, ServingDemo &Out) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = Seed;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  Out.Data = dataset::buildDataset(Corpus);
  model::TaskOptions TaskOpts;
  TaskOpts.MaxTrainSamples = 256; // Keep the demo train fast.
  Out.BoundTask = std::make_unique<model::Task>(Out.Data, TaskOpts);
  model::TrainOptions TrainOpts;
  TrainOpts.MaxEpochs = 1;
  TrainOpts.BatchSize = 16;
  TrainOpts.EmbedDim = 16;
  TrainOpts.HiddenDim = 24;
  TrainOpts.MaxValidSamples = 64;
  TrainOpts.Seed = Seed;
  TrainOpts.Verbose = Verbose;
  if (Verbose)
    std::fprintf(stderr, "training demo model (%zu samples)...\n",
                 Out.BoundTask->train().size());
  Out.Trained = model::trainModel(*Out.BoundTask, TrainOpts);
  return Out.Trained.Model != nullptr;
}

void printResponse(const model::ServeResponse &Response) {
  std::string Top1 = Response.Predictions.empty()
                         ? std::string()
                         : joinStrings(Response.Predictions[0].Tokens, " ");
  std::printf("req=%llu outcome=%s tier=%s steps=%llu top1=\"%s\"%s%s\n",
              static_cast<unsigned long long>(Response.Id),
              model::outcomeCode(Response.Outcome),
              model::tierName(Response.Tier),
              static_cast<unsigned long long>(Response.DecodeStepsUsed),
              Top1.c_str(), Response.Detail.empty() ? "" : " detail=",
              Response.Detail.empty()
                  ? ""
                  : ("\"" + Response.Detail + "\"").c_str());
}

void printStats(const model::ServingStats &Stats) {
  std::printf("summary submitted=%llu answered=%llu beam=%llu greedy=%llu "
              "baseline=%llu cached=%llu rejected=%llu decode-steps=%llu\n",
              static_cast<unsigned long long>(Stats.Submitted),
              static_cast<unsigned long long>(Stats.Answered),
              static_cast<unsigned long long>(Stats.BeamAnswers),
              static_cast<unsigned long long>(Stats.GreedyAnswers),
              static_cast<unsigned long long>(Stats.BaselineAnswers),
              static_cast<unsigned long long>(Stats.CachedAnswers),
              static_cast<unsigned long long>(Stats.Rejected),
              static_cast<unsigned long long>(Stats.DecodeSteps));
}

void printCacheStats(const model::CacheStats &Stats) {
  std::printf("cache hits=%llu misses=%llu insertions=%llu evictions=%llu "
              "collisions=%llu bytes=%llu entries=%llu\n",
              static_cast<unsigned long long>(Stats.Hits),
              static_cast<unsigned long long>(Stats.Misses),
              static_cast<unsigned long long>(Stats.Insertions),
              static_cast<unsigned long long>(Stats.Evictions),
              static_cast<unsigned long long>(Stats.Collisions),
              static_cast<unsigned long long>(Stats.Bytes),
              static_cast<unsigned long long>(Stats.Entries));
}

/// Parses Flag's value Text as a positive integer into Out. A queue bound or
/// worker count of zero can never answer a request, so zero, a sign or
/// trailing junk prints the usage and returns false.
bool parsePositiveCount(const char *Flag, const char *Text, const char *Usage,
                        size_t &Out) {
  size_t Value = 0;
  const char *End = Text + std::strlen(Text);
  auto [Ptr, Ec] = std::from_chars(Text, End, Value);
  if (Ec == std::errc() && Ptr == End && Value > 0) {
    Out = Value;
    return true;
  }
  std::fprintf(stderr, "%s needs a positive integer, got '%s'\nusage: %s\n",
               Flag, Text, Usage);
  return false;
}

/// Parses the flags shared by predict-batch and serve. Returns false (after
/// printing to stderr) on a malformed command line.
bool parseServingFlags(int argc, char **argv, const char *Usage,
                       double &FailRate, uint64_t &Budget, size_t &QueueCap,
                       uint64_t &Seed, bool &Verbose, bool &Int8,
                       size_t *Requests, std::string &MetricsOut,
                       std::string &TraceOut) {
  for (int I = 0; I < argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\nusage: %s\n", Flag, Usage);
        return nullptr;
      }
      return argv[++I];
    };
    if (std::strcmp(argv[I], "--metrics-out") == 0) {
      const char *V = Value("--metrics-out");
      if (!V)
        return false;
      MetricsOut = V;
    } else if (std::strcmp(argv[I], "--trace-out") == 0) {
      const char *V = Value("--trace-out");
      if (!V)
        return false;
      TraceOut = V;
    } else if (std::strcmp(argv[I], "--fail-rate") == 0) {
      const char *V = Value("--fail-rate");
      if (!V)
        return false;
      FailRate = std::atof(V);
    } else if (std::strcmp(argv[I], "--budget") == 0) {
      const char *V = Value("--budget");
      if (!V)
        return false;
      Budget = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--queue") == 0) {
      const char *V = Value("--queue");
      if (!V || !parsePositiveCount("--queue", V, Usage, QueueCap))
        return false;
    } else if (std::strcmp(argv[I], "--seed") == 0) {
      const char *V = Value("--seed");
      if (!V)
        return false;
      Seed = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--verbose") == 0) {
      Verbose = true;
    } else if (std::strcmp(argv[I], "--int8") == 0) {
      Int8 = true;
    } else if (Requests && argv[I][0] != '-') {
      *Requests = static_cast<size_t>(std::atoll(argv[I]));
    } else {
      std::fprintf(stderr, "unknown option '%s'\nusage: %s\n", argv[I], Usage);
      return false;
    }
  }
  return true;
}

/// Daemon options shared by predict-batch and serve: one worker, no cache
/// and, at a nonzero FailRate, a per-worker model-failure injector seeded
/// from Seed.
model::DaemonOptions servingDaemonOptions(uint64_t Budget, size_t QueueCap,
                                          double FailRate, uint64_t Seed) {
  model::DaemonOptions Opts;
  Opts.NumWorkers = 1;
  Opts.Cache.ByteBudget = 0;
  Opts.Serving.DefaultStepBudget = Budget;
  Opts.Serving.QueueCapacity = QueueCap;
  if (FailRate > 0.0) {
    fault::FaultConfig FaultCfg;
    FaultCfg.Seed = Seed;
    FaultCfg.ModelFailureRate = FailRate;
    Opts.WorkerFaults = FaultCfg;
  }
  return Opts;
}

} // namespace

static int commandPredictBatch(int argc, char **argv) {
  const char *Usage = "snowwhite predict-batch [requests] [--fail-rate F] "
                      "[--budget N] [--queue N] [--seed S] [--verbose] "
                      "[--int8] [--metrics-out F] [--trace-out F]";
  size_t NumRequests = 32;
  double FailRate = 0.0;
  uint64_t Budget = 256;
  size_t QueueCap = 16;
  uint64_t Seed = 7;
  bool Verbose = false;
  bool Int8 = false;
  std::string MetricsOut, TraceOut;
  if (!parseServingFlags(argc, argv, Usage, FailRate, Budget, QueueCap, Seed,
                         Verbose, Int8, &NumRequests, MetricsOut, TraceOut))
    return 2;

  ServingDemo Demo;
  if (!buildServingDemo(Seed, Verbose, Demo))
    return 1;
  // Quantize before any engine shares the model: the int8 side-cars are
  // written once here and only ever read during serving.
  if (Int8)
    Demo.Trained.Model->setInt8Inference(true);

  model::DaemonOptions Opts =
      servingDaemonOptions(Budget, QueueCap, FailRate, Seed);
  Opts.Serving.TopK = 3;
  model::ServeDaemon Daemon(*Demo.Trained.Model, *Demo.BoundTask, Opts);

  // Requests are the test split's raw input-token sequences, in order.
  const std::vector<uint32_t> &TestIdx = Demo.Data.Test;
  size_t Total = std::min(NumRequests, TestIdx.size());
  if (Total == 0) {
    printError(Error(ErrorCode::NotFound, "no test samples to serve"));
    return 1;
  }
  // Client-side retry: a full queue is a transient condition (a pump round
  // frees it), so admission failures retry under the deterministic backoff
  // policy. The virtual backoff spent lands in the fault.backoff_micros
  // histogram and the summary line.
  fault::RetryPolicy Retry;
  uint64_t BackoffMicros = 0;
  for (size_t I = 0; I < Total; ++I) {
    model::DaemonRequest Request;
    Request.Request.Id = I;
    Request.Request.InputTokens = Demo.Data.Samples[TestIdx[I]].Input;
    Result<void> Admitted = fault::retryWithBackoff(
        Retry,
        [&]() -> Result<void> {
          if (Daemon.submit(Request).Outcome == model::AdmitOutcome::Admitted)
            return {};
          for (const model::ServeResponse &Response : Daemon.pump())
            printResponse(Response);
          return Error(ErrorCode::IoTransient, "serving queue full");
        },
        &BackoffMicros);
    if (Admitted.isErr()) {
      printError(Admitted.error());
      return 1;
    }
  }
  for (const model::ServeResponse &Response : Daemon.pump())
    printResponse(Response);
  model::ServingStats Stats = Daemon.engineTotals();
  printStats(Stats);
  if (BackoffMicros > 0)
    std::printf("client retries backoff-micros=%llu\n",
                static_cast<unsigned long long>(BackoffMicros));
  if (!emitTelemetry(MetricsOut, TraceOut))
    return 1;
  return Stats.Answered == Total ? 0 : 1;
}

/// The daemon REPL behind `snowwhite serve`: requests fan out over worker
/// shards, duplicates answer from the signature-keyed prediction cache when
/// there is one, and an optional "@tenant " line prefix routes quota
/// accounting. One pump round per input line keeps it interactive.
static int runServeDaemonRepl(const ServingDemo &Demo,
                              model::DaemonOptions DaemonOpts,
                              const std::string &MetricsOut,
                              const std::string &TraceOut) {
  model::ServeDaemon Daemon(*Demo.Trained.Model, *Demo.BoundTask, DaemonOpts);
  if (!DaemonOpts.SnapshotPath.empty() && Daemon.cache()) {
    // Warm restart: load whatever validates; a missing or damaged snapshot
    // is a cold start, never a startup failure.
    Result<model::SnapshotLoadReport> Loaded = Daemon.loadSnapshotNow();
    if (Loaded.isOk())
      std::fprintf(stderr,
                   "warm start: %llu entries from %llu/%llu segment(s), "
                   "%llu quarantined\n",
                   static_cast<unsigned long long>(Loaded->EntriesLoaded),
                   static_cast<unsigned long long>(Loaded->SegmentsLoaded),
                   static_cast<unsigned long long>(Loaded->SegmentsTotal),
                   static_cast<unsigned long long>(
                       Loaded->SegmentsQuarantined));
    else
      std::fprintf(stderr, "cold start (%s: %s)\n",
                   errorCodeName(Loaded.error().code()),
                   Loaded.error().message().c_str());
  }
  std::fprintf(stderr,
               "daemon ready — %zu worker(s), cache %s; one request per "
               "line, optional \"@tenant \" prefix; \"!health\" prints the "
               "health report; \"quit\" or EOF shuts down\n",
               Daemon.numWorkers(), Daemon.cache() ? "on" : "off");
  std::string Line;
  uint64_t NextId = 0;
  while (std::getline(std::cin, Line)) {
    if (Line == "quit")
      break;
    if (Line == "!health") {
      std::fputs(Daemon.healthReport().c_str(), stdout);
      std::fflush(stdout);
      continue;
    }
    model::DaemonRequest Request;
    std::istringstream Tokens(Line);
    std::string Token;
    while (Tokens >> Token) {
      if (Request.Request.InputTokens.empty() && Request.Tenant.empty() &&
          Token.size() > 1 && Token[0] == '@') {
        Request.Tenant = Token.substr(1);
        continue;
      }
      Request.Request.InputTokens.push_back(Token);
    }
    if (Request.Request.InputTokens.empty())
      continue;
    Request.Request.Id = NextId++;
    model::DaemonRequest Replay = Request;
    model::AdmitResult Admit = Daemon.submit(std::move(Request));
    if (Admit.Outcome == model::AdmitOutcome::RejectedOverload) {
      // Honor the retry-after hint in virtual time: pump the hinted number
      // of rounds (draining the backlog), then resubmit under the backoff
      // policy. Backoff is accounted, never slept.
      fault::RetryPolicy Retry;
      (void)fault::retryWithBackoff(Retry, [&]() -> Result<void> {
        for (uint64_t R = 0; R < std::max<uint64_t>(1, Admit.RetryAfterRounds);
             ++R)
          for (const model::ServeResponse &Response : Daemon.pump())
            printResponse(Response);
        model::DaemonRequest Again = Replay;
        Admit = Daemon.submit(std::move(Again));
        return Admit.Outcome == model::AdmitOutcome::RejectedOverload
                   ? Result<void>(
                         Error(ErrorCode::IoTransient, "still overloaded"))
                   : Result<void>();
      });
    }
    if (Admit.Outcome != model::AdmitOutcome::Admitted) {
      std::printf("req=%llu outcome=%s",
                  static_cast<unsigned long long>(NextId - 1),
                  model::admitOutcomeCode(Admit.Outcome));
      if (Admit.RetryAfterRounds > 0)
        std::printf(" retry-after-rounds=%llu",
                    static_cast<unsigned long long>(Admit.RetryAfterRounds));
      std::printf("\n");
      std::fflush(stdout);
      continue;
    }
    for (const model::ServeResponse &Response : Daemon.pump())
      printResponse(Response);
    std::fflush(stdout);
  }
  for (const model::ServeResponse &Response : Daemon.shutdown())
    printResponse(Response);
  printStats(Daemon.engineTotals());
  if (Daemon.cache())
    printCacheStats(Daemon.cache()->totals());
  if (!Daemon.checkStats()) {
    printError(Error(ErrorCode::Malformed, "daemon stats are inconsistent"));
    return 1;
  }
  if (!emitTelemetry(MetricsOut, TraceOut))
    return 1;
  return 0;
}

static int commandServe(int argc, char **argv) {
  const char *Usage =
      "snowwhite serve [--daemon] [--workers N] [--cache-bytes N] "
      "[--tenant-capacity N] [--tenant-refill N] [--snapshot PATH] "
      "[--snapshot-every N] [--poison-strikes N] [--shard-cost-budget N] "
      "[--fail-rate F] [--budget N] [--queue N] [--seed S] [--verbose] "
      "[--int8] [--metrics-out F] [--trace-out F]";
  // Daemon flags are peeled off first; the remainder goes through the shared
  // serving-flag parser. --daemon only changes the worker and cache
  // defaults.
  bool Daemon = false;
  std::optional<size_t> Workers;
  std::optional<uint64_t> CacheBytes;
  uint64_t TenantCapacity = 0;
  uint64_t TenantRefill = 0;
  std::string SnapshotPath;
  uint64_t SnapshotEvery = 0;
  size_t PoisonStrikes = 0;
  uint64_t ShardCostBudget = 0;
  std::vector<char *> Rest;
  for (int I = 0; I < argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\nusage: %s\n", Flag, Usage);
        return nullptr;
      }
      return argv[++I];
    };
    if (std::strcmp(argv[I], "--daemon") == 0) {
      Daemon = true;
    } else if (std::strcmp(argv[I], "--workers") == 0) {
      const char *V = Value("--workers");
      size_t Count = 0;
      if (!V || !parsePositiveCount("--workers", V, Usage, Count))
        return 2;
      Workers = Count;
    } else if (std::strcmp(argv[I], "--cache-bytes") == 0) {
      const char *V = Value("--cache-bytes");
      if (!V)
        return 2;
      CacheBytes = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--tenant-capacity") == 0) {
      const char *V = Value("--tenant-capacity");
      if (!V)
        return 2;
      TenantCapacity = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--tenant-refill") == 0) {
      const char *V = Value("--tenant-refill");
      if (!V)
        return 2;
      TenantRefill = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--snapshot") == 0) {
      const char *V = Value("--snapshot");
      if (!V)
        return 2;
      SnapshotPath = V;
    } else if (std::strcmp(argv[I], "--snapshot-every") == 0) {
      const char *V = Value("--snapshot-every");
      if (!V)
        return 2;
      SnapshotEvery = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--poison-strikes") == 0) {
      const char *V = Value("--poison-strikes");
      if (!V)
        return 2;
      PoisonStrikes = static_cast<size_t>(std::atoll(V));
    } else if (std::strcmp(argv[I], "--shard-cost-budget") == 0) {
      const char *V = Value("--shard-cost-budget");
      if (!V)
        return 2;
      ShardCostBudget = static_cast<uint64_t>(std::atoll(V));
    } else {
      Rest.push_back(argv[I]);
    }
  }
  double FailRate = 0.0;
  uint64_t Budget = 256;
  size_t QueueCap = 64;
  uint64_t Seed = 7;
  bool Verbose = false;
  bool Int8 = false;
  std::string MetricsOut, TraceOut;
  if (!parseServingFlags(static_cast<int>(Rest.size()), Rest.data(), Usage,
                         FailRate, Budget, QueueCap, Seed, Verbose, Int8,
                         nullptr, MetricsOut, TraceOut))
    return 2;

  ServingDemo Demo;
  if (!buildServingDemo(Seed, Verbose, Demo))
    return 1;
  // Quantize before the daemon's worker shards share the model: side-cars
  // are written once here, then read-only for every concurrent worker.
  if (Int8)
    Demo.Trained.Model->setInt8Inference(true);

  model::DaemonOptions DaemonOpts =
      servingDaemonOptions(Budget, QueueCap, FailRate, Seed);
  DaemonOpts.NumWorkers = Workers.value_or(Daemon ? 2 : 1);
  DaemonOpts.Cache.ByteBudget = CacheBytes.value_or(Daemon ? 8ull << 20 : 0);
  DaemonOpts.TenantCapacity = TenantCapacity;
  DaemonOpts.TenantRefill = TenantRefill;
  DaemonOpts.SnapshotPath = SnapshotPath;
  DaemonOpts.SnapshotEveryInsertions = SnapshotEvery;
  DaemonOpts.PoisonStrikeLimit = PoisonStrikes;
  DaemonOpts.ShardCostBudget = ShardCostBudget;
  return runServeDaemonRepl(Demo, DaemonOpts, MetricsOut, TraceOut);
}

/// `snowwhite health <snapshot>`: offline snapshot triage. Loads the file
/// into a scratch cache (budget big enough that nothing evicts) and prints
/// what validated and what was quarantined, per error class — the same
/// salvage pass a restarting daemon runs, without needing a model.
static int commandHealth(int argc, char **argv) {
  if (argc < 1) {
    std::fprintf(stderr, "usage: snowwhite health <snapshot>\n");
    return 2;
  }
  model::PredictionCache::Config Cfg;
  Cfg.ByteBudget = 1ull << 30;
  model::PredictionCache Cache(Cfg);
  Result<model::SnapshotLoadReport> Loaded = Cache.loadSnapshot(argv[0]);
  if (Loaded.isErr()) {
    printError(Loaded.error());
    return 1;
  }
  const model::SnapshotLoadReport &Report = Loaded.value();
  std::printf("snapshot=%s\n", argv[0]);
  std::printf("segments.total=%llu\n",
              static_cast<unsigned long long>(Report.SegmentsTotal));
  std::printf("segments.loaded=%llu\n",
              static_cast<unsigned long long>(Report.SegmentsLoaded));
  std::printf("segments.quarantined=%llu\n",
              static_cast<unsigned long long>(Report.SegmentsQuarantined));
  for (const auto &[Code, Count] : Report.QuarantinedByCode)
    std::printf("segments.quarantined.%s=%llu\n", errorCodeName(Code),
                static_cast<unsigned long long>(Count));
  std::printf("entries.loaded=%llu\n",
              static_cast<unsigned long long>(Report.EntriesLoaded));
  model::CacheStats Totals = Cache.totals();
  std::printf("entries.bytes=%llu\n",
              static_cast<unsigned long long>(Totals.Bytes));
  std::printf("consistent=%s\n", Cache.checkStats() ? "yes" : "no");
  return Report.SegmentsQuarantined == 0 ? 0 : 1;
}

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "snowwhite — WebAssembly type-recovery toolkit\n"
                 "usage:\n"
                 "  snowwhite gen <dir> [packages] [seed]\n"
                 "  snowwhite dump <file.wasm>\n"
                 "  snowwhite strip <in.wasm> <out.wasm>\n"
                 "  snowwhite analyze [--cfg [--dot]] <file.wasm>\n"
                 "  snowwhite ingest <dir> [--strict] [--metrics-out F]\n"
                 "  snowwhite train [--epochs N] [--checkpoint PATH] "
                 "[--resume] [--metrics-out F]\n"
                 "  snowwhite predict-batch [requests] [--fail-rate F] "
                 "[--budget N] [--queue N] [--seed S] [--int8] "
                 "[--metrics-out F]\n"
                 "  snowwhite serve [--daemon] [--workers N] [--cache-bytes N] "
                 "[--tenant-capacity N] [--tenant-refill N] "
                 "[--snapshot PATH] [--snapshot-every N] "
                 "[--poison-strikes N] [--shard-cost-budget N] "
                 "[--fail-rate F] [--budget N] [--queue N] [--seed S] "
                 "[--int8] [--metrics-out F]\n"
                 "  snowwhite health <snapshot>\n"
                 "  snowwhite metrics [--check FILE]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "gen") == 0)
    return commandGen(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "dump") == 0)
    return commandDump(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "strip") == 0)
    return commandStrip(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "analyze") == 0)
    return commandAnalyze(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "ingest") == 0)
    return commandIngest(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "train") == 0)
    return commandTrain(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "metrics") == 0)
    return commandMetrics(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "predict-batch") == 0)
    return commandPredictBatch(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "serve") == 0)
    return commandServe(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "health") == 0)
    return commandHealth(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 2;
}
