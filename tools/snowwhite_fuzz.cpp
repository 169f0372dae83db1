//===- tools/snowwhite_fuzz.cpp - Mutation-fuzz smoke driver ---------------===//
//
// Hostile-input smoke test for the binary frontends: take valid modules from
// the synthetic corpus, corrupt them with the deterministic fault injector,
// and push the result through the full read path (wasm::readModule ->
// wasm::validateModule -> dwarf::extractDebugInfo). The invariant under test
// is total robustness: every mutant either parses or is rejected with a
// structured error — no crash, no hang, no unbounded allocation. Run under
// the `asan` preset this also proves memory safety on the rejection paths.
//
//   snowwhite_fuzz [iterations] [seed]
//       Default 10000 iterations. Deterministic in (iterations, seed): each
//       iteration derives its own RNG stream via hashCombine(seed, i).
//       Mutants that survive validation additionally run the dataflow
//       analyzer (analysis::analyzeModule), which must never crash or hang.
//
//   snowwhite_fuzz --analysis [iterations] [seed]
//       Differential fuzz of the two typing implementations: every mutant
//       that parses runs wasm::validateFunction and analysis::evaluateFunction
//       per function; any verdict divergence is a hard failure with a replay
//       line. Surviving modules also run the full analyzer.
//
//   snowwhite_fuzz --cfg [iterations] [seed]
//       CFG fuzz: on every parsed mutant function, buildCfg accepts whatever
//       the evaluator accepts, bounded path extraction terminates, and
//       analyzeFunction returns the evaluator's verdict.
//
//   snowwhite_fuzz --kernels [iterations] [seed]
//       Differential fuzz of the tuned GEMM backend against the scalar
//       reference on random shapes, bit for bit, plus the int8 quantizer's
//       degenerate-row contract.
//
//   snowwhite_fuzz --checkpoints [iterations] [seed]
//       Checkpoint/model-file mutation fuzz: train a tiny model with
//       checkpointing on, then corrupt the saved model file and trainer
//       checkpoint and push them through the load paths. Invariant: every
//       corrupted file is rejected with a taxonomy-coded error (usually
//       ChecksumMismatch; Truncated/Malformed/Unsupported when the payload
//       is corrupted under a freshly recomputed checksum) — never a crash,
//       never a silent load. A resumed training run over a corrupt
//       checkpoint must fall back to a fresh start, not abort.
//
//   snowwhite_fuzz --cache [iterations] [seed]
//       Prediction-cache consistency fuzz: mutate real input-token
//       sequences with the fault injector and replay each mutant twice
//       through the sharded serve daemon. The second submission must hit
//       the cache (tier=cached) and answer bit-identically to the first;
//       daemon stats must balance after every pump and after a
//       kill-during-load shutdown.
//
//   snowwhite_fuzz --streaming [iterations] [seed]
//       Differential fuzz of the streamed (chunked ByteSource) wasm reader
//       against the buffered one over mutants and hostile chunk sizes:
//       identical verdicts, identical taxonomy errors, bit-identical decoded
//       modules, and the whole-module byte budget honored at zero.
//
//   snowwhite_fuzz --daemon-chaos [events] [seed]
//       Serving-daemon chaos storm (default 10000 seeded events): submits
//       poison-prone requests through per-worker fault injectors, corrupts
//       snapshot copies and round-trips them through the loader, and
//       kill-and-restarts the daemon from its snapshot mid-stream. Checks
//       the cross-generation ledger Submitted == Rejected + Answered
//       exactly, bit-identical cached-tier warm replay after every restart,
//       and that no shard ends the storm wedged.
//
// --checkpoints and --daemon-chaos keep their working files in a directory
// of their own under the system temp directory (the process id is in its
// name) and remove it on exit, so runs at once do not collide. The
// robustness tables of EXPERIMENTS.md come from bench/robustness.
//
//===----------------------------------------------------------------------===//

#include "analysis/analyzer.h"
#include "analysis/cfg.h"
#include "analysis/paths.h"
#include "analysis/stack_eval.h"
#include "dataset/pipeline.h"
#include "dwarf/io.h"
#include "frontend/corpus.h"
#include "model/serve_daemon.h"
#include "model/serving.h"
#include "model/task.h"
#include "model/trainer.h"
#include "nn/kernels.h"
#include "nn/seq2seq.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "wasm/reader.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace snowwhite;

namespace {

/// Collects the serialized bytes of every object in a small corpus; these
/// are the valid seeds the fuzzer mutates.
std::vector<const std::vector<uint8_t> *>
corpusSeeds(const frontend::Corpus &Corpus) {
  std::vector<const std::vector<uint8_t> *> Seeds;
  for (const frontend::Package &Pkg : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Pkg.Objects)
      Seeds.push_back(&Object.Bytes);
  return Seeds;
}

int runFuzz(uint64_t Iterations, uint64_t Seed) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = Seed ^ 0x5eedc0de;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  std::vector<const std::vector<uint8_t> *> Seeds = corpusSeeds(Corpus);
  if (Seeds.empty()) {
    std::fprintf(stderr, "error: empty seed corpus\n");
    return 1;
  }

  uint64_t Parsed = 0, ParseRejected = 0, ValidateRejected = 0,
           DebugRejected = 0, FullyAccepted = 0, Analyzed = 0;
  std::map<std::string, uint64_t> ByCode;
  for (uint64_t I = 0; I < Iterations; ++I) {
    // A private, iteration-indexed stream: any single failing iteration can
    // be replayed alone with the same (seed, i) pair.
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    std::vector<uint8_t> Bytes = *Seeds[I % Seeds.size()];
    Injector.corrupt(Bytes);

    Result<wasm::Module> Mod = wasm::readModule(Bytes);
    if (Mod.isErr()) {
      ++ParseRejected;
      ++ByCode[errorCodeName(Mod.error().code())];
      continue;
    }
    ++Parsed;
    bool Accepted = true;
    Result<void> Valid = wasm::validateModule(*Mod);
    if (Valid.isErr()) {
      ++ValidateRejected;
      ++ByCode[errorCodeName(Valid.error().code())];
      Accepted = false;
    }
    Result<dwarf::DebugInfo> Debug = dwarf::extractDebugInfo(*Mod);
    if (Debug.isErr()) {
      ++DebugRejected;
      ++ByCode[errorCodeName(Debug.error().code())];
      Accepted = false;
    }
    if (Valid.isOk()) {
      // Mutants that survive validation also run the dataflow analyzer: its
      // fixpoints and summary sizes are bounded, so this must terminate and
      // succeed on every validated module.
      Result<analysis::ModuleSummary> Summary = analysis::analyzeModule(*Mod);
      if (Summary.isErr()) {
        std::fprintf(stderr,
                     "FAIL: iteration %llu (seed %llu): analyzer rejected a "
                     "validated mutant: %s\n",
                     static_cast<unsigned long long>(I),
                     static_cast<unsigned long long>(Seed),
                     Summary.error().message().c_str());
        return 1;
      }
      ++Analyzed;
    }
    if (Accepted)
      ++FullyAccepted;
  }

  std::printf("fuzz: %llu iterations, 0 crashes\n"
              "  parse rejected     %llu\n"
              "  parsed             %llu\n"
              "  validate rejected  %llu\n"
              "  debug rejected     %llu\n"
              "  analyzed           %llu\n"
              "  fully accepted     %llu\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(ParseRejected),
              static_cast<unsigned long long>(Parsed),
              static_cast<unsigned long long>(ValidateRejected),
              static_cast<unsigned long long>(DebugRejected),
              static_cast<unsigned long long>(Analyzed),
              static_cast<unsigned long long>(FullyAccepted));
  std::printf("  rejection codes:");
  for (const auto &[Code, Count] : ByCode)
    std::printf(" %s=%llu", Code.c_str(),
                static_cast<unsigned long long>(Count));
  std::printf("\n");

  // The campaign above exercised the instrumented layers, so the telemetry
  // snapshot is now full of real values — assert it round-trips through the
  // canonical parser byte-identically before declaring the campaign healthy.
  std::string Metrics = telemetry::metricsJson();
  if (telemetry::roundTripMetricsJson(Metrics) != Metrics) {
    std::fprintf(stderr,
                 "FAIL: metrics snapshot does not round-trip canonically "
                 "(%zu bytes)\n",
                 Metrics.size());
    return 1;
  }
  std::printf("  metrics snapshot   %zu bytes, round-trips byte-identically\n",
              Metrics.size());
  return 0;
}

/// Differential fuzz of the spec validator against the typed-stack
/// evaluator. Each implementation is the other's oracle: a mutant function
/// accepted by one and rejected by the other is a bug in one of them (this
/// harness is how the memarg over-alignment gap in the original validator
/// was found). Modules whose functions all validate then run the full
/// analyzer, which must produce a summary for every defined function.
int runAnalysisFuzz(uint64_t Iterations, uint64_t Seed) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = Seed ^ 0x5eedc0de;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  std::vector<const std::vector<uint8_t> *> Seeds = corpusSeeds(Corpus);
  if (Seeds.empty()) {
    std::fprintf(stderr, "error: empty seed corpus\n");
    return 1;
  }

  uint64_t Parsed = 0, FunctionsChecked = 0, FunctionsRejected = 0,
           ModulesAnalyzed = 0, SummariesProduced = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    std::vector<uint8_t> Bytes = *Seeds[I % Seeds.size()];
    Injector.corrupt(Bytes);

    Result<wasm::Module> Mod = wasm::readModule(Bytes);
    if (Mod.isErr())
      continue;
    ++Parsed;
    bool AllFunctionsOk = true;
    for (uint32_t F = 0; F < Mod->Functions.size(); ++F) {
      Result<void> Spec1 = wasm::validateFunction(*Mod, F);
      Result<void> Spec2 = analysis::evaluateFunction(*Mod, F);
      ++FunctionsChecked;
      if (Spec1.isOk() != Spec2.isOk()) {
        std::fprintf(
            stderr,
            "FAIL: iteration %llu (seed %llu) function %u: validator says "
            "%s (%s), evaluator says %s (%s)\n",
            static_cast<unsigned long long>(I),
            static_cast<unsigned long long>(Seed), F,
            Spec1.isOk() ? "valid" : "invalid",
            Spec1.isErr() ? Spec1.error().message().c_str() : "ok",
            Spec2.isOk() ? "valid" : "invalid",
            Spec2.isErr() ? Spec2.error().message().c_str() : "ok");
        return 1;
      }
      if (Spec1.isErr())
        ++FunctionsRejected;
      AllFunctionsOk = AllFunctionsOk && Spec1.isOk();
    }
    // The analyzer contract only covers validated modules; module-level
    // checks (types, exports, globals) still apply on top of the per-function
    // verdicts.
    if (AllFunctionsOk && wasm::validateModule(*Mod).isOk()) {
      Result<analysis::ModuleSummary> Summary = analysis::analyzeModule(*Mod);
      if (Summary.isErr()) {
        std::fprintf(stderr,
                     "FAIL: iteration %llu (seed %llu): analyzer rejected a "
                     "validated mutant: %s\n",
                     static_cast<unsigned long long>(I),
                     static_cast<unsigned long long>(Seed),
                     Summary.error().message().c_str());
        return 1;
      }
      if (Summary->Functions.size() != Mod->Functions.size()) {
        std::fprintf(stderr,
                     "FAIL: iteration %llu (seed %llu): analyzer produced "
                     "%zu summaries for %zu functions\n",
                     static_cast<unsigned long long>(I),
                     static_cast<unsigned long long>(Seed),
                     Summary->Functions.size(), Mod->Functions.size());
        return 1;
      }
      ++ModulesAnalyzed;
      SummariesProduced += Summary->Functions.size();
    }
  }

  std::printf("analysis fuzz: %llu iterations, 0 divergences\n"
              "  parsed               %llu\n"
              "  functions checked    %llu\n"
              "  functions rejected   %llu\n"
              "  modules analyzed     %llu\n"
              "  summaries produced   %llu\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(Parsed),
              static_cast<unsigned long long>(FunctionsChecked),
              static_cast<unsigned long long>(FunctionsRejected),
              static_cast<unsigned long long>(ModulesAnalyzed),
              static_cast<unsigned long long>(SummariesProduced));
  return 0;
}

/// CFG fuzz: on every mutant function, buildCfg must accept whatever the
/// evaluator accepts (it rejects only the evaluator's structural
/// malformations), the bounded path extractor must terminate with a
/// non-empty token sequence on every graph, and analyzeFunction must return
/// the same accept/reject verdict as evaluateFunction.
int runCfgFuzz(uint64_t Iterations, uint64_t Seed) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = Seed ^ 0x5eedc0de;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  std::vector<const std::vector<uint8_t> *> Seeds = corpusSeeds(Corpus);
  if (Seeds.empty()) {
    std::fprintf(stderr, "error: empty seed corpus\n");
    return 1;
  }

  uint64_t Parsed = 0, FunctionsChecked = 0, FunctionsRejected = 0,
           PathsExtracted = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    std::vector<uint8_t> Bytes = *Seeds[I % Seeds.size()];
    Injector.corrupt(Bytes);

    Result<wasm::Module> Mod = wasm::readModule(Bytes);
    if (Mod.isErr())
      continue;
    ++Parsed;
    for (uint32_t F = 0; F < Mod->Functions.size(); ++F) {
      ++FunctionsChecked;
      Result<void> Eval = analysis::evaluateFunction(*Mod, F);
      Result<analysis::ControlFlowGraph> Cfg = analysis::buildCfg(*Mod, F);
      if (Eval.isOk() && Cfg.isErr()) {
        std::fprintf(stderr,
                     "FAIL: iteration %llu (seed %llu) function %u: "
                     "evaluator accepts but buildCfg rejects: %s\n",
                     static_cast<unsigned long long>(I),
                     static_cast<unsigned long long>(Seed), F,
                     Cfg.error().message().c_str());
        return 1;
      }
      if (Cfg.isOk()) {
        // Path extraction must terminate within its caps on any graph.
        std::vector<std::string> Paths =
            analysis::extractPathTokens(Cfg.value());
        if (Paths.empty()) {
          std::fprintf(stderr,
                       "FAIL: iteration %llu (seed %llu) function %u: "
                       "empty path token sequence\n",
                       static_cast<unsigned long long>(I),
                       static_cast<unsigned long long>(Seed), F);
          return 1;
        }
        ++PathsExtracted;
      }
      Result<analysis::FunctionSummary> Summary =
          analysis::analyzeFunction(*Mod, F);
      if (Summary.isOk() != Eval.isOk()) {
        std::fprintf(
            stderr,
            "FAIL: iteration %llu (seed %llu) function %u: analyzer says "
            "%s (%s), evaluator says %s (%s)\n",
            static_cast<unsigned long long>(I),
            static_cast<unsigned long long>(Seed), F,
            Summary.isOk() ? "valid" : "invalid",
            Summary.isErr() ? Summary.error().message().c_str() : "ok",
            Eval.isOk() ? "valid" : "invalid",
            Eval.isErr() ? Eval.error().message().c_str() : "ok");
        return 1;
      }
      if (Eval.isErr())
        ++FunctionsRejected;
    }
  }

  std::printf("cfg fuzz: %llu iterations, 0 divergences\n"
              "  parsed               %llu\n"
              "  functions checked    %llu\n"
              "  functions rejected   %llu\n"
              "  paths extracted      %llu\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(Parsed),
              static_cast<unsigned long long>(FunctionsChecked),
              static_cast<unsigned long long>(FunctionsRejected),
              static_cast<unsigned long long>(PathsExtracted));
  return 0;
}

int runCheckpointFuzz(uint64_t Iterations, uint64_t Seed) {
  // Produce one genuine model file and one genuine trainer checkpoint.
  bench::TinyFixture Fixture = bench::makeTinyFixture(Seed);
  ScratchDir Scratch("snowwhite_fuzz");
  std::string CkptPath = Scratch.path("ckpt");
  std::string ModelPath = Scratch.path("model");
  std::string MutantPath = Scratch.path("mutant");
  Fixture.Options.CheckpointPath = CkptPath;
  Fixture.Options.CheckpointEveryBatches = 2;
  model::TrainResult Trained =
      model::trainModel(*Fixture.BoundTask, Fixture.Options);
  Result<void> Saved = Trained.Model->save(ModelPath);
  if (Saved.isErr()) {
    std::fprintf(stderr, "error: %s\n", Saved.error().message().c_str());
    return 1;
  }
  Result<std::vector<uint8_t>> CkptFile = io::readFileBytes(CkptPath);
  Result<std::vector<uint8_t>> ModelFile = io::readFileBytes(ModelPath);
  Result<std::vector<uint8_t>> CkptPayload = io::readFileChecksummed(CkptPath);
  Result<std::vector<uint8_t>> ModelPayload =
      io::readFileChecksummed(ModelPath);
  if (CkptFile.isErr() || ModelFile.isErr() || CkptPayload.isErr() ||
      ModelPayload.isErr()) {
    std::fprintf(stderr, "error: could not read back training artifacts\n");
    return 1;
  }

  uint64_t Tested = 0, Unchanged = 0, Rejected = 0, ResumesFreshStart = 0,
           StructurallyValid = 0;
  std::map<std::string, uint64_t> ByCode;

  auto LoadModelMutant = [&](const std::vector<uint8_t> &Bytes) -> bool {
    if (io::writeFileAtomic(MutantPath, Bytes).isErr())
      return false;
    Result<nn::Seq2SeqModel> Loaded = nn::Seq2SeqModel::load(MutantPath);
    if (Loaded.isOk())
      return false; // Mutant loaded: only legal when bytes were unchanged.
    ++Rejected;
    ++ByCode[errorCodeName(Loaded.error().code())];
    return true;
  };
  auto LoadCkptMutant = [&](const std::vector<uint8_t> &Bytes) -> bool {
    if (io::writeFileAtomic(MutantPath, Bytes).isErr())
      return false;
    Result<std::vector<uint8_t>> Read = io::readFileChecksummed(MutantPath);
    if (Read.isOk())
      return false;
    ++Rejected;
    ++ByCode[errorCodeName(Read.error().code())];
    return true;
  };

  for (uint64_t I = 0; I < Iterations; ++I) {
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    // Alternate targets: whole model file, whole checkpoint file, and (every
    // fourth iteration) the checkpoint *payload* re-wrapped under a fresh
    // checksum — the only way corruption can get past the checksum layer and
    // into the structural validation of the deserializer.
    std::vector<uint8_t> Bytes;
    bool Rewrapped = I % 4 == 3;
    bool TargetModel = Rewrapped ? (I / 4) % 2 == 0 : I % 2 == 0;
    if (Rewrapped)
      Bytes = TargetModel ? *ModelPayload : *CkptPayload;
    else
      Bytes = TargetModel ? *ModelFile : *CkptFile;
    std::vector<uint8_t> Original = Bytes;
    Injector.corrupt(Bytes);
    if (Bytes == Original) {
      ++Unchanged; // corrupt() landed on an identity mutation; not a mutant.
      continue;
    }
    ++Tested;
    bool Ok;
    if (Rewrapped) {
      // Recompute the checksum over the corrupted payload, then load.
      if (io::writeFileChecksummed(MutantPath, Bytes).isErr())
        return 1;
      if (TargetModel) {
        // With the checksum recomputed over the corrupted payload, the
        // deserializer's structural validation is all that remains. A
        // mutation confined to the weight floats is structurally valid and
        // MAY load; the invariant here is no crash and taxonomy-coded
        // rejection for everything structurally broken.
        Result<nn::Seq2SeqModel> Loaded = nn::Seq2SeqModel::load(MutantPath);
        Ok = true;
        if (Loaded.isErr()) {
          ++Rejected;
          ++ByCode[errorCodeName(Loaded.error().code())];
        } else {
          ++StructurallyValid;
        }
      } else {
        // The trainer's contract for a structurally broken checkpoint is
        // fall-back-to-fresh-start, never a crash or a silent partial load.
        model::TrainOptions ResumeOpts = Fixture.Options;
        ResumeOpts.CheckpointPath = MutantPath;
        ResumeOpts.Resume = true;
        ResumeOpts.MaxEpochs = 1;
        model::TrainResult Rerun =
            model::trainModel(*Fixture.BoundTask, ResumeOpts);
        Ok = Rerun.Model != nullptr;
        if (Ok)
          ++ResumesFreshStart;
      }
    } else {
      Ok = TargetModel ? LoadModelMutant(Bytes) : LoadCkptMutant(Bytes);
    }
    if (!Ok) {
      std::fprintf(stderr,
                   "FAIL: iteration %llu (seed %llu) corrupted %s was not "
                   "rejected\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(Seed),
                   TargetModel ? "model" : "checkpoint");
      return 1;
    }
  }

  std::printf("checkpoint fuzz: %llu mutants, 0 crashes, 0 silent loads\n"
              "  rejected             %llu\n"
              "  resumes survived     %llu\n"
              "  rewrapped valid      %llu\n"
              "  identity mutations   %llu\n",
              static_cast<unsigned long long>(Tested),
              static_cast<unsigned long long>(Rejected),
              static_cast<unsigned long long>(ResumesFreshStart),
              static_cast<unsigned long long>(StructurallyValid),
              static_cast<unsigned long long>(Unchanged));
  std::printf("  rejection codes:");
  for (const auto &[Code, Count] : ByCode)
    std::printf(" %s=%llu", Code.c_str(),
                static_cast<unsigned long long>(Count));
  std::printf("\n");
  return 0;
}

/// Cache-consistency fuzz: mutate real input-token sequences with the fault
/// injector, replay every mutant twice through the sharded daemon, and
/// assert the hit path answers bit-identically to the miss path (tokens and
/// log-probabilities). Daemon stats must stay consistent throughout, and a
/// kill-during-load shutdown at the end must account for every queued
/// request.
int runCacheFuzz(uint64_t Iterations, uint64_t Seed) {
  bench::TinyFixture Fixture = bench::makeTinyFixture(Seed);
  model::TrainResult Trained =
      model::trainModel(*Fixture.BoundTask, Fixture.Options);

  model::DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 128;
  Opts.Serving.QueueCapacity = 256;
  model::ServeDaemon Daemon(*Trained.Model, *Fixture.BoundTask, Opts);

  // Mutation bases: real sample inputs, so mutants stay near the token
  // distribution the model was trained on.
  std::vector<std::vector<std::string>> Bases;
  for (const dataset::TypeSample &Sample : Fixture.Data.Samples) {
    Bases.push_back(Sample.Input);
    if (Bases.size() >= 24)
      break;
  }
  if (Bases.empty()) {
    std::fprintf(stderr, "FAIL: fixture produced no samples to mutate\n");
    return 1;
  }

  auto SamePredictions = [](const std::vector<model::TypePrediction> &A,
                            const std::vector<model::TypePrediction> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].Tokens != B[I].Tokens ||
          std::memcmp(&A[I].LogProb, &B[I].LogProb, sizeof(float)) != 0)
        return false;
    return true;
  };

  uint64_t NextId = 0, Replayed = 0;
  Rng Pick(hashCombine(Seed, 0xcac4e));
  for (uint64_t I = 0; I < Iterations; ++I) {
    // Corrupt the joined byte form of a base sequence, then re-tokenize:
    // the mutant is a plausible-but-novel request, and submitting it twice
    // makes a guaranteed miss/hit pair (duplicates co-locate on one shard).
    const std::vector<std::string> &Base =
        Bases[Pick.nextBelow(Bases.size())];
    std::string Joined;
    for (const std::string &Tok : Base) {
      if (!Joined.empty())
        Joined.push_back(' ');
      Joined += Tok;
    }
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    std::vector<uint8_t> Bytes(Joined.begin(), Joined.end());
    Injector.corrupt(Bytes);
    std::istringstream Stream(std::string(Bytes.begin(), Bytes.end()));
    model::DaemonRequest First;
    std::string Tok;
    while (Stream >> Tok)
      First.Request.InputTokens.push_back(Tok);
    if (First.Request.InputTokens.empty())
      continue;

    model::DaemonRequest Second;
    Second.Request.InputTokens = First.Request.InputTokens;
    First.Request.Id = NextId++;
    if (Daemon.submit(std::move(First)).Outcome !=
        model::AdmitOutcome::Admitted) {
      std::fprintf(stderr, "FAIL: mutant %llu rejected at admission\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    std::vector<model::ServeResponse> Cold = Daemon.pump();
    Second.Request.Id = NextId++;
    if (Daemon.submit(std::move(Second)).Outcome !=
        model::AdmitOutcome::Admitted) {
      std::fprintf(stderr, "FAIL: replay %llu rejected at admission\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    std::vector<model::ServeResponse> Warm = Daemon.pump();
    if (Cold.size() != 1 || Warm.size() != 1) {
      std::fprintf(stderr, "FAIL: mutant %llu: expected 1+1 responses\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    if (Warm[0].Tier != model::PredictionTier::Cached) {
      std::fprintf(stderr, "FAIL: mutant %llu replay missed the cache\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    if (!SamePredictions(Cold[0].Predictions, Warm[0].Predictions)) {
      std::fprintf(stderr,
                   "FAIL: mutant %llu hit path differs from miss path\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    if (!Daemon.checkStats()) {
      std::fprintf(stderr, "FAIL: stats inconsistent after mutant %llu\n",
                   static_cast<unsigned long long>(I));
      return 1;
    }
    ++Replayed;
  }

  // Kill-during-load: leave a few admitted requests unprocessed, then shut
  // down. Every victim must get a rejected-shutdown response and the books
  // must balance exactly (no queue term left).
  uint64_t Queued = 0;
  for (size_t K = 0; K < 5 && K < Bases.size(); ++K) {
    model::DaemonRequest Request;
    Request.Request.Id = NextId++;
    Request.Request.InputTokens = Bases[K];
    if (Daemon.submit(std::move(Request)).Outcome ==
        model::AdmitOutcome::Admitted)
      ++Queued;
  }
  std::vector<model::ServeResponse> Victims = Daemon.shutdown();
  model::ServingStats Totals = Daemon.engineTotals();
  if (Victims.size() != Queued || !Daemon.checkStats() ||
      Totals.Submitted != Totals.Rejected + Totals.Answered) {
    std::fprintf(stderr, "FAIL: shutdown accounting broken (%zu victims, "
                         "%llu queued)\n",
                 Victims.size(), static_cast<unsigned long long>(Queued));
    return 1;
  }
  for (const model::ServeResponse &Victim : Victims)
    if (Victim.Outcome != model::ServeOutcome::RejectedShutdown) {
      std::fprintf(stderr, "FAIL: shutdown victim has wrong outcome\n");
      return 1;
    }

  model::CacheStats Cache = Daemon.cache()->totals();
  std::printf("cache fuzz: %llu mutant pairs replayed, hits=%llu "
              "misses=%llu collisions=%llu evictions=%llu, shutdown "
              "rejected %zu queued request(s): OK\n",
              static_cast<unsigned long long>(Replayed),
              static_cast<unsigned long long>(Cache.Hits),
              static_cast<unsigned long long>(Cache.Misses),
              static_cast<unsigned long long>(Cache.Collisions),
              static_cast<unsigned long long>(Cache.Evictions),
              Victims.size());
  return 0;
}

/// Differential fuzz of the streamed section-wise reader against the
/// buffered one. For every mutant and a rotating hostile chunk size, both
/// readers must agree exactly: same verdict, same taxonomy code and message
/// on rejection, and — on acceptance — the same decoded module
/// (re-serialized bytes plus per-function code offsets, which the writer
/// does not round-trip). Accepted mutants additionally prove the
/// whole-module byte budget is honored: with a zero budget, any input with
/// at least one section must be rejected with LimitExceeded.
int runStreamingFuzz(uint64_t Iterations, uint64_t Seed) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 12;
  Spec.Seed = Seed ^ 0x5eedc0de;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  std::vector<const std::vector<uint8_t> *> Seeds = corpusSeeds(Corpus);
  if (Seeds.empty()) {
    std::fprintf(stderr, "error: empty seed corpus\n");
    return 1;
  }

  const size_t Chunks[] = {1, 7, 61, 4096};
  uint64_t Accepted = 0, Rejected = 0, BudgetChecked = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    fault::FaultConfig Config;
    Config.Seed = hashCombine(Seed, I);
    fault::FaultInjector Injector(Config);
    std::vector<uint8_t> Bytes = *Seeds[I % Seeds.size()];
    // Every eighth iteration keeps the seed pristine so the accept path
    // (full module equality) is exercised as often as the reject path.
    if (I % 8 != 0)
      Injector.corrupt(Bytes);

    Result<wasm::Module> Ref = wasm::readModule(Bytes);
    size_t Chunk = Chunks[I % (sizeof(Chunks) / sizeof(Chunks[0]))];
    io::MemoryByteSource Source(Bytes, Chunk);
    Result<wasm::Module> Streamed = wasm::readModuleStreamed(Source);

    if (Ref.isOk() != Streamed.isOk()) {
      std::fprintf(stderr,
                   "FAIL: iteration %llu (seed %llu, chunk %zu): buffered "
                   "says %s, streamed says %s\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(Seed), Chunk,
                   Ref.isOk() ? "accept" : Ref.error().message().c_str(),
                   Streamed.isOk() ? "accept"
                                   : Streamed.error().message().c_str());
      return 1;
    }
    if (Ref.isErr()) {
      ++Rejected;
      if (Ref.error().code() != Streamed.error().code() ||
          Ref.error().message() != Streamed.error().message()) {
        std::fprintf(stderr,
                     "FAIL: iteration %llu (seed %llu, chunk %zu): error "
                     "divergence:\n  buffered: [%s] %s\n  streamed: [%s] "
                     "%s\n",
                     static_cast<unsigned long long>(I),
                     static_cast<unsigned long long>(Seed), Chunk,
                     errorCodeName(Ref.error().code()),
                     Ref.error().message().c_str(),
                     errorCodeName(Streamed.error().code()),
                     Streamed.error().message().c_str());
        return 1;
      }
      continue;
    }
    ++Accepted;
    bool SameOffsets = Ref->Functions.size() == Streamed->Functions.size();
    for (size_t F = 0; SameOffsets && F < Ref->Functions.size(); ++F)
      SameOffsets = Ref->Functions[F].CodeOffset ==
                    Streamed->Functions[F].CodeOffset;
    if (!SameOffsets || wasm::writeModule(*Ref) != wasm::writeModule(*Streamed)) {
      std::fprintf(stderr,
                   "FAIL: iteration %llu (seed %llu, chunk %zu): decoded "
                   "modules differ\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(Seed), Chunk);
      return 1;
    }
    // Budget honored: a successful parse consumed every byte after the
    // 8-byte header as sections, so with a zero whole-module budget the
    // same input must be rejected iff it has any section at all.
    wasm::ReadLimits Tiny;
    Tiny.MaxModuleBytes = 0;
    io::MemoryByteSource TinySource(Bytes, Chunk);
    Result<wasm::Module> Limited = wasm::readModuleStreamed(TinySource, Tiny);
    bool HasSections = Bytes.size() > 8;
    if (Limited.isOk() == HasSections ||
        (Limited.isErr() &&
         Limited.error().code() != ErrorCode::LimitExceeded)) {
      std::fprintf(stderr,
                   "FAIL: iteration %llu (seed %llu): zero module budget "
                   "not honored (%s)\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(Seed),
                   Limited.isOk() ? "accepted"
                                  : Limited.error().message().c_str());
      return 1;
    }
    ++BudgetChecked;
  }

  std::printf("streaming fuzz: %llu iterations, 0 divergences\n"
              "  accepted (module-equal)  %llu\n"
              "  rejected (error-equal)   %llu\n"
              "  budget checks            %llu\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(Accepted),
              static_cast<unsigned long long>(Rejected),
              static_cast<unsigned long long>(BudgetChecked));
  return 0;
}

/// Daemon chaos fuzz: one long-lived serving daemon under a seeded storm of
/// hostile events — poison-prone requests through per-worker fault
/// injectors, snapshot corruption round-trips, and kill-and-restart cycles
/// that reload the warm cache from disk. Invariants, checked throughout and
/// exactly at the end, across every daemon generation:
///
///   * Submitted == Rejected + Answered (stats-level, no queue term left);
///   * an input answered before a restart replays bit-identically after it,
///     as a `cached`-tier hit out of the reloaded snapshot;
///   * corrupt snapshots never crash the loader: file-level damage is a
///     taxonomy-coded error, segment-level damage a quarantine count;
///   * no wedged shards: after the storm every shard still answers.
int runDaemonChaos(uint64_t Events, uint64_t Seed) {
  bench::TinyFixture Fixture = bench::makeTinyFixture(Seed);
  model::TrainResult Trained =
      model::trainModel(*Fixture.BoundTask, Fixture.Options);

  ScratchDir Scratch("snowwhite_chaos");
  std::string SnapshotPath = Scratch.path("snapshot");
  std::string ScratchPath = Scratch.path("scratch");

  model::DaemonOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Serving.TopK = 3;
  Opts.Serving.DefaultStepBudget = 96;
  Opts.Serving.QueueCapacity = 128;
  // Generous budget: no eviction pressure, so every computed answer stays
  // resident and the post-restart replay check can demand tier=cached.
  Opts.Cache.ByteBudget = 4ull << 20;
  Opts.PoisonStrikeLimit = 2;
  Opts.ShardCostBudget = 16 * Opts.Serving.DefaultStepBudget;
  Opts.SnapshotPath = SnapshotPath;
  Opts.SnapshotEveryInsertions = 32;
  fault::FaultConfig WorkerFaults;
  WorkerFaults.Seed = hashCombine(Seed, 0xda3c0deULL);
  WorkerFaults.ModelFailureRate = 0.5;
  Opts.WorkerFaults = WorkerFaults;

  std::vector<std::vector<std::string>> Bases;
  for (const dataset::TypeSample &Sample : Fixture.Data.Samples) {
    Bases.push_back(Sample.Input);
    if (Bases.size() >= 32)
      break;
  }
  if (Bases.empty()) {
    std::fprintf(stderr, "FAIL: fixture produced no samples\n");
    return 1;
  }

  auto SamePredictions = [](const std::vector<model::TypePrediction> &A,
                            const std::vector<model::TypePrediction> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].Tokens != B[I].Tokens ||
          std::memcmp(&A[I].LogProb, &B[I].LogProb, sizeof(float)) != 0)
        return false;
    return true;
  };

  auto MakeDaemon = [&]() {
    return std::make_unique<model::ServeDaemon>(*Trained.Model,
                                                *Fixture.BoundTask, Opts);
  };
  std::unique_ptr<model::ServeDaemon> Daemon = MakeDaemon();

  // Cross-generation ledgers. Stats from dead daemon generations accumulate
  // here at each restart so the global invariant spans the whole storm.
  uint64_t TotalSubmitted = 0, TotalRejected = 0, TotalAnswered = 0,
           TotalStrikes = 0, TotalDenylisted = 0, TotalShardRestarts = 0;
  auto FoldFinalStats = [&](model::ServeDaemon &D) {
    const model::DaemonStats &S = D.stats();
    model::ServingStats E = D.engineTotals();
    TotalSubmitted += S.Submitted;
    TotalRejected += S.RejectedQuota + S.RejectedPoisoned +
                     S.RejectedOverload + E.Rejected;
    TotalAnswered += E.Answered;
    TotalStrikes += S.WatchdogStrikes;
    TotalDenylisted += D.denylistSize();
    TotalShardRestarts += S.ShardRestarts;
  };

  // Identity of a base input is its length-prefixed signature — the same
  // framing the cache key and the watchdog use. Joining tokens with spaces
  // would NOT be an identity here: dataset tokens can themselves contain
  // spaces ("call_indirect (type 2)"), so two different token splits can
  // share a joined form but never a signature.
  std::vector<std::string> BaseSigs;
  for (size_t I = 0; I < Bases.size(); ++I) {
    model::ServeRequest Probe;
    Probe.InputTokens = Bases[I];
    BaseSigs.push_back(model::ServeDaemon::requestSignature(Probe));
  }

  // Step budgets cycled across submissions (0 = the daemon default). The
  // budget is part of the cache key but NOT of the poison signature, so
  // resubmitting a base under a different budget forces a recompute of the
  // same signature — which is exactly what lets the watchdog accumulate a
  // second Suspect strike and exercise denylisting + shard restarts here.
  const uint64_t BudgetChoices[] = {0, 48, 80};
  constexpr size_t NumBudgets = sizeof(BudgetChoices) / sizeof(uint64_t);

  // First answer ever computed per (input signature, budget): every later
  // answer for the same pair must be bit-identical (it replays from cache
  // or snapshot).
  std::map<std::string, std::vector<model::TypePrediction>> Golden;
  std::map<std::string, std::pair<size_t, uint64_t>> ProbeBySig;
  std::map<uint64_t, std::string> InFlight; // Id -> golden key.
  auto GoldenKey = [&](size_t Base, uint64_t Budget) {
    return BaseSigs[Base] + '\x1f' + std::to_string(Budget);
  };
  uint64_t NextId = 0, Restarts = 0, CorruptLoads = 0, QuarantinedSegs = 0,
           Replayed = 0, WarmReplays = 0;
  Rng Pick(hashCombine(Seed, 0xc4a05));

  auto CheckResponses = [&](const std::vector<model::ServeResponse> &Out) {
    for (const model::ServeResponse &Response : Out) {
      auto It = InFlight.find(Response.Id);
      if (It == InFlight.end())
        continue;
      if (Response.Outcome != model::ServeOutcome::RejectedShutdown &&
          !Response.Predictions.empty()) {
        auto [GoldIt, IsNew] =
            Golden.try_emplace(It->second, Response.Predictions);
        if (!IsNew &&
            !SamePredictions(GoldIt->second, Response.Predictions)) {
          std::fprintf(stderr,
                       "FAIL: req %llu diverged from first answer\n",
                       static_cast<unsigned long long>(Response.Id));
          return false;
        }
        if (!IsNew)
          ++Replayed;
      }
      InFlight.erase(It);
    }
    return true;
  };

  for (uint64_t Event = 0; Event < Events; ++Event) {
    uint64_t Roll = Pick.nextBelow(100);
    if (Roll < 70) {
      // Submit (biased toward duplicates so the cache and the watchdog both
      // see repeats), occasionally pumping.
      size_t Base = static_cast<size_t>(Pick.nextBelow(Bases.size()));
      uint64_t Budget = BudgetChoices[Pick.nextBelow(NumBudgets)];
      if (Pick.nextBelow(8) == 0) {
        // Poison traffic: one designated base submitted under an
        // ever-fresh budget, so its answers never come from the cache and
        // its signature keeps recomputing — the only way the watchdog can
        // accumulate enough Suspect strikes within one daemon generation
        // to denylist it and restart the shard.
        Base = 0;
        Budget = 200 + NextId % 97;
      }
      model::DaemonRequest Request;
      Request.Request.Id = NextId++;
      Request.Request.InputTokens = Bases[Base];
      Request.Request.StepBudget = Budget;
      model::AdmitResult Admit = Daemon->submit(std::move(Request));
      if (Admit.Outcome == model::AdmitOutcome::Admitted) {
        InFlight[NextId - 1] = GoldenKey(Base, Budget);
        ProbeBySig.emplace(GoldenKey(Base, Budget),
                           std::make_pair(Base, Budget));
      }
      else if (Admit.Outcome == model::AdmitOutcome::RejectedShutdown) {
        std::fprintf(stderr, "FAIL: live daemon rejected as shut down\n");
        return 1;
      }
      if (Pick.nextBelow(4) == 0 && !CheckResponses(Daemon->pump()))
        return 1;
    } else if (Roll < 80) {
      if (!CheckResponses(Daemon->pump()))
        return 1;
    } else if (Roll < 90) {
      // Snapshot corruption round-trip: corrupt a copy of the current
      // snapshot and load it into a scratch cache. Must never crash —
      // either a taxonomy-coded file-level error or a quarantine report.
      if (Daemon->saveSnapshotNow().isErr()) {
        std::fprintf(stderr, "FAIL: snapshot save failed\n");
        return 1;
      }
      Result<std::vector<uint8_t>> Bytes = io::readFileBytes(SnapshotPath);
      if (Bytes.isErr()) {
        std::fprintf(stderr, "FAIL: snapshot unreadable after save\n");
        return 1;
      }
      fault::FaultConfig Corrupt;
      Corrupt.Seed = hashCombine(Seed, Event);
      fault::FaultInjector Injector(Corrupt);
      std::vector<uint8_t> Mutant = Bytes.take();
      Injector.corrupt(Mutant);
      if (io::writeFileAtomic(ScratchPath, Mutant).isErr()) {
        std::fprintf(stderr, "FAIL: scratch write failed\n");
        return 1;
      }
      model::PredictionCache Scratch(Opts.Cache);
      Result<model::SnapshotLoadReport> Loaded =
          Scratch.loadSnapshot(ScratchPath);
      if (Loaded.isOk()) {
        QuarantinedSegs += Loaded->SegmentsQuarantined;
        if (!Scratch.checkStats()) {
          std::fprintf(stderr,
                       "FAIL: scratch cache inconsistent after load\n");
          return 1;
        }
      } else {
        ++CorruptLoads;
      }
    } else {
      // Kill-and-restart: flush (victims become accounted rejections), fold
      // the dead generation's stats, then warm-start a new daemon from the
      // snapshot the shutdown just wrote and prove a known answer replays
      // bit-identically as a cached-tier hit.
      if (!CheckResponses(Daemon->shutdown()))
        return 1;
      if (!Daemon->checkStats()) {
        std::fprintf(stderr, "FAIL: stats inconsistent at shutdown\n");
        return 1;
      }
      FoldFinalStats(*Daemon);
      InFlight.clear(); // Shutdown victims got no predictions.
      Daemon = MakeDaemon();
      ++Restarts;
      Result<model::SnapshotLoadReport> Loaded = Daemon->loadSnapshotNow();
      if (Loaded.isErr()) {
        std::fprintf(stderr, "FAIL: warm restart load failed: %s\n",
                     Loaded.error().message().c_str());
        return 1;
      }
      QuarantinedSegs += Loaded->SegmentsQuarantined;
      if (!Golden.empty()) {
        const auto &[Sig, Want] =
            *std::next(Golden.begin(),
                       static_cast<std::ptrdiff_t>(
                           Pick.nextBelow(Golden.size())));
        const auto &[Base, Budget] = ProbeBySig.at(Sig);
        model::DaemonRequest Probe;
        Probe.Request.Id = NextId++;
        Probe.Request.InputTokens = Bases[Base];
        Probe.Request.StepBudget = Budget;
        model::AdmitResult Admit = Daemon->submit(std::move(Probe));
        if (Admit.Outcome == model::AdmitOutcome::Admitted) {
          std::vector<model::ServeResponse> Out = Daemon->pump();
          if (Out.size() != 1 ||
              Out[0].Tier != model::PredictionTier::Cached ||
              !SamePredictions(Out[0].Predictions, Want)) {
            std::fprintf(stderr,
                         "FAIL: warm replay after restart %llu not a "
                         "bit-identical cached hit (responses=%zu tier=%s)\n",
                         static_cast<unsigned long long>(Restarts),
                         Out.size(),
                         Out.empty() ? "-" : model::tierName(Out[0].Tier));
            return 1;
          }
          ++WarmReplays;
        }
      }
    }
    if (Event % 512 == 0 && !Daemon->checkStats()) {
      std::fprintf(stderr, "FAIL: stats inconsistent at event %llu\n",
                   static_cast<unsigned long long>(Event));
      return 1;
    }
  }

  // No wedged shards: after the storm, every shard must still answer a
  // fresh (non-denylisted) request on demand.
  if (!CheckResponses(Daemon->pump()))
    return 1;
  for (size_t Shard = 0; Shard < Daemon->numWorkers(); ++Shard) {
    const std::vector<std::string> *Probe = nullptr;
    for (const std::vector<std::string> &Input : Bases) {
      model::ServeRequest Peek;
      Peek.InputTokens = Input;
      if (Daemon->shardOf(Peek) == Shard && !Daemon->isDenylisted(Peek)) {
        Probe = &Input;
        break;
      }
    }
    if (!Probe)
      continue; // Every base routing here is denylisted; nothing to probe.
    model::DaemonRequest Request;
    Request.Request.Id = NextId++;
    Request.Request.InputTokens = *Probe;
    if (Daemon->submit(std::move(Request)).Outcome !=
        model::AdmitOutcome::Admitted) {
      std::fprintf(stderr, "FAIL: shard %zu rejected a live probe\n", Shard);
      return 1;
    }
    std::vector<model::ServeResponse> Out = Daemon->pump();
    if (Out.size() != 1 || Out[0].Predictions.empty()) {
      std::fprintf(stderr, "FAIL: shard %zu is wedged\n", Shard);
      return 1;
    }
    InFlight.erase(NextId - 1);
  }

  if (!CheckResponses(Daemon->shutdown()))
    return 1;
  if (!Daemon->checkStats()) {
    std::fprintf(stderr, "FAIL: final stats inconsistent\n");
    return 1;
  }
  FoldFinalStats(*Daemon);
  if (TotalSubmitted != TotalRejected + TotalAnswered) {
    std::fprintf(stderr,
                 "FAIL: global ledger broken: submitted=%llu rejected=%llu "
                 "answered=%llu\n",
                 static_cast<unsigned long long>(TotalSubmitted),
                 static_cast<unsigned long long>(TotalRejected),
                 static_cast<unsigned long long>(TotalAnswered));
    return 1;
  }

  std::printf("daemon chaos: %llu events, submitted=%llu rejected=%llu "
              "answered=%llu restarts=%llu warm-replays=%llu "
              "replayed=%llu corrupt-loads=%llu quarantined-segments=%llu "
              "strikes=%llu denylisted=%llu shard-restarts=%llu: OK\n",
              static_cast<unsigned long long>(Events),
              static_cast<unsigned long long>(TotalSubmitted),
              static_cast<unsigned long long>(TotalRejected),
              static_cast<unsigned long long>(TotalAnswered),
              static_cast<unsigned long long>(Restarts),
              static_cast<unsigned long long>(WarmReplays),
              static_cast<unsigned long long>(Replayed),
              static_cast<unsigned long long>(CorruptLoads),
              static_cast<unsigned long long>(QuarantinedSegs),
              static_cast<unsigned long long>(TotalStrikes),
              static_cast<unsigned long long>(TotalDenylisted),
              static_cast<unsigned long long>(TotalShardRestarts));
  return 0;
}

/// One fuzzed matrix dimension, biased toward the hostile classes: zero,
/// one, and sizes straddling the tuned kernels' 4-row / 8- and 16-wide
/// tiles.
size_t fuzzDim(Rng &R) {
  switch (R.nextBelow(16)) {
  case 0:
    return 0;
  case 1:
    return 1;
  default:
    return 1 + R.nextBelow(33);
  }
}

void fuzzFill(Rng &R, std::vector<float> &M) {
  for (float &V : M)
    V = R.nextUniformFloat(2.0f);
}

/// --kernels: cross-checks the GEMM kernels this CPU runs against the
/// scalar reference bit-for-bit on random shapes and data, for all four
/// kernel primitives. The checked side goes through the threaded entry
/// points (pool size cycled every 2500 iterations); the reference side calls
/// the reference table directly. Shapes are at most 33 on a side, so they
/// almost never clear ParallelMinWork and split over the pool:
/// KernelDispatch.ThreadCountInvariance (kernel_test) checks the row
/// partition. Each iteration also round-trips the int8 quantizer — with
/// zero and constant rows injected — and checks its degenerate-row contract
/// (finite non-negative scales, codes in [-127, 127]).
int runKernelFuzz(uint64_t Iterations, uint64_t Seed) {
  namespace kernels = nn::kernels;
  const kernels::KernelBackend &Ref = kernels::reference();

  const unsigned PoolSizes[] = {1, 4, 2, 3};
  uint64_t Checked = 0, Mismatches = 0, QuantRows = 0, DegenerateRows = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    if (I % 2500 == 0)
      ThreadPool::resetGlobal(PoolSizes[(I / 2500) % 4]);
    // A private, iteration-indexed stream: any single failing iteration can
    // be replayed alone with the same (seed, i) pair.
    Rng R(hashCombine(Seed ^ 0x6e51f00dULL, I));
    size_t M = fuzzDim(R), K = fuzzDim(R), N = fuzzDim(R);
    std::vector<float> A(M * K), B(K * N), BT(N * K), G(M * N);
    fuzzFill(R, A);
    fuzzFill(R, B);
    fuzzFill(R, BT);
    fuzzFill(R, G);
    // Nonzero C exercises accumulate-into-C semantics.
    std::vector<float> CRef(M * N);
    fuzzFill(R, CRef);
    std::vector<float> CTuned = CRef;
    std::vector<float> DRef(K * N);
    fuzzFill(R, DRef);
    std::vector<float> DTuned = DRef;

    auto check = [&](const char *What, const std::vector<float> &Want,
                     const std::vector<float> &Got) {
      ++Checked;
      if (Want.size() == Got.size() &&
          (Want.empty() || std::memcmp(Want.data(), Got.data(),
                                       Want.size() * sizeof(float)) == 0))
        return;
      ++Mismatches;
      std::fprintf(stderr,
                   "MISMATCH %s at iteration %llu: M=%zu K=%zu N=%zu\n", What,
                   static_cast<unsigned long long>(I), M, K, N);
    };

    switch (I % 4) {
    case 0:
      Ref.Gemm(M, K, N, A.data(), B.data(), CRef.data());
      kernels::gemm(M, K, N, A.data(), B.data(), CTuned.data());
      check("gemm", CRef, CTuned);
      break;
    case 1:
      Ref.GemmTB(M, K, N, A.data(), BT.data(), CRef.data());
      kernels::gemmTB(M, K, N, A.data(), BT.data(), CTuned.data());
      check("gemmTB", CRef, CTuned);
      break;
    case 2:
      Ref.GemmTA(M, K, N, K, A.data(), G.data(), DRef.data());
      kernels::gemmTA(M, K, N, K, A.data(), G.data(), DTuned.data());
      check("gemmTA", DRef, DTuned);
      break;
    default: {
      std::vector<float> W(K * N);
      fuzzFill(R, W);
      // Inject degenerate rows: all-zero and constant.
      if (K > 0 && N > 0) {
        for (size_t J = 0; J < N; ++J)
          W[(K - 1) * N + J] = 0.0f;
        float C = R.nextUniformFloat(3.0f);
        for (size_t J = 0; J < N; ++J)
          W[0 * N + J] = C;
      }
      kernels::QuantizedMatrix Q = kernels::quantizeRowwise(W.data(), K, N);
      for (size_t Row = 0; Row < K; ++Row) {
        ++QuantRows;
        float Scale = Q.RowScale[Row];
        bool RowOk = std::isfinite(Scale) && Scale >= 0.0f;
        if (Scale == 0.0f)
          ++DegenerateRows;
        for (size_t J = 0; RowOk && J < N; ++J) {
          int Code = Q.Data[Row * N + J];
          RowOk = Code >= -127 && Code <= 127 &&
                  (Scale != 0.0f || Code == 0);
        }
        if (!RowOk) {
          ++Mismatches;
          std::fprintf(stderr,
                       "QUANT VIOLATION at iteration %llu row %zu\n",
                       static_cast<unsigned long long>(I), Row);
        }
      }
      Ref.GemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
                   CRef.data());
      kernels::gemmInt8(M, K, N, A.data(), Q.Data.data(), Q.RowScale.data(),
                        CTuned.data());
      check("gemmInt8", CRef, CTuned);
    }
    }
  }
  ThreadPool::resetGlobal(0);

  std::printf("kernel fuzz: iterations=%llu checked=%llu mismatches=%llu "
              "quantRows=%llu degenerateRows=%llu\n",
              static_cast<unsigned long long>(Iterations),
              static_cast<unsigned long long>(Checked),
              static_cast<unsigned long long>(Mismatches),
              static_cast<unsigned long long>(QuantRows),
              static_cast<unsigned long long>(DegenerateRows));
  return Mismatches == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // Each mode's flag, default iteration (or event) count and runner; no
  // flag runs the read-path fuzz.
  struct Mode {
    const char *Flag;
    uint64_t DefaultCount;
    int (*Run)(uint64_t, uint64_t);
  };
  const Mode Modes[] = {
      {"--analysis", 10000, runAnalysisFuzz},
      {"--cfg", 10000, runCfgFuzz},
      {"--kernels", 10000, runKernelFuzz},
      {"--checkpoints", 400, runCheckpointFuzz},
      {"--cache", 60, runCacheFuzz},
      {"--streaming", 10000, runStreamingFuzz},
      {"--daemon-chaos", 10000, runDaemonChaos},
  };
  Mode Chosen = {"", 10000, runFuzz};
  int Arg = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    const Mode *Found = nullptr;
    for (const Mode &M : Modes)
      if (std::strcmp(argv[1], M.Flag) == 0)
        Found = &M;
    if (!Found) {
      std::fprintf(stderr, "error: unknown mode %s\n", argv[1]);
      return 2;
    }
    Chosen = *Found;
    Arg = 2;
  }
  uint64_t Count = argc > Arg ? static_cast<uint64_t>(std::atoll(argv[Arg]))
                              : Chosen.DefaultCount;
  uint64_t Seed =
      argc > Arg + 1 ? static_cast<uint64_t>(std::atoll(argv[Arg + 1])) : 1;
  return Chosen.Run(Count, Seed);
}
