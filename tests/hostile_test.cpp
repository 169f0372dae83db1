//===- tests/hostile_test.cpp - Malformed-input and fault-injection tests --===//
//
// The robustness contract: no hostile binary may crash, hang, overflow the
// stack, or force an unbounded allocation anywhere in the read path — every
// rejection is a structured Error with a taxonomy code — and the training
// loop survives simulated crashes with bit-identical resume.
//
//===----------------------------------------------------------------------===//

#include "dataset/pipeline.h"
#include "dwarf/io.h"
#include "frontend/corpus.h"
#include "model/task.h"
#include "model/trainer.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/leb128.h"
#include "support/scratch_dir.h"
#include "wasm/reader.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

namespace snowwhite {
namespace {

// --- Helpers ---------------------------------------------------------------

std::vector<uint8_t> moduleHeader() {
  return {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
}

void appendSection(std::vector<uint8_t> &Out, uint8_t Id,
                   const std::vector<uint8_t> &Payload) {
  Out.push_back(Id);
  encodeULEB128(Payload.size(), Out);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

/// Serialized bytes of one valid object (module + debug sections).
std::vector<uint8_t> validModuleBytes() {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 1;
  Spec.Seed = 7;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  return Corpus.Packages.at(0).Objects.at(0).Bytes;
}

// --- Allocation bombs ------------------------------------------------------

// The original motivating input: a tiny module whose function section claims
// 2^31 entries. Before the remaining-bytes bound this drove a 2^31-slot
// resize from a dozen input bytes.
TEST(Hostile, FunctionCountAllocationBomb) {
  std::vector<uint8_t> Bytes = moduleHeader();
  std::vector<uint8_t> Payload;
  encodeULEB128(1ull << 31, Payload); // Count nothing backs.
  appendSection(Bytes, 3, Payload);
  ASSERT_LE(Bytes.size(), 16u); // The attack stays tiny.
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::Malformed);
  EXPECT_NE(Parsed.error().message().find("function section"),
            std::string::npos);
}

TEST(Hostile, CountAllocationBombsAllSections) {
  // Same shape for every counted section: the count must be rejected, not
  // allocated.
  for (uint8_t SectionId : {1, 2, 5, 6, 7, 10}) {
    std::vector<uint8_t> Bytes = moduleHeader();
    std::vector<uint8_t> Payload;
    encodeULEB128(0x7fffffffull, Payload);
    appendSection(Bytes, SectionId, Payload);
    Result<wasm::Module> Parsed = wasm::readModule(Bytes);
    ASSERT_TRUE(Parsed.isErr()) << "section " << int(SectionId);
    EXPECT_EQ(Parsed.error().code(), ErrorCode::Malformed)
        << Parsed.error().message();
  }
}

TEST(Hostile, LocalRunMultiplierBomb) {
  // One local run declaring 2^30 i32 locals: the run count is tiny, the
  // flattened total is the bomb.
  std::vector<uint8_t> Bytes = moduleHeader();
  std::vector<uint8_t> Types;
  encodeULEB128(1, Types);
  Types.push_back(0x60);
  encodeULEB128(0, Types); // No params.
  encodeULEB128(0, Types); // No results.
  appendSection(Bytes, 1, Types);
  std::vector<uint8_t> Funcs;
  encodeULEB128(1, Funcs);
  encodeULEB128(0, Funcs);
  appendSection(Bytes, 3, Funcs);
  std::vector<uint8_t> Body;
  encodeULEB128(1, Body);          // One local run...
  encodeULEB128(1ull << 30, Body); // ...of 2^30 locals.
  Body.push_back(0x7f);            // i32
  Body.push_back(0x0b);            // end
  std::vector<uint8_t> Code;
  encodeULEB128(1, Code);
  encodeULEB128(Body.size(), Code);
  Code.insert(Code.end(), Body.begin(), Body.end());
  appendSection(Bytes, 10, Code);
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::LimitExceeded)
      << Parsed.error().message();
}

// --- Truncation ------------------------------------------------------------

TEST(Hostile, TruncationSweep) {
  // Every prefix of a valid module must be cleanly accepted or rejected —
  // never crash. Short prefixes must report Truncated/Malformed.
  std::vector<uint8_t> Valid = validModuleBytes();
  size_t Rejected = 0;
  for (size_t Len = 0; Len < Valid.size(); ++Len) {
    std::vector<uint8_t> Prefix(Valid.begin(), Valid.begin() + Len);
    Result<wasm::Module> Parsed = wasm::readModule(Prefix);
    if (Parsed.isErr())
      ++Rejected;
  }
  // A strict prefix can occasionally still parse (cut exactly at a section
  // boundary), but the vast majority must be structured rejections.
  EXPECT_GT(Rejected, Valid.size() / 2);
  Result<wasm::Module> Full = wasm::readModule(Valid);
  ASSERT_TRUE(Full.isOk());
}

TEST(Hostile, TruncatedHeaderHasTruncatedCode) {
  std::vector<uint8_t> Bytes = {0x00, 0x61, 0x73};
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::Truncated);
}

// --- Over-long LEBs --------------------------------------------------------

TEST(Hostile, OverlongLebCount) {
  // A 10-byte all-0xff LEB where a u32 count belongs.
  std::vector<uint8_t> Bytes = moduleHeader();
  std::vector<uint8_t> Payload(10, 0xff);
  appendSection(Bytes, 1, Payload);
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_TRUE(Parsed.error().code() == ErrorCode::Truncated ||
              Parsed.error().code() == ErrorCode::Malformed)
      << Parsed.error().message();
}

// --- Bad section order -----------------------------------------------------

TEST(Hostile, CodeBeforeFunctionSection) {
  // A code section arriving before any function declarations: its count can
  // never match, and it must not be trusted.
  std::vector<uint8_t> Bytes = moduleHeader();
  std::vector<uint8_t> Code;
  encodeULEB128(3, Code); // Claims three bodies; zero functions declared.
  appendSection(Bytes, 10, Code);
  Result<wasm::Module> Parsed = wasm::readModule(Bytes);
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::Malformed);
  EXPECT_NE(Parsed.error().message().find("mismatch"), std::string::npos);
}

// --- Validator nesting cap -------------------------------------------------

TEST(Hostile, DeepBlockNestingIsLimitExceeded) {
  // 100k nested blocks: parses (flat instruction list) but the validator's
  // control stack must refuse to grow without bound.
  wasm::Module M;
  M.Types.push_back(wasm::FuncType{});
  wasm::Function Func;
  Func.TypeIndex = 0;
  for (int I = 0; I < 100000; ++I)
    Func.Body.push_back(wasm::Instr(wasm::Opcode::Block));
  for (int I = 0; I < 100000; ++I)
    Func.Body.push_back(wasm::Instr(wasm::Opcode::End));
  Func.Body.push_back(wasm::Instr(wasm::Opcode::End));
  M.Functions.push_back(std::move(Func));
  Result<void> Valid = wasm::validateModule(M);
  ASSERT_TRUE(Valid.isErr());
  EXPECT_EQ(Valid.error().code(), ErrorCode::LimitExceeded)
      << Valid.error().message();
  // Context chaining names the offending function.
  EXPECT_NE(Valid.error().message().find("function 0"), std::string::npos);
}

TEST(Hostile, InstructionAfterFinalEndIsMalformed) {
  // Found by the fuzz harness: once the final `end` pops the implicit
  // function frame, any trailing instruction used to hit Frames.back() on an
  // empty control stack (heap-buffer-overflow under ASan).
  wasm::Module M;
  M.Types.push_back(wasm::FuncType{});
  wasm::Function Func;
  Func.TypeIndex = 0;
  Func.Body.push_back(wasm::Instr(wasm::Opcode::End));
  Func.Body.push_back(wasm::Instr(wasm::Opcode::If));
  M.Functions.push_back(std::move(Func));
  Result<void> Valid = wasm::validateModule(M);
  ASSERT_TRUE(Valid.isErr());
  EXPECT_EQ(Valid.error().code(), ErrorCode::Malformed)
      << Valid.error().message();
  EXPECT_NE(Valid.error().message().find("after function body end"),
            std::string::npos)
      << Valid.error().message();
}

// --- DWARF depth bomb ------------------------------------------------------

TEST(Hostile, DieDepthBombIsLimitExceeded) {
  // Each level costs 3 bytes (tag, hasChildren=1, zero attrs); 5000 levels
  // would previously recurse 5000 frames deep.
  std::vector<uint8_t> Info;
  constexpr int Depth = 5000;
  encodeULEB128(0x11, Info); // Root: DW_TAG_compile_unit.
  Info.push_back(1);
  encodeULEB128(0, Info);
  for (int I = 1; I < Depth; ++I) {
    encodeULEB128(0x13, Info); // DW_TAG_structure_type.
    Info.push_back(1);         // hasChildren
    encodeULEB128(0, Info);    // No attributes.
  }
  encodeULEB128(0x24, Info); // Leaf: DW_TAG_base_type.
  Info.push_back(0);
  encodeULEB128(0, Info);
  for (int I = 0; I < Depth; ++I)
    Info.push_back(0); // Sibling-chain terminators.
  Result<dwarf::DebugInfo> Parsed = dwarf::readDebugSections(Info, {});
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::LimitExceeded)
      << Parsed.error().message();
  EXPECT_NE(Parsed.error().message().find(".debug_info"), std::string::npos);
}

TEST(Hostile, DieAttributeCountBomb) {
  std::vector<uint8_t> Info;
  encodeULEB128(0x11, Info); // Compile unit.
  Info.push_back(0);
  encodeULEB128(1ull << 40, Info); // Attribute count nothing backs.
  Result<dwarf::DebugInfo> Parsed = dwarf::readDebugSections(Info, {});
  ASSERT_TRUE(Parsed.isErr());
  EXPECT_EQ(Parsed.error().code(), ErrorCode::Malformed)
      << Parsed.error().message();
}

// --- Fault injector determinism --------------------------------------------

TEST(FaultInjector, CorruptionIsDeterministic) {
  std::vector<uint8_t> Original = validModuleBytes();
  fault::FaultConfig Config;
  Config.Seed = 99;
  std::vector<uint8_t> A = Original, B = Original;
  fault::FaultInjector InjA(Config), InjB(Config);
  std::vector<fault::MutationKind> KindsA = InjA.corrupt(A);
  std::vector<fault::MutationKind> KindsB = InjB.corrupt(B);
  EXPECT_EQ(A, B);
  EXPECT_EQ(KindsA, KindsB);
  EXPECT_FALSE(KindsA.empty());
  EXPECT_NE(A, Original);
}

TEST(FaultInjector, RetryBackoffRetriesOnlyTransient) {
  fault::RetryPolicy Policy;
  Policy.MaxAttempts = 4;
  size_t Calls = 0;
  uint64_t Backoff = 0;
  Result<void> Ok = fault::retryWithBackoff(
      Policy,
      [&]() -> Result<void> {
        if (++Calls < 3)
          return Error(ErrorCode::IoTransient, "flaky");
        return {};
      },
      &Backoff);
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Calls, 3u);
  EXPECT_EQ(Backoff, 100u + 200u); // Two retries of virtual backoff.

  Calls = 0;
  Result<void> Permanent = fault::retryWithBackoff(Policy, [&]() -> Result<void> {
    ++Calls;
    return Error(ErrorCode::IoError, "disk gone");
  });
  EXPECT_TRUE(Permanent.isErr());
  EXPECT_EQ(Calls, 1u) << "permanent errors must not be retried";

  Calls = 0;
  Result<void> Exhausted =
      fault::retryWithBackoff(Policy, [&]() -> Result<void> {
        ++Calls;
        return Error(ErrorCode::IoTransient, "always flaky");
      });
  EXPECT_TRUE(Exhausted.isErr());
  EXPECT_EQ(Exhausted.error().code(), ErrorCode::IoTransient);
  EXPECT_EQ(Calls, 4u);
}

// --- Checksummed I/O -------------------------------------------------------

TEST(CrashSafety, ChecksummedFileDetectsBitRot) {
  std::string Path = scratchPath("hostile_checksummed.bin");
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(io::writeFileChecksummed(Path, Payload).isOk());
  Result<std::vector<uint8_t>> Back = io::readFileChecksummed(Path);
  ASSERT_TRUE(Back.isOk());
  EXPECT_EQ(*Back, Payload);

  // Flip one payload byte on disk.
  Result<std::vector<uint8_t>> Raw = io::readFileBytes(Path);
  ASSERT_TRUE(Raw.isOk());
  (*Raw)[3] ^= 0x40;
  ASSERT_TRUE(io::writeFileAtomic(Path, *Raw).isOk());
  Result<std::vector<uint8_t>> Corrupt = io::readFileChecksummed(Path);
  ASSERT_TRUE(Corrupt.isErr());
  EXPECT_EQ(Corrupt.error().code(), ErrorCode::ChecksumMismatch);
  std::remove(Path.c_str());
}

TEST(CrashSafety, TransientWriteFailuresAreRetried) {
  std::string Path = scratchPath("hostile_retry.bin");
  fault::FaultConfig Config;
  Config.Seed = 3;
  Config.IoFailureRate = 0.5;
  fault::FaultInjector Injector(Config);
  fault::RetryPolicy Policy;
  Policy.MaxAttempts = 16; // At 0.5 rate, 16 attempts virtually never fail.
  std::vector<uint8_t> Payload = {42};
  ASSERT_TRUE(io::writeFileChecksummed(Path, Payload, &Injector, Policy).isOk());
  Result<std::vector<uint8_t>> Back = io::readFileChecksummed(Path);
  ASSERT_TRUE(Back.isOk());
  EXPECT_EQ(*Back, Payload);
  std::remove(Path.c_str());
}

// --- Pipeline quarantine ---------------------------------------------------

TEST(Quarantine, CorruptObjectIsSkippedNotFatal) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 6;
  Spec.Seed = 11;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  // Destroy one object's bytes outright.
  frontend::CompiledObject &Victim = Corpus.Packages.at(2).Objects.at(0);
  Victim.Bytes.assign({0xde, 0xad, 0xbe, 0xef});

  dataset::Dataset Data = dataset::buildDataset(Corpus);
  EXPECT_EQ(Data.Quarantine.ParseFailures, 1u);
  ASSERT_EQ(Data.Quarantine.Entries.size(), 1u);
  const dataset::QuarantineEntry &Entry = Data.Quarantine.Entries[0];
  EXPECT_EQ(Entry.PackageId, Corpus.Packages.at(2).Id);
  EXPECT_EQ(Entry.Stage, "parse");
  EXPECT_EQ(Entry.Code, ErrorCode::Truncated); // 4 bytes < header size.
  // Context chaining identifies the module.
  EXPECT_NE(Entry.Message.find("obj0"), std::string::npos);
  EXPECT_FALSE(Data.Samples.empty()) << "survivors must still yield samples";
  EXPECT_NE(Data.Quarantine.summary().find("parse"), std::string::npos);
}

TEST(Quarantine, SurvivorsIdenticalToCleanBuildWithoutVictim) {
  // Quarantining a corrupt object must leave the surviving samples exactly
  // as if the object had never been in the corpus.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 6;
  Spec.Seed = 12;
  frontend::Corpus WithVictim = frontend::buildCorpus(Spec);
  frontend::Corpus Without = frontend::buildCorpus(Spec);
  WithVictim.Packages.at(1).Objects.at(0).Bytes.assign({0x00});
  Without.Packages.at(1).Objects.erase(
      Without.Packages.at(1).Objects.begin());

  dataset::Dataset A = dataset::buildDataset(WithVictim);
  dataset::Dataset B = dataset::buildDataset(Without);
  EXPECT_EQ(A.Quarantine.total(), 1u);
  EXPECT_EQ(B.Quarantine.total(), 0u);
  ASSERT_EQ(A.Samples.size(), B.Samples.size());
  for (size_t I = 0; I < A.Samples.size(); ++I) {
    EXPECT_EQ(A.Samples[I].Input, B.Samples[I].Input);
    EXPECT_EQ(A.Samples[I].RichType.toString(), B.Samples[I].RichType.toString());
  }
  EXPECT_EQ(A.Train, B.Train);
  EXPECT_EQ(A.Valid, B.Valid);
  EXPECT_EQ(A.Test, B.Test);
}

TEST(Quarantine, IllTypedObjectIsQuarantinedAtValidate) {
  // A module that parses and keeps its debug sections but has an ill-typed
  // body must be set aside, not contribute samples without evidence.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 6;
  Spec.Seed = 12;
  frontend::Corpus WithVictim = frontend::buildCorpus(Spec);
  frontend::Corpus Without = frontend::buildCorpus(Spec);
  frontend::CompiledObject &Victim = WithVictim.Packages.at(1).Objects.at(0);
  std::vector<wasm::Instr> &Body = Victim.Mod.Functions.at(0).Body;
  Body.insert(Body.begin(), wasm::Instr(wasm::Opcode::I32Add)); // Underflow.
  Victim.Bytes = wasm::writeModule(Victim.Mod);
  ASSERT_TRUE(wasm::readModule(Victim.Bytes).isOk());
  Without.Packages.at(1).Objects.erase(
      Without.Packages.at(1).Objects.begin());

  dataset::Dataset A = dataset::buildDataset(WithVictim);
  dataset::Dataset B = dataset::buildDataset(Without);
  EXPECT_EQ(A.Quarantine.ValidateFailures, 1u);
  EXPECT_EQ(A.Quarantine.total(), 1u);
  ASSERT_EQ(A.Quarantine.Entries.size(), 1u);
  EXPECT_EQ(A.Quarantine.Entries[0].Stage, "validate");
  EXPECT_EQ(A.Quarantine.Entries[0].PackageId, WithVictim.Packages.at(1).Id);
  EXPECT_NE(A.Quarantine.summary().find("1 validate"), std::string::npos);
  EXPECT_EQ(B.Quarantine.total(), 0u);
  ASSERT_EQ(A.Samples.size(), B.Samples.size());
  for (size_t I = 0; I < A.Samples.size(); ++I) {
    EXPECT_EQ(A.Samples[I].Input, B.Samples[I].Input);
    EXPECT_EQ(A.Samples[I].RichType.toString(), B.Samples[I].RichType.toString());
  }
  EXPECT_EQ(A.Train, B.Train);
  EXPECT_EQ(A.Valid, B.Valid);
  EXPECT_EQ(A.Test, B.Test);
}

// --- Kill-and-resume -------------------------------------------------------

class KillResume : public ::testing::Test {
protected:
  static model::Task &sharedTask() {
    static model::Task *Task = [] {
      frontend::CorpusSpec Spec;
      Spec.NumPackages = 10;
      Spec.Seed = 21;
      frontend::Corpus Corpus = frontend::buildCorpus(Spec);
      dataset::Dataset Data = dataset::buildDataset(Corpus);
      return new model::Task(Data, model::TaskOptions{});
    }();
    return *Task;
  }

  static model::TrainOptions baseOptions() {
    model::TrainOptions Options;
    Options.MaxEpochs = 2;
    Options.BatchSize = 16;
    Options.MaxValidSamples = 64;
    return Options;
  }

  static std::vector<std::vector<float>> weightsOf(model::TrainResult &R) {
    std::vector<std::vector<float>> Out;
    for (nn::Parameter *P : R.Model->parameters())
      Out.push_back(P->Value);
    return Out;
  }
};

TEST_F(KillResume, ResumedRunIsBitIdentical) {
  model::Task &Task = sharedTask();
  ASSERT_FALSE(Task.train().empty());

  // Reference: uninterrupted, no checkpointing at all.
  model::TrainResult Reference = model::trainModel(Task, baseOptions());

  // Crash run: checkpoint every 2 batches, simulated kill before batch 5.
  std::string Ckpt = scratchPath("hostile_resume.ckpt");
  std::remove(Ckpt.c_str());
  model::TrainOptions CrashOptions = baseOptions();
  CrashOptions.CheckpointPath = Ckpt;
  CrashOptions.CheckpointEveryBatches = 2;
  fault::FaultConfig Config;
  Config.CrashAtTick = 5;
  fault::FaultInjector Injector(Config);
  CrashOptions.Faults = &Injector;
  model::TrainResult Crashed = model::trainModel(Task, CrashOptions);
  ASSERT_TRUE(Crashed.Interrupted);
  ASSERT_LT(Crashed.BatchesRun, Reference.BatchesRun);

  // Resume from the checkpoint, run to completion.
  model::TrainOptions ResumeOptions = baseOptions();
  ResumeOptions.CheckpointPath = Ckpt;
  ResumeOptions.CheckpointEveryBatches = 2;
  ResumeOptions.Resume = true;
  model::TrainResult Resumed = model::trainModel(Task, ResumeOptions);
  EXPECT_FALSE(Resumed.Interrupted);

  EXPECT_EQ(Resumed.BatchesRun, Reference.BatchesRun);
  EXPECT_EQ(Resumed.BestValidLoss, Reference.BestValidLoss);
  std::vector<std::vector<float>> A = weightsOf(Reference);
  std::vector<std::vector<float>> B = weightsOf(Resumed);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "parameter " << I << " diverged after resume";
  std::remove(Ckpt.c_str());
}

TEST_F(KillResume, CorruptCheckpointFallsBackToFreshRun) {
  model::Task &Task = sharedTask();
  std::string Ckpt = scratchPath("hostile_bad.ckpt");
  std::vector<uint8_t> Garbage = {'n', 'o', 't', ' ', 'a', ' ', 'c', 'k'};
  ASSERT_TRUE(io::writeFileAtomic(Ckpt, Garbage).isOk());

  model::TrainOptions Options = baseOptions();
  Options.MaxEpochs = 1;
  Options.CheckpointPath = Ckpt;
  Options.CheckpointEveryBatches = 4;
  Options.Resume = true;
  model::TrainResult Result = model::trainModel(Task, Options);
  EXPECT_FALSE(Result.Interrupted);
  EXPECT_GT(Result.BatchesRun, 0u) << "bad checkpoint must not block training";
  std::remove(Ckpt.c_str());
}

TEST_F(KillResume, ModelSaveIsAtomicAndChecksummed) {
  model::Task &Task = sharedTask();
  model::TrainOptions Options = baseOptions();
  Options.MaxEpochs = 1;
  model::TrainResult Trained = model::trainModel(Task, Options);

  std::string Path = scratchPath("hostile_model.bin");
  ASSERT_TRUE(Trained.Model->save(Path).isOk());
  // No temp file left behind.
  Result<std::vector<uint8_t>> Temp = io::readFileBytes(Path + ".tmp");
  EXPECT_TRUE(Temp.isErr());
  Result<nn::Seq2SeqModel> Loaded = nn::Seq2SeqModel::load(Path);
  ASSERT_TRUE(Loaded.isOk());

  // Bit rot in the stored weights is caught by the checksum.
  Result<std::vector<uint8_t>> Raw = io::readFileBytes(Path);
  ASSERT_TRUE(Raw.isOk());
  (*Raw)[Raw->size() / 2] ^= 0x01;
  ASSERT_TRUE(io::writeFileAtomic(Path, *Raw).isOk());
  Result<nn::Seq2SeqModel> Corrupt = nn::Seq2SeqModel::load(Path);
  ASSERT_TRUE(Corrupt.isErr());
  EXPECT_EQ(Corrupt.error().code(), ErrorCode::ChecksumMismatch)
      << Corrupt.error().message();
  std::remove(Path.c_str());
}

// The checkpoint file's bytes are pinned by hash: the byte codec underneath
// may change, the format may not. Two fields legitimately differ run to run
// and are masked: the wall-clock AccumSeconds (payload bytes 120..127) and,
// because it covers them, the 8-byte checksum trailer.
TEST_F(KillResume, CheckpointFileGolden) {
  model::Task &Task = sharedTask();
  std::string Ckpt = scratchPath("hostile_golden.ckpt");
  std::remove(Ckpt.c_str());
  model::TrainOptions Options = baseOptions();
  Options.MaxEpochs = 1;
  Options.EmbedDim = 4;
  Options.HiddenDim = 4;
  Options.CheckpointPath = Ckpt;
  Options.CheckpointEveryBatches = 3;
  model::TrainResult Trained = model::trainModel(Task, Options);
  ASSERT_GT(Trained.BatchesRun, 3u);
  ASSERT_TRUE(io::readFileChecksummed(Ckpt).isOk());
  Result<std::vector<uint8_t>> Raw = io::readFileBytes(Ckpt);
  ASSERT_TRUE(Raw.isOk());
  std::vector<uint8_t> Bytes = Raw.take();
  ASSERT_GT(Bytes.size(), 136u);
  std::fill(Bytes.begin() + 120, Bytes.begin() + 128, uint8_t{0});
  std::fill(Bytes.end() - 8, Bytes.end(), uint8_t{0});
  EXPECT_EQ(Bytes.size(), 47696u);
  EXPECT_EQ(hashToHex(hashVector(Bytes)), "c4930db67c8a93a5");
  std::remove(Ckpt.c_str());
}

} // namespace
} // namespace snowwhite
