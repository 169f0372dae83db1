//===- tests/ingest_crash_test.cpp - Crash-safe streaming ingest -----------===//
//
// The streaming-ingest crash-safety suite (issue 8): journal round-trips and
// every corruption class, kill-during-ingest resume bit-identity at multiple
// thread counts, the per-file stall watchdog, byte-budget bombs, recursive
// discovery determinism, streamed-vs-buffered pipeline equivalence, and
// atomic artifact publication under injected I/O faults.
//
//===----------------------------------------------------------------------===//

#include "dataset/export.h"
#include "dataset/journal.h"
#include "dataset/pipeline.h"
#include "frontend/corpus.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/thread_pool.h"
#include "wasm/reader.h"
#include "wasm/writer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace snowwhite {
namespace dataset {
namespace {

namespace fs = std::filesystem;

/// Builds a synthetic corpus and lays its object files out as a *nested*
/// directory tree (one subdirectory per package, with every third package
/// nested one level deeper) — the shape a real multi-project corpus has.
/// Returns the root directory.
static std::string makeCorpusTree(const std::string &Name,
                                  uint32_t NumPackages, uint64_t Seed) {
  frontend::CorpusSpec Spec;
  Spec.NumPackages = NumPackages;
  Spec.Seed = Seed;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);

  std::string Root = ::testing::TempDir() + "/" + Name;
  fs::remove_all(Root);
  for (size_t P = 0; P < Corpus.Packages.size(); ++P) {
    const frontend::Package &Pkg = Corpus.Packages[P];
    std::string Dir = Root + "/" + (P % 3 == 0 ? "deep/" : "") + Pkg.Name;
    fs::create_directories(Dir);
    for (size_t O = 0; O < Pkg.Objects.size(); ++O) {
      std::string Path = Dir + "/obj" + std::to_string(O) + ".wasm";
      Result<void> Written =
          io::writeFileAtomic(Path, Pkg.Objects[O].Bytes);
      EXPECT_TRUE(Written.isOk());
    }
  }
  return Root;
}

static std::vector<IngestFile> discoverOrDie(const std::string &Root) {
  Result<std::vector<IngestFile>> Files = discoverWasmFiles(Root);
  EXPECT_TRUE(Files.isOk());
  return Files.isOk() ? *Files : std::vector<IngestFile>{};
}

/// Exports Data under Dir and returns the concatenated bytes of all six
/// split/element file pairs, tagged by file name — a byte-exact fingerprint
/// of everything downstream consumers see.
static std::string exportFingerprint(const Dataset &Data,
                                     const std::string &Dir) {
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  Result<std::vector<uint64_t>> Exported = exportPlaintext(Data, Dir);
  EXPECT_TRUE(Exported.isOk());
  std::string Fingerprint;
  std::vector<std::string> Names;
  for (const auto &Entry : fs::directory_iterator(Dir))
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  for (const std::string &Name : Names) {
    Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Dir + "/" + Name);
    EXPECT_TRUE(Bytes.isOk());
    Fingerprint += Name + ":";
    Fingerprint.append(Bytes->begin(), Bytes->end());
    Fingerprint += "\n";
  }
  return Fingerprint;
}

static void expectSameDedupStats(const DedupStats &A, const DedupStats &B) {
  EXPECT_EQ(A.ObjectsBefore, B.ObjectsBefore);
  EXPECT_EQ(A.ObjectsAfter, B.ObjectsAfter);
  EXPECT_EQ(A.FunctionsBefore, B.FunctionsBefore);
  EXPECT_EQ(A.FunctionsAfter, B.FunctionsAfter);
  EXPECT_EQ(A.InstructionsBefore, B.InstructionsBefore);
  EXPECT_EQ(A.InstructionsAfter, B.InstructionsAfter);
  EXPECT_EQ(A.BytesBefore, B.BytesBefore);
  EXPECT_EQ(A.BytesAfter, B.BytesAfter);
  EXPECT_EQ(A.ExactDuplicates, B.ExactDuplicates);
  EXPECT_EQ(A.NearDuplicates, B.NearDuplicates);
  EXPECT_EQ(A.SignatureCollisions, B.SignatureCollisions);
}

static journal::IngestJournal makeSampleJournal() {
  journal::IngestJournal J;
  J.ConfigDigest = 0xfeedfacecafebeefULL;
  journal::FileRecord Kept;
  Kept.RelPath = "pkg/a.wasm";
  Kept.Outcome = journal::FileOutcome::Kept;
  Kept.ExactHash = 111;
  Kept.ApproxHash = 222;
  Kept.Bytes = 1024;
  Kept.Functions = 7;
  Kept.Instructions = 321;
  journal::FileRecord Parse;
  Parse.RelPath = "pkg/b.wasm";
  Parse.Outcome = journal::FileOutcome::QuarantinedParse;
  Parse.Code = ErrorCode::Malformed;
  Parse.Stage = "parse";
  Parse.Message = "pkg/b.wasm: bad magic or version";
  Parse.Bytes = 4;
  journal::FileRecord Stall;
  Stall.RelPath = "pkg/c.wasm";
  Stall.Outcome = journal::FileOutcome::QuarantinedWatchdog;
  Stall.Code = ErrorCode::Timeout;
  Stall.Stage = "watchdog";
  Stall.Message = "pkg/c.wasm: module decode exceeded its time budget";
  journal::FileRecord Exact;
  Exact.RelPath = "pkg/d.wasm";
  Exact.Outcome = journal::FileOutcome::DuplicateExact;
  Exact.ExactHash = 111;
  Exact.Bytes = 1024;
  journal::FileRecord Near;
  Near.RelPath = "pkg/e.wasm";
  Near.Outcome = journal::FileOutcome::DuplicateNear;
  Near.ExactHash = 444;
  Near.ApproxHash = 222;
  Near.Bytes = 999;
  J.Records = {Kept, Parse, Stall, Exact, Near};
  return J;
}

// --- Journal format -------------------------------------------------------

TEST(IngestJournal, SerializeDeserializeRoundTrip) {
  journal::IngestJournal J = makeSampleJournal();
  Result<journal::IngestJournal> Loaded =
      journal::IngestJournal::deserialize(J.serialize());
  ASSERT_TRUE(Loaded.isOk());
  EXPECT_EQ(Loaded->ConfigDigest, J.ConfigDigest);
  ASSERT_EQ(Loaded->Records.size(), J.Records.size());
  for (size_t I = 0; I < J.Records.size(); ++I) {
    const journal::FileRecord &A = J.Records[I];
    const journal::FileRecord &B = Loaded->Records[I];
    EXPECT_EQ(A.RelPath, B.RelPath);
    EXPECT_EQ(A.Outcome, B.Outcome);
    EXPECT_EQ(A.Code, B.Code);
    EXPECT_EQ(A.Stage, B.Stage);
    EXPECT_EQ(A.Message, B.Message);
    EXPECT_EQ(A.ExactHash, B.ExactHash);
    EXPECT_EQ(A.ApproxHash, B.ApproxHash);
    EXPECT_EQ(A.Bytes, B.Bytes);
    EXPECT_EQ(A.Functions, B.Functions);
    EXPECT_EQ(A.Instructions, B.Instructions);
  }
  journal::DedupSnapshot Snap = Loaded->snapshot();
  EXPECT_EQ(Snap.KeptFiles, 1u);
  EXPECT_EQ(Snap.ParseQuarantines, 1u);
  EXPECT_EQ(Snap.WatchdogQuarantines, 1u);
  EXPECT_EQ(Snap.ExactDuplicates, 1u);
  EXPECT_EQ(Snap.NearDuplicates, 1u);
}

TEST(IngestJournal, RejectsTruncatedRecord) {
  std::vector<uint8_t> Bytes = makeSampleJournal().serialize();
  // Chop into the middle of the record region (well past the header).
  Bytes.resize(Bytes.size() / 2);
  Result<journal::IngestJournal> Loaded =
      journal::IngestJournal::deserialize(Bytes);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Truncated);
}

TEST(IngestJournal, RejectsVersionMismatch) {
  std::vector<uint8_t> Bytes = makeSampleJournal().serialize();
  Bytes[4] = 99; // Version field (little-endian u32 after the magic).
  Result<journal::IngestJournal> Loaded =
      journal::IngestJournal::deserialize(Bytes);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Unsupported);
}

TEST(IngestJournal, RejectsBadMagicAndTrailingBytes) {
  std::vector<uint8_t> Bytes = makeSampleJournal().serialize();
  std::vector<uint8_t> BadMagic = Bytes;
  BadMagic[0] = 'X';
  Result<journal::IngestJournal> Loaded =
      journal::IngestJournal::deserialize(BadMagic);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed);

  std::vector<uint8_t> Trailing = Bytes;
  Trailing.push_back(0);
  Loaded = journal::IngestJournal::deserialize(Trailing);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed);
}

TEST(IngestJournal, RejectsSnapshotDisagreement) {
  std::vector<uint8_t> Bytes = makeSampleJournal().serialize();
  // The stored snapshot is the last 56 bytes; corrupt its KeptFiles count.
  Bytes[Bytes.size() - 56] ^= 0xff;
  Result<journal::IngestJournal> Loaded =
      journal::IngestJournal::deserialize(Bytes);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::Malformed);
  EXPECT_NE(Loaded.error().message().find("snapshot"), std::string::npos);
}

TEST(IngestJournal, FileLevelBitRotIsChecksumMismatch) {
  std::string Path = ::testing::TempDir() + "/ingest_journal_bitrot.journal";
  journal::IngestJournal J = makeSampleJournal();
  ASSERT_TRUE(journal::saveJournal(Path, J).isOk());
  ASSERT_TRUE(journal::loadJournal(Path).isOk());

  Result<std::vector<uint8_t>> Raw = io::readFileBytes(Path);
  ASSERT_TRUE(Raw.isOk());
  std::vector<uint8_t> Damaged = *Raw;
  Damaged[Damaged.size() / 2] ^= 0x20;
  ASSERT_TRUE(io::writeFileAtomic(Path, Damaged).isOk());
  Result<journal::IngestJournal> Loaded = journal::loadJournal(Path);
  ASSERT_TRUE(Loaded.isErr());
  EXPECT_EQ(Loaded.error().code(), ErrorCode::ChecksumMismatch);
}

TEST(IngestJournal, QuarantineMovesTheEvidenceAside) {
  std::string Path = ::testing::TempDir() + "/ingest_journal_moved.journal";
  ASSERT_TRUE(journal::saveJournal(Path, makeSampleJournal()).isOk());
  std::string Target = journal::quarantineJournal(Path);
  EXPECT_EQ(Target, Path + ".quarantined");
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_TRUE(fs::exists(Target));
}

// --- Discovery ------------------------------------------------------------

// The journal's bytes, and every verdict deserialize() gives on a truncated or
// byte-flipped image, are pinned by hash: the byte codec underneath may
// change, the format and the error taxonomy may not.
TEST(IngestJournal, SerializeGolden) {
  std::vector<uint8_t> Bytes = makeSampleJournal().serialize();
  EXPECT_EQ(Bytes.size(), 555u);
  EXPECT_EQ(hashToHex(hashVector(Bytes)), "cc6e0ac87ba53c02");
}

TEST(IngestJournal, LoaderVerdictsGolden) {
  std::vector<uint8_t> Image = makeSampleJournal().serialize();
  std::string Verdicts;
  auto Judge = [&](const std::vector<uint8_t> &Bytes) {
    Result<journal::IngestJournal> Loaded =
        journal::IngestJournal::deserialize(Bytes);
    if (Loaded.isOk())
      Verdicts += "ok " + hashToHex(hashVector(Loaded->serialize()));
    else
      Verdicts += std::string(errorCodeName(Loaded.error().code())) + " " +
                  Loaded.error().message();
    Verdicts += '\n';
  };
  for (size_t Len = 0; Len <= Image.size(); ++Len)
    Judge(std::vector<uint8_t>(Image.begin(),
                               Image.begin() + static_cast<ptrdiff_t>(Len)));
  for (size_t At = 0; At < Image.size(); ++At) {
    std::vector<uint8_t> Flipped = Image;
    Flipped[At] ^= 0xff;
    Judge(Flipped);
  }
  EXPECT_EQ(hashToHex(hashString(Verdicts)), "2dc4e75bfe63cf8c");
}

TEST(IngestDiscovery, RecursesAndSortsByRelPath) {
  std::string Root = makeCorpusTree("ingest_discover", 5, 11);
  std::vector<IngestFile> Files = discoverOrDie(Root);
  ASSERT_FALSE(Files.empty());
  bool SawNested = false;
  for (size_t I = 0; I < Files.size(); ++I) {
    if (I > 0)
      EXPECT_LT(Files[I - 1].RelPath, Files[I].RelPath);
    EXPECT_EQ(fs::path(Files[I].RelPath).extension(), ".wasm");
    if (Files[I].RelPath.rfind("deep/", 0) == 0)
      SawNested = true;
  }
  EXPECT_TRUE(SawNested) << "fixture should exercise nested directories";

  std::string Empty = ::testing::TempDir() + "/ingest_discover_empty";
  fs::remove_all(Empty);
  fs::create_directories(Empty);
  Result<std::vector<IngestFile>> None = discoverWasmFiles(Empty);
  ASSERT_TRUE(None.isErr());
  EXPECT_EQ(None.error().code(), ErrorCode::NotFound);
}

// --- Streamed pipeline vs buffered pipeline -------------------------------

TEST(StreamIngest, MatchesBufferedPipelineByteForByte) {
  std::string Root = makeCorpusTree("ingest_differential", 8, 23);
  std::vector<IngestFile> Files = discoverOrDie(Root);

  // The buffered reference: one package per file, same order, same as the
  // CLI's --strict corpus construction (minus the fail-fast pre-checks).
  frontend::Corpus Corpus;
  for (size_t I = 0; I < Files.size(); ++I) {
    Result<std::vector<uint8_t>> Bytes = io::readFileBytes(Files[I].Path);
    ASSERT_TRUE(Bytes.isOk());
    frontend::Package Pkg;
    Pkg.Id = static_cast<uint32_t>(I);
    Pkg.Name = Files[I].RelPath;
    frontend::CompiledObject Object;
    Object.FileName = Files[I].Path;
    Object.Bytes = std::move(*Bytes);
    Pkg.Objects.push_back(std::move(Object));
    Corpus.Packages.push_back(std::move(Pkg));
    ++Corpus.TotalObjects;
  }
  Dataset Buffered = buildDataset(Corpus);

  // Streamed, across window sizes that straddle section boundaries.
  for (size_t Window : {size_t(7), size_t(64 * 1024)}) {
    StreamIngestOptions Options;
    Options.WindowBytes = Window;
    Result<StreamIngestResult> Streamed = streamIngest(Files, Options);
    ASSERT_TRUE(Streamed.isOk());
    EXPECT_FALSE(Streamed->Crashed);
    std::string Tmp = ::testing::TempDir() + "/ingest_differential_export";
    EXPECT_EQ(exportFingerprint(Buffered, Tmp + "_a"),
              exportFingerprint(Streamed->Data, Tmp + "_b"))
        << "window " << Window;
    EXPECT_EQ(Buffered.Dedup.ObjectsAfter, Streamed->Data.Dedup.ObjectsAfter);
    EXPECT_EQ(Buffered.Dedup.ExactDuplicates,
              Streamed->Data.Dedup.ExactDuplicates);
    EXPECT_EQ(Buffered.Dedup.NearDuplicates,
              Streamed->Data.Dedup.NearDuplicates);
  }
}

TEST(StreamIngest, StreamedReaderMatchesBufferedOnMutants) {
  // Deterministic mini-differential over corrupted modules: the streamed
  // reader must agree with the buffered one on verdict, error code, and —
  // for accepted modules — the decoded module, at hostile chunk sizes.
  frontend::CorpusSpec Spec;
  Spec.NumPackages = 3;
  Spec.Seed = 91;
  frontend::Corpus Corpus = frontend::buildCorpus(Spec);
  fault::FaultInjector Mutator({/*Seed=*/1234});
  size_t Checked = 0;
  for (const frontend::Package &Pkg : Corpus.Packages)
    for (const frontend::CompiledObject &Object : Pkg.Objects)
      for (int Round = 0; Round < 8; ++Round) {
        std::vector<uint8_t> Bytes = Object.Bytes;
        if (Round > 0)
          Mutator.corrupt(Bytes);
        Result<wasm::Module> Ref = wasm::readModule(Bytes);
        for (size_t Chunk : {size_t(1), size_t(3), size_t(17)}) {
          io::MemoryByteSource Source(Bytes, Chunk);
          Result<wasm::Module> Streamed = wasm::readModuleStreamed(Source);
          ASSERT_EQ(Ref.isOk(), Streamed.isOk())
              << "round " << Round << " chunk " << Chunk;
          if (Ref.isOk()) {
            EXPECT_EQ(wasm::writeModule(*Ref), wasm::writeModule(*Streamed));
          } else {
            EXPECT_EQ(Ref.error().code(), Streamed.error().code());
            EXPECT_EQ(Ref.error().message(), Streamed.error().message());
          }
        }
        ++Checked;
      }
  EXPECT_GT(Checked, 20u);
}

// --- Kill-and-resume bit-identity -----------------------------------------

static void runKillResumeAtThreads(unsigned Threads) {
  ThreadPool::resetGlobal(Threads);
  std::string Root = makeCorpusTree(
      "ingest_resume_t" + std::to_string(Threads), 7, 31 + Threads);
  std::vector<IngestFile> Files = discoverOrDie(Root);
  ASSERT_GT(Files.size(), 6u);
  std::string Tmp =
      ::testing::TempDir() + "/ingest_resume_t" + std::to_string(Threads);

  // Uninterrupted reference run (journaling on, but never killed).
  StreamIngestOptions Base;
  Base.JournalPath = Tmp + "_ref.journal";
  Base.JournalEvery = 2;
  Result<StreamIngestResult> Ref = streamIngest(Files, Base);
  ASSERT_TRUE(Ref.isOk());
  ASSERT_FALSE(Ref->Crashed);
  std::string RefPrint = exportFingerprint(Ref->Data, Tmp + "_ref_export");

  // Killed run: the injected crash fires after the 5th decided file, which
  // (with cadence 2) strands the journal one file behind the kill point.
  fault::FaultConfig CrashConfig;
  CrashConfig.CrashAtTick = 5;
  fault::FaultInjector CrashFaults(CrashConfig);
  StreamIngestOptions Killed = Base;
  Killed.JournalPath = Tmp + "_killed.journal";
  Killed.Faults = &CrashFaults;
  Result<StreamIngestResult> Crashed = streamIngest(Files, Killed);
  ASSERT_TRUE(Crashed.isOk());
  ASSERT_TRUE(Crashed->Crashed);
  EXPECT_EQ(Crashed->FilesProcessed, 5u);

  // Resume must replay the journaled prefix (4 files, not 5: the crash hit
  // between publishes) and produce a bit-identical dataset.
  StreamIngestOptions ResumeOptions = Base;
  ResumeOptions.JournalPath = Killed.JournalPath;
  ResumeOptions.Resume = true;
  Result<StreamIngestResult> Resumed = streamIngest(Files, ResumeOptions);
  ASSERT_TRUE(Resumed.isOk());
  ASSERT_FALSE(Resumed->Crashed);
  EXPECT_FALSE(Resumed->JournalIssue.has_value());
  EXPECT_EQ(Resumed->FilesReplayed, 4u);
  EXPECT_EQ(Resumed->FilesReplayed + Resumed->FilesProcessed, Files.size());

  EXPECT_EQ(RefPrint,
            exportFingerprint(Resumed->Data, Tmp + "_resumed_export"));
  expectSameDedupStats(Ref->Data.Dedup, Resumed->Data.Dedup);
  EXPECT_EQ(Ref->Data.Quarantine.total(), Resumed->Data.Quarantine.total());
}

TEST(StreamIngest, KillAndResumeIsBitIdenticalSingleThread) {
  runKillResumeAtThreads(1);
  ThreadPool::resetGlobal(0);
}

TEST(StreamIngest, KillAndResumeIsBitIdenticalFourThreads) {
  runKillResumeAtThreads(4);
  ThreadPool::resetGlobal(0);
}

TEST(StreamIngest, DamagedJournalIsQuarantinedAndIngestRestarts) {
  std::string Root = makeCorpusTree("ingest_damaged_journal", 5, 47);
  std::vector<IngestFile> Files = discoverOrDie(Root);
  std::string Tmp = ::testing::TempDir() + "/ingest_damaged_journal";

  StreamIngestOptions Base;
  Base.JournalPath = Tmp + ".journal";
  Base.JournalEvery = 2;
  Result<StreamIngestResult> Ref = streamIngest(Files, Base);
  ASSERT_TRUE(Ref.isOk());
  std::string RefPrint = exportFingerprint(Ref->Data, Tmp + "_ref_export");

  // Bit-rot the published journal, then resume: the damage must be detected
  // (checksum), the journal moved aside, and the fresh run must still equal
  // the reference bit-for-bit.
  Result<std::vector<uint8_t>> Raw = io::readFileBytes(Base.JournalPath);
  ASSERT_TRUE(Raw.isOk());
  std::vector<uint8_t> Damaged = *Raw;
  Damaged[Damaged.size() / 3] ^= 0x41;
  ASSERT_TRUE(io::writeFileAtomic(Base.JournalPath, Damaged).isOk());

  StreamIngestOptions ResumeOptions = Base;
  ResumeOptions.Resume = true;
  Result<StreamIngestResult> Resumed = streamIngest(Files, ResumeOptions);
  ASSERT_TRUE(Resumed.isOk());
  ASSERT_TRUE(Resumed->JournalIssue.has_value());
  EXPECT_EQ(Resumed->JournalIssue->code(), ErrorCode::ChecksumMismatch);
  EXPECT_EQ(Resumed->JournalQuarantinedPath,
            Base.JournalPath + ".quarantined");
  EXPECT_TRUE(fs::exists(Resumed->JournalQuarantinedPath));
  EXPECT_EQ(Resumed->FilesReplayed, 0u);
  EXPECT_EQ(Resumed->FilesProcessed, Files.size());
  EXPECT_EQ(RefPrint,
            exportFingerprint(Resumed->Data, Tmp + "_fresh_export"));
}

TEST(StreamIngest, StaleConfigDigestIsQuarantined) {
  std::string Root = makeCorpusTree("ingest_stale_config", 4, 53);
  std::vector<IngestFile> Files = discoverOrDie(Root);
  std::string Tmp = ::testing::TempDir() + "/ingest_stale_config";

  StreamIngestOptions Base;
  Base.JournalPath = Tmp + ".journal";
  ASSERT_TRUE(streamIngest(Files, Base).isOk());

  // Same journal, different byte budgets: the decisions it records were
  // made under other rules, so resume must refuse and quarantine it.
  StreamIngestOptions Changed = Base;
  Changed.Resume = true;
  Changed.MaxSectionBytes = 4096;
  Result<StreamIngestResult> Resumed = streamIngest(Files, Changed);
  ASSERT_TRUE(Resumed.isOk());
  ASSERT_TRUE(Resumed->JournalIssue.has_value());
  EXPECT_EQ(Resumed->JournalIssue->code(), ErrorCode::Unsupported);
  EXPECT_EQ(Resumed->FilesReplayed, 0u);
}

// --- Watchdog and byte budgets --------------------------------------------

TEST(StreamIngest, InjectedStallQuarantinesEveryFileAsWatchdog) {
  std::string Root = makeCorpusTree("ingest_stall", 3, 61);
  std::vector<IngestFile> Files = discoverOrDie(Root);

  fault::FaultConfig StallConfig;
  StallConfig.StallRate = 1.0;
  fault::FaultInjector StallFaults(StallConfig);
  StreamIngestOptions Options;
  Options.FileBudgetMillis = 60 * 1000; // Real clock far away; stalls fire.
  Options.Faults = &StallFaults;
  Result<StreamIngestResult> Ingested = streamIngest(Files, Options);
  ASSERT_TRUE(Ingested.isOk());
  const Dataset &Data = Ingested->Data;
  EXPECT_EQ(Data.Quarantine.WatchdogFailures, Files.size());
  EXPECT_EQ(Data.Dedup.ObjectsAfter, 0u);
  ASSERT_FALSE(Data.Quarantine.Entries.empty());
  for (const QuarantineEntry &Entry : Data.Quarantine.Entries) {
    EXPECT_EQ(Entry.Stage, "watchdog");
    EXPECT_EQ(Entry.Code, ErrorCode::Timeout);
  }
}

TEST(StreamIngest, DecodedBytesBombIsQuarantinedOthersSurvive) {
  std::string Root = makeCorpusTree("ingest_bomb", 3, 67);
  // Plant a decompression-bomb-shaped file: a valid header followed by a
  // data section whose body is much larger than any sane module's.
  std::vector<uint8_t> Bomb = {0x00, 'a', 's', 'm', 1, 0, 0, 0};
  Bomb.push_back(11); // data section id (skipped, streamed through)
  // LEB128 for 100000.
  Bomb.push_back(0xa0);
  Bomb.push_back(0x8d);
  Bomb.push_back(0x06);
  Bomb.resize(Bomb.size() + 100000, 0xAA);
  ASSERT_TRUE(io::writeFileAtomic(Root + "/aaa_bomb.wasm", Bomb).isOk());

  std::vector<IngestFile> Files = discoverOrDie(Root);
  StreamIngestOptions Options;
  Options.MaxSectionBytes = 16 * 1024;
  Result<StreamIngestResult> Ingested = streamIngest(Files, Options);
  ASSERT_TRUE(Ingested.isOk());
  const Dataset &Data = Ingested->Data;
  EXPECT_EQ(Data.Quarantine.WatchdogFailures, 1u);
  EXPECT_GT(Data.Dedup.ObjectsAfter, 0u) << "real modules must survive";
  bool FoundBomb = false;
  for (const QuarantineEntry &Entry : Data.Quarantine.Entries)
    if (Entry.Stage == "watchdog") {
      FoundBomb = true;
      EXPECT_EQ(Entry.Code, ErrorCode::LimitExceeded);
      EXPECT_NE(Entry.Message.find("per-section byte budget"),
                std::string::npos);
    }
  EXPECT_TRUE(FoundBomb);
}

// --- Atomic artifact publication ------------------------------------------

TEST(StreamIngest, FailedAtomicPublishLeavesPriorArtifactIntact) {
  // The quarantine report / metrics files publish via writeFileAtomic; a
  // persistent injected I/O fault must fail the write *and* leave the
  // previous artifact untouched (no torn or truncated report).
  std::string Path = ::testing::TempDir() + "/ingest_report.txt";
  std::vector<uint8_t> Original = {'o', 'k', '\n'};
  ASSERT_TRUE(io::writeFileAtomic(Path, Original).isOk());

  fault::FaultConfig IoConfig;
  IoConfig.IoFailureRate = 1.0;
  fault::FaultInjector IoFaults(IoConfig);
  std::vector<uint8_t> Update = {'n', 'e', 'w', '\n'};
  Result<void> Written = io::writeFileAtomic(Path, Update, &IoFaults);
  ASSERT_TRUE(Written.isErr());
  EXPECT_EQ(Written.error().code(), ErrorCode::IoTransient);

  Result<std::vector<uint8_t>> After = io::readFileBytes(Path);
  ASSERT_TRUE(After.isOk());
  EXPECT_EQ(*After, Original);
}

TEST(StreamIngest, JournalPublishFailureAbortsTheRun) {
  std::string Root = makeCorpusTree("ingest_publish_fail", 3, 71);
  std::vector<IngestFile> Files = discoverOrDie(Root);
  std::string JournalPath =
      ::testing::TempDir() + "/ingest_publish_fail.journal";
  fs::remove(JournalPath);

  fault::FaultConfig IoConfig;
  IoConfig.IoFailureRate = 1.0;
  fault::FaultInjector IoFaults(IoConfig);
  StreamIngestOptions Options;
  Options.JournalPath = JournalPath;
  Options.JournalEvery = 1;
  Options.Faults = &IoFaults;
  // With every I/O injection firing, either the per-file source reads fail
  // (quarantining files) or the journal publish fails; the publish failure
  // must be fatal — a run that cannot journal is not crash-safe and must
  // say so rather than limp on.
  Result<StreamIngestResult> Ingested = streamIngest(Files, Options);
  ASSERT_TRUE(Ingested.isErr());
  EXPECT_EQ(Ingested.error().code(), ErrorCode::IoTransient);
  EXPECT_FALSE(fs::exists(JournalPath));
}

} // namespace
} // namespace dataset
} // namespace snowwhite
