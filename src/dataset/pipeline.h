//===- dataset/pipeline.h - Corpus -> labeled dataset (paper §5) -----------===//
//
// Runs the full dataset construction over a corpus of compiled object files:
//
//  1. Deduplicate binaries: exact (whole-file hash) and near (approximate
//     signature over abstracted instructions, order-sensitive).
//  2. Parse each kept binary and its DWARF sections; match every wasm
//     function to its subprogram DIE via the code offset.
//  3. Filter: skip functions whose wasm/DWARF parameter counts disagree
//     (optimizations); extract a return sample only when DWARF has a
//     non-void return type and the wasm function returns a value.
//  4. Build the common-name vocabulary (names in >= 1% of packages).
//  5. Cap samples per package at the second most frequent package's count.
//  6. Split train/validation/test by package (96/2/2), never by sample.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_DATASET_PIPELINE_H
#define SNOWWHITE_DATASET_PIPELINE_H

#include "analysis/evidence.h"
#include "dataset/extract.h"
#include "frontend/corpus.h"
#include "support/fault.h"
#include "support/result.h"
#include "typelang/type.h"
#include "typelang/vocab.h"
#include "wasm/types.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace snowwhite {
namespace dataset {

/// Pipeline tuning.
struct DatasetOptions {
  ExtractOptions Extract;
  double TrainFraction = 0.96;
  double ValidFraction = 0.02; ///< Remainder after train+valid is test.
  bool Deduplicate = true;
  bool CapPerPackage = true;
  double NameVocabThreshold = 0.01; ///< Fraction of packages for a "common"
                                    ///< name.
  uint64_t SplitSeed = 7;
  /// Run the dataflow analysis (analysis/analyzer.h) on every kept binary
  /// and attach per-sample evidence summaries (TypeSample::Evidence).
  /// Implied by Extract.EvidenceTokens; also needed alone for the
  /// consistency-gate precision measurement.
  bool ComputeEvidence = false;
};

/// One labeled sample: the wasm input tokens and the "rich" converted type
/// (nested names kept), from which every language variant's target sequence
/// can be derived via typelang::lowerTypeToLanguage.
struct TypeSample {
  std::vector<std::string> Input;
  typelang::Type RichType;
  wasm::ValType LowLevel = wasm::ValType::I32;
  bool IsReturn = false;
  uint32_t PackageId = 0;
  /// EXTENSION (paper future work): when the sample's type is a pointer to
  /// a defined aggregate, the shape tokens of that aggregate's fields
  /// (typelang/fields.h); empty otherwise.
  std::vector<std::string> FieldTokens;
  /// Statically-proven evidence for this query slot; populated only when
  /// DatasetOptions::ComputeEvidence (or Extract.EvidenceTokens) is set.
  analysis::QueryEvidence Evidence;
};

/// One corrupt module set aside by the pipeline instead of aborting it.
struct QuarantineEntry {
  uint32_t PackageId = 0;
  uint32_t ObjectIndex = 0;   ///< Index within the package.
  std::string Stage;          ///< Pipeline stage that rejected it.
  ErrorCode Code = ErrorCode::Unknown;
  std::string Message;        ///< Full context-chained error.
};

/// Graceful-degradation report: which inputs were skipped, where, and why.
/// Ingestion of arbitrary binaries must never let one corrupt module abort
/// the dataset build; the surviving set is bit-identical at any thread count
/// because rejection decisions replay sequentially in corpus order.
struct QuarantineReport {
  uint64_t ParseFailures = 0;  ///< wasm::readModule rejected the bytes.
  uint64_t DebugFailures = 0;  ///< DWARF sections missing or malformed.
  uint64_t ValidateFailures = 0; ///< wasm::validateModule rejected a module
                                 ///< that parsed (ill-typed body, bad index).
  uint64_t WatchdogFailures = 0; ///< Per-file stall/byte-budget watchdog
                                 ///< fired (streaming ingest only).
  std::vector<QuarantineEntry> Entries;

  uint64_t total() const {
    return ParseFailures + DebugFailures + ValidateFailures +
           WatchdogFailures;
  }
  bool empty() const { return Entries.empty(); }
  /// Human-readable multi-line summary ("stage counts + one line per entry").
  std::string summary() const;
};

/// Size reduction achieved by deduplication (§5).
struct DedupStats {
  uint64_t ObjectsBefore = 0, ObjectsAfter = 0;
  uint64_t FunctionsBefore = 0, FunctionsAfter = 0;
  uint64_t InstructionsBefore = 0, InstructionsAfter = 0;
  uint64_t BytesBefore = 0, BytesAfter = 0;
  uint64_t ExactDuplicates = 0, NearDuplicates = 0;
  /// 64-bit hash matches whose full keys differed byte-wise; such objects
  /// are kept, never merged (collision-safe dedup).
  uint64_t SignatureCollisions = 0;
};

/// The assembled dataset.
struct Dataset {
  std::vector<TypeSample> Samples;
  std::vector<uint32_t> Train, Valid, Test; ///< Indices into Samples.
  typelang::NameVocabulary Names;
  DedupStats Dedup;
  QuarantineReport Quarantine;
  uint64_t FunctionsSkippedMismatch = 0;
  uint64_t SamplesDroppedByCap = 0;
  uint32_t NumPackages = 0;

  /// Counts parameter (IsReturn == false) samples among the given split.
  uint64_t countParams(const std::vector<uint32_t> &Split) const;
  uint64_t countReturns(const std::vector<uint32_t> &Split) const;
};

/// Runs the pipeline. Binaries are re-parsed from their serialized bytes, so
/// the wasm and DWARF readers are on the hot path exactly as they would be
/// on real binaries.
Dataset buildDataset(const frontend::Corpus &Corpus,
                     const DatasetOptions &Options = {});

/// One object file queued for streaming ingest.
struct IngestFile {
  std::string Path;    ///< Full path, opened for reading.
  std::string RelPath; ///< '/'-separated path relative to the ingest root;
                       ///< the stable identity journal records key on.
};

/// Recursively discovers "*.wasm" files under Root. Deterministic: results
/// are sorted by RelPath, so ingest order (and therefore package ids, dedup
/// decisions, and the journal) is independent of directory enumeration
/// order. Errors: IoError (unreadable root), NotFound (no matches).
Result<std::vector<IngestFile>> discoverWasmFiles(const std::string &Root);

/// Streaming-ingest tuning. The per-file budgets feed the reader's
/// ReadLimits and the stall watchdog; the journal knobs control crash-safe
/// resume.
struct StreamIngestOptions {
  DatasetOptions Dataset;
  /// Journal file path; empty disables journaling (and resume).
  std::string JournalPath;
  /// Replay the journaled prefix instead of re-deciding it.
  bool Resume = false;
  /// Publish the journal after every N files (and once at the end).
  uint64_t JournalEvery = 32;
  /// Per-file wall-clock budget in milliseconds; 0 disables the clock (the
  /// injected-stall stream still fires when configured).
  uint64_t FileBudgetMillis = 0;
  /// Per-section / whole-module decoded-byte budgets (wasm::ReadLimits).
  uint64_t MaxSectionBytes = 1ull << 30;
  uint64_t MaxModuleBytes = 1ull << 31;
  /// FileByteSource read-ahead window.
  size_t WindowBytes = 64 * 1024;
  /// Fault injector for crash ticks, stalls, and I/O faults; null uses the
  /// process-global injector.
  fault::FaultInjector *Faults = nullptr;
};

/// What streamIngest did, beyond the dataset itself.
struct StreamIngestResult {
  Dataset Data;
  uint64_t FilesProcessed = 0; ///< Decided fresh this run.
  uint64_t FilesReplayed = 0;  ///< Re-applied from the journal.
  uint64_t JournalPublishes = 0;
  /// The injected crash tick fired: the run stopped early with the journal
  /// at its last published state and Data left unfinished.
  bool Crashed = false;
  /// Non-empty: a damaged journal was moved to this path before the fresh
  /// start; JournalIssue holds why it was rejected.
  std::string JournalQuarantinedPath;
  std::optional<Error> JournalIssue;
};

/// Streaming, crash-safe corpus ingest: each file is decoded section-wise
/// through a bounded window (never fully materialized), deduped
/// collision-safely, journaled, and — after the whole corpus is decided —
/// fed through the same downstream pipeline stages as buildDataset. One
/// package per file (package id = index in Files). Decisions are strictly
/// sequential in Files order, so a resumed run is bit-identical to an
/// uninterrupted one; the parallel downstream stages keep buildDataset's
/// thread-count invariance. Fatal errors (journal/corpus divergence) abort;
/// per-file damage only ever quarantines.
Result<StreamIngestResult> streamIngest(const std::vector<IngestFile> &Files,
                                        const StreamIngestOptions &Options);

} // namespace dataset
} // namespace snowwhite

#endif // SNOWWHITE_DATASET_PIPELINE_H
