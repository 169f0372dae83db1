//===- dataset/journal.h - Resumable ingest journal ------------------------===//
//
// Corpus ingest is a long-running batch job; a kill hours in must not lose
// the work. The journal is a write-ahead log of per-file outcomes
// (kept / quarantined / duplicate) plus a snapshot of the dedup state,
// published atomically (temp + rename, checksummed trailer) on a configured
// cadence. `streamIngest --resume` replays the journaled prefix: decisions
// are re-applied without re-deciding, dedup sets are rebuilt to the exact
// byte state, and the finished dataset is bit-identical to an uninterrupted
// run. A damaged journal (truncated, bit-rotted, wrong version, stale
// config) is quarantined aside with a taxonomy-coded error and ingest
// starts fresh — resumability must never be able to corrupt a dataset.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_DATASET_JOURNAL_H
#define SNOWWHITE_DATASET_JOURNAL_H

#include "support/fault.h"
#include "support/result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {
namespace dataset {
namespace journal {

/// Journal file format version; a mismatch quarantines the file
/// (Unsupported) rather than guessing at a foreign layout.
constexpr uint32_t JournalVersion = 1;

/// What ingest decided about one object file.
enum class FileOutcome : uint8_t {
  Kept = 0,                ///< Parsed, deduped, forwarded to the pipeline.
  QuarantinedParse = 1,    ///< The streamed reader rejected it.
  QuarantinedWatchdog = 2, ///< Stall/byte-budget watchdog fired (Timeout /
                           ///< LimitExceeded).
  DuplicateExact = 3,      ///< Byte-identical to an earlier kept file.
  DuplicateNear = 4,       ///< Same canonical abstraction as an earlier
                           ///< kept file.
};

const char *fileOutcomeName(FileOutcome Outcome);

/// One journaled per-file decision. Records carry everything resume needs
/// to re-apply the decision without re-deciding: the outcome, the error (for
/// quarantines), both dedup hashes, and the size counters that feed
/// DedupStats.
struct FileRecord {
  std::string RelPath;
  FileOutcome Outcome = FileOutcome::Kept;
  ErrorCode Code = ErrorCode::Unknown;
  std::string Stage;   ///< Pipeline stage for quarantines ("parse", ...).
  std::string Message; ///< Context-chained error message.
  uint64_t ExactHash = 0;  ///< Streaming FNV-1a over the whole file.
  uint64_t ApproxHash = 0; ///< Hash of the canonical module abstraction.
  uint64_t Bytes = 0;      ///< Bytes consumed from the file.
  uint64_t Functions = 0;  ///< Functions in the parsed module (0 if none).
  uint64_t Instructions = 0;
};

/// Dedup-state snapshot embedded in every published journal. The counts and
/// order-sensitive digests are recomputable from the records, so a loader
/// cross-checks them and treats any disagreement as corruption — a journal
/// that lies about its own dedup state must not seed a resume.
struct DedupSnapshot {
  uint64_t KeptFiles = 0;
  uint64_t ExactDuplicates = 0;
  uint64_t NearDuplicates = 0;
  uint64_t ParseQuarantines = 0;
  uint64_t WatchdogQuarantines = 0;
  /// hashCombine chain over kept records' ExactHash, in record order.
  uint64_t ExactSetDigest = 0;
  /// hashCombine chain over kept records' ApproxHash, in record order.
  uint64_t ApproxSetDigest = 0;

  bool operator==(const DedupSnapshot &) const = default;
};

/// A loaded (or in-construction) ingest journal.
struct IngestJournal {
  /// Digest of the decision-relevant ingest options; a journal written under
  /// different budgets would replay different decisions, so a mismatch is a
  /// typed quarantine, not a resume.
  uint64_t ConfigDigest = 0;
  std::vector<FileRecord> Records;

  /// Recomputes the snapshot from Records.
  DedupSnapshot snapshot() const;

  /// Serializes header + records + snapshot (no checksum trailer; the save
  /// path appends one via writeFileChecksummed).
  std::vector<uint8_t> serialize() const;

  /// Parses serialized bytes. Errors: Malformed (bad magic, hostile record
  /// count, snapshot/record disagreement), Unsupported (version mismatch),
  /// Truncated (record cut short).
  static Result<IngestJournal> deserialize(const std::vector<uint8_t> &Bytes);
};

/// Publishes the journal atomically with a checksum trailer. A kill at any
/// point leaves either the previous journal or the new one, never a tear.
Result<void> saveJournal(const std::string &Path, const IngestJournal &J,
                         fault::FaultInjector *Faults = nullptr);

/// Loads and validates a journal, including the snapshot cross-check.
/// Errors: readFileChecksummed's codes plus deserialize's.
Result<IngestJournal> loadJournal(const std::string &Path,
                                  fault::FaultInjector *Faults = nullptr);

/// Moves a damaged journal aside to "<Path>.quarantined" so the evidence
/// survives the fresh start that follows. Returns the quarantine path, or
/// empty if the rename failed (the fresh start proceeds regardless).
std::string quarantineJournal(const std::string &Path);

} // namespace journal
} // namespace dataset
} // namespace snowwhite

#endif // SNOWWHITE_DATASET_JOURNAL_H
