#include "dataset/journal.h"

#include "support/bytes.h"
#include "support/hash.h"
#include "support/io.h"

#include <cstdio>

namespace snowwhite {
namespace dataset {
namespace journal {

const char *fileOutcomeName(FileOutcome Outcome) {
  switch (Outcome) {
  case FileOutcome::Kept:
    return "kept";
  case FileOutcome::QuarantinedParse:
    return "quarantined-parse";
  case FileOutcome::QuarantinedWatchdog:
    return "quarantined-watchdog";
  case FileOutcome::DuplicateExact:
    return "duplicate-exact";
  case FileOutcome::DuplicateNear:
    return "duplicate-near";
  }
  return "invalid-outcome";
}

namespace {

constexpr uint8_t Magic[4] = {'S', 'W', 'J', 'L'};
/// The highest error code a record may carry; anything above is a corrupted
/// (or future) taxonomy, rejected rather than cast blindly.
constexpr uint8_t MaxErrorCode = static_cast<uint8_t>(ErrorCode::Timeout);
constexpr uint8_t MaxOutcome =
    static_cast<uint8_t>(FileOutcome::DuplicateNear);
/// Serialized strings are paths and error messages; anything longer than
/// this is a corrupted length field, not a message.
constexpr uint64_t MaxStringBytes = 1u << 20;

} // namespace

DedupSnapshot IngestJournal::snapshot() const {
  DedupSnapshot Snap;
  for (const FileRecord &Rec : Records) {
    switch (Rec.Outcome) {
    case FileOutcome::Kept:
      ++Snap.KeptFiles;
      Snap.ExactSetDigest = hashCombine(Snap.ExactSetDigest, Rec.ExactHash);
      Snap.ApproxSetDigest =
          hashCombine(Snap.ApproxSetDigest, Rec.ApproxHash);
      break;
    case FileOutcome::QuarantinedParse:
      ++Snap.ParseQuarantines;
      break;
    case FileOutcome::QuarantinedWatchdog:
      ++Snap.WatchdogQuarantines;
      break;
    case FileOutcome::DuplicateExact:
      ++Snap.ExactDuplicates;
      break;
    case FileOutcome::DuplicateNear:
      ++Snap.NearDuplicates;
      break;
    }
  }
  return Snap;
}

std::vector<uint8_t> IngestJournal::serialize() const {
  std::vector<uint8_t> Out;
  bytes::Writer W(Out);
  for (uint8_t Byte : Magic)
    W.u8(Byte);
  W.u32(JournalVersion);
  W.u64(ConfigDigest);
  W.u64(Records.size());
  for (const FileRecord &Rec : Records) {
    W.string(Rec.RelPath);
    W.u8(static_cast<uint8_t>(Rec.Outcome));
    W.u8(static_cast<uint8_t>(Rec.Code));
    W.string(Rec.Stage);
    W.string(Rec.Message);
    W.u64(Rec.ExactHash);
    W.u64(Rec.ApproxHash);
    W.u64(Rec.Bytes);
    W.u64(Rec.Functions);
    W.u64(Rec.Instructions);
  }
  DedupSnapshot Snap = snapshot();
  W.u64(Snap.KeptFiles);
  W.u64(Snap.ExactDuplicates);
  W.u64(Snap.NearDuplicates);
  W.u64(Snap.ParseQuarantines);
  W.u64(Snap.WatchdogQuarantines);
  W.u64(Snap.ExactSetDigest);
  W.u64(Snap.ApproxSetDigest);
  return Out;
}

Result<IngestJournal>
IngestJournal::deserialize(const std::vector<uint8_t> &Bytes) {
  bytes::Reader R(Bytes);
  uint8_t MagicByte;
  for (int I = 0; I < 4; ++I)
    if (!R.u8(MagicByte) || MagicByte != Magic[I])
      return Error(ErrorCode::Malformed, "journal: bad magic");
  uint32_t Version;
  if (!R.u32(Version))
    return Error(ErrorCode::Truncated, "journal: truncated header");
  if (Version != JournalVersion)
    return Error(ErrorCode::Unsupported,
                 "journal: version " + std::to_string(Version) +
                     " unsupported (expected " +
                     std::to_string(JournalVersion) + ")");
  IngestJournal J;
  uint64_t NumRecords;
  if (!R.u64(J.ConfigDigest) || !R.u64(NumRecords))
    return Error(ErrorCode::Truncated, "journal: truncated header");
  // Every record costs well over one byte; a count past the remaining bytes
  // is a hostile or corrupted header, not a record list.
  if (NumRecords > R.remaining())
    return Error(ErrorCode::Malformed,
                 "journal: record count " + std::to_string(NumRecords) +
                     " exceeds remaining bytes");
  J.Records.reserve(static_cast<size_t>(NumRecords));
  for (uint64_t I = 0; I < NumRecords; ++I) {
    std::string Where = "journal: record " + std::to_string(I) + ": ";
    FileRecord Rec;
    uint8_t Outcome, Code;
    // An over-cap string length is reported as truncation, like a short
    // one: either way the record cannot be what the writer produced.
    if (!R.string(Rec.RelPath, MaxStringBytes) || !R.u8(Outcome) ||
        !R.u8(Code) || !R.string(Rec.Stage, MaxStringBytes) ||
        !R.string(Rec.Message, MaxStringBytes) || !R.u64(Rec.ExactHash) ||
        !R.u64(Rec.ApproxHash) || !R.u64(Rec.Bytes) ||
        !R.u64(Rec.Functions) || !R.u64(Rec.Instructions))
      return Error(ErrorCode::Truncated, Where + "truncated");
    if (Outcome > MaxOutcome)
      return Error(ErrorCode::Malformed, Where + "invalid outcome");
    if (Code > MaxErrorCode)
      return Error(ErrorCode::Malformed, Where + "invalid error code");
    Rec.Outcome = static_cast<FileOutcome>(Outcome);
    Rec.Code = static_cast<ErrorCode>(Code);
    J.Records.push_back(std::move(Rec));
  }
  DedupSnapshot Stored;
  if (!R.u64(Stored.KeptFiles) || !R.u64(Stored.ExactDuplicates) ||
      !R.u64(Stored.NearDuplicates) || !R.u64(Stored.ParseQuarantines) ||
      !R.u64(Stored.WatchdogQuarantines) || !R.u64(Stored.ExactSetDigest) ||
      !R.u64(Stored.ApproxSetDigest))
    return Error(ErrorCode::Truncated, "journal: truncated dedup snapshot");
  if (!R.atEnd())
    return Error(ErrorCode::Malformed, "journal: trailing bytes");
  if (J.snapshot() != Stored)
    return Error(ErrorCode::Malformed,
                 "journal: dedup snapshot disagrees with its records");
  return J;
}

Result<void> saveJournal(const std::string &Path, const IngestJournal &J,
                         fault::FaultInjector *Faults) {
  return io::writeFileChecksummed(Path, J.serialize(), Faults)
      .withContext("journal '" + Path + "'");
}

Result<IngestJournal> loadJournal(const std::string &Path,
                                  fault::FaultInjector *Faults) {
  Result<std::vector<uint8_t>> Bytes = io::readFileChecksummed(Path, Faults);
  if (Bytes.isErr())
    return Bytes.error();
  return IngestJournal::deserialize(*Bytes).withContext("journal '" + Path +
                                                        "'");
}

std::string quarantineJournal(const std::string &Path) {
  std::string Target = Path + ".quarantined";
  if (std::rename(Path.c_str(), Target.c_str()) != 0)
    return {};
  return Target;
}

} // namespace journal
} // namespace dataset
} // namespace snowwhite
