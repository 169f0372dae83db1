#include "support/io.h"

#include "support/bytes.h"
#include "support/hash.h"

#include <algorithm>
#include <cstdio>

namespace snowwhite {
namespace io {

namespace {

fault::FaultInjector *effectiveInjector(fault::FaultInjector *Faults) {
  return Faults ? Faults : fault::globalInjector();
}

} // namespace

Result<std::vector<uint8_t>> readFileBytes(const std::string &Path,
                                           fault::FaultInjector *Faults) {
  if (fault::FaultInjector *FI = effectiveInjector(Faults))
    if (FI->injectIoFailure())
      return Error(ErrorCode::IoTransient,
                   "injected transient read failure on '" + Path + "'");
  FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Error(ErrorCode::IoError, "cannot open '" + Path + "' for reading");
  std::vector<uint8_t> Bytes;
  if (std::fseek(File, 0, SEEK_END) == 0) {
    long Size = std::ftell(File);
    std::fseek(File, 0, SEEK_SET);
    if (Size > 0)
      Bytes.resize(static_cast<size_t>(Size));
  }
  size_t Read = Bytes.empty()
                    ? 0
                    : std::fread(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
  if (Read != Bytes.size())
    return Error(ErrorCode::IoError, "short read on '" + Path + "'");
  return Bytes;
}

Result<void> writeFileAtomic(const std::string &Path,
                             const std::vector<uint8_t> &Bytes,
                             fault::FaultInjector *Faults,
                             const fault::RetryPolicy &Policy) {
  fault::FaultInjector *FI = effectiveInjector(Faults);
  std::string TempPath = Path + ".tmp";
  auto WriteOnce = [&]() -> Result<void> {
    if (FI && FI->injectIoFailure())
      return Error(ErrorCode::IoTransient,
                   "injected transient write failure on '" + Path + "'");
    FILE *File = std::fopen(TempPath.c_str(), "wb");
    if (!File)
      return Error(ErrorCode::IoError,
                   "cannot open '" + TempPath + "' for writing");
    size_t Written = Bytes.empty()
                         ? 0
                         : std::fwrite(Bytes.data(), 1, Bytes.size(), File);
    bool Flushed = std::fflush(File) == 0;
    std::fclose(File);
    if (Written != Bytes.size() || !Flushed) {
      std::remove(TempPath.c_str());
      return Error(ErrorCode::IoError, "short write on '" + TempPath + "'");
    }
    if (std::rename(TempPath.c_str(), Path.c_str()) != 0) {
      std::remove(TempPath.c_str());
      return Error(ErrorCode::IoError,
                   "cannot rename '" + TempPath + "' to '" + Path + "'");
    }
    return {};
  };
  return fault::retryWithBackoff(Policy, WriteOnce);
}

constexpr size_t ChecksumTrailerSize = 8;

Result<void> writeFileChecksummed(const std::string &Path,
                                  const std::vector<uint8_t> &Bytes,
                                  fault::FaultInjector *Faults,
                                  const fault::RetryPolicy &Policy) {
  std::vector<uint8_t> WithTrailer = Bytes;
  bytes::Writer(WithTrailer).u64(hashVector(Bytes));
  return writeFileAtomic(Path, WithTrailer, Faults, Policy);
}

Result<std::vector<uint8_t>> readFileChecksummed(const std::string &Path,
                                                 fault::FaultInjector *Faults) {
  Result<std::vector<uint8_t>> Read = readFileBytes(Path, Faults);
  if (Read.isErr())
    return Read;
  std::vector<uint8_t> Bytes = Read.take();
  if (Bytes.size() < ChecksumTrailerSize)
    return Error(ErrorCode::Truncated,
                 "'" + Path + "' shorter than its checksum trailer");
  uint64_t Stored = 0;
  bytes::Reader(Bytes, Bytes.size() - ChecksumTrailerSize).u64(Stored);
  Bytes.resize(Bytes.size() - ChecksumTrailerSize);
  if (hashVector(Bytes) != Stored)
    return Error(ErrorCode::ChecksumMismatch,
                 "checksum mismatch in '" + Path + "'");
  return Bytes;
}

Result<size_t> MemoryByteSource::readSome(uint8_t *Buf, size_t Max) {
  size_t Give = std::min({Max, ChunkBytes, Bytes.size() - Offset});
  if (Give > 0) {
    std::copy(Bytes.begin() + static_cast<ptrdiff_t>(Offset),
              Bytes.begin() + static_cast<ptrdiff_t>(Offset + Give), Buf);
    Offset += Give;
    account(Buf, Give);
  }
  return Give;
}

FileByteSource::FileByteSource(const std::string &SourcePath,
                               size_t WindowBytes,
                               fault::FaultInjector *Injector)
    : Path(SourcePath), Faults(Injector),
      Window(WindowBytes ? WindowBytes : 1) {
  File = std::fopen(Path.c_str(), "rb");
}

FileByteSource::~FileByteSource() {
  if (File)
    std::fclose(File);
}

Result<size_t> FileByteSource::readSome(uint8_t *Buf, size_t Max) {
  if (!File)
    return Error(ErrorCode::IoError,
                 "cannot open '" + Path + "' for reading");
  if (Max == 0)
    return size_t{0};
  if (WindowPos >= WindowLen) {
    if (fault::FaultInjector *FI = effectiveInjector(Faults))
      if (FI->injectIoFailure())
        return Error(ErrorCode::IoTransient,
                     "injected transient read failure on '" + Path + "'");
    WindowLen = std::fread(Window.data(), 1, Window.size(), File);
    WindowPos = 0;
    if (WindowLen == 0) {
      if (std::ferror(File))
        return Error(ErrorCode::IoError, "read failure on '" + Path + "'");
      return size_t{0}; // End of stream.
    }
  }
  size_t Give = std::min(Max, WindowLen - WindowPos);
  std::copy(Window.begin() + static_cast<ptrdiff_t>(WindowPos),
            Window.begin() + static_cast<ptrdiff_t>(WindowPos + Give), Buf);
  WindowPos += Give;
  account(Buf, Give);
  return Give;
}

} // namespace io
} // namespace snowwhite
