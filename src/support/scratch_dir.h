//===- support/scratch_dir.h - Per-process scratch directory ---------------===//
//
// A directory for a process's throwaway files (tests, benches, fuzz runs).
// Its name carries the process id, so two runs at once — say, the test
// suites of two build trees — never write the same file.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_SUPPORT_SCRATCH_DIR_H
#define SNOWWHITE_SUPPORT_SCRATCH_DIR_H

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace snowwhite {

/// A directory under the system temp directory named after Stem and this
/// process's id. It is created empty and removed, with everything in it,
/// when the object is destroyed.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Stem)
      : Root(std::filesystem::temp_directory_path() /
             (Stem + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(Root);
    std::filesystem::create_directories(Root);
  }
  ~ScratchDir() {
    std::error_code Ignored;
    std::filesystem::remove_all(Root, Ignored);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  std::string path(const std::string &Name) const {
    return (Root / Name).string();
  }

private:
  std::filesystem::path Root;
};

/// A path in this process's own scratch directory, which lives until the
/// process exits.
inline std::string scratchPath(const std::string &Name) {
  static ScratchDir Scratch("snowwhite_scratch");
  return Scratch.path(Name);
}

} // namespace snowwhite

#endif // SNOWWHITE_SUPPORT_SCRATCH_DIR_H
