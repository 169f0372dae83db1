#!/usr/bin/env sh
# Lint driver for the static-analysis layers (src/analysis/ — including the
# CFG IR in cfg.cpp and the path-token extractor in paths.cpp — and
# src/wasm/), the
# telemetry layer (src/support/telemetry.*), the fault-injection and
# crash-safe I/O helpers (src/support/fault.*, src/support/io.*), the byte
# codec under every persisted file (src/support/bytes.*), the
# crash-safe ingest layer (src/dataset/{journal,pipeline}.*), the
# serving daemon (src/model/serve_daemon.*), and the GEMM kernel backends
# and arena allocator (src/nn/kernels.*, src/support/arena.*).
#
# Two passes, each independently useful:
#
#   1. Strict-warning audit (always runs): configure the `lint` preset
#      (SNOWWHITE_LINT=ON -> -Wextra -Wshadow -Wconversion -Werror on
#      sw_analysis, sw_wasm, src/support/{telemetry,fault,io,bytes}.cpp,
#      src/dataset/{journal,pipeline}.cpp, src/model/serve_daemon.cpp,
#      src/nn/kernels.cpp, and src/support/arena.cpp) and build those
#      targets. Any warning is a hard build failure.
#
#   2. clang-tidy (runs when installed): the checks in .clang-tidy over
#      every translation unit of the audited layers, using the
#      compile_commands.json the lint preset exports. When clang-tidy is not
#      on PATH this pass is skipped with a notice — the audit above still
#      gates — so the script works in minimal containers.
#
# Usage: tools/lint.sh            (from the repo root)
set -eu

cd "$(dirname "$0")/.."

echo "== lint: strict-warning audit (SNOWWHITE_LINT=ON) =="
cmake --preset lint >/dev/null
cmake --build build-lint --target sw_analysis sw_wasm sw_support sw_dataset sw_model sw_nn -j

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy over src/analysis/ src/wasm/ src/support/{telemetry,fault,io,arena,bytes}.* src/dataset/{journal,pipeline}.* src/model/serve_daemon.* src/nn/kernels.* =="
  # shellcheck disable=SC2046 -- word-splitting the file list is intended.
  clang-tidy -p build-lint --quiet \
    $(ls src/analysis/*.cpp src/wasm/*.cpp src/support/telemetry.cpp \
       src/support/fault.cpp src/support/io.cpp src/support/bytes.cpp \
       src/support/arena.cpp src/nn/kernels.cpp \
       src/dataset/journal.cpp src/dataset/pipeline.cpp \
       src/model/serve_daemon.cpp)
else
  echo "== lint: clang-tidy not installed; skipping (warning audit passed) =="
fi

echo "== lint: OK =="
