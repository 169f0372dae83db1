//===- support/arena.h - Bump allocation arenas -----------------------------===//
//
// A monotonic bump allocator for the two allocation-churn hot spots:
//
//   * nn::Graph node/value storage — every forward pass allocates hundreds
//     of short-lived node structs and float buffers with identical
//     lifetimes (they all die when the graph is destroyed), which is the
//     textbook arena workload.
//   * The reader→analysis→extract pipeline's per-module scratch, which
//     allocates and frees the same window/token vectors for every function
//     of every module.
//
// Blocks are malloc'd geometrically (doubling up to a cap) and *retained*
// across reset(): a steady-state arena performs zero heap traffic after
// warm-up. Allocation is pointer-bump plus an alignment round; there is no
// per-object free and destructors are never run — only trivially
// destructible types may live in an arena.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_SUPPORT_ARENA_H
#define SNOWWHITE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

namespace snowwhite {

class Arena {
public:
  /// FirstBlockBytes seeds the block geometry; subsequent blocks double up
  /// to MaxBlockBytes. Nothing is allocated until the first allocate().
  explicit Arena(size_t FirstBlockBytes = 1 << 12,
                 size_t MaxBlockBytes = 1 << 22);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns Size bytes aligned to Align (a power of two). Size == 0
  /// returns a valid, unique-enough pointer (the current bump cursor).
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t));

  /// Typed allocation of Count objects (uninitialized storage).
  template <typename T> T *allocateArray(size_t Count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
  }

  /// Constructs one T in place. T must be trivially destructible.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(static_cast<ArgTs &&>(Args)...);
  }

  /// Rewinds to empty but keeps every block for reuse: after the first
  /// pass through a workload, reset()+refill does no heap allocation.
  void reset();

  /// Frees every block (reset to the never-allocated state).
  void releaseMemory();

  /// Bytes handed out since construction or the last reset().
  size_t bytesAllocated() const { return BytesAllocated; }

  /// Total block capacity currently held (live + retained-for-reuse).
  size_t bytesReserved() const { return BytesReserved; }

  /// Number of malloc'd blocks currently held.
  size_t numBlocks() const { return NumBlocks; }

private:
  struct Block {
    Block *Next;
    size_t Capacity; ///< Usable bytes after the header.
  };

  /// Makes sure the current block has Size bytes at alignment Align,
  /// advancing to a retained block or mallocing a new one.
  void grow(size_t Size, size_t Align);

  static char *blockData(Block *B) {
    return reinterpret_cast<char *>(B) + sizeof(Block);
  }

  Block *Head = nullptr;    ///< All blocks, newest-used first.
  Block *Current = nullptr; ///< Block the cursor lives in.
  char *Cursor = nullptr;
  char *CurrentEnd = nullptr;
  const size_t InitialBlockBytes; ///< Where the geometry restarts.
  size_t NextBlockBytes;
  const size_t MaxBlockBytes;
  size_t BytesAllocated = 0;
  size_t BytesReserved = 0;
  size_t NumBlocks = 0;
};

} // namespace snowwhite

#endif // SNOWWHITE_SUPPORT_ARENA_H
