//===- support/arena.cpp - Bump allocation arenas ---------------------------===//

#include "support/arena.h"

#include <cstdlib>

namespace snowwhite {

namespace {

inline char *alignUp(char *P, size_t Align) {
  uintptr_t V = reinterpret_cast<uintptr_t>(P);
  return reinterpret_cast<char *>((V + Align - 1) & ~uintptr_t(Align - 1));
}

} // namespace

Arena::Arena(size_t FirstBlockBytes, size_t BlockBytesCap)
    : InitialBlockBytes(FirstBlockBytes < 64 ? 64 : FirstBlockBytes),
      NextBlockBytes(InitialBlockBytes),
      MaxBlockBytes(BlockBytesCap < NextBlockBytes ? NextBlockBytes
                                                   : BlockBytesCap) {}

Arena::~Arena() { releaseMemory(); }

void *Arena::allocate(size_t Size, size_t Align) {
  char *P = alignUp(Cursor, Align);
  if (P + Size > CurrentEnd || !Current) {
    grow(Size, Align);
    P = alignUp(Cursor, Align);
  }
  Cursor = P + Size;
  BytesAllocated += Size;
  return P;
}

void Arena::grow(size_t Size, size_t Align) {
  // A retained block from a previous generation may already be big enough;
  // alignment can consume at most Align - 1 bytes of it.
  size_t Needed = Size + Align;
  if (Current && Current->Next && Current->Next->Capacity >= Needed) {
    Current = Current->Next;
    Cursor = blockData(Current);
    CurrentEnd = Cursor + Current->Capacity;
    return;
  }

  size_t Capacity = NextBlockBytes;
  if (Capacity < Needed)
    Capacity = Needed;
  if (NextBlockBytes < MaxBlockBytes)
    NextBlockBytes =
        NextBlockBytes * 2 < MaxBlockBytes ? NextBlockBytes * 2 : MaxBlockBytes;

  Block *NewBlock =
      static_cast<Block *>(std::malloc(sizeof(Block) + Capacity));
  if (!NewBlock)
    throw std::bad_alloc();
  NewBlock->Capacity = Capacity;
  BytesReserved += Capacity;
  ++NumBlocks;

  // Link after Current so the in-use prefix of the list stays in bump
  // order; an undersized retained tail block remains reachable for the
  // next generation's smaller requests.
  if (Current) {
    NewBlock->Next = Current->Next;
    Current->Next = NewBlock;
  } else {
    NewBlock->Next = Head;
    Head = NewBlock;
  }
  Current = NewBlock;
  Cursor = blockData(Current);
  CurrentEnd = Cursor + Current->Capacity;
}

void Arena::reset() {
  BytesAllocated = 0;
  Current = Head;
  if (Current) {
    Cursor = blockData(Current);
    CurrentEnd = Cursor + Current->Capacity;
  } else {
    Cursor = CurrentEnd = nullptr;
  }
}

void Arena::releaseMemory() {
  Block *B = Head;
  while (B) {
    Block *Next = B->Next;
    std::free(B);
    B = Next;
  }
  Head = Current = nullptr;
  Cursor = CurrentEnd = nullptr;
  BytesAllocated = 0;
  BytesReserved = 0;
  NumBlocks = 0;
  NextBlockBytes = InitialBlockBytes;
}

} // namespace snowwhite
