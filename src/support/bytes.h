//===- support/bytes.h - The byte codec of every persisted file -----------===//
//
// The framing shared by the model, checkpoint, ingest journal, cache
// snapshot and io's checksum trailer (README "On-disk formats"), and by the
// DWARF offsets and wasm float immediates: little-endian u8/u32/u64, IEEE-754
// bit patterns, raw float arrays and u64-length-prefixed strings. Each format
// keeps its own caps and error taxonomy. LEB128 (support/leb128.h) and the
// wasm reader's streamed cursor are a different encoding, not this codec.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_SUPPORT_BYTES_H
#define SNOWWHITE_SUPPORT_BYTES_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace snowwhite {
namespace bytes {

/// Appends little-endian fields to a caller-owned byte vector.
class Writer {
public:
  explicit Writer(std::vector<uint8_t> &Target) : Out(Target) {}

  void u8(uint8_t Value) { Out.push_back(Value); }
  void u32(uint32_t Value) { fixed(Value, 4); }
  void u64(uint64_t Value) { fixed(Value, 8); }
  void f64(double Value) { u64(std::bit_cast<uint64_t>(Value)); }
  void f32AsU64(float Value) { u64(std::bit_cast<uint32_t>(Value)); }
  /// The floats' 4-byte patterns, no length prefix.
  void floats(const std::vector<float> &Values);
  /// u64 byte length, then the bytes.
  void string(std::string_view Text);

private:
  void fixed(uint64_t Value, unsigned Width) {
    for (unsigned I = 0; I < Width; ++I)
      Out.push_back(static_cast<uint8_t>(Value >> (8 * I)));
  }

  std::vector<uint8_t> &Out;
};

/// Why a capped string read failed. A length over the cap is a corrupt
/// length field; a short read is truncation.
enum class StringStatus { Ok, ShortLength, OverCap, ShortBody };

struct StringRead {
  StringStatus Status = StringStatus::Ok;
  uint64_t Length = 0; ///< The length field, once it could be read.

  explicit operator bool() const { return Status == StringStatus::Ok; }
};

/// Bounds-checked little-endian reader over a non-owned byte span. A failed
/// read consumes nothing.
class Reader {
public:
  explicit Reader(std::span<const uint8_t> Input, size_t Start = 0)
      : Bytes(Input), Pos(std::min(Start, Input.size())) {}

  size_t position() const { return Pos; }
  size_t remaining() const { return Bytes.size() - Pos; }
  bool atEnd() const { return Pos == Bytes.size(); }

  bool u8(uint8_t &Value) { return fixed(Value); }
  bool u32(uint32_t &Value) { return fixed(Value); }
  bool u64(uint64_t &Value) { return fixed(Value); }
  bool f64(double &Value) { return bits<uint64_t>(Value); }
  /// Keeps the low 32 bits of a u64 slot as a float's pattern.
  bool f32AsU64(float &Value) { return bits<uint64_t, uint32_t>(Value); }
  /// Fills all of Values; its size is the count to read.
  bool floats(std::vector<float> &Values);
  /// Views the next Size bytes without copying.
  bool raw(uint64_t Size, std::span<const uint8_t> &Out);
  /// Reads a u64-length-prefixed string of at most Cap bytes.
  StringRead string(std::string &Out, uint64_t Cap);

private:
  template <typename T> bool fixed(T &Value) {
    if (remaining() < sizeof(T))
      return false;
    Value = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      Value |= static_cast<T>(static_cast<T>(Bytes[Pos + I]) << (8 * I));
    Pos += sizeof(T);
    return true;
  }

  template <typename Slot, typename Pattern = Slot, typename T>
  bool bits(T &Value) {
    Slot Raw;
    if (!fixed(Raw))
      return false;
    Value = std::bit_cast<T>(static_cast<Pattern>(Raw));
    return true;
  }

  std::span<const uint8_t> Bytes;
  size_t Pos;
};

} // namespace bytes
} // namespace snowwhite

#endif // SNOWWHITE_SUPPORT_BYTES_H
