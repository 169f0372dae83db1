#include "support/leb128.h"

namespace snowwhite {

namespace {

/// The one ULEB128 writer; Out is any byte container of char or uint8_t.
template <typename ByteContainer>
void appendULEB128(uint64_t Value, ByteContainer &Out) {
  do {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if (Value != 0)
      Byte |= 0x80;
    Out.push_back(static_cast<typename ByteContainer::value_type>(Byte));
  } while (Value != 0);
}

} // namespace

void encodeULEB128(uint64_t Value, std::vector<uint8_t> &Out) {
  appendULEB128(Value, Out);
}

void encodeULEB128(uint64_t Value, std::string &Out) {
  appendULEB128(Value, Out);
}

void encodeSLEB128(int64_t Value, std::vector<uint8_t> &Out) {
  bool More = true;
  while (More) {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7; // Arithmetic shift keeps the sign.
    if ((Value == 0 && !(Byte & 0x40)) || (Value == -1 && (Byte & 0x40)))
      More = false;
    else
      Byte |= 0x80;
    Out.push_back(Byte);
  }
}

bool decodeULEB128(const std::vector<uint8_t> &Data, size_t &Offset,
                   uint64_t &Value) {
  Value = 0;
  unsigned Shift = 0;
  while (true) {
    if (Offset >= Data.size())
      return false;
    // 64 bits hold at most ten 7-bit groups.
    if (Shift >= 64)
      return false;
    uint8_t Byte = Data[Offset++];
    // The tenth byte only has room for the top bit of a 64-bit value; any
    // other payload bit (or a continuation into an eleventh byte) would be
    // silently dropped by the shift, so such over-long encodings are
    // rejected rather than mis-decoded. Non-canonical but lossless padded
    // encodings (e.g. 0x80 0x00) stay accepted: DWARF producers emit them.
    if (Shift == 63 && Byte > 1)
      return false;
    Value |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
    Shift += 7;
  }
}

bool decodeSLEB128(const std::vector<uint8_t> &Data, size_t &Offset,
                   int64_t &Value) {
  uint64_t Raw = 0;
  unsigned Shift = 0;
  uint8_t Byte = 0;
  while (true) {
    if (Offset >= Data.size())
      return false;
    if (Shift >= 64)
      return false;
    Byte = Data[Offset++];
    // In the tenth byte only bit 0 reaches the 64-bit result; the remaining
    // payload bits must restate the sign extension exactly (0x00 for
    // non-negative, 0x7f for negative), otherwise information would be lost.
    if (Shift == 63 && Byte != 0x00 && Byte != 0x7f)
      return false;
    Raw |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    Shift += 7;
    if (!(Byte & 0x80))
      break;
  }
  // Sign-extend if the sign bit of the last group is set.
  if (Shift < 64 && (Byte & 0x40))
    Raw |= ~uint64_t(0) << Shift;
  Value = static_cast<int64_t>(Raw);
  return true;
}

size_t encodedULEB128Size(uint64_t Value) {
  size_t Size = 0;
  do {
    Value >>= 7;
    ++Size;
  } while (Value != 0);
  return Size;
}

size_t encodedSLEB128Size(int64_t Value) {
  size_t Size = 0;
  bool More = true;
  while (More) {
    uint8_t Byte = Value & 0x7f;
    Value >>= 7;
    if ((Value == 0 && !(Byte & 0x40)) || (Value == -1 && (Byte & 0x40)))
      More = false;
    ++Size;
  }
  return Size;
}

} // namespace snowwhite
