//===- support/leb128.h - LEB128 variable-length integer coding ----------===//
//
// WebAssembly and DWARF both encode integers as LEB128. This header provides
// append-style encoders into a byte vector (or a byte string, for keys built
// in memory) and cursor-style decoders.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_SUPPORT_LEB128_H
#define SNOWWHITE_SUPPORT_LEB128_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {

/// Appends the unsigned LEB128 encoding of Value to Out.
void encodeULEB128(uint64_t Value, std::vector<uint8_t> &Out);

/// Appends the unsigned LEB128 encoding of Value to Out, one char per byte.
void encodeULEB128(uint64_t Value, std::string &Out);

/// Appends the signed LEB128 encoding of Value to Out.
void encodeSLEB128(int64_t Value, std::vector<uint8_t> &Out);

/// Decodes an unsigned LEB128 integer starting at Data[Offset]. On success
/// advances Offset past the encoding and returns true; on malformed or
/// truncated input returns false and leaves Offset unspecified.
bool decodeULEB128(const std::vector<uint8_t> &Data, size_t &Offset,
                   uint64_t &Value);

/// Decodes a signed LEB128 integer starting at Data[Offset]. Mirrors
/// decodeULEB128.
bool decodeSLEB128(const std::vector<uint8_t> &Data, size_t &Offset,
                   int64_t &Value);

/// Returns the number of bytes encodeULEB128(Value) would append.
size_t encodedULEB128Size(uint64_t Value);

/// Returns the number of bytes encodeSLEB128(Value) would append.
size_t encodedSLEB128Size(int64_t Value);

} // namespace snowwhite

#endif // SNOWWHITE_SUPPORT_LEB128_H
