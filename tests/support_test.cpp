//===- tests/support_test.cpp - Support library unit tests -----------------===//

#include "support/bytes.h"
#include "support/hash.h"
#include "support/leb128.h"
#include "support/rng.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace snowwhite {
namespace {

// --- LEB128 -----------------------------------------------------------------

class ULeb128Roundtrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ULeb128Roundtrip, EncodesAndDecodes) {
  uint64_t Value = GetParam();
  std::vector<uint8_t> Buffer;
  encodeULEB128(Value, Buffer);
  EXPECT_EQ(Buffer.size(), encodedULEB128Size(Value));
  size_t Offset = 0;
  uint64_t Decoded = 0;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Decoded));
  EXPECT_EQ(Decoded, Value);
  EXPECT_EQ(Offset, Buffer.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, ULeb128Roundtrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 300ULL, 16383ULL,
                      16384ULL, 65535ULL, 65536ULL, 1ULL << 32,
                      (1ULL << 56) + 12345, UINT64_MAX));

class SLeb128Roundtrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SLeb128Roundtrip, EncodesAndDecodes) {
  int64_t Value = GetParam();
  std::vector<uint8_t> Buffer;
  encodeSLEB128(Value, Buffer);
  EXPECT_EQ(Buffer.size(), encodedSLEB128Size(Value));
  size_t Offset = 0;
  int64_t Decoded = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, Decoded));
  EXPECT_EQ(Decoded, Value);
  EXPECT_EQ(Offset, Buffer.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, SLeb128Roundtrip,
    ::testing::Values(0LL, 1LL, -1LL, 63LL, 64LL, -64LL, -65LL, 127LL, 128LL,
                      -128LL, 8191LL, -8192LL, INT32_MAX, INT32_MIN, INT64_MAX,
                      INT64_MIN));

TEST(Leb128, SingleByteBoundary) {
  std::vector<uint8_t> Buffer;
  encodeULEB128(127, Buffer);
  EXPECT_EQ(Buffer.size(), 1u);
  Buffer.clear();
  encodeULEB128(128, Buffer);
  EXPECT_EQ(Buffer.size(), 2u);
}

TEST(Leb128, DecodeTruncatedFails) {
  std::vector<uint8_t> Buffer = {0x80}; // Continuation bit, nothing follows.
  size_t Offset = 0;
  uint64_t Value;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
}

TEST(Leb128, DecodeEmptyFails) {
  std::vector<uint8_t> Buffer;
  size_t Offset = 0;
  uint64_t UValue;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, UValue));
  int64_t SValue;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));
}

TEST(Leb128, DecodeOverlongFails) {
  // Eleven continuation bytes exceed the 64-bit range.
  std::vector<uint8_t> Buffer(11, 0x80);
  Buffer.push_back(0x01);
  size_t Offset = 0;
  uint64_t Value;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
}

// Property: encode/decode round-trips exactly, for boundary values and a
// random sweep of the full 64-bit range.
TEST(Leb128, PropertyRoundtripBoundaries) {
  const uint64_t UValues[] = {0,
                              1,
                              0x7f,
                              0x80,
                              uint64_t(INT32_MAX),
                              uint64_t(INT32_MAX) + 1,
                              uint64_t(UINT32_MAX),
                              uint64_t(INT64_MAX),
                              uint64_t(INT64_MAX) + 1,
                              UINT64_MAX};
  for (uint64_t Value : UValues) {
    std::vector<uint8_t> Buffer;
    encodeULEB128(Value, Buffer);
    size_t Offset = 0;
    uint64_t Decoded = 0;
    ASSERT_TRUE(decodeULEB128(Buffer, Offset, Decoded)) << Value;
    EXPECT_EQ(Decoded, Value);
    EXPECT_EQ(Offset, Buffer.size());
  }
  const int64_t SValues[] = {0,         1,         -1,        INT32_MAX,
                             INT32_MIN, int64_t(INT32_MAX) + 1,
                             int64_t(INT32_MIN) - 1,          INT64_MAX,
                             INT64_MIN, INT64_MIN + 1};
  for (int64_t Value : SValues) {
    std::vector<uint8_t> Buffer;
    encodeSLEB128(Value, Buffer);
    size_t Offset = 0;
    int64_t Decoded = 0;
    ASSERT_TRUE(decodeSLEB128(Buffer, Offset, Decoded)) << Value;
    EXPECT_EQ(Decoded, Value);
    EXPECT_EQ(Offset, Buffer.size());
  }
}

TEST(Leb128, PropertyRoundtripRandom) {
  Rng R(20260805);
  for (int I = 0; I < 5000; ++I) {
    // Mix full-range and small-magnitude values so every encoded length is
    // exercised.
    uint64_t Raw = R.next() >> (R.next() % 64);
    std::vector<uint8_t> Buffer;
    encodeULEB128(Raw, Buffer);
    size_t Offset = 0;
    uint64_t UDecoded = 0;
    ASSERT_TRUE(decodeULEB128(Buffer, Offset, UDecoded));
    EXPECT_EQ(UDecoded, Raw);
    EXPECT_EQ(Offset, Buffer.size());

    int64_t Signed = static_cast<int64_t>(Raw);
    if (R.next() & 1)
      Signed = -Signed;
    Buffer.clear();
    encodeSLEB128(Signed, Buffer);
    Offset = 0;
    int64_t SDecoded = 0;
    ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SDecoded));
    EXPECT_EQ(SDecoded, Signed);
    EXPECT_EQ(Offset, Buffer.size());
  }
}

TEST(Leb128, MaxShiftEncodings) {
  // UINT64_MAX is the largest 10-byte ULEB: nine 0xff groups and a final 0x01.
  std::vector<uint8_t> Buffer(9, 0xff);
  Buffer.push_back(0x01);
  size_t Offset = 0;
  uint64_t Value = 0;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Value));
  EXPECT_EQ(Value, UINT64_MAX);

  // INT64_MIN: nine 0x80 groups and a final sign-only 0x7f.
  Buffer.assign(9, 0x80);
  Buffer.push_back(0x7f);
  Offset = 0;
  int64_t SValue = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SValue));
  EXPECT_EQ(SValue, INT64_MIN);
}

TEST(Leb128, RejectsOverlongTenthByte) {
  // A tenth ULEB byte with any payload beyond bit 0 would shift data past
  // bit 63; previously those bits were silently dropped.
  std::vector<uint8_t> Buffer(9, 0x80);
  Buffer.push_back(0x02);
  size_t Offset = 0;
  uint64_t Value = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));

  Buffer.assign(9, 0xff);
  Buffer.push_back(0x7f); // Bits 64..69 claimed set: out of range.
  Offset = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));

  // A tenth SLEB byte must restate the sign extension exactly (0x00/0x7f).
  Buffer.assign(9, 0x80);
  Buffer.push_back(0x01);
  Offset = 0;
  int64_t SValue = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));

  Buffer.assign(9, 0x80);
  Buffer.push_back(0x3f);
  Offset = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));

  // Continuation out of the tenth byte (an eleventh group) is also rejected.
  Buffer.assign(10, 0x80);
  Buffer.push_back(0x00);
  Offset = 0;
  EXPECT_FALSE(decodeULEB128(Buffer, Offset, Value));
  Offset = 0;
  EXPECT_FALSE(decodeSLEB128(Buffer, Offset, SValue));
}

TEST(Leb128, AcceptsNonCanonicalPadding) {
  // DWARF producers pad with continuation bytes; short padded forms are
  // lossless and stay accepted.
  std::vector<uint8_t> Buffer = {0x80, 0x00};
  size_t Offset = 0;
  uint64_t Value = 1;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, Value));
  EXPECT_EQ(Value, 0u);
  EXPECT_EQ(Offset, 2u);

  Buffer = {0xff, 0x7f}; // Padded -1.
  Offset = 0;
  int64_t SValue = 0;
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, SValue));
  EXPECT_EQ(SValue, -1);
}

TEST(Leb128, SequentialDecodes) {
  std::vector<uint8_t> Buffer;
  encodeULEB128(5, Buffer);
  encodeULEB128(300, Buffer);
  encodeSLEB128(-42, Buffer);
  size_t Offset = 0;
  uint64_t A, B;
  int64_t C;
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, A));
  ASSERT_TRUE(decodeULEB128(Buffer, Offset, B));
  ASSERT_TRUE(decodeSLEB128(Buffer, Offset, C));
  EXPECT_EQ(A, 5u);
  EXPECT_EQ(B, 300u);
  EXPECT_EQ(C, -42);
  EXPECT_EQ(Offset, Buffer.size());
}

// --- Byte codec ----------------------------------------------------------------

TEST(Bytes, FieldsAreLittleEndianAndRoundTrip) {
  std::vector<uint8_t> Out;
  bytes::Writer W(Out);
  W.u8(0xab);
  W.u32(0x01020304u);
  W.u64(0x1122334455667788ull);
  W.f64(-2.5);
  W.f32AsU64(1.0f);
  W.floats({0.5f, -0.0f});
  W.string("hi");
  Out.insert(Out.end(), {7, 8});
  std::vector<uint8_t> Expected = {
      0xab, 0x04, 0x03, 0x02, 0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22,
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0, 0x00, 0x00, 0x80,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00,
      0x80, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'h',  'i',  7,
      8};
  EXPECT_EQ(Out, Expected);

  bytes::Reader R(Out);
  uint8_t A = 0;
  uint32_t B = 0;
  uint64_t C = 0;
  double D = 0;
  float E = 0;
  std::vector<float> F(2);
  std::string G;
  std::span<const uint8_t> H;
  ASSERT_TRUE(R.u8(A) && R.u32(B) && R.u64(C) && R.f64(D) && R.f32AsU64(E) &&
              R.floats(F) && R.string(G, 2) && R.raw(2, H));
  EXPECT_EQ(A, 0xab);
  EXPECT_EQ(B, 0x01020304u);
  EXPECT_EQ(C, 0x1122334455667788ull);
  EXPECT_EQ(D, -2.5);
  EXPECT_EQ(E, 1.0f);
  EXPECT_EQ(F[0], 0.5f);
  EXPECT_TRUE(std::signbit(F[1]));
  EXPECT_EQ(G, "hi");
  EXPECT_EQ(std::vector<uint8_t>(H.begin(), H.end()),
            (std::vector<uint8_t>{7, 8}));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_EQ(R.position(), Out.size());
}

TEST(Bytes, ShortReadsFailWithoutConsuming) {
  std::vector<uint8_t> Seven(7, 0xff);
  bytes::Reader R(Seven);
  uint64_t Wide = 42;
  EXPECT_FALSE(R.u64(Wide));
  EXPECT_EQ(Wide, 42u);
  EXPECT_EQ(R.remaining(), 7u);
  std::vector<float> Two(2, 3.0f);
  EXPECT_FALSE(R.floats(Two));
  EXPECT_EQ(Two[0], 3.0f);
  std::span<const uint8_t> Span;
  EXPECT_FALSE(R.raw(8, Span));
  EXPECT_FALSE(R.raw(UINT64_MAX, Span));
  uint32_t Narrow = 0;
  EXPECT_TRUE(R.u32(Narrow));
  EXPECT_EQ(Narrow, 0xffffffffu);
  EXPECT_FALSE(R.u32(Narrow));
  EXPECT_EQ(R.remaining(), 3u);
  EXPECT_FALSE(R.atEnd());

  // A reader started past the end holds nothing rather than underflowing.
  bytes::Reader Past(Seven, 100);
  EXPECT_TRUE(Past.atEnd());
  EXPECT_EQ(Past.remaining(), 0u);
}

TEST(Bytes, CappedStringReadTellsShortFromOverCap) {
  auto Framed = [](uint64_t Length, size_t BodyBytes) {
    std::vector<uint8_t> Out;
    bytes::Writer(Out).u64(Length);
    Out.resize(Out.size() + BodyBytes, 'x');
    return Out;
  };
  std::string Text = "untouched";

  // Fewer than eight bytes: the length field itself is short.
  std::vector<uint8_t> Stub = {3, 0, 0};
  bytes::Reader Short(Stub);
  bytes::StringRead Read = Short.string(Text, 16);
  EXPECT_FALSE(Read);
  EXPECT_EQ(Read.Status, bytes::StringStatus::ShortLength);
  EXPECT_EQ(Short.remaining(), 3u);

  // A length past the cap is OverCap even when the bytes are all there, and
  // the offending length is reported.
  std::vector<uint8_t> Long = Framed(5, 5);
  bytes::Reader OverCap(Long);
  Read = OverCap.string(Text, 4);
  EXPECT_EQ(Read.Status, bytes::StringStatus::OverCap);
  EXPECT_EQ(Read.Length, 5u);
  EXPECT_EQ(OverCap.position(), 0u);

  // A hostile length is OverCap, not an allocation.
  std::vector<uint8_t> Huge = Framed(UINT64_MAX, 0);
  Read = bytes::Reader(Huge).string(Text, 1u << 20);
  EXPECT_EQ(Read.Status, bytes::StringStatus::OverCap);

  // Under the cap but past the buffer: the body is short.
  std::vector<uint8_t> Torn = Framed(5, 4);
  bytes::Reader ShortBody(Torn);
  Read = ShortBody.string(Text, 16);
  EXPECT_EQ(Read.Status, bytes::StringStatus::ShortBody);
  EXPECT_EQ(Read.Length, 5u);
  EXPECT_EQ(ShortBody.position(), 0u);
  EXPECT_EQ(Text, "untouched");

  // Exactly at the cap is fine.
  Read = bytes::Reader(Long).string(Text, 5);
  EXPECT_TRUE(Read);
  EXPECT_EQ(Text, "xxxxx");
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng A(99), B(99);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Matches = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Matches;
  EXPECT_LT(Matches, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng R(7);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    int64_t Value = R.nextInRange(-3, 3);
    EXPECT_GE(Value, -3);
    EXPECT_LE(Value, 3);
    Seen.insert(Value);
  }
  EXPECT_EQ(Seen.size(), 7u); // All values realized.
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(11);
  double Sum = 0.0;
  for (int I = 0; I < 10000; ++I) {
    double Value = R.nextDouble();
    ASSERT_GE(Value, 0.0);
    ASSERT_LT(Value, 1.0);
    Sum += Value;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng R(13);
  double Sum = 0.0, SumSquares = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double Value = R.nextGaussian();
    Sum += Value;
    SumSquares += Value * Value;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSquares / N, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng R(17);
  std::vector<double> Weights = {0.0, 1.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 10000; ++I)
    ++Counts[R.nextWeighted(Weights)];
  EXPECT_EQ(Counts[0], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[1], 3.0, 0.4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng R(23);
  std::vector<int> Items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = Items;
  R.shuffle(Items);
  std::sort(Items.begin(), Items.end());
  EXPECT_EQ(Items, Original);
}

TEST(Rng, ForkIndependent) {
  Rng A(5);
  Rng B = A.fork();
  // The fork and parent produce different streams.
  EXPECT_NE(A.next(), B.next());
}

// --- Hashing ------------------------------------------------------------------

TEST(Hash, StableKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(hashBytes(nullptr, 0), 0xcbf29ce484222325ULL);
}

TEST(Hash, DiffersOnContent) {
  EXPECT_NE(hashString("hello"), hashString("hellp"));
  EXPECT_NE(hashString("ab"), hashString("ba"));
}

TEST(Hash, CombineOrderSensitive) {
  uint64_t A = hashCombine(hashCombine(1, 2), 3);
  uint64_t B = hashCombine(hashCombine(1, 3), 2);
  EXPECT_NE(A, B);
}

TEST(Hash, HexFormat) {
  EXPECT_EQ(hashToHex(0), "0000000000000000");
  EXPECT_EQ(hashToHex(0xdeadbeefULL), "00000000deadbeef");
}

// Regression (issue 6): a 64-bit hash match alone must never classify a
// *different* key as a duplicate. Before the collision-safe dedup, the
// pipeline kept bare uint64 sets, so the forced collision below would have
// been reported as Duplicate and the second module silently dropped.
TEST(Hash, SignatureSetDetectsForcedCollision) {
  SignatureSet Set;
  EXPECT_EQ(Set.insert(42, "module-a"), SignatureSet::Insert::New);
  EXPECT_EQ(Set.insert(42, "module-b"), SignatureSet::Insert::Collision);
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.collisions(), 1u);
  // Both colliding keys are retained as distinct members.
  EXPECT_TRUE(Set.contains(42, "module-a"));
  EXPECT_TRUE(Set.contains(42, "module-b"));
  // Only a byte-identical key is a duplicate.
  EXPECT_EQ(Set.insert(42, "module-a"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.insert(42, "module-b"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.size(), 2u);
}

TEST(Hash, SignatureSetBasics) {
  SignatureSet Set;
  EXPECT_FALSE(Set.contains(7, "x"));
  EXPECT_EQ(Set.insert(7, "x"), SignatureSet::Insert::New);
  EXPECT_EQ(Set.insert(8, "x"), SignatureSet::Insert::New); // Same key, new
                                                            // hash: distinct.
  EXPECT_EQ(Set.insert(7, "x"), SignatureSet::Insert::Duplicate);
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.collisions(), 0u);
}

// --- Strings -------------------------------------------------------------------

TEST(Str, SplitKeepsEmptyFields) {
  std::vector<std::string> Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[1], "");
}

TEST(Str, SplitWhitespaceDropsEmpty) {
  std::vector<std::string> Parts = splitWhitespace("  foo\t bar\nbaz  ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "foo");
  EXPECT_EQ(Parts[2], "baz");
}

TEST(Str, JoinRoundtrip) {
  std::vector<std::string> Parts = {"pointer", "const", "struct"};
  EXPECT_EQ(joinStrings(Parts, " "), "pointer const struct");
  EXPECT_EQ(splitWhitespace(joinStrings(Parts, " ")), Parts);
}

TEST(Str, Trim) {
  EXPECT_EQ(trimString("  x  "), "x");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(Str, FormatPercent) {
  EXPECT_EQ(formatPercent(0.445, 1), "44.5%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

TEST(Str, FormatWithCommas) {
  EXPECT_EQ(formatWithCommas(0), "0");
  EXPECT_EQ(formatWithCommas(999), "999");
  EXPECT_EQ(formatWithCommas(1000), "1,000");
  EXPECT_EQ(formatWithCommas(1307617), "1,307,617");
}

TEST(Str, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

} // namespace
} // namespace snowwhite
